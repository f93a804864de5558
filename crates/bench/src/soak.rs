//! Long-horizon soak harness for the durable serving runtime.
//!
//! A soak run serves many **epochs** of scenario-diverse session fleets
//! back-to-back on one [`ServeRuntime`], accumulating on the order of 10⁶
//! served frames of virtual time at the standard profile, and watches for
//! the three ways a long-lived deployment rots:
//!
//! * **allocator creep** — the steady-state hot path must stay free of
//!   buffer-class allocations, which the companion `soak_alloc`
//!   integration test pins with a counting global allocator;
//! * **plan-state leak** — serving runs through compiled execution plans
//!   by default, and the batch span layouts a load can produce are finite:
//!   the cached-plan count and the shared plan arena's length
//!   ([`ServeRuntime::vit_plan_stats`]) must plateau by mid-soak rather
//!   than accrete a plan (or regrow the arena) every epoch;
//! * **state leak** — the first and last epochs are *sentinels* served
//!   from the same seed; any state smuggled across epochs (RNG, caches,
//!   reused buffers) breaks their bit-identity;
//! * **accuracy drift** — per-epoch mean gaze error is recorded so a slow
//!   numeric drift shows up in the report even when each epoch looks fine
//!   in isolation.
//!
//! Steady-state latencies of every epoch are kept in one `Vec` (8 bytes a
//! frame, ~8 MB at the 10⁶-frame profile) and summarised at the end by
//! [`LatencyStats::from_latencies_s`] plus their exact mean, the summary
//! every other report uses. Epochs are served with a
//! [`ServeConfig::warmup_s`] window covering the admission ramp, so the
//! summary sees steady-state frames only (the per-epoch all-frames stats
//! still include the ramp).

use bliss_serve::{LatencyStats, ServeConfig, ServeOutcome, ServeRuntime};
use bliss_tensor::TensorError;
use serde::{Deserialize, Serialize};

/// Shape of one soak run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SoakConfig {
    /// Concurrent sessions per epoch.
    pub sessions: usize,
    /// Frames each session submits per epoch.
    pub frames_per_session: usize,
    /// Back-to-back fleet epochs served on the one runtime.
    pub epochs: usize,
    /// Sentinel seed: epochs `0` and `epochs-1` serve from exactly this
    /// seed (their outcomes must be bit-identical); middle epochs rotate a
    /// derived seed so the soak explores many session populations.
    pub seed: u64,
}

impl SoakConfig {
    /// The long-horizon profile: 8 sessions × 250 frames × 500 epochs =
    /// 10⁶ served frames (~2.3 h of 120 FPS virtual time).
    pub fn standard() -> Self {
        SoakConfig {
            sessions: 8,
            frames_per_session: 250,
            epochs: 500,
            seed: 0x50AC,
        }
    }

    /// The CI smoke profile: same structure, minutes-scale horizon.
    pub fn smoke() -> Self {
        SoakConfig {
            sessions: 4,
            frames_per_session: 40,
            epochs: 4,
            seed: 0x50AC,
        }
    }

    /// Total frames the soak serves across every epoch.
    pub fn frames_total(&self) -> usize {
        self.sessions * self.frames_per_session * self.epochs
    }

    /// The serving configuration of epoch `epoch`: sentinel epochs (first
    /// and last) reuse [`SoakConfig::seed`] verbatim, middle epochs rotate,
    /// and every epoch excludes its admission ramp plus two frame periods
    /// as warmup so the soak's latency summary sees steady-state frames
    /// only.
    pub fn serve_config(&self, epoch: usize) -> ServeConfig {
        let mut cfg = ServeConfig::new(self.sessions, self.frames_per_session);
        cfg.seed = if epoch == 0 || epoch + 1 == self.epochs {
            self.seed
        } else {
            self.seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        cfg.warmup_s = cfg.stagger_s * self.sessions as f64 + 2.0 * cfg.stagger_s;
        cfg
    }
}

/// Health counters of one soak epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Frames served this epoch.
    pub frames: usize,
    /// Mean absolute horizontal gaze error over the epoch, degrees.
    pub mean_horizontal_error_deg: f32,
    /// Mean absolute vertical gaze error over the epoch, degrees.
    pub mean_vertical_error_deg: f32,
    /// Deadline-miss rate over the epoch's steady-state frames.
    pub steady_miss_rate: f64,
    /// Virtual span of the epoch (first arrival to last completion), s.
    pub span_s: f64,
    /// Compiled ViT execution plans cached after the epoch (0 when the
    /// runtime is forced onto the tape path). Span layouts are finite, so
    /// this count must plateau — a cache still growing late in the soak is
    /// a plan-state leak.
    pub vit_plans: usize,
    /// Length of the one arena those plans share, in `f32` elements (the
    /// largest plan's working set so far) — the plan-memory curve that must
    /// go flat.
    pub vit_arena_elems: usize,
    /// **Cumulative** plan-cache misses (compilations) since the runtime
    /// was created, read after the epoch. The per-epoch delta is this
    /// minus the previous epoch's reading; the final (repeat-seed
    /// sentinel) epoch's delta must be **zero** — every span layout it
    /// produces was compiled when epoch 0 served the same seed.
    pub vit_plan_misses: u64,
}

/// The `BENCH_soak.json` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakReport {
    /// The soak shape that produced this report.
    pub config: SoakConfig,
    /// Frames actually served (equals [`SoakConfig::frames_total`]).
    pub frames_total: usize,
    /// Cumulative virtual time served, summed over epoch spans, seconds.
    /// Epochs are independent fleets, so this is session time covered, not
    /// one contiguous wall of virtual time.
    pub virtual_s_total: f64,
    /// Steady-state frames in the latency summary.
    pub steady_frames: u64,
    /// Frames excluded by the per-epoch warmup windows.
    pub warmup_excluded: usize,
    /// Nearest-rank percentiles over every steady-state frame of every
    /// epoch.
    pub latency: LatencyStats,
    /// Mean steady-state latency, milliseconds.
    pub mean_latency_ms: f64,
    /// Deadline-miss rate over all steady-state frames.
    pub steady_miss_rate: f64,
    /// Whether the first and last (same-seed sentinel) epochs produced
    /// bit-identical outcomes — the no-state-leak check.
    pub sentinel_identical: bool,
    /// Highest cached ViT plan count across epochs.
    pub plan_high_water: usize,
    /// Highest shared plan-arena length across epochs, in elements (the
    /// last epoch's: the arena never shrinks).
    pub arena_high_water_elems: usize,
    /// Whether the final (same-seed sentinel) epoch compiled **zero** new
    /// plans: seed-rotating middle epochs legitimately keep introducing
    /// novel span layouts (the bounded cache absorbs them), so the leak
    /// check is that *repeat* load compiles nothing — a plan cache keyed
    /// on anything run-specific, or one that forgot its warm layouts,
    /// would grow here. (The arena length is reported but not gated: a
    /// rotated middle epoch may legitimately bring the largest layout.)
    pub plans_flat_after_warmup: bool,
    /// Per-epoch health counters.
    pub per_epoch: Vec<EpochStats>,
}

/// Mean absolute gaze errors of one outcome, weighted across sessions.
fn mean_errors(outcome: &ServeOutcome) -> (f32, f32) {
    let (mut eh, mut ev, mut n) = (0.0f64, 0.0f64, 0usize);
    for trace in &outcome.traces {
        for r in &trace.records {
            eh += f64::from(r.horizontal_error_deg);
            ev += f64::from(r.vertical_error_deg);
        }
        n += trace.records.len();
    }
    let n = n.max(1) as f64;
    ((eh / n) as f32, (ev / n) as f32)
}

/// Runs a full soak on `runtime`.
///
/// Serve epoch after epoch, collect steady-state latencies, and record the
/// per-epoch health counters described on [`SoakReport`].
///
/// # Errors
///
/// Propagates tensor errors from inference.
pub fn run_soak(runtime: &ServeRuntime, cfg: &SoakConfig) -> Result<SoakReport, TensorError> {
    let mut steady_latencies_s = Vec::new();
    let mut per_epoch = Vec::with_capacity(cfg.epochs);
    let mut frames_total = 0usize;
    let mut virtual_s_total = 0.0f64;
    let mut warmup_excluded = 0usize;
    let mut steady_misses = 0u64;
    let mut first_sentinel: Option<ServeOutcome> = None;
    let mut sentinel_identical = true;

    for epoch in 0..cfg.epochs {
        let serve_cfg = cfg.serve_config(epoch);
        let outcome = runtime.serve(&serve_cfg)?;

        for trace in &outcome.traces {
            for r in &trace.records {
                if r.arrival_s >= serve_cfg.warmup_s {
                    steady_latencies_s.push(r.latency_s);
                    steady_misses += u64::from(r.deadline_missed);
                }
            }
        }
        let report = &outcome.report;
        frames_total += report.frames_total;
        virtual_s_total += report.span_s;
        warmup_excluded += report.steady.excluded;
        let (eh, ev) = mean_errors(&outcome);
        let plan_stats = runtime.vit_plan_stats();
        per_epoch.push(EpochStats {
            epoch,
            frames: report.frames_total,
            mean_horizontal_error_deg: eh,
            mean_vertical_error_deg: ev,
            steady_miss_rate: report.steady.deadline_miss_rate,
            span_s: report.span_s,
            vit_plans: plan_stats.plans,
            vit_arena_elems: plan_stats.arena_elems,
            vit_plan_misses: plan_stats.misses,
        });

        if epoch == 0 {
            first_sentinel = Some(outcome);
        } else if epoch + 1 == cfg.epochs {
            // Same seed as epoch 0: any divergence means state leaked
            // across epochs through the supposedly stateless runtime.
            sentinel_identical = first_sentinel
                .as_ref()
                .is_some_and(|first| *first == outcome);
        }
    }

    let plan_high_water = per_epoch.iter().map(|e| e.vit_plans).max().unwrap_or(0);
    let arena_high_water_elems = per_epoch
        .iter()
        .map(|e| e.vit_arena_elems)
        .max()
        .unwrap_or(0);
    // The plan-cache leak check: rotated middle epochs are *allowed* to
    // keep compiling (novel layouts, bounded by the cache), but the final
    // epoch replays the first epoch's seed, so every one of its layouts
    // was compiled before — it must not add a single plan. Judged on the
    // occupancy count alone: the shared arena only grows when a larger
    // layout arrives, which the rotated middle epochs may bring.
    let plans_flat_after_warmup = match per_epoch.as_slice() {
        [.., prev, last] => last.vit_plans == prev.vit_plans,
        _ => true, // a 1-epoch soak has no repeat load to judge
    };

    let steady = steady_latencies_s.len();
    Ok(SoakReport {
        config: *cfg,
        frames_total,
        virtual_s_total,
        steady_frames: steady as u64,
        warmup_excluded,
        latency: LatencyStats::from_latencies_s(&steady_latencies_s),
        mean_latency_ms: steady_latencies_s.iter().sum::<f64>() / steady.max(1) as f64 * 1e3,
        steady_miss_rate: steady_misses as f64 / steady.max(1) as f64,
        sentinel_identical,
        plan_high_water,
        arena_high_water_elems,
        plans_flat_after_warmup,
        per_epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bliss_track::{RoiPredictionNet, SparseViT};
    use blisscam_core::SystemConfig;
    use rand::{rngs::StdRng, SeedableRng};

    /// A smoke-scale soak: sentinel epochs bit-identical, plans flat,
    /// latency summary fed exactly the steady frames.
    #[test]
    fn smoke_soak_is_healthy() {
        let mut system = SystemConfig::miniature();
        system.vit.dim = 12;
        system.vit.enc_depth = 1;
        system.vit.dec_depth = 1;
        system.roi_net.hidden = 16;
        let mut rng = StdRng::seed_from_u64(11);
        let runtime = ServeRuntime::with_networks(
            system,
            SparseViT::new(&mut rng, system.vit),
            RoiPredictionNet::new(&mut rng, system.roi_net),
        );
        let cfg = SoakConfig {
            sessions: 3,
            frames_per_session: 10,
            epochs: 3,
            seed: 9,
        };
        let report = run_soak(&runtime, &cfg).expect("soak succeeds");
        assert_eq!(report.frames_total, cfg.frames_total());
        assert_eq!(report.per_epoch.len(), 3);
        assert!(
            report.sentinel_identical,
            "same-seed sentinel epochs diverged"
        );
        // The planned path ran and its plan state went flat: every span
        // layout this load produces was compiled by mid-soak.
        assert!(report.plan_high_water > 0, "planned path never compiled");
        assert!(report.arena_high_water_elems > 0);
        assert!(report.plans_flat_after_warmup, "plan cache kept growing");
        // Repeat-seed sentinel: the last epoch replays epoch 0's layouts,
        // so it must not record a single plan-cache miss.
        let [.., prev, last] = report.per_epoch.as_slice() else {
            panic!("smoke soak has at least two epochs");
        };
        assert_eq!(
            last.vit_plan_misses, prev.vit_plan_misses,
            "repeat-seed sentinel epoch recorded plan-cache misses"
        );
        assert!(prev.vit_plan_misses > 0, "planned path never missed at all");
        assert!(report.warmup_excluded > 0, "warmup window excluded nothing");
        assert_eq!(
            report.steady_frames as usize + report.warmup_excluded,
            report.frames_total
        );
        assert!(report.latency.p50_ms <= report.latency.max_ms);
        // Middle epochs rotate seeds away from the sentinel's.
        assert_ne!(cfg.serve_config(1).seed, cfg.serve_config(0).seed);
        assert_eq!(cfg.serve_config(2).seed, cfg.serve_config(0).seed);
        let back = SoakReport::from_json(&report.to_json()).expect("report round-trips");
        assert_eq!(back, report);
    }
}
