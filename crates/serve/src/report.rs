use crate::runtime::ServeConfig;
use crate::session::SessionTrace;
use serde::{Deserialize, Serialize};

/// Latency percentiles over a set of frames, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Median frame latency.
    pub p50_ms: f64,
    /// 95th-percentile frame latency.
    pub p95_ms: f64,
    /// 99th-percentile frame latency.
    pub p99_ms: f64,
    /// Worst frame latency.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Nearest-rank percentiles of `latencies` (seconds in, ms out).
    pub fn from_latencies_s(latencies: &[f64]) -> Self {
        if latencies.is_empty() {
            return LatencyStats {
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
            };
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pick = |q: f64| {
            let idx = (q * (sorted.len() as f64 - 1.0)).round() as usize;
            sorted[idx.min(sorted.len() - 1)] * 1e3
        };
        LatencyStats {
            p50_ms: pick(0.50),
            p95_ms: pick(0.95),
            p99_ms: pick(0.99),
            max_ms: sorted[sorted.len() - 1] * 1e3,
        }
    }
}

/// Aggregate statistics of one session's trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Session id.
    pub id: usize,
    /// Scenario label (e.g. `"saccade-heavy"`).
    pub scenario: String,
    /// Frames served.
    pub frames: usize,
    /// Mean absolute horizontal gaze error in degrees.
    pub mean_horizontal_error_deg: f32,
    /// Mean absolute vertical gaze error in degrees.
    pub mean_vertical_error_deg: f32,
    /// Latency percentiles for this session's frames.
    pub latency: LatencyStats,
    /// Fraction of frames past their deadline.
    pub deadline_miss_rate: f64,
    /// Mean per-frame energy in microjoules.
    pub mean_energy_uj: f64,
    /// Mean occupied-token count per frame.
    pub mean_tokens: f64,
}

/// Warm/cold split statistics: the same recorded frame latencies with the
/// warmup window **excluded** from the steady side, never recomputed.
///
/// Cold-start convoys dominate a run's head; the steady view answers "what
/// does a long-lived deployment look like" without touching the all-frames
/// statistics the load sweeps have always reported. A frame is **warm**
/// (steady) iff its exposure started at or after
/// [`crate::ServeConfig::warmup_s`]; every other frame is the **cold**
/// side, reported separately rather than discarded. Recorded latencies are
/// used verbatim on both sides, so with a zero window the warm numbers
/// match the all-frames numbers exactly and the cold side is empty.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SteadyStats {
    /// Frames that survived the exclusion windows (the warm side).
    pub frames: usize,
    /// Frames excluded as warmup (the cold side).
    pub excluded: usize,
    /// Latency percentiles over the warm frames only.
    pub latency: LatencyStats,
    /// Deadline-miss rate over the warm frames only.
    pub deadline_miss_rate: f64,
    /// Latency percentiles over the excluded (cold) frames — zeros when
    /// nothing was excluded.
    pub cold_latency: LatencyStats,
    /// Deadline-miss rate over the excluded (cold) frames.
    pub cold_deadline_miss_rate: f64,
}

/// Aggregate results of one serving run — the `BENCH_serve.json` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Concurrent sessions served.
    pub sessions: usize,
    /// Total frames served across sessions.
    pub frames_total: usize,
    /// Batch-size cap of the run.
    pub max_batch: usize,
    /// Deadline used for miss accounting, in milliseconds.
    pub deadline_ms: f64,
    /// Latency percentiles across every frame of every session.
    pub latency: LatencyStats,
    /// Fraction of frames past their deadline.
    pub deadline_miss_rate: f64,
    /// Served frames per virtual second (first arrival to last completion).
    pub throughput_fps: f64,
    /// Mean frames fused per host launch.
    pub mean_batch_size: f64,
    /// Mean per-frame energy in microjoules.
    pub mean_energy_uj: f64,
    /// Virtual span of the run (first arrival to last completion), seconds.
    pub span_s: f64,
    /// Total virtual time the host NPU spent executing launches, seconds.
    pub host_busy_s: f64,
    /// Host NPU duty cycle over the span (`host_busy_s / span_s`); the
    /// fleet layer reports this per shard.
    pub utilisation: f64,
    /// Post-warmup statistics (all frames when
    /// [`crate::ServeConfig::warmup_s`] is zero).
    pub steady: SteadyStats,
    /// Per-session breakdowns.
    pub per_session: Vec<SessionSummary>,
}

impl ServeReport {
    /// Aggregates a run's traces; `host_busy_s` is the scheduler-accounted
    /// virtual time the host NPU spent executing launches.
    pub fn from_traces<'a>(
        cfg: &ServeConfig,
        traces: impl IntoIterator<Item = &'a SessionTrace>,
        host_busy_s: f64,
    ) -> Self {
        let mut all_latencies = Vec::new();
        let mut steady_latencies = Vec::new();
        let mut steady_misses = 0usize;
        let mut cold_latencies = Vec::new();
        let mut cold_misses = 0usize;
        let mut misses = 0usize;
        let mut frames_total = 0usize;
        let mut energy_j = 0.0f64;
        let mut inv_batch = 0.0f64;
        let mut first_arrival = f64::INFINITY;
        let mut last_completion = f64::NEG_INFINITY;
        let mut per_session = Vec::new();

        for trace in traces {
            let n = trace.records.len();
            frames_total += n;
            let mut lat = Vec::with_capacity(n);
            let mut miss = 0usize;
            let mut eh = 0.0f32;
            let mut ev = 0.0f32;
            let mut e_j = 0.0f64;
            let mut tokens = 0usize;
            for r in &trace.records {
                lat.push(r.latency_s);
                miss += usize::from(r.deadline_missed);
                // Warmup exclusion: the recorded latency is reused verbatim
                // on whichever side it lands — never recomputed.
                if r.arrival_s >= cfg.warmup_s {
                    steady_latencies.push(r.latency_s);
                    steady_misses += usize::from(r.deadline_missed);
                } else {
                    cold_latencies.push(r.latency_s);
                    cold_misses += usize::from(r.deadline_missed);
                }
                eh += r.horizontal_error_deg;
                ev += r.vertical_error_deg;
                e_j += r.energy_j;
                tokens += r.tokens;
                inv_batch += 1.0 / r.batch_size as f64;
                first_arrival = first_arrival.min(r.arrival_s);
                last_completion = last_completion.max(r.completion_s);
            }
            misses += miss;
            energy_j += e_j;
            all_latencies.extend_from_slice(&lat);
            let nf = n.max(1) as f32;
            per_session.push(SessionSummary {
                id: trace.config.id,
                scenario: trace.config.scenario.label().to_string(),
                frames: n,
                mean_horizontal_error_deg: eh / nf,
                mean_vertical_error_deg: ev / nf,
                latency: LatencyStats::from_latencies_s(&lat),
                deadline_miss_rate: miss as f64 / n.max(1) as f64,
                mean_energy_uj: e_j / n.max(1) as f64 * 1e6,
                mean_tokens: tokens as f64 / n.max(1) as f64,
            });
        }

        let span_s = (last_completion - first_arrival).max(f64::MIN_POSITIVE);
        let utilisation = if frames_total == 0 {
            0.0
        } else {
            (host_busy_s / span_s).clamp(0.0, 1.0)
        };
        ServeReport {
            sessions: per_session.len(),
            frames_total,
            max_batch: cfg.max_batch,
            deadline_ms: cfg.deadline_s * 1e3,
            latency: LatencyStats::from_latencies_s(&all_latencies),
            deadline_miss_rate: misses as f64 / frames_total.max(1) as f64,
            throughput_fps: if frames_total == 0 {
                0.0
            } else {
                frames_total as f64 / span_s
            },
            mean_batch_size: if inv_batch > 0.0 {
                frames_total as f64 / inv_batch
            } else {
                0.0
            },
            mean_energy_uj: energy_j / frames_total.max(1) as f64 * 1e6,
            span_s: if frames_total == 0 { 0.0 } else { span_s },
            host_busy_s,
            utilisation,
            steady: SteadyStats {
                frames: steady_latencies.len(),
                excluded: cold_latencies.len(),
                latency: LatencyStats::from_latencies_s(&steady_latencies),
                deadline_miss_rate: steady_misses as f64 / steady_latencies.len().max(1) as f64,
                cold_latency: LatencyStats::from_latencies_s(&cold_latencies),
                cold_deadline_miss_rate: cold_misses as f64 / cold_latencies.len().max(1) as f64,
            },
            per_session,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_ordered_and_scaled() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        let s = LatencyStats::from_latencies_s(&lat);
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms && s.p99_ms <= s.max_ms);
        assert!((s.p50_ms - 51.0).abs() < 1.5);
        assert_eq!(s.max_ms, 100.0);
    }

    #[test]
    fn empty_latencies_are_zero() {
        let s = LatencyStats::from_latencies_s(&[]);
        assert_eq!(s.max_ms, 0.0);
        assert_eq!(s.p99_ms, 0.0);
    }

    /// A synthetic one-session trace: frame `i` arrives at `i` seconds with
    /// latency `(i+1)` ms, every frame missing its deadline.
    fn synthetic_trace(frames: usize) -> SessionTrace {
        use bliss_eye::{Gaze, Scenario};
        let records = (0..frames)
            .map(|i| crate::FrameRecord {
                index: i,
                arrival_s: i as f64,
                completion_s: i as f64 + (i + 1) as f64 * 1e-3,
                latency_s: (i + 1) as f64 * 1e-3,
                deadline_missed: true,
                batch_size: 1,
                gaze_prediction: Gaze::default(),
                gaze_truth: Gaze::default(),
                horizontal_error_deg: 0.0,
                vertical_error_deg: 0.0,
                sampled_pixels: 0,
                roi_pixels: 0,
                tokens: 0,
                mipi_bytes: 0,
                energy_j: 0.0,
                shed: false,
            })
            .collect();
        SessionTrace {
            config: crate::SessionConfig {
                id: 0,
                scenario: Scenario::SmoothPursuit,
                seed: 1,
                frames,
                start_offset_s: 0.0,
            },
            records,
        }
    }

    #[test]
    fn warmup_s_splits_warm_and_cold_sides() {
        let trace = synthetic_trace(10);
        let mut cfg = ServeConfig::new(1, 10);
        cfg.warmup_s = 5.5; // excludes frames 0..=5 by arrival
        let report = ServeReport::from_traces(&cfg, std::slice::from_ref(&trace), 1.0);
        assert_eq!(report.steady.frames, 4);
        assert_eq!(report.steady.excluded, 6);
        assert_eq!(report.steady.cold_latency.max_ms, 6.0);
        // All-frames stats are untouched by the split.
        assert_eq!(report.frames_total, 10);
        assert_eq!(report.latency.max_ms, 10.0);

        // Zero window: warm side equals all frames, cold side is empty.
        cfg.warmup_s = 0.0;
        let report = ServeReport::from_traces(&cfg, std::slice::from_ref(&trace), 1.0);
        assert_eq!(report.steady.frames, 10);
        assert_eq!(report.steady.excluded, 0);
        assert_eq!(report.steady.latency, report.latency);
        assert_eq!(report.steady.cold_latency.max_ms, 0.0);
    }
}
