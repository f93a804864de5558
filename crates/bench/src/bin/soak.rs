//! Long-horizon durability soak of the `bliss_serve` runtime.
//!
//! Trains one BlissCam model, then serves epoch after epoch of
//! scenario-diverse session fleets on it — 10⁶ frames of session time at
//! the standard profile — summarising every steady-state frame latency
//! and watching the rot modes the
//! [`bliss_bench::soak`] module documents: allocator/pool creep,
//! plan-cache/arena growth on the compiled inference path, cross-run state
//! leaks (same-seed sentinel epochs must stay bit-identical) and accuracy
//! drift.
//!
//! The whole soak runs on a single-thread pool so the scratch-pool
//! readings on the main thread cover the inference work too. Results go
//! to `BENCH_soak.json` at the workspace root (or inside the
//! `BLISS_BENCH_OUT` directory); it is not committed. The soak runs
//! untraced.
//! `--quick` runs the minutes-scale smoke profile the `soak-smoke` CI job
//! uses. The process exits non-zero if a
//! durability check fails, so CI catches regressions without parsing the
//! JSON.

use bliss_bench::soak::{run_soak, SoakConfig};
use bliss_serve::ServeRuntime;
use blisscam_core::SystemConfig;
use std::time::Instant;

fn main() {
    let quick = bliss_bench::flags(&[bliss_bench::Flag::Quick]).quick;
    let cfg = if quick {
        SoakConfig::smoke()
    } else {
        SoakConfig::standard()
    };

    let mut system = SystemConfig::miniature();
    if quick {
        system.train_frames = 30;
        system.vit.dim = 24;
        system.vit.enc_depth = 1;
        system.roi_net.hidden = 32;
    }
    eprintln!("training the shared BlissCam model ...");
    let runtime = ServeRuntime::new(system)
        .expect("training succeeds")
        .with_paper_scale_timing();

    eprintln!(
        "soaking: {} sessions x {} frames x {} epochs = {} frames ...",
        cfg.sessions,
        cfg.frames_per_session,
        cfg.epochs,
        cfg.frames_total()
    );
    let t0 = Instant::now();
    // Single-thread pool: the scratch-pool high-water readings are
    // per-thread, so this makes the main-thread curve cover inference too.
    let report =
        bliss_parallel::with_thread_count(1, || run_soak(&runtime, &cfg)).expect("soak succeeds");
    let wall_s = t0.elapsed().as_secs_f64();

    let mut rows = Vec::new();
    // Print head/tail epochs only; the JSON has them all.
    let shown: Vec<usize> = if report.per_epoch.len() <= 8 {
        (0..report.per_epoch.len()).collect()
    } else {
        let n = report.per_epoch.len();
        (0..4).chain(n - 4..n).collect()
    };
    for &i in &shown {
        let e = &report.per_epoch[i];
        rows.push(vec![
            e.epoch.to_string(),
            e.frames.to_string(),
            format!("{:.3}", e.mean_horizontal_error_deg),
            format!("{:.3}", e.mean_vertical_error_deg),
            format!("{:.1}", e.steady_miss_rate * 100.0),
            format!("{:.0}", e.pool_retained_bytes as f64 / 1024.0),
        ]);
    }
    bliss_bench::print_table(
        "bliss_serve durability soak (per-epoch health, head/tail)",
        &["epoch", "frames", "h err", "v err", "miss %", "pool KiB"],
        &rows,
    );
    println!(
        "{} steady frames over {:.1} virtual s: p50/p95/p99/max {:.2}/{:.2}/{:.2}/{:.2} ms, \
         {:.2}% misses, pool high-water {:.0} KiB ({}), {} plans / {} arena elems ({}), \
         sentinels {}, wall {:.1} s",
        report.steady_frames,
        report.virtual_s_total,
        report.latency.p50_ms,
        report.latency.p95_ms,
        report.latency.p99_ms,
        report.latency.max_ms,
        report.steady_miss_rate * 100.0,
        report.pool_high_water_bytes as f64 / 1024.0,
        if report.pool_flat_after_warmup {
            "flat"
        } else {
            "GROWING"
        },
        report.plan_high_water,
        report.arena_high_water_elems,
        if report.plans_flat_after_warmup {
            "flat"
        } else {
            "GROWING"
        },
        if report.sentinel_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        wall_s,
    );

    bliss_bench::write_report("BENCH_soak.json", &report);

    let mut failed = false;
    if !report.sentinel_identical {
        eprintln!("FAIL: same-seed sentinel epochs diverged — state leaked across epochs");
        failed = true;
    }
    if !report.pool_flat_after_warmup {
        eprintln!("FAIL: scratch-pool retained bytes kept growing past mid-soak");
        failed = true;
    }
    if !report.plans_flat_after_warmup {
        eprintln!("FAIL: the repeat-seed sentinel epoch compiled new plans — plan-cache leak");
        failed = true;
    }
    let first = report
        .per_epoch
        .first()
        .expect("soak ran at least one epoch");
    let last = report
        .per_epoch
        .last()
        .expect("soak ran at least one epoch");
    // Sentinel epochs share a seed, so their mean errors must match
    // exactly; this is the accuracy-drift check in its sharpest form.
    if first.mean_horizontal_error_deg != last.mean_horizontal_error_deg
        || first.mean_vertical_error_deg != last.mean_vertical_error_deg
    {
        eprintln!("FAIL: sentinel mean gaze error drifted between first and last epoch");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
