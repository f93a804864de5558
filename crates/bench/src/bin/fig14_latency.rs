//! Fig. 14 — end-to-end tracking latency of the four variants at 120 FPS.

use bliss_bench::{fmt_time, print_table};
use blisscam_core::experiments::fig14_latency;
use blisscam_core::SystemConfig;

fn main() {
    // Analytic: `--quick` is accepted and changes nothing.
    bliss_bench::flags(&[bliss_bench::Flag::Quick]);
    let cfg = SystemConfig::paper();
    let rows_data = fig14_latency(&cfg);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                fmt_time(r.latency_s),
                format!("{:.1}", r.achieved_fps),
            ]
        })
        .collect();
    print_table(
        "Fig. 14: end-to-end latency at 120 FPS (65/22/7 nm)",
        &["variant", "latency", "achieved FPS"],
        &rows,
    );

    for r in &rows_data {
        let stages: Vec<Vec<String>> = r
            .stages
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .map(|(l, s)| vec![l.clone(), fmt_time(*s)])
            .collect();
        print_table(
            &format!("{} stage timing", r.variant),
            &["stage", "mean time"],
            &stages,
        );
    }

    let full = rows_data.iter().find(|r| r.variant == "NPU-Full").unwrap();
    let bliss = rows_data.iter().find(|r| r.variant == "BlissCam").unwrap();
    println!(
        "\nlatency reduction NPU-Full/BlissCam = {:.2}x (paper: 1.4x); BlissCam latency {} (budget 15 ms)",
        full.latency_s / bliss.latency_s,
        fmt_time(bliss.latency_s)
    );
}
