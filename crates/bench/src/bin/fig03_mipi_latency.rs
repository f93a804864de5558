//! Fig. 3 — MIPI CSI-2 transfer latency vs image resolution, against the
//! 15 ms end-to-end tracking budget.

use bliss_bench::{fmt_time, print_table};
use bliss_energy::{MipiLink, Resolution};

fn main() {
    // Analytic: `--quick` is accepted and changes nothing.
    bliss_bench::flags(&[bliss_bench::Flag::Quick]);
    let link = MipiLink::default();
    let rows: Vec<Vec<String>> = Resolution::ALL
        .iter()
        .map(|r| {
            let t = link.frame_transfer_time_s(*r);
            vec![
                r.label().to_string(),
                format!("{}", r.pixels()),
                fmt_time(t),
                if t > 15e-3 {
                    "EXCEEDED".into()
                } else {
                    "ok".into()
                },
            ]
        })
        .collect();
    print_table(
        "Fig. 3: MIPI transfer latency vs resolution (RAW10, budget 15 ms)",
        &["resolution", "pixels", "transfer", "15 ms budget"],
        &rows,
    );
    println!("\nTakeaway (paper §II-C): at 4K the transfer alone (~22 ms) already exceeds");
    println!("the 15 ms end-to-end requirement — data volume must shrink at the source.");
}
