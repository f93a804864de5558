//! Fig. 2 — compute capability of mobile GPUs vs the demand of eye-tracking
//! algorithms at a 120 Hz tracking rate.

use bliss_bench::print_table;
use bliss_energy::trends::{EYE_TRACKING_ALGORITHMS, JETSON_GPUS};

fn main() {
    // Analytic: `--quick` is accepted and changes nothing.
    bliss_bench::flags(&[bliss_bench::Flag::Quick]);
    let rows: Vec<Vec<String>> = JETSON_GPUS
        .iter()
        .map(|g| {
            vec![
                g.name.to_string(),
                g.year.to_string(),
                format!("{:.0}", g.gflops),
            ]
        })
        .collect();
    print_table(
        "Fig. 2 (upper series): Nvidia Jetson GPU capability",
        &["GPU", "year", "GFLOPS"],
        &rows,
    );

    let rows: Vec<Vec<String>> = EYE_TRACKING_ALGORITHMS
        .iter()
        .map(|a| {
            vec![
                a.name.to_string(),
                a.year.to_string(),
                format!("{:.1}", a.gflop_per_frame),
                format!("{:.0}", a.demand_gflops(120.0)),
            ]
        })
        .collect();
    print_table(
        "Fig. 2 (lower series): algorithm demand at 120 FPS",
        &["algorithm", "year", "GFLOP/frame", "GFLOPS @120Hz"],
        &rows,
    );
    println!("\nTakeaway (paper §II-C): recent mobile GPUs exceed recent algorithms' 120 Hz");
    println!("demand — tracking *rate* is not the bottleneck; latency and power are.");
}
