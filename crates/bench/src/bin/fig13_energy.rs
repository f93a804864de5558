//! Fig. 13 — per-frame energy of the four system variants at 120 FPS,
//! paper-scale hardware (65 nm analog / 22 nm logic / 7 nm SoC).

use bliss_bench::print_table;
use blisscam_core::experiments::fig13_energy;
use blisscam_core::SystemConfig;

fn main() {
    // Analytic: `--quick` is accepted and changes nothing.
    bliss_bench::flags(&[bliss_bench::Flag::Quick]);
    let cfg = SystemConfig::paper();
    let rows_data = fig13_energy(&cfg);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{:.1}", r.breakdown.total_j() * 1e6),
                format!("{:.1}", r.breakdown.sensor_j() * 1e6),
                format!("{:.1}", r.breakdown.communication_j() * 1e6),
                format!("{:.1}", r.breakdown.off_sensor_j() * 1e6),
                format!("{:.2}x", r.ratio_vs_blisscam),
            ]
        })
        .collect();
    print_table(
        "Fig. 13: energy per frame at 120 FPS (65/22/7 nm)",
        &[
            "variant",
            "total uJ",
            "sensor uJ",
            "comm uJ",
            "off-sensor uJ",
            "vs BlissCam",
        ],
        &rows,
    );

    for r in &rows_data {
        let comp: Vec<Vec<String>> = r
            .breakdown
            .components()
            .into_iter()
            .filter(|(_, j)| *j > 0.0)
            .map(|(l, j)| vec![l.to_string(), format!("{:.2}", j * 1e6)])
            .collect();
        print_table(
            &format!("{} component breakdown", r.variant),
            &["component", "uJ"],
            &comp,
        );
    }

    let full = &rows_data[0];
    let bliss = rows_data.iter().find(|r| r.variant == "BlissCam").unwrap();
    println!(
        "\nNPU-Full / BlissCam = {:.2}x (paper: 4.0x); off-sensor share of NPU-Full = {:.1} % (paper: 60.1 %)",
        full.breakdown.total_j() / bliss.breakdown.total_j(),
        full.breakdown.off_sensor_j() / full.breakdown.total_j() * 100.0
    );
    println!(
        "feedback overhead = {:.2} % (paper: 0.6 %), RLE overhead = {:.3} % (paper: 0.04 %)",
        bliss.breakdown.feedback_j / bliss.breakdown.total_j() * 100.0,
        bliss.breakdown.rle_j / bliss.breakdown.total_j() * 100.0
    );
}
