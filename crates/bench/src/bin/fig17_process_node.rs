//! Fig. 17 — energy saving over NPU-Full as the sensor logic layer's process
//! node sweeps 65→16 nm, under a 7 nm and a 22 nm host SoC.

use bliss_bench::print_table;
use blisscam_core::experiments::fig17_process_node;

fn main() {
    // Analytic: `--quick` is accepted and changes nothing.
    bliss_bench::flags(&[bliss_bench::Flag::Quick]);
    let rows_data = fig17_process_node();
    for soc in [7u32, 22] {
        let rows: Vec<Vec<String>> = rows_data
            .iter()
            .filter(|r| r.soc_nm == soc)
            .map(|r| {
                vec![
                    format!("{} nm", r.logic_nm),
                    format!("{:.2}x", r.energy_saving),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 17: energy saving vs sensor logic node (SoC = {soc} nm)"),
            &["logic node", "saving over NPU-Full"],
            &rows,
        );
    }
    println!("\nTakeaway (paper §VI-F): the saving is more sensitive to the logic node when");
    println!("the SoC is 7 nm — with a 22 nm SoC the off-sensor work dominates either way.");
}
