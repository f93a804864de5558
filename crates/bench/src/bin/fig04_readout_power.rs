//! Fig. 4 — percentage of image-sensor power attributed to the readout
//! circuitry across six recent sensors.

use bliss_bench::print_table;
use bliss_energy::trends::{mean_readout_power_pct, READOUT_POWER_SURVEY};

fn main() {
    // Analytic: `--quick` is accepted and changes nothing.
    bliss_bench::flags(&[bliss_bench::Flag::Quick]);
    let rows: Vec<Vec<String>> = READOUT_POWER_SURVEY
        .iter()
        .map(|e| {
            vec![
                e.venue.to_string(),
                e.year.to_string(),
                format!("{:.0} %", e.readout_power_pct),
            ]
        })
        .collect();
    print_table(
        "Fig. 4: readout share of sensor power across recent sensors",
        &["sensor", "year", "readout power"],
        &rows,
    );
    println!(
        "\nmean: {:.1} % (paper quotes 66 %)",
        mean_readout_power_pct()
    );
}
