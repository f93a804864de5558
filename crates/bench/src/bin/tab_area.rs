//! §VI-D — silicon area estimation of the BlissCam sensor.

use bliss_bench::print_table;
use bliss_energy::{AreaModel, ProcessNode};

fn main() {
    // Analytic: `--quick` is accepted and changes nothing.
    bliss_bench::flags(&[bliss_bench::Flag::Quick]);
    let m = AreaModel::default();
    let rows = vec![
        vec![
            "pixel array (640x400 @ 5 um)".to_string(),
            format!("{:.2} mm^2", m.pixel_array_mm2(640, 400)),
            "6.4 mm^2".to_string(),
        ],
        vec![
            "in-sensor NPU (8x8 MAC + 512 KB)".to_string(),
            format!("{:.2} mm^2", m.npu_mm2(8, 8, 512.0, ProcessNode::NM22)),
            "0.4 mm^2".to_string(),
        ],
        vec![
            "output buffer + RLE".to_string(),
            format!("{:.2} mm^2", m.output_buffer_mm2(ProcessNode::NM22)),
            "0.1 mm^2".to_string(),
        ],
    ];
    print_table(
        "Paper §VI-D: area estimation (22 nm logic layer)",
        &["block", "model", "paper"],
        &rows,
    );
    println!(
        "\nNPU area overhead over pixel array: {:.1} % (paper §II-B quotes ~5.8 %)",
        m.npu_overhead_fraction(640, 400, 8, 8, 512.0, ProcessNode::NM22) * 100.0
    );
}
