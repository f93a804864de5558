use crate::workload::{GemmShape, WorkloadDesc};
use bliss_energy::{EnergyParams, ProcessNode};
use serde::{Deserialize, Serialize};

/// Per-kernel dispatch/DMA setup cost of the host-class NPU, in cycles.
///
/// Real NPUs pay a fixed per-launch overhead before the array computes
/// anything: the driver enqueues the kernel, descriptors are fetched, DMA
/// engines are programmed and the first operand tile is staged. Mobile-class
/// parts sit around a microsecond per kernel, which at 1 GHz is ~1000
/// cycles. This constant is what cross-launch fusion amortises: one GEMM
/// over the concatenated batch pays it once where K per-session launches pay
/// it K times.
pub const DEFAULT_DISPATCH_CYCLES: u64 = 1000;

/// Arithmetic precision a workload executes at on the array, carried as the
/// [`SystolicArray::precision`] field and set with
/// [`SystolicArray::at_precision`].
///
/// The array's MAC lanes are f32-wide; in int8 mode each lane packs **two**
/// i8 multiply-accumulates along the reduction dimension per cycle (the
/// standard DOTP-style pairing), so the reduction streams in half the
/// cycles and the effective peak doubles. An int8 MAC also costs roughly a
/// quarter of an f32 MAC's switching energy (scaling with operand width
/// squared, 8²/32² rounded up for accumulator overhead). Operand bytes are
/// modelled unchanged: the serving stack quantises activations on the fly,
/// and keeping the traffic model conservative isolates the compute-side
/// win.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 32-bit floating point (the default everywhere).
    F32,
    /// Signed 8-bit integer operands with i32 accumulation.
    Int8,
}

impl Precision {
    /// i8 MACs issued per f32-wide lane per cycle.
    fn macs_per_lane(self) -> u64 {
        match self {
            Precision::F32 => 1,
            Precision::Int8 => 2,
        }
    }

    /// Per-MAC energy relative to an f32 MAC.
    fn mac_energy_factor(self) -> f64 {
        match self {
            Precision::F32 => 1.0,
            Precision::Int8 => 0.25,
        }
    }
}

/// An output-stationary systolic MAC array with a scratchpad hierarchy.
///
/// The struct is the whole cost configuration: geometry, clock, buffer,
/// process node, dispatch cost and arithmetic precision are fields, and
/// [`SystolicArray::gemm_cycles`] and [`SystolicArray::run`] read them.
/// Variants are built from [`SystolicArray::host`] or
/// [`SystolicArray::in_sensor`] with the `at_*`/`with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystolicArray {
    /// MAC rows.
    pub rows: usize,
    /// MAC columns.
    pub cols: usize,
    /// Clock frequency in hertz.
    pub frequency_hz: f64,
    /// On-chip buffer capacity in bytes.
    pub buffer_bytes: u64,
    /// Buffer bank granularity in bytes (affects access energy class).
    pub bank_bytes: u64,
    /// Implementation process node.
    pub node: ProcessNode,
    /// Fixed per-GEMM dispatch/DMA setup cost in cycles (see
    /// [`DEFAULT_DISPATCH_CYCLES`]); set 0 for the idealised
    /// zero-launch-cost model.
    pub dispatch_cycles: u64,
    /// Arithmetic precision every GEMM runs at (see [`Precision`]).
    pub precision: Precision,
}

impl SystolicArray {
    /// The paper's host NPU: 32x32 MACs @ 1 GHz, 2 MB buffer banked at
    /// 128 KB, 7 nm.
    pub fn host() -> Self {
        SystolicArray {
            rows: 32,
            cols: 32,
            frequency_hz: 1e9,
            buffer_bytes: 2 * 1024 * 1024,
            bank_bytes: 128 * 1024,
            node: ProcessNode::NM7,
            dispatch_cycles: DEFAULT_DISPATCH_CYCLES,
            precision: Precision::F32,
        }
    }

    /// The paper's in-sensor NPU: 8x8 MACs @ 0.5 GHz with 512 KB SRAM,
    /// sharing the 22 nm sensor logic layer.
    pub fn in_sensor() -> Self {
        SystolicArray {
            rows: 8,
            cols: 8,
            frequency_hz: 0.5e9,
            buffer_bytes: 512 * 1024,
            bank_bytes: 512 * 1024,
            node: ProcessNode::NM22,
            dispatch_cycles: DEFAULT_DISPATCH_CYCLES,
            precision: Precision::F32,
        }
    }

    /// Same design re-targeted to a different process node (Fig. 17 sweep).
    pub fn at_node(mut self, node: ProcessNode) -> Self {
        self.node = node;
        self
    }

    /// Same design executing at `precision`.
    pub fn at_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Same design with an explicit per-GEMM dispatch cost (0 recovers the
    /// idealised no-launch-overhead model the pre-fleet figures used).
    pub fn with_dispatch_cycles(mut self, cycles: u64) -> Self {
        self.dispatch_cycles = cycles;
        self
    }

    /// Peak MACs per cycle.
    pub fn peak_macs_per_cycle(&self) -> u64 {
        (self.rows * self.cols) as u64
    }

    /// Cycle count for one GEMM under output-stationary tiling: every
    /// `[rows x cols]` output tile streams the full reduction dimension plus
    /// an array fill/drain bubble, and the launch itself pays the fixed
    /// [`SystolicArray::dispatch_cycles`] dispatch/DMA setup once. At int8
    /// each lane packs two MACs along the reduction dimension, so `k`
    /// streams in `ceil(k / 2)` cycles.
    pub fn gemm_cycles(&self, g: &GemmShape) -> u64 {
        let tiles_m = g.m.div_ceil(self.rows) as u64;
        let tiles_n = g.n.div_ceil(self.cols) as u64;
        let fill_drain = (self.rows + self.cols) as u64;
        let k_cycles = (g.k as u64).div_ceil(self.precision.macs_per_lane());
        self.dispatch_cycles + tiles_m * tiles_n * (k_cycles + fill_drain)
    }

    /// Runs a whole lowered network and accounts time, energy and traffic.
    ///
    /// `weights_resident` models weights pinned in the on-chip buffer across
    /// frames (true for steady-state inference when they fit); otherwise all
    /// weight bytes stream from DRAM every frame.
    ///
    /// At `Precision::F32` every precision factor is the identity. At
    /// `Precision::Int8` reduction cycles halve, each MAC costs a quarter of
    /// the f32 per-MAC energy and the utilisation denominator's peak
    /// doubles; SRAM/DRAM byte counts are left unchanged (conservative —
    /// see [`Precision`]).
    pub fn run(
        &self,
        w: &WorkloadDesc,
        params: &EnergyParams,
        weights_resident: bool,
    ) -> RunReport {
        let mut report = RunReport::new(w.name.clone());
        for g in &w.gemms {
            let cycles = self.gemm_cycles(g);
            let macs = g.macs();
            let tiles_m = g.m.div_ceil(self.rows) as u64;
            let tiles_n = g.n.div_ceil(self.cols) as u64;
            // Output-stationary operand re-streaming: weights stream once per
            // column tile, activations once per row tile.
            let sram_reads = g.weight_bytes() * tiles_n + g.input_bytes() * tiles_m;
            let sram_writes = g.output_bytes();

            // Weight residency: if the whole network's weights fit in the
            // buffer (minus working set), they are read from DRAM only at
            // load time, not per frame.
            let weights_fit =
                w.total_weight_bytes() + g.input_bytes() + g.output_bytes() <= self.buffer_bytes;
            let dram_bytes = if weights_resident && weights_fit {
                0
            } else {
                g.weight_bytes()
            };

            let large_bank = self.bank_bytes > 128 * 1024;
            let sram_energy = if large_bank {
                params.sram_large_energy_j(sram_reads + sram_writes, self.node)
            } else {
                params.sram_small_energy_j(sram_reads + sram_writes, self.node)
            };

            report.cycles += cycles;
            report.macs += macs;
            report.sram_bytes += sram_reads + sram_writes;
            report.dram_bytes += dram_bytes;
            report.mac_energy_j +=
                macs as f64 * params.mac_energy_j(self.node) * self.precision.mac_energy_factor();
            report.sram_energy_j += sram_energy;
            report.dram_energy_j += params.dram.traffic_energy_j(dram_bytes);
        }
        report.time_s = report.cycles as f64 / self.frequency_hz;
        let peak = self.peak_macs_per_cycle() * self.precision.macs_per_lane();
        report.utilization = if report.cycles == 0 {
            0.0
        } else {
            report.macs as f64 / (report.cycles as f64 * peak as f64)
        };
        report
    }
}

/// Aggregate statistics of executing a workload on a [`SystolicArray`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload name.
    pub name: String,
    /// Total cycles.
    pub cycles: u64,
    /// Execution time in seconds.
    pub time_s: f64,
    /// Total multiply-accumulates.
    pub macs: u64,
    /// Achieved MAC utilisation in `(0, 1]`.
    pub utilization: f64,
    /// On-chip buffer traffic in bytes.
    pub sram_bytes: u64,
    /// DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Energy of the MAC array, joules.
    pub mac_energy_j: f64,
    /// Energy of buffer accesses, joules.
    pub sram_energy_j: f64,
    /// Energy of DRAM traffic, joules.
    pub dram_energy_j: f64,
}

impl RunReport {
    fn new(name: String) -> Self {
        RunReport {
            name,
            cycles: 0,
            time_s: 0.0,
            macs: 0,
            utilization: 0.0,
            sram_bytes: 0,
            dram_bytes: 0,
            mac_energy_j: 0.0,
            sram_energy_j: 0.0,
            dram_energy_j: 0.0,
        }
    }

    /// Total energy across MACs, SRAM and DRAM, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.mac_energy_j + self.sram_energy_j + self.dram_energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_workload(tokens: usize, inf: usize, outf: usize) -> WorkloadDesc {
        let mut w = WorkloadDesc::new("lin");
        w.push_linear(tokens, inf, outf);
        w
    }

    #[test]
    fn utilization_bounded() {
        let host = SystolicArray::host();
        let w = linear_workload(128, 256, 512);
        let r = host.run(&w, &EnergyParams::default(), true);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
    }

    #[test]
    fn bigger_array_is_faster_on_big_gemms() {
        let small = SystolicArray::in_sensor();
        let big = SystolicArray::host();
        let w = linear_workload(512, 512, 512);
        let rs = small.run(&w, &EnergyParams::default(), true);
        let rb = big.run(&w, &EnergyParams::default(), true);
        assert!(rb.time_s < rs.time_s);
    }

    #[test]
    fn tiny_gemm_underutilises() {
        let host = SystolicArray::host();
        let w = linear_workload(4, 8, 4); // much smaller than 32x32
        let r = host.run(&w, &EnergyParams::default(), true);
        assert!(r.utilization < 0.1);
    }

    #[test]
    fn energy_scales_with_node() {
        let w = linear_workload(256, 256, 256);
        let p = EnergyParams::default();
        let at7 = SystolicArray::host().run(&w, &p, true);
        let at22 = SystolicArray::host()
            .at_node(ProcessNode::NM22)
            .run(&w, &p, true);
        assert!(at22.mac_energy_j > 2.0 * at7.mac_energy_j);
    }

    #[test]
    fn resident_weights_skip_dram() {
        let w = linear_workload(64, 128, 128); // 16 KB of weights: fits
        let p = EnergyParams::default();
        let host = SystolicArray::host();
        let resident = host.run(&w, &p, true);
        let streaming = host.run(&w, &p, false);
        assert_eq!(resident.dram_bytes, 0);
        assert_eq!(streaming.dram_bytes, 128 * 128);
        assert!(streaming.total_energy_j() > resident.total_energy_j());
    }

    #[test]
    fn oversized_weights_stream_even_when_resident_requested() {
        // 4 M weight bytes > 2 MB buffer: must hit DRAM.
        let w = linear_workload(16, 2048, 2048 * 1024 / 2048);
        let mut big = WorkloadDesc::new("big");
        big.push_linear(16, 2048, 2048);
        for _ in 0..2 {
            let mut l = WorkloadDesc::new("l");
            l.push_linear(16, 1024, 1024);
            big.extend(&l);
        }
        // Construct a clearly oversized single layer instead:
        let mut huge = WorkloadDesc::new("huge");
        huge.push_linear(8, 4096, 1024); // 4 MB weights
        let r = SystolicArray::host().run(&huge, &EnergyParams::default(), true);
        assert!(r.dram_bytes > 0);
        let _ = w;
    }

    #[test]
    fn in_sensor_roi_net_latency_scale() {
        // The paper's ROI net is 2.1e7 MACs; on an 8x8 array at 0.5 GHz the
        // analytic bound is >= 656 us of pure MAC time. Verify the simulator
        // stays within 3x of the ideal (tiling bubbles only).
        let mut w = WorkloadDesc::new("roi");
        // 3 conv + 2 FC summing to ~2.1e7 MACs at paper scale (see track).
        w.push_conv(8, 2, 3, 80, 50); // 8*18*4000 = 576k
        w.push_conv(16, 8, 3, 40, 25); // 16*72*1000 = 1.15M
        w.push_conv(32, 16, 3, 20, 13); // 32*144*260 = 1.2M
        w.push_linear(1, 32 * 20 * 13, 2048);
        w.push_linear(1, 2048, 4);
        let r = SystolicArray::in_sensor().run(&w, &EnergyParams::default(), true);
        let ideal = r.macs as f64 / (64.0 * 0.5e9);
        assert!(r.time_s >= ideal);
        assert!(
            r.time_s < 20.0 * ideal,
            "time {} vs ideal {}",
            r.time_s,
            ideal
        );
    }

    #[test]
    fn dispatch_overhead_amortises_with_fused_launches() {
        // One fused GEMM over 8x the output rows covers exactly the same
        // tile grid as eight separate launches, so the only difference is
        // seven saved dispatches.
        let host = SystolicArray::host();
        let fused = GemmShape::new(8 * host.rows, 128, 64);
        let solo = GemmShape::new(host.rows, 128, 64);
        assert_eq!(
            host.gemm_cycles(&fused) + 7 * host.dispatch_cycles,
            8 * host.gemm_cycles(&solo)
        );
        // The amortisation trend is the dispatch model's doing: with the
        // idealised zero-cost launches the two forms tie exactly.
        let ideal = host.with_dispatch_cycles(0);
        assert_eq!(ideal.gemm_cycles(&fused), 8 * ideal.gemm_cycles(&solo));
        assert!(host.gemm_cycles(&fused) < 8 * host.gemm_cycles(&solo));
    }

    #[test]
    fn dispatch_overhead_counts_into_run_time() {
        let w = linear_workload(64, 128, 128);
        let p = EnergyParams::default();
        let with = SystolicArray::host().run(&w, &p, true);
        let without = SystolicArray::host()
            .with_dispatch_cycles(0)
            .run(&w, &p, true);
        assert_eq!(
            with.cycles - without.cycles,
            w.launches() as u64 * DEFAULT_DISPATCH_CYCLES
        );
        // Dispatch costs time, not energy: the array idles while the DMA
        // engines are programmed.
        assert_eq!(with.total_energy_j(), without.total_energy_j());
        assert!(with.utilization < without.utilization);
    }

    #[test]
    fn f32_precision_reproduces_default_run_bitwise() {
        let w = linear_workload(96, 192, 384);
        let p = EnergyParams::default();
        let host = SystolicArray::host();
        assert_eq!(host.precision, Precision::F32, "f32 is the default");
        let explicit = host.at_precision(Precision::F32);
        assert_eq!(host.run(&w, &p, true), explicit.run(&w, &p, true));
        assert_eq!(
            host.gemm_cycles(&GemmShape::new(17, 33, 65)),
            explicit.gemm_cycles(&GemmShape::new(17, 33, 65))
        );
    }

    #[test]
    fn int8_is_faster_and_cheaper_with_same_traffic() {
        let w = linear_workload(256, 384, 384);
        let p = EnergyParams::default();
        let host = SystolicArray::host();
        let f32 = host.run(&w, &p, true);
        let i8 = host.at_precision(Precision::Int8).run(&w, &p, true);
        assert!(i8.cycles < f32.cycles, "int8 must save reduction cycles");
        assert!(i8.mac_energy_j < f32.mac_energy_j);
        assert_eq!(i8.mac_energy_j, 0.25 * f32.mac_energy_j);
        // Conservative traffic model: byte counts identical.
        assert_eq!(i8.sram_bytes, f32.sram_bytes);
        assert_eq!(i8.dram_bytes, f32.dram_bytes);
        assert_eq!(i8.sram_energy_j, f32.sram_energy_j);
        assert!(i8.total_energy_j() < f32.total_energy_j());
        assert!(i8.utilization > 0.0 && i8.utilization <= 1.0);
    }

    #[test]
    fn int8_halves_reduction_cycles_exactly() {
        let host = SystolicArray::host()
            .with_dispatch_cycles(0)
            .at_precision(Precision::Int8);
        // Even k: the packed reduction is exactly half.
        let even = GemmShape::new(32, 128, 32);
        let fill_drain = (host.rows + host.cols) as u64;
        assert_eq!(host.gemm_cycles(&even), 64 + fill_drain);
        // Odd k rounds up: ceil(7 / 2) = 4.
        let odd = GemmShape::new(32, 7, 32);
        assert_eq!(host.gemm_cycles(&odd), 4 + fill_drain);
    }

    #[test]
    fn cycles_additive_over_layers() {
        let host = SystolicArray::host();
        let a = linear_workload(64, 64, 64);
        let mut ab = a.clone();
        ab.extend(&linear_workload(32, 32, 32));
        let ra = host.run(&a, &EnergyParams::default(), true);
        let rab = host.run(&ab, &EnergyParams::default(), true);
        assert!(rab.cycles > ra.cycles);
        assert_eq!(
            rab.cycles - ra.cycles,
            host.gemm_cycles(&GemmShape::new(32, 32, 32))
        );
    }
}
