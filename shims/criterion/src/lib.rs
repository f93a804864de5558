//! Offline stand-in for the subset of [`criterion` 0.5](https://docs.rs/criterion)
//! used by this workspace's benches.
//!
//! Unlike the first-cut shim, this version produces statistics stable enough
//! to back perf claims:
//!
//! * **Warm-up calibration** — each benchmark is run untimed until the warm-up
//!   budget elapses, and the observed iteration time chooses how many
//!   iterations each sample batches (so fast kernels are not measured at
//!   timer granularity).
//! * **Outlier rejection** — samples farther than 3.5 robust standard
//!   deviations (via the median absolute deviation) from the median are
//!   discarded before the reported median is taken.
//! * **Machine-readable output** — every group writes its results as JSON
//!   (`BENCH_<group>.json` at the workspace root by default, or inside the
//!   `BLISS_BENCH_OUT` directory), so successive PRs can diff kernel
//!   performance.
//!   Every row carries a `unit`: `ns` for a timing, or the unit a value row
//!   ([`Criterion::report_value`]) was recorded with. A `provenance` object
//!   heads the file: the commit checked out at the workspace root, the CPU
//!   model, the logical CPU count and whether fast mode was on.
//! * **Fast mode** — setting `BLISS_BENCH_FAST=1` shrinks warm-up and sample
//!   counts for CI smoke runs.
//!
//! There is still no HTML report; `cargo bench` prints one line per benchmark.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How `iter_batched` amortises setup cost. All variants behave identically
/// in this shim (setup always runs once per sample, untimed; batched
/// benchmarks use one iteration per sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// True when `BLISS_BENCH_FAST` requests a CI smoke run.
fn fast_mode() -> bool {
    std::env::var("BLISS_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Measurement settings for one benchmark run.
#[derive(Debug, Clone, Copy)]
struct Profile {
    samples: usize,
    warm_up: Duration,
    target_sample_time: Duration,
}

impl Profile {
    fn resolve(sample_size: usize) -> Self {
        if fast_mode() {
            Profile {
                samples: sample_size.min(7),
                warm_up: Duration::from_millis(20),
                target_sample_time: Duration::from_millis(2),
            }
        } else {
            Profile {
                samples: sample_size,
                warm_up: Duration::from_millis(150),
                target_sample_time: Duration::from_millis(8),
            }
        }
    }
}

/// The statistics recorded for one finished benchmark, or one value row.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name as passed to [`Criterion::bench_function`].
    pub name: String,
    /// `ns` for a timing; a value row's own unit (`allocs`, `%`).
    pub unit: String,
    /// A value row's scalar; `None` for a timing. The timing fields of a
    /// value row stay zero.
    pub value: Option<f64>,
    /// Median per-iteration time (after outlier rejection), in nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time over the kept samples, in nanoseconds.
    pub mean_ns: f64,
    /// Robust spread: the median absolute deviation of the samples, in ns.
    pub mad_ns: f64,
    /// Number of samples kept after outlier rejection.
    pub samples_kept: usize,
    /// Number of samples rejected as outliers.
    pub outliers_rejected: usize,
    /// Iterations batched into each sample (from warm-up calibration).
    pub iters_per_sample: u64,
}

fn median_of(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median / MAD outlier rejection: samples farther than `3.5 * 1.4826 * MAD`
/// from the median are dropped (the 1.4826 factor makes the MAD consistent
/// with a Gaussian standard deviation).
fn reject_outliers(samples: &[f64]) -> (Vec<f64>, usize) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let med = median_of(&sorted);
    let mut deviations: Vec<f64> = sorted.iter().map(|s| (s - med).abs()).collect();
    deviations.sort_by(|a, b| a.total_cmp(b));
    let mad = median_of(&deviations);
    if mad <= 0.0 {
        return (sorted, 0);
    }
    let bound = 3.5 * 1.4826 * mad;
    let kept: Vec<f64> = sorted
        .iter()
        .copied()
        .filter(|s| (s - med).abs() <= bound)
        .collect();
    let rejected = sorted.len() - kept.len();
    (kept, rejected)
}

/// Collects timing samples for one benchmark.
#[derive(Debug)]
pub struct Bencher {
    profile: Profile,
    sample_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Warm-up calibration: runs `routine` untimed for the warm-up budget and
    /// derives how many iterations each timed sample should batch.
    fn calibrate<O, F: FnMut() -> O>(&mut self, routine: &mut F) {
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < self.profile.warm_up || iters < 2 {
            std::hint::black_box(routine());
            iters += 1;
            if iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
        let target = self.profile.target_sample_time.as_nanos() as f64;
        self.iters_per_sample = ((target / per_iter.max(1.0)).round() as u64).clamp(1, 10_000_000);
    }

    /// Times `routine`, batching `iters_per_sample` iterations per sample.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        self.calibrate(&mut routine);
        for _ in 0..self.profile.samples {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                std::hint::black_box(routine());
            }
            self.sample_ns
                .push(start.elapsed().as_nanos() as f64 / self.iters_per_sample as f64);
        }
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is untimed.
    /// Each sample is a single iteration (inputs are consumed).
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        // One untimed warm-up iteration.
        std::hint::black_box(routine(setup()));
        self.iters_per_sample = 1;
        for _ in 0..self.profile.samples {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.sample_ns.push(start.elapsed().as_nanos() as f64);
        }
    }

    fn finish(self, name: &str) -> BenchResult {
        let (kept, rejected) = reject_outliers(&self.sample_ns);
        let median_ns = median_of(&kept);
        let mean_ns = if kept.is_empty() {
            0.0
        } else {
            kept.iter().sum::<f64>() / kept.len() as f64
        };
        let mut deviations: Vec<f64> = kept.iter().map(|s| (s - median_ns).abs()).collect();
        deviations.sort_by(|a, b| a.total_cmp(b));
        BenchResult {
            name: name.to_string(),
            unit: "ns".to_string(),
            value: None,
            median_ns,
            mean_ns,
            mad_ns: median_of(&deviations),
            samples_kept: kept.len(),
            outliers_rejected: rejected,
            iters_per_sample: self.iters_per_sample,
        }
    }
}

fn human_time(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Benchmark driver. Accumulates per-benchmark results so the group can emit
/// a machine-readable report at the end of the run.
#[derive(Debug, Clone, Default)]
pub struct Criterion {
    sample_size: Option<usize>,
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Sets how many timed samples each benchmark takes (before outlier
    /// rejection). The default is 20 (7 in `BLISS_BENCH_FAST` mode).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = Some(n);
        self
    }

    /// Runs one named benchmark and prints its calibrated median time.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let profile = Profile::resolve(self.sample_size.unwrap_or(20));
        let mut bencher = Bencher {
            profile,
            sample_ns: Vec::with_capacity(profile.samples),
            iters_per_sample: 1,
        };
        f(&mut bencher);
        let result = bencher.finish(name);
        println!(
            "{name:<40} time: [{} median of {} samples, x{} iters, {} outliers]",
            human_time(result.median_ns),
            result.samples_kept,
            result.iters_per_sample,
            result.outliers_rejected,
        );
        self.results.push(result);
        self
    }

    /// Records an already-measured scalar in `unit` (an allocation count
    /// in `allocs`, an overhead in `%`) as a result row so it lands in the
    /// group's JSON report next to the timings, as `"value"` rather than in
    /// the `*_ns` fields. Not part of real criterion's API.
    pub fn report_value(&mut self, name: &str, value: f64, unit: &str) -> &mut Self {
        println!("{name:<40} value: {value} {unit}");
        self.results.push(BenchResult {
            name: name.to_string(),
            unit: unit.to_string(),
            value: Some(value),
            median_ns: 0.0,
            mean_ns: 0.0,
            mad_ns: 0.0,
            samples_kept: 1,
            outliers_rejected: 0,
            iters_per_sample: 1,
        });
        self
    }

    /// The results accumulated so far (one entry per finished benchmark).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serialises the accumulated results as a JSON report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", ",
                r.name.replace('"', "'"),
                r.unit.replace('"', "'"),
            );
            let _ = match r.value {
                Some(value) => write!(out, "\"value\": {value}}}"),
                None => write!(
                    out,
                    "\"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"mad_ns\": {:.1}, \
                     \"samples_kept\": {}, \"outliers_rejected\": {}, \
                     \"iters_per_sample\": {}}}",
                    r.median_ns,
                    r.mean_ns,
                    r.mad_ns,
                    r.samples_kept,
                    r.outliers_rejected,
                    r.iters_per_sample,
                ),
            };
            out.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// [`Criterion::to_json`] headed by a `provenance` object for the
    /// checkout at `root`.
    pub fn report_json(&self, root: &Path) -> String {
        let provenance = format!(
            "{{\"commit\": \"{}\", \"cpu\": \"{}\", \"nproc\": {}, \"fast_mode\": {}}}",
            commit(root),
            cpu_model().replace('"', "'"),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            fast_mode(),
        );
        self.to_json()
            .replacen("{\n", &format!("{{\n  \"provenance\": {provenance},\n"), 1)
    }

    /// Writes the JSON report for a finished group.
    ///
    /// The destination is `BENCH_<group>.json` inside the `BLISS_BENCH_OUT`
    /// directory if set, otherwise at the workspace root (found by walking
    /// up from `CARGO_MANIFEST_DIR` to the nearest `Cargo.lock`), falling
    /// back to the current directory. Write errors are reported, not fatal:
    /// a read-only checkout can still run benches.
    pub fn write_report(&self, group: &str) {
        let root = workspace_root();
        let out = std::env::var("BLISS_BENCH_OUT").ok();
        let path = report_path(out.as_deref(), &root, group);
        match std::fs::write(&path, self.report_json(&root)) {
            Ok(()) => println!("wrote {} results to {}", self.results.len(), path.display()),
            Err(e) => eprintln!("could not write bench report {}: {e}", path.display()),
        }
    }
}

/// The path of group `group`'s report: `BENCH_<group>.json` inside the `out`
/// directory when it is given and non-empty, else inside `root`.
fn report_path(out: Option<&str>, root: &Path, group: &str) -> PathBuf {
    let name = format!("BENCH_{group}.json");
    match out {
        Some(dir) if !dir.is_empty() => Path::new(dir).join(name),
        _ => root.join(name),
    }
}

/// The commit checked out at `root`, read from `.git` without spawning a
/// process; "unknown" outside a git checkout.
fn commit(root: &Path) -> String {
    let read = |p: &str| std::fs::read_to_string(root.join(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|id| id.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPU model from `/proc/cpuinfo`; "unknown" where there is none.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The workspace root: the nearest ancestor of `CARGO_MANIFEST_DIR` (or
/// the current directory) holding a `Cargo.lock`, else `.`.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| PathBuf::from("."));
    // Member crates have no lock of their own; picking the outermost match
    // could escape the checkout when a parent directory happens to contain
    // an unrelated Cargo.lock.
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// Declares a benchmark group: either
/// `criterion_group!(name, target_a, target_b)` or the
/// `name = ..; config = ..; targets = ..` form. After all targets run, the
/// group writes its JSON report (see [`Criterion::write_report`]).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
            criterion.write_report(stringify!($name));
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench entry point running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_records() {
        let mut c = Criterion::default().sample_size(3);
        let mut runs = 0u64;
        c.bench_function("counting", |b| b.iter(|| runs += 1));
        // Warm-up calibration plus 3 samples of >= 1 iteration each.
        assert!(runs >= 5, "expected warm-up + samples, got {runs} runs");
        assert_eq!(c.results().len(), 1);
        let r = &c.results()[0];
        assert_eq!(r.name, "counting");
        assert!(r.samples_kept >= 1 && r.samples_kept <= 3);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn iter_batched_gets_fresh_inputs() {
        let mut c = Criterion::default().sample_size(5);
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
        assert_eq!(c.results()[0].iters_per_sample, 1);
    }

    #[test]
    fn report_value_lands_in_the_json() {
        let mut c = Criterion::default();
        c.report_value("allocs_per_iter", 583.0, "allocs");
        c.report_value("overhead_pct", 1.25, "%");
        assert_eq!(c.results().len(), 2);
        let r = &c.results()[0];
        assert_eq!((r.value, r.unit.as_str()), (Some(583.0), "allocs"));
        // A value is not a time: the `*_ns` fields stay empty.
        assert_eq!((r.median_ns, r.mean_ns), (0.0, 0.0));
        let json = c.to_json();
        assert!(
            json.contains("{\"name\": \"allocs_per_iter\", \"unit\": \"allocs\", \"value\": 583},")
        );
        assert!(json.contains("{\"name\": \"overhead_pct\", \"unit\": \"%\", \"value\": 1.25}\n"));
        assert!(!json.contains("_ns"));
    }

    #[test]
    fn outlier_rejection_drops_extremes() {
        let samples = [10.0, 11.0, 10.5, 9.5, 10.2, 9.9, 500.0];
        let (kept, rejected) = reject_outliers(&samples);
        assert_eq!(rejected, 1);
        assert_eq!(kept.len(), 6);
        assert!(kept.iter().all(|&s| s < 100.0));
        // Constant samples have MAD 0: everything is kept.
        let (kept, rejected) = reject_outliers(&[5.0; 8]);
        assert_eq!((kept.len(), rejected), (8, 0));
    }

    #[test]
    fn json_report_is_well_formed() {
        let mut c = Criterion::default().sample_size(2);
        c.bench_function("alpha", |b| b.iter(|| 1 + 1));
        c.bench_function("beta", |b| b.iter(|| 2 + 2));
        let json = c.to_json();
        assert!(json.contains("\"name\": \"alpha\", \"unit\": \"ns\""));
        assert!(json.contains("\"name\": \"beta\", \"unit\": \"ns\""));
        assert!(json.contains("\"median_ns\""));
        assert!(!json.contains("\"value\""));
        // Exactly one comma between the two entries, none trailing.
        assert_eq!(json.matches("},").count(), 1);
    }

    #[test]
    fn report_opens_with_provenance() {
        let mut c = Criterion::default().sample_size(2);
        c.bench_function("alpha", |b| b.iter(|| 1 + 1));
        let report = c.report_json(Path::new("/nonexistent"));
        assert!(report.starts_with("{\n  \"provenance\": {\"commit\": \"unknown\", \"cpu\": \""));
        assert!(report.contains("\"nproc\": "));
        assert!(report.contains("\"fast_mode\": "));
        assert!(report.contains("},\n  \"benchmarks\": [\n    {\"name\": \"alpha\""));
    }

    #[test]
    fn groups_keep_their_own_report_under_the_out_directory() {
        let root = Path::new("/checkout");
        let kernels = report_path(Some("out"), root, "kernels");
        assert_eq!(kernels, Path::new("out/BENCH_kernels.json"));
        assert_ne!(kernels, report_path(Some("out"), root, "pipeline"));
        assert_eq!(
            report_path(Some(""), root, "kernels"),
            root.join("BENCH_kernels.json")
        );
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median_of(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median_of(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median_of(&[]), 0.0);
    }
}
