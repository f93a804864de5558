//! Host and kernel probes: a compute-bound peak loop, GEMM microbenches at a
//! measured launch shape, a fixed-work noise canary, peak RSS and the
//! provenance of a run.

use crate::stats::{median, secs};
use std::hint::black_box;
use std::time::Instant;

/// Independent accumulator lanes per thread in the peak loop: enough
/// dependency chains to keep the multiply-add units busy.
const PEAK_LANES: usize = 64;
/// Loop trips per peak sample.
const PEAK_ITERS: usize = 2_000_000;

/// One thread's multiply-add loop; returns the flops executed.
fn peak_loop(seed: f32) -> f64 {
    let mut acc = [seed; PEAK_LANES];
    let mul = black_box(0.999_999_f32);
    let add = black_box(1e-7_f32);
    for _ in 0..PEAK_ITERS {
        for a in acc.iter_mut() {
            *a = *a * mul + add;
        }
    }
    black_box(acc);
    2.0 * (PEAK_LANES * PEAK_ITERS) as f64
}

/// Peak multiply-add throughput of the compiled target on `threads`
/// threads, GFLOP/s (best of 3 samples).
pub fn host_peak_gflops(threads: usize) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let flops: f64 = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|i| s.spawn(move || peak_loop(1.0 + i as f32)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("peak thread does not panic"))
                    .sum()
            });
            flops / secs(t) / 1e9
        })
        .collect();
    samples.into_iter().fold(0.0, f64::max)
}

/// Deterministic pseudo-random fill in `[-1, 1)`.
fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// Runs `f` repeatedly for about `budget_s`, returning seconds per call
/// (median over 5 batches).
fn time_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let one = secs(t).max(1e-7);
    let reps = ((budget_s / 5.0 / one) as usize).max(1);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            secs(t) / reps as f64
        })
        .collect();
    median(&samples)
}

/// `kernels::matmul_into` at `[m, k] x [k, n]`, GFLOP/s.
pub fn gemm_f32_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a = fill(m * k, 1);
    let b = fill(k * n, 2);
    let mut out = vec![0.0f32; m * n];
    let per = time_per_call(0.3, || {
        bliss_tensor::kernels::matmul_into(black_box(&a), black_box(&b), k, n, &mut out);
        black_box(&out);
    });
    2.0 * (m * k * n) as f64 / per / 1e9
}

/// `matmul_i8t_into` at `[m, k] x [n, k]^T`, GFLOP/s (integer ops).
pub fn gemm_i8_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a: Vec<i8> = fill(m * k, 3).iter().map(|v| (v * 127.0) as i8).collect();
    let bt: Vec<i8> = fill(n * k, 4).iter().map(|v| (v * 127.0) as i8).collect();
    let mut out = vec![0i32; m * n];
    let per = time_per_call(0.3, || {
        bliss_parallel::matmul_i8t_into(black_box(&a), black_box(&bt), k, n, &mut out);
        black_box(&out);
    });
    2.0 * (m * k * n) as f64 / per / 1e9
}

/// Fixed-work noise canary: 40 f32 GEMMs of 96^3 on the pool. The work never
/// changes, so a shift in its time is host noise, not a code change.
pub fn canary_ms() -> f64 {
    const N: usize = 96;
    let a = fill(N * N, 5);
    let b = fill(N * N, 6);
    let mut out = vec![0.0f32; N * N];
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..40 {
                bliss_tensor::kernels::matmul_into(black_box(&a), black_box(&b), N, N, &mut out);
                black_box(&out);
            }
            secs(t) * 1e3
        })
        .collect();
    median(&samples)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative CPU time the hypervisor gave to other guests instead of this
/// machine (`steal` in `/proc/stat`, all CPUs), seconds; 0 where unknown.
pub fn host_steal_s() -> f64 {
    /// `USER_HZ`: `/proc/stat` counts in hundredths of a second on Linux.
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the current directory, read from `.git`
/// without spawning a process; "unknown" outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
