//! End-to-end benchmark of the BlissCam closed loop.
//!
//! ```text
//! cargo run --release --offline --manifest-path loopbench/Cargo.toml -- \
//!     --workload serve-batched --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run trains the model, warms up on a fixed warm-up seed, then serves
//! a measured phase derived from `--seed`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` replays the same schedule through each
//! layer's public functions and reports per-layer metrics. Every metric is
//! printed with its unit, clock (measured, modelled or count) and sample
//! count; the last line of standard output is the JSON result. The process
//! exits non-zero when an output check fails. See `README.md` next to this
//! package for the metric and workload catalogue.

mod pass;
mod probes;
mod run;
mod setup;
mod stats;

use setup::{Spec, WARMUP_SEED};
use stats::result_line;

const USAGE: &str = "usage: loopbench --workload <serve-batched|device-int8|fleet-chaos> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown flag {flag}")),
        };
        *slot = Some(value);
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = seed
        .unwrap_or_else(|| "1".to_string())
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = seconds
        .unwrap_or_else(|| "10".to_string())
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match trace.as_deref().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = std::time::Instant::now();
    let steal0 = probes::host_steal_s();
    let outcome = bliss_parallel::with_thread_count(nproc, || {
        run::run(&args.spec, args.seed, args.seconds, args.trace)
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };

    let run_s = start.elapsed().as_secs_f64();
    let steal_s = probes::host_steal_s() - steal0;
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "loopbench {} ({mode}), seed {}, {} measured rounds",
        args.spec.name, args.seed, outcome.rounds
    );
    println!(
        "{:<32} {:>14} {:<9} {:<9} {:>8}",
        "metric", "value", "unit", "clock", "samples"
    );
    for m in outcome.metrics.0.iter().chain(&outcome.extra.0) {
        println!(
            "{:<32} {:>14.6} {:<9} {:<9} {:>8}",
            m.name,
            m.value,
            m.unit,
            m.clock.label(),
            m.samples
        );
    }
    println!(
        "provenance {{\"commit\": \"{}\", \"cpu\": \"{}\", \"nproc\": {nproc}, \"pool_threads\": {}, \
         \"workload\": \"{}\", \"seed\": {}, \"warmup_seed\": {WARMUP_SEED}, \"seconds\": {}, \
         \"rounds\": {}, \"trace\": {}, \"canary_ms\": {:.4}, \"run_s\": {run_s:.1}, \
         \"host_steal_s\": {steal_s:.1}, \"profile\": \"release\"}}",
        probes::commit(),
        probes::cpu_model(),
        bliss_parallel::thread_count(),
        args.spec.name,
        args.seed,
        args.seconds,
        outcome.rounds,
        u8::from(args.trace),
        outcome.canary_ms,
    );
    let mut correct = true;
    for (what, ok) in &outcome.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        correct &= ok;
    }
    let finite = outcome.metrics.0.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("check FAIL: every metric is a finite number");
        correct = false;
    }
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use crate::setup::WORKLOADS;

    #[test]
    fn workload_names_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
        }
    }
}
