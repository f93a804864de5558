//! Benchmark harness regenerating every table and figure of the BlissCam
//! paper's evaluation (§VI).
//!
//! One binary per figure/table (see `src/bin/`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig02_gflops_trend` | Fig. 2 — GPU capability vs algorithm demand |
//! | `fig03_mipi_latency` | Fig. 3 — MIPI latency vs resolution |
//! | `fig04_readout_power` | Fig. 4 — readout share of sensor power |
//! | `fig12_accuracy` | Fig. 12 — gaze error vs compression rate |
//! | `fig13_energy` | Fig. 13 — per-variant energy breakdown |
//! | `fig14_latency` | Fig. 14 — per-variant end-to-end latency |
//! | `fig15_sampling` | Fig. 15 — sampling-strategy comparison |
//! | `fig16_framerate` | Fig. 16 — frame-rate sensitivity |
//! | `fig17_process_node` | Fig. 17 — process-node sensitivity |
//! | `tab1_roi_reuse` | Tbl. I — ROI reuse window |
//! | `tab_area` | §VI-D — area estimation |
//!
//! Beyond the paper artifacts, `serve_sweep` / `fleet_sweep` sweep the
//! serving layers and `soak` runs the long-horizon durability soak (see
//! the [`soak`] module).
//!
//! Every binary accepts `--quick` (a fast, smaller-workload run; the
//! default matches `ExperimentScale::standard()`) and `serve_sweep` also
//! accepts `--precision <f32|int8|both>` and `--quant-gate`. Any other
//! argument, or `--quant-gate` with `--precision f32`, exits with status 2
//! and a usage line (see [`flags`]).
//!
//! Criterion micro-benchmarks for the hot kernels (eventification, RLE,
//! SRAM sampling, ViT forward, systolic model, renderer) live in `benches/`.

use bliss_telemetry::export::{chrome_trace_json, stage_breakdown, StageSummary};
use blisscam_core::experiments::ExperimentScale;
use serde::json::JsonValue;
use serde::Serialize;

pub mod soak;

/// Prints a fixed-width ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n{title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    println!("{line}");
    let header: Vec<String> = headers
        .iter()
        .zip(widths.iter())
        .map(|(h, w)| format!(" {h:<w$} "))
        .collect();
    println!("{}", header.join("|"));
    println!("{line}");
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect();
        println!("{}", cells.join("|"));
    }
    println!("{line}");
}

/// A command-line flag a bench binary accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--quick`: the reduced workload. Every binary accepts it.
    Quick,
    /// `--precision <f32|int8|both>` or `--precision=<mode>`.
    Precision,
    /// `--quant-gate`: fail unless int8 holds f32's accuracy and saves
    /// energy. Needs the int8 path, so `--precision f32` rejects it.
    QuantGate,
}

impl Flag {
    fn usage(self) -> &'static str {
        match self {
            Flag::Quick => "[--quick]",
            Flag::Precision => "[--precision <f32|int8|both>]",
            Flag::QuantGate => "[--quant-gate]",
        }
    }
}

/// The flags a bench binary was given.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Flags {
    /// `--quick` was given.
    pub quick: bool,
    /// The `--precision` mode, when given.
    pub precision: Option<String>,
    /// `--quant-gate` was given.
    pub quant_gate: bool,
}

/// Parses `args` (program name excluded) against the `accepted` flags.
///
/// # Errors
///
/// A message naming the offending argument: a flag not in `accepted`, a
/// positional argument, a missing or unknown `--precision` mode, or
/// `--quant-gate` with `--precision f32`.
pub fn parse_flags(args: &[String], accepted: &[Flag]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        match name {
            "--quick" if inline.is_none() && accepted.contains(&Flag::Quick) => flags.quick = true,
            "--quant-gate" if inline.is_none() && accepted.contains(&Flag::QuantGate) => {
                flags.quant_gate = true;
            }
            "--precision" if accepted.contains(&Flag::Precision) => {
                let mode = inline
                    .or_else(|| rest.next().cloned())
                    .ok_or("--precision needs a value")?;
                if !matches!(mode.as_str(), "f32" | "int8" | "both") {
                    return Err(format!(
                        "--precision must be f32, int8 or both, not {mode:?}"
                    ));
                }
                flags.precision = Some(mode);
            }
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    if flags.quant_gate && flags.precision.as_deref() == Some("f32") {
        return Err("--quant-gate needs the int8 path; drop --precision f32".into());
    }
    Ok(flags)
}

/// This process's flags, parsed against `accepted`. On a bad argument it
/// prints the error and a usage line to stderr and exits with status 2.
pub fn flags(accepted: &[Flag]) -> Flags {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    parse_flags(&args, accepted).unwrap_or_else(|e| {
        let program = std::path::Path::new(&program)
            .file_name()
            .map_or(program.clone(), |n| n.to_string_lossy().into_owned());
        let usage: Vec<&str> = accepted.iter().map(|f| f.usage()).collect();
        eprintln!("error: {e}\nusage: {program} {}", usage.join(" "));
        std::process::exit(2)
    })
}

/// Parses the common `--quick` flag into an [`ExperimentScale`].
pub fn scale_from_args() -> ExperimentScale {
    if flags(&[Flag::Quick]).quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::standard()
    }
}

/// Resolves where a sweep binary writes its report `name`: inside the
/// `BLISS_BENCH_OUT` directory when set, else at the workspace root
/// ([`criterion::workspace_root`]).
pub fn report_path(name: &str) -> std::path::PathBuf {
    let out = std::env::var("BLISS_BENCH_OUT").ok();
    report_path_in(out.as_deref(), &criterion::workspace_root(), name)
}

/// The path of report `name`: inside the `out` directory when it is given
/// and non-empty, else inside `root`. Each name keeps its own file.
fn report_path_in(out: Option<&str>, root: &std::path::Path, name: &str) -> std::path::PathBuf {
    match out {
        Some(dir) if !dir.is_empty() => std::path::Path::new(dir).join(name),
        _ => root.join(name),
    }
}

/// `report`'s JSON opened by the `provenance` object of the checkout at
/// `root` ([`criterion::provenance_json`]: commit, CPU model, nproc).
/// `report` must serialise as a JSON object with at least one field, as
/// every sweep report does.
pub fn report_json(root: &std::path::Path, report: &impl Serialize) -> String {
    let json = report.to_json();
    let members = json
        .strip_prefix('{')
        .expect("a sweep report serialises as a JSON object");
    format!(
        "{{\"provenance\":{},{members}",
        criterion::provenance_json(root)
    )
}

/// Writes sweep report `name` to [`report_path`], opened by the
/// checkout's provenance (see [`report_json`]). A write error is reported,
/// not fatal.
pub fn write_report(name: &str, report: &impl Serialize) {
    let path = report_path(name);
    match std::fs::write(&path, report_json(&criterion::workspace_root(), report)) {
        Ok(()) => println!("wrote {name} to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Stops tracing, drains the span ring into its per-stage breakdown and
/// writes it as Perfetto-loadable Chrome trace JSON to trace file `name`,
/// validated by re-parsing first. Returns the breakdown and the count of
/// spans the ring dropped (0 = the trace is complete).
pub fn drain_trace(name: &str) -> (Vec<StageSummary>, u64) {
    bliss_telemetry::set_enabled(false);
    let dropped = bliss_telemetry::spans_dropped();
    let recorded = bliss_telemetry::spans_recorded();
    let spans = bliss_telemetry::take_spans();
    assert_eq!(
        recorded,
        spans.len(),
        "the ring must hand over every span it recorded"
    );
    let trace_json = chrome_trace_json(&spans);
    let events = JsonValue::parse(&trace_json)
        .expect("trace JSON must parse")
        .field("traceEvents")
        .and_then(|v| v.expect_array().map(<[JsonValue]>::len))
        .expect("traceEvents array");
    println!(
        "traced {} spans ({dropped} dropped) into {events} Chrome trace events",
        spans.len()
    );
    let path = report_path(name);
    match std::fs::write(&path, &trace_json) {
        Ok(()) => println!("wrote Perfetto trace to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    (stage_breakdown(&spans), dropped)
}

/// Formats seconds as adaptive ms/us text.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.1} us", seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_units() {
        assert_eq!(fmt_time(2e-3), "2.00 ms");
        assert_eq!(fmt_time(5e-6), "5.0 us");
    }

    fn parse(args: &[&str], accepted: &[Flag]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_flags(&args, accepted)
    }

    #[test]
    fn parse_flags_reads_quick_and_both_precision_forms() {
        let all = [Flag::Quick, Flag::Precision];
        assert_eq!(parse(&[], &all), Ok(Flags::default()));
        let want = Flags {
            quick: true,
            precision: Some("int8".to_string()),
            quant_gate: false,
        };
        assert_eq!(
            parse(&["--quick", "--precision=int8"], &all).as_ref(),
            Ok(&want)
        );
        assert_eq!(parse(&["--precision", "int8", "--quick"], &all), Ok(want));
    }

    #[test]
    fn parse_flags_rejects_unknown_and_unaccepted_flags() {
        let all = [Flag::Quick, Flag::Precision];
        assert!(parse(&["--quikc"], &all).unwrap_err().contains("--quikc"));
        assert!(parse(&["quick"], &all).is_err());
        assert!(parse(&["--quick=1"], &all).is_err());
        // A flag another binary takes is still unknown here.
        assert!(parse(&["--precision", "f32"], &[Flag::Quick]).is_err());
    }

    #[test]
    fn parse_flags_rejects_a_missing_or_unknown_precision() {
        let all = [Flag::Quick, Flag::Precision];
        assert!(parse(&["--precision"], &all)
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["--precision", "fp16"], &all).is_err());
        assert!(parse(&["--precision="], &all).is_err());
    }

    #[test]
    fn parse_flags_reads_the_quant_gate_with_an_int8_precision() {
        let all = [Flag::Quick, Flag::Precision, Flag::QuantGate];
        for args in [
            &["--quick", "--quant-gate"][..],
            &["--precision", "int8", "--quant-gate"],
            &["--quant-gate", "--precision=both"],
        ] {
            assert!(parse(args, &all).unwrap().quant_gate, "{args:?}");
        }
        assert!(!parse(&["--quick"], &all).unwrap().quant_gate);
    }

    #[test]
    fn parse_flags_rejects_a_quant_gate_without_the_int8_path() {
        let all = [Flag::Quick, Flag::Precision, Flag::QuantGate];
        for args in [
            &["--quant-gate", "--precision", "f32"][..],
            &["--precision=f32", "--quant-gate"],
        ] {
            let e = parse(args, &all).unwrap_err();
            assert!(e.contains("--quant-gate") && e.contains("f32"), "{e}");
        }
        assert!(parse(&["--quant-gate=1"], &all).is_err());
        // Only the binaries that accept it take it.
        assert!(parse(&["--quant-gate"], &[Flag::Quick, Flag::Precision]).is_err());
    }

    #[test]
    fn sweep_reports_open_with_provenance() {
        #[derive(Serialize)]
        struct Sweep {
            mode: String,
        }
        let root = std::path::Path::new("/nonexistent");
        let json = report_json(
            root,
            &Sweep {
                mode: "quick".into(),
            },
        );
        assert!(
            json.starts_with("{\"provenance\":{\"commit\": \"unknown\", \"cpu\": \""),
            "{json}"
        );
        let value = JsonValue::parse(&json).expect("the report stays valid JSON");
        let members = value.expect_object().expect("an object");
        assert_eq!(members[0].0, "provenance");
        assert_eq!(members[1].0, "mode");
        assert!(value.field("provenance").unwrap().field("nproc").is_ok());
    }

    #[test]
    fn report_names_stay_distinct_under_the_out_directory() {
        let root = std::path::Path::new("/checkout");
        let trace = report_path_in(Some("out"), root, "TRACE_serve.json");
        let bench = report_path_in(Some("out"), root, "BENCH_serve.json");
        assert_ne!(trace, bench);
        assert_eq!(bench, std::path::Path::new("out/BENCH_serve.json"));
        assert_eq!(
            report_path_in(Some(""), root, "BENCH_serve.json"),
            root.join("BENCH_serve.json")
        );
        assert_eq!(
            report_path_in(None, root, "BENCH_fleet.json"),
            root.join("BENCH_fleet.json")
        );
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
    }
}
