//! Exporters: Chrome trace-event JSON and per-stage aggregates.
//!
//! [`chrome_trace_json`] emits the Trace Event Format's JSON-object form
//! (`{"traceEvents": [...]}`) with complete (`"ph": "X"`) events, which
//! both Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load
//! directly. Virtual time maps to the trace timeline (microseconds); fleet
//! hosts map to `pid` and sessions to `tid`, so the UI groups tracks by
//! host then session; wall time, batch size and scenario ride in `args`.

use crate::span::{SpanRecord, Stage};
use serde::{Deserialize, Serialize};

/// Per-event metadata carried in the Chrome trace `args` object.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceArgs {
    /// Frame index within the session.
    pub frame: u32,
    /// Inference batch size the frame rode in.
    pub batch: u32,
    /// Scenario index of the owning session.
    pub scenario: u8,
    /// Wall-clock duration of the span's execution region, microseconds.
    pub wall_us: f64,
}

/// One complete-duration event in the Trace Event Format.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[allow(non_snake_case)]
pub struct TraceEvent {
    /// Stage label (the track slice name).
    pub name: String,
    /// Event category (always `"stage"`).
    pub cat: String,
    /// Phase: `"X"` (complete event with a duration).
    pub ph: String,
    /// Start timestamp in microseconds of virtual time.
    pub ts: f64,
    /// Duration in microseconds of virtual time.
    pub dur: f64,
    /// Process id: the fleet host.
    pub pid: u32,
    /// Thread id: the session.
    pub tid: u32,
    /// Metadata shown in the Perfetto args panel.
    pub args: TraceArgs,
}

/// The JSON-object form of the Trace Event Format.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[allow(non_snake_case)]
pub struct ChromeTrace {
    /// The event list (`traceEvents` is the format's required key).
    pub traceEvents: Vec<TraceEvent>,
}

impl ChromeTrace {
    /// Builds the trace object from recorded spans.
    pub fn from_spans(spans: &[SpanRecord]) -> ChromeTrace {
        ChromeTrace {
            traceEvents: spans
                .iter()
                .map(|s| TraceEvent {
                    name: s.stage.label().to_string(),
                    cat: "stage".to_string(),
                    ph: "X".to_string(),
                    ts: s.virt_start_s * 1e6,
                    dur: s.virt_dur_s * 1e6,
                    pid: s.host,
                    tid: s.session,
                    args: TraceArgs {
                        frame: s.frame,
                        batch: s.batch,
                        scenario: s.scenario,
                        wall_us: s.wall_dur_ns as f64 / 1e3,
                    },
                })
                .collect(),
        }
    }
}

/// Serialises recorded spans as Perfetto-loadable Chrome trace JSON.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    ChromeTrace::from_spans(spans).to_json()
}

/// Aggregate of every span of one stage, for the bench reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Stage label.
    pub stage: String,
    /// Spans recorded for this stage.
    pub spans: u64,
    /// Mean virtual duration, milliseconds.
    pub mean_virt_ms: f64,
    /// Total virtual time spent in this stage, milliseconds.
    pub total_virt_ms: f64,
    /// Mean wall duration of the span's execution region, microseconds.
    pub mean_wall_us: f64,
}

/// Folds spans into one [`StageSummary`] per pipeline stage, in
/// [`Stage::ALL`] order (stages with no spans report zeros).
pub fn stage_breakdown(spans: &[SpanRecord]) -> Vec<StageSummary> {
    let mut count = [0u64; Stage::ALL.len()];
    let mut virt = [0f64; Stage::ALL.len()];
    let mut wall = [0f64; Stage::ALL.len()];
    for s in spans {
        let i = s.stage.index();
        count[i] += 1;
        virt[i] += s.virt_dur_s;
        wall[i] += s.wall_dur_ns as f64;
    }
    Stage::ALL
        .iter()
        .enumerate()
        .map(|(i, stage)| StageSummary {
            stage: stage.label().to_string(),
            spans: count[i],
            mean_virt_ms: if count[i] == 0 {
                0.0
            } else {
                virt[i] * 1e3 / count[i] as f64
            },
            total_virt_ms: virt[i] * 1e3,
            mean_wall_us: if count[i] == 0 {
                0.0
            } else {
                wall[i] / 1e3 / count[i] as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::JsonValue;

    fn span(stage: Stage, session: u32, virt_start_s: f64, virt_dur_s: f64) -> SpanRecord {
        SpanRecord {
            stage,
            session,
            virt_start_s,
            virt_dur_s,
            batch: 4,
            wall_dur_ns: 2_000,
            ..SpanRecord::ZERO
        }
    }

    fn str_of(v: &JsonValue) -> &str {
        match v {
            JsonValue::String(s) => s,
            other => panic!("expected string, got {}", other.kind()),
        }
    }

    fn num_of(v: &JsonValue) -> f64 {
        match v {
            JsonValue::Number(tok) => tok.parse().expect("numeric token"),
            other => panic!("expected number, got {}", other.kind()),
        }
    }

    #[test]
    fn chrome_trace_parses_and_maps_ids() {
        let spans = [
            span(Stage::Expose, 0, 0.0, 4e-3),
            span(Stage::Inference, 1, 8e-3, 2e-3),
        ];
        let json = chrome_trace_json(&spans);
        let value = JsonValue::parse(&json).expect("trace JSON must parse");
        let events = value
            .field("traceEvents")
            .and_then(|v| v.expect_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        let ev = &events[1];
        assert_eq!(str_of(ev.field("name").unwrap()), "inference");
        assert_eq!(str_of(ev.field("ph").unwrap()), "X");
        assert_eq!(num_of(ev.field("tid").unwrap()), 1.0);
        assert_eq!(num_of(ev.field("ts").unwrap()), 8e3);
        assert_eq!(num_of(ev.field("dur").unwrap()), 2e3);
        let args = ev.field("args").expect("args object");
        assert_eq!(num_of(args.field("batch").unwrap()), 4.0);
        assert_eq!(num_of(args.field("wall_us").unwrap()), 2.0);
    }

    #[test]
    fn stage_breakdown_covers_all_stages_in_order() {
        let spans = [
            span(Stage::Expose, 0, 0.0, 4e-3),
            span(Stage::Expose, 1, 0.0, 2e-3),
            span(Stage::Inference, 0, 8e-3, 2e-3),
        ];
        let breakdown = stage_breakdown(&spans);
        assert_eq!(breakdown.len(), Stage::ALL.len());
        assert_eq!(breakdown[0].stage, "expose");
        assert_eq!(breakdown[0].spans, 2);
        assert!((breakdown[0].mean_virt_ms - 3.0).abs() < 1e-12);
        assert!((breakdown[0].total_virt_ms - 6.0).abs() < 1e-12);
        assert_eq!(breakdown[4].stage, "inference");
        assert_eq!(breakdown[4].spans, 1);
        assert_eq!(breakdown[1].spans, 0);
        assert_eq!(breakdown[1].mean_virt_ms, 0.0);
    }
}
