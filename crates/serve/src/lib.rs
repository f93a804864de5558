//! `bliss_serve` — the multi-session streaming runtime.
//!
//! This crate runs the executable BlissCam closed loop. One session is the
//! single-user eye tracker; the same runtime adds the serving layer a
//! production deployment needs: N concurrent sessions — each replaying its
//! own [`Scenario`](bliss_eye::Scenario)-parameterised oculomotor trace
//! (saccade-heavy, smooth-pursuit, fixation/drift, blink-storm, mixed) —
//! admitted by a **deterministic virtual-time scheduler** and served through
//! **cross-session batched inference**:
//!
//! * per-session sensor front ends — each an instance of the workspace's
//!   ONE shared per-frame pipeline,
//!   [`blisscam_core::SparseFrontEnd`] (noise → exposure → analog
//!   eventification → ROI input assembly → cold-start fallback →
//!   SRAM-sampled readout → RLE → feedback → gaze) — advance in
//!   parallel on the [`bliss_parallel`] pool; each session owns its state,
//!   so results are bit-identical for every thread count;
//! * up to [`ServeConfig::max_batch`] ready frames fuse into **one**
//!   [`SparseViT::forward_batch_into`](bliss_track::SparseViT::forward_batch_into)
//!   launch — one set of GEMM/attention kernels instead of K, with
//!   block-diagonal attention keeping sessions independent and every
//!   session's logits bit-identical to a solo run;
//! * frame latency, deadline misses, throughput and energy come from the
//!   analytic hardware models ([`blisscam_core::stage_durations`], the
//!   systolic-array host, the energy breakdown) driven by the *executed*
//!   token/pixel volumes — no wall clock anywhere in the results path.
//!
//! The output is a [`ServeReport`] (p50/p95/p99 latency, deadline-miss rate,
//! throughput, host-NPU utilisation, per-session accuracy and energy) that
//! serialises to JSON via the workspace's `serde` layer; `cargo run -p
//! bliss_bench --bin serve_sweep` sweeps 1→64 sessions into
//! `BENCH_serve.json`. One `ServeRuntime` models one host NPU — `bliss_fleet`
//! shards sessions across many of them behind a load balancer.
//!
//! # Example
//!
//! ```no_run
//! use bliss_serve::{ServeConfig, ServeRuntime};
//! use blisscam_core::SystemConfig;
//! use serde::Serialize as _;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Train the shared BlissCam networks once (seconds at miniature scale),
//! // then serve a fleet of 8 scenario-diverse sessions for 24 frames each.
//! let runtime = ServeRuntime::new(SystemConfig::miniature())?;
//! let outcome = runtime.serve(&ServeConfig::new(8, 24))?;
//! let report = &outcome.report;
//! println!(
//!     "p50/p95/p99 latency {:.2}/{:.2}/{:.2} ms, {:.1}% misses, {:.0} frames/s",
//!     report.latency.p50_ms,
//!     report.latency.p95_ms,
//!     report.latency.p99_ms,
//!     report.deadline_miss_rate * 100.0,
//!     report.throughput_fps,
//! );
//! println!("{}", report.to_json());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod report;
mod runtime;
mod session;
mod snapshot;

pub use blisscam_core::Precision;
pub use report::{LatencyStats, ServeReport, SessionSummary, SteadyStats};
pub use runtime::{
    ServeConfig, ServeOutcome, ServeRuntime, ServeState, SessionProgress, StepOptions, StepStats,
};
pub use session::{FrameRecord, SessionConfig, SessionTrace};
pub use snapshot::{
    parse_versioned, ModelImage, RestoredSession, ServeSnapshot, SessionSnapshot, ShardCheckpoint,
    SnapshotError, SNAPSHOT_VERSION,
};
