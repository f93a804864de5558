//! The metrics registry: statically-allocated counters, gauges and
//! fixed-bucket atomic histograms.
//!
//! Everything here is a `static` with interior atomic state, so
//! instrumented crates record by touching a global — no handles, no
//! registration at runtime, no allocation. Every mutator self-guards on
//! [`crate::enabled`] (one relaxed load and a branch), so instrumentation
//! left compiled into hot paths costs one predictable test when telemetry
//! is off. [`metrics_snapshot`] freezes the registry into a serialisable,
//! comparable [`MetricsSnapshot`] for the bench reports.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Scenario slots tracked per-scenario (indexed by
/// `bliss_eye::Scenario::index`; the eye crate has 5, the registry leaves
/// headroom). Out-of-range indices clamp into the last slot.
pub const MAX_SCENARIOS: usize = 8;

/// Fleet host slots tracked per-host. Out-of-range hosts clamp into the
/// last slot.
pub const MAX_HOSTS: usize = 64;

/// A monotone event counter.
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const: usable in statics).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` when telemetry is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (snapshot hygiene between runs; bypasses the enable
    /// guard so a disabled registry can still be cleaned).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge (const: usable in statics).
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value when telemetry is enabled.
    #[inline]
    pub fn set(&self, value: f64) {
        if crate::enabled() {
            self.0.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Resets to zero (bypasses the enable guard).
    pub fn reset(&self) {
        self.0.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of buckets in an [`AtomicHistogram`].
pub const ATOMIC_HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free geometric histogram for **non-negative** samples, safe to
/// record into from worker threads. Bucket `i` covers
/// `[base·2^(i/bpo), base·2^((i+1)/bpo))` where `bpo` is
/// buckets-per-octave; underflow clamps into bucket 0, overflow into the
/// last bucket. The exact maximum rides on the side (as `f64` bits, whose
/// integer order matches the float order for non-negative values).
pub struct AtomicHistogram {
    base: f64,
    buckets_per_octave: f64,
    buckets: [AtomicU64; ATOMIC_HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl AtomicHistogram {
    /// A zeroed histogram with the given geometry (const: usable in
    /// statics). `base` is the lower edge of bucket 0;
    /// `buckets_per_octave` controls resolution (2.0 ⇒ √2 growth).
    pub const fn new(base: f64, buckets_per_octave: f64) -> Self {
        AtomicHistogram {
            base,
            buckets_per_octave,
            buckets: [const { AtomicU64::new(0) }; ATOMIC_HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }

    fn bucket_of(&self, value: f64) -> usize {
        if value < self.base {
            return 0;
        }
        let idx = (self.buckets_per_octave * (value / self.base).log2()).floor();
        (idx as usize).min(ATOMIC_HISTOGRAM_BUCKETS - 1)
    }

    /// Exclusive upper edge of bucket `i`.
    pub fn bucket_upper(&self, i: usize) -> f64 {
        self.base * 2f64.powf((i as f64 + 1.0) / self.buckets_per_octave)
    }

    /// Records one non-negative sample when telemetry is enabled.
    /// Lock-free; no allocation.
    #[inline]
    pub fn record(&self, value: f64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[self.bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_bits.fetch_max(value.to_bits(), Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Mean of every recorded sample (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            f64::from_bits(self.sum_bits.load(Ordering::Relaxed)) / n as f64
        }
    }

    /// Nearest-rank quantile `q ∈ [0, 1]` (bucket upper edge, clamped to
    /// the exact maximum; 0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for i in 0..ATOMIC_HISTOGRAM_BUCKETS {
            seen += self.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                if i == ATOMIC_HISTOGRAM_BUCKETS - 1 {
                    return self.max();
                }
                return self.bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Resets all state (bypasses the enable guard).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
        self.max_bits.store(0, Ordering::Relaxed);
    }

    fn summary(&self, name: &str) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

// ---------------------------------------------------------------------------
// The well-known registry.
// ---------------------------------------------------------------------------

/// Compiled-plan cache hits (`bliss_tensor::PlanCache`).
pub static PLAN_CACHE_HITS: Counter = Counter::new();
/// Compiled-plan cache misses (each miss compiles a plan).
pub static PLAN_CACHE_MISSES: Counter = Counter::new();
/// Plans evicted by the cache's FIFO bound.
pub static PLAN_CACHE_EVICTIONS: Counter = Counter::new();
/// Execution plans compiled by the lifetime planner (cache misses and
/// uncached compiles alike).
pub static PLANS_COMPILED: Counter = Counter::new();
/// Live plans currently cached.
pub static PLAN_CACHE_PLANS: Gauge = Gauge::new();
/// Total arena elements (f32 slots) retained by cached plans.
pub static PLAN_ARENA_ELEMS: Gauge = Gauge::new();

/// Scratch-pool misses on `f32` buffers (each miss is a fresh allocation).
pub static SCRATCH_F32_MISSES: Counter = Counter::new();
/// Scratch-pool misses on index buffers.
pub static SCRATCH_INDEX_MISSES: Counter = Counter::new();
/// Bytes retained by the calling thread's scratch pools (set at snapshot
/// points by the serving layer).
pub static SCRATCH_RETAINED_BYTES: Gauge = Gauge::new();
/// Bytes retained by the cross-thread scratch shelf.
pub static SHELF_RETAINED_BYTES: Gauge = Gauge::new();

/// Sensor frames exposed+eventified by any front-end.
pub static SENSOR_FRAMES: Counter = Counter::new();
/// Frames read out without sensor-side feedback (cold start: full-frame
/// readout path).
pub static COLD_START_FRAMES: Counter = Counter::new();

/// Frames completed by the serving scheduler.
pub static FRAMES_SERVED: Counter = Counter::new();
/// Inference batches launched by the serving scheduler.
pub static BATCHES_LAUNCHED: Counter = Counter::new();
/// Frames that missed their scenario deadline.
pub static DEADLINE_MISSES: Counter = Counter::new();

/// Faults the chaos engine actually triggered (crashes, slow-host windows,
/// batch timeouts and corrupt checkpoint reads alike; scheduled faults that
/// never fired — e.g. a crash aimed at an already-drained host — are not
/// counted).
pub static FAULTS_INJECTED: Counter = Counter::new();
/// Host failures recovered by snapshot-based failover.
pub static FAILOVERS: Counter = Counter::new();
/// Frames re-served after a failover (work lost between the dead host's
/// last checkpoint and its crash).
pub static FRAMES_REPLAYED: Counter = Counter::new();
/// Frames served in degraded mode: host inference skipped, gaze held from
/// the feedback ROI.
pub static FRAMES_SHED: Counter = Counter::new();
/// Batch launches that timed out and were retried with backoff.
pub static BATCH_TIMEOUTS: Counter = Counter::new();
/// Checkpoint reads during failover that failed to parse, named another
/// model or held a session that would not restore (the engine falls back to
/// the previous checkpoint).
pub static CORRUPT_CHECKPOINT_READS: Counter = Counter::new();
/// Periodic per-host checkpoints taken by the chaos engine.
pub static CHECKPOINTS_TAKEN: Counter = Counter::new();
/// Sessions moved onto a surviving host by failover.
pub static SESSIONS_RECOVERED: Counter = Counter::new();

/// Per-scenario served-frame counters (index `Scenario::index`, clamped).
pub static SCENARIO_FRAMES: [Counter; MAX_SCENARIOS] = [const { Counter::new() }; MAX_SCENARIOS];
/// Per-scenario deadline-miss counters.
pub static SCENARIO_DEADLINE_MISSES: [Counter; MAX_SCENARIOS] =
    [const { Counter::new() }; MAX_SCENARIOS];

/// Per-host busy-fraction gauges, set by the fleet runtime at finish.
pub static HOST_UTILISATION: [Gauge; MAX_HOSTS] = [const { Gauge::new() }; MAX_HOSTS];
/// Hosts active in the current fleet (0 outside a fleet).
pub static FLEET_HOSTS: Gauge = Gauge::new();

/// Distribution of inference batch sizes (base 1, 4 buckets/octave:
/// exact-ish for the small batch range).
pub static BATCH_OCCUPANCY: AtomicHistogram = AtomicHistogram::new(1.0, 4.0);
/// Distribution of per-frame virtual-time latency, seconds (canonical
/// latency geometry: 1 µs base, √2 growth).
pub static FRAME_LATENCY_S: AtomicHistogram = AtomicHistogram::new(1e-6, 2.0);
/// Distribution of failover recovery latency, seconds (virtual time from a
/// host crash to the first replayed frame's completion on its adoptive
/// host; canonical latency geometry).
pub static RECOVERY_LATENCY_S: AtomicHistogram = AtomicHistogram::new(1e-6, 2.0);

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// A named counter value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterValue {
    /// Metric name.
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// A named gauge value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeValue {
    /// Metric name.
    pub name: String,
    /// Gauge value at snapshot time.
    pub value: f64,
}

/// Summary statistics of one histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median (bucket upper edge).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

/// A frozen, serialisable view of the whole registry.
///
/// Zero-valued per-scenario and per-host slots are omitted so the snapshot
/// stays proportional to what the run actually touched.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Every (touched) counter.
    pub counters: Vec<CounterValue>,
    /// Every (touched) gauge.
    pub gauges: Vec<GaugeValue>,
    /// Histogram summaries.
    pub histograms: Vec<HistogramSummary>,
}

fn named_counters() -> [(&'static str, &'static Counter); 20] {
    [
        ("plan_cache_hits", &PLAN_CACHE_HITS),
        ("plan_cache_misses", &PLAN_CACHE_MISSES),
        ("plan_cache_evictions", &PLAN_CACHE_EVICTIONS),
        ("plans_compiled", &PLANS_COMPILED),
        ("scratch_f32_misses", &SCRATCH_F32_MISSES),
        ("scratch_index_misses", &SCRATCH_INDEX_MISSES),
        ("sensor_frames", &SENSOR_FRAMES),
        ("cold_start_frames", &COLD_START_FRAMES),
        ("frames_served", &FRAMES_SERVED),
        ("batches_launched", &BATCHES_LAUNCHED),
        ("deadline_misses", &DEADLINE_MISSES),
        ("faults_injected", &FAULTS_INJECTED),
        ("failovers", &FAILOVERS),
        ("frames_replayed", &FRAMES_REPLAYED),
        ("frames_shed", &FRAMES_SHED),
        ("batch_timeouts", &BATCH_TIMEOUTS),
        ("corrupt_checkpoint_reads", &CORRUPT_CHECKPOINT_READS),
        ("checkpoints_taken", &CHECKPOINTS_TAKEN),
        ("sessions_recovered", &SESSIONS_RECOVERED),
        ("spans_dropped", &SPANS_DROPPED_PROXY),
    ]
}

/// Proxy so the ring's drop counter appears in the snapshot uniformly; the
/// value is copied in by [`metrics_snapshot`], not recorded directly.
static SPANS_DROPPED_PROXY: Counter = Counter::new();

fn named_gauges() -> [(&'static str, &'static Gauge); 6] {
    [
        ("plan_cache_plans", &PLAN_CACHE_PLANS),
        ("plan_arena_elems", &PLAN_ARENA_ELEMS),
        ("scratch_retained_bytes", &SCRATCH_RETAINED_BYTES),
        ("shelf_retained_bytes", &SHELF_RETAINED_BYTES),
        ("fleet_hosts", &FLEET_HOSTS),
        ("spans_recorded", &SPANS_RECORDED_PROXY),
    ]
}

/// Proxy for the ring's current fill, copied in by [`metrics_snapshot`].
static SPANS_RECORDED_PROXY: Gauge = Gauge::new();

/// Freezes the registry into a [`MetricsSnapshot`].
///
/// Deterministic field order (registration order, then scenario/host
/// index), so two snapshots of identical state compare equal.
pub fn metrics_snapshot() -> MetricsSnapshot {
    // The proxies mirror ring state; poke them in regardless of the enable
    // flag so a disabled-but-drained snapshot is still honest.
    SPANS_DROPPED_PROXY
        .0
        .store(crate::spans_dropped(), Ordering::Relaxed);
    SPANS_RECORDED_PROXY.0.store(
        (crate::spans_recorded() as f64).to_bits(),
        Ordering::Relaxed,
    );

    let mut counters: Vec<CounterValue> = named_counters()
        .iter()
        .map(|(name, c)| CounterValue {
            name: name.to_string(),
            value: c.get(),
        })
        .collect();
    for (i, c) in SCENARIO_FRAMES.iter().enumerate() {
        if c.get() > 0 {
            counters.push(CounterValue {
                name: format!("scenario_{i}_frames"),
                value: c.get(),
            });
        }
    }
    for (i, c) in SCENARIO_DEADLINE_MISSES.iter().enumerate() {
        if c.get() > 0 {
            counters.push(CounterValue {
                name: format!("scenario_{i}_deadline_misses"),
                value: c.get(),
            });
        }
    }

    let mut gauges: Vec<GaugeValue> = named_gauges()
        .iter()
        .map(|(name, g)| GaugeValue {
            name: name.to_string(),
            value: g.get(),
        })
        .collect();
    for (i, g) in HOST_UTILISATION.iter().enumerate() {
        if g.get() != 0.0 {
            gauges.push(GaugeValue {
                name: format!("host_{i}_utilisation"),
                value: g.get(),
            });
        }
    }

    MetricsSnapshot {
        counters,
        gauges,
        histograms: vec![
            BATCH_OCCUPANCY.summary("batch_occupancy"),
            FRAME_LATENCY_S.summary("frame_latency_s"),
            RECOVERY_LATENCY_S.summary("recovery_latency_s"),
        ],
    }
}

/// Zeroes every metric in the registry (bypasses the enable guard).
pub fn reset_metrics() {
    for (_, c) in named_counters() {
        c.reset();
    }
    for (_, g) in named_gauges() {
        g.reset();
    }
    for c in SCENARIO_FRAMES
        .iter()
        .chain(SCENARIO_DEADLINE_MISSES.iter())
    {
        c.reset();
    }
    for g in HOST_UTILISATION.iter() {
        g.reset();
    }
    BATCH_OCCUPANCY.reset();
    FRAME_LATENCY_S.reset();
    RECOVERY_LATENCY_S.reset();
}

impl MetricsSnapshot {
    /// Looks up a counter by name (0 when absent — absent means untouched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Looks up a gauge by name (0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map_or(0.0, |g| g.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::StreamingHistogram;
    use crate::test_support;

    #[test]
    fn counters_and_gauges_respect_the_enable_guard() {
        let _g = test_support::lock();
        let c = Counter::new();
        let g = Gauge::new();
        crate::set_enabled(false);
        c.add(3);
        g.set(1.5);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        crate::set_enabled(true);
        c.add(3);
        g.set(1.5);
        crate::set_enabled(false);
        assert_eq!(c.get(), 3);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn atomic_histogram_quantiles_match_streaming_geometry() {
        let _g = test_support::lock();
        let h = AtomicHistogram::new(1e-6, 2.0);
        let mut s = StreamingHistogram::new();
        crate::set_enabled(true);
        for i in 1..=500 {
            let v = i as f64 * 2e-5;
            h.record(v);
            s.record(v);
        }
        crate::set_enabled(false);
        assert_eq!(h.count(), s.count());
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert!((h.quantile(q) - s.quantile_s(q)).abs() < 1e-12);
        }
        h.reset();
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn snapshot_roundtrip_and_lookup() {
        let _g = test_support::lock();
        reset_metrics();
        crate::set_enabled(true);
        PLAN_CACHE_HITS.add(7);
        SCENARIO_FRAMES[2].add(4);
        HOST_UTILISATION[1].set(0.5);
        BATCH_OCCUPANCY.record(8.0);
        crate::set_enabled(false);
        let snap = metrics_snapshot();
        assert_eq!(snap.counter("plan_cache_hits"), 7);
        assert_eq!(snap.counter("scenario_2_frames"), 4);
        assert_eq!(snap.counter("scenario_3_frames"), 0);
        assert_eq!(snap.gauge("host_1_utilisation"), 0.5);
        assert_eq!(snap.histograms[0].count, 1);
        // Two snapshots of the same state are equal (determinism of order).
        assert_eq!(snap, metrics_snapshot());
        reset_metrics();
        assert_eq!(metrics_snapshot().counter("plan_cache_hits"), 0);
    }
}
