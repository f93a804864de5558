//! Workload definitions and the timed set-up of one serving instance:
//! training, runtime build with paper-scale timing, int8 calibration and a
//! warm-up pass on the warm-up seed.

use crate::stats::secs;
use bliss_eye::{render_sequence, SequenceConfig};
use bliss_fleet::{FleetConfig, FleetOutcome, FleetRuntime, PlacementPolicy};
use bliss_serve::{Precision, ServeConfig, ServeOutcome, ServeRuntime};
use bliss_tensor::TensorError;
use bliss_track::{JointTrainer, RoiPredictionNet, SparseViT};
use blisscam_core::SystemConfig;
use std::time::Instant;

/// Population seed of every warm-up pass. Distinct from any workload seed a
/// run is likely to get, so the measured phase starts on unseen inputs.
pub const WARMUP_SEED: u64 = 0x57A2_7ED0_0000_0001;
/// Seed of the fixed fault plan on fleet-chaos.
pub const CHAOS_PLAN_SEED: u64 = 0xC4A0;
/// Batches between per-host checkpoints on fleet-chaos.
pub const CHECKPOINT_INTERVAL: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sessions on one `ServeRuntime`, stepped batch by batch.
    Serve,
    /// `FleetRuntime::serve_chaos` over several hosts.
    Fleet,
}

/// One workload: its load point and how much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub sessions: usize,
    pub frames: usize,
    pub max_batch: usize,
    pub precision: Precision,
    pub hosts: usize,
    /// Measured rounds per second of `--seconds`: a run serves
    /// `max(1, round(seconds * rounds_per_s))` rounds, so the work done (and
    /// with it every modelled metric) depends only on seed and run length.
    pub rounds_per_s: f64,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "serve-batched",
        kind: Kind::Serve,
        sessions: 8,
        frames: 32,
        max_batch: 16,
        precision: Precision::F32,
        hosts: 1,
        rounds_per_s: 0.6,
    },
    Spec {
        name: "device-int8",
        kind: Kind::Serve,
        sessions: 1,
        frames: 120,
        max_batch: 1,
        precision: Precision::Int8,
        hosts: 1,
        rounds_per_s: 1.6,
    },
    Spec {
        name: "fleet-chaos",
        kind: Kind::Fleet,
        sessions: 12,
        frames: 12,
        max_batch: 16,
        precision: Precision::F32,
        hosts: 2,
        rounds_per_s: 0.3,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds * self.rounds_per_s).round() as usize).max(1)
    }

    /// The serve load point for one population seed.
    pub fn serve_config(&self, seed: u64) -> ServeConfig {
        let mut cfg = ServeConfig::new(self.sessions, self.frames).at_precision(self.precision);
        cfg.max_batch = self.max_batch;
        cfg.seed = seed;
        cfg
    }

    /// The fleet load point for one population seed.
    pub fn fleet_config(&self, seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::new(
            self.hosts,
            PlacementPolicy::LeastLoaded,
            self.sessions,
            self.frames,
        );
        cfg.serve = self.serve_config(seed);
        cfg
    }
}

/// SplitMix64 finaliser: derives independent population seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The executable system every workload serves: the default miniature.
pub fn system() -> SystemConfig {
    SystemConfig::miniature()
}

/// Wall seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub train_s: f64,
    pub build_s: f64,
    pub int8_calibrate_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.train_s + self.build_s + self.int8_calibrate_s + self.warmup_s
    }
}

/// What the warm-up pass produced; two set-ups must produce the same.
#[derive(Debug, PartialEq)]
pub enum Warmup {
    Serve(ServeOutcome),
    Fleet(FleetOutcome),
}

/// The runtime a workload serves through.
pub enum Host {
    Serve(ServeRuntime),
    Fleet(FleetRuntime),
}

/// One set-up instance. `vit` and `roi_net` are clones of the runtime's
/// networks: they share its weights and its plan caches.
pub struct Instance {
    pub vit: SparseViT,
    pub roi_net: RoiPredictionNet,
    pub host: Host,
    pub times: SetupTimes,
}

impl Instance {
    pub fn runtime(&self) -> &ServeRuntime {
        match &self.host {
            Host::Serve(rt) => rt,
            Host::Fleet(fleet) => fleet.serve_runtime(),
        }
    }

    pub fn fleet(&self) -> &FleetRuntime {
        match &self.host {
            Host::Fleet(fleet) => fleet,
            Host::Serve(_) => panic!("not a fleet workload"),
        }
    }
}

/// Trains the networks, builds the workload's runtime, calibrates int8 when
/// the workload serves int8, and serves one warm-up population.
pub fn set_up(spec: &Spec) -> Result<(Instance, Warmup), TensorError> {
    let system = system();
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let train_seq = render_sequence(&SequenceConfig {
        width: system.width,
        height: system.height,
        frames: system.train_frames.max(8),
        fps: system.fps as f32,
        seed: system.seed,
    });
    let mut trainer = JointTrainer::new(system.train_config())?;
    trainer.train_on(&train_seq)?;
    let vit = trainer.vit().clone();
    let roi_net = trainer.roi_net().clone();
    drop(trainer);
    times.train_s = secs(t);

    let t = Instant::now();
    let host = match spec.kind {
        Kind::Serve => Host::Serve(
            ServeRuntime::with_networks(system, vit.clone(), roi_net.clone())
                .with_paper_scale_timing(),
        ),
        Kind::Fleet => Host::Fleet(
            FleetRuntime::with_networks(system, vit.clone(), roi_net.clone())
                .with_paper_scale_timing(),
        ),
    };
    times.build_s = secs(t);

    let warmup_cfg = spec.serve_config(WARMUP_SEED);
    let t = Instant::now();
    match &host {
        Host::Serve(rt) => rt.apply_precision(&warmup_cfg)?,
        Host::Fleet(fleet) => fleet.serve_runtime().apply_precision(&warmup_cfg)?,
    }
    times.int8_calibrate_s = secs(t);

    let t = Instant::now();
    let warmup = match &host {
        Host::Serve(rt) => Warmup::Serve(rt.serve(&warmup_cfg)?),
        Host::Fleet(fleet) => Warmup::Fleet(fleet.serve(&spec.fleet_config(WARMUP_SEED))?),
    };
    times.warmup_s = secs(t);

    Ok((
        Instance {
            vit,
            roi_net,
            host,
            times,
        },
        warmup,
    ))
}
