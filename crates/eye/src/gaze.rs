use rand::Rng;
use serde::{Deserialize, Serialize};

/// A gaze direction, in degrees of visual angle.
///
/// Positive horizontal = looking right (image-space), positive vertical =
/// looking up. The paper reports tracking error separately per axis
/// (Fig. 12a/b), so the two components are kept explicit.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Gaze {
    /// Horizontal gaze angle in degrees.
    pub horizontal_deg: f32,
    /// Vertical gaze angle in degrees.
    pub vertical_deg: f32,
}

impl Gaze {
    /// Creates a gaze from horizontal and vertical angles in degrees.
    pub fn new(horizontal_deg: f32, vertical_deg: f32) -> Self {
        Gaze {
            horizontal_deg,
            vertical_deg,
        }
    }

    /// Euclidean angular distance to another gaze, in degrees.
    pub fn angular_distance(&self, other: &Gaze) -> f32 {
        let dh = self.horizontal_deg - other.horizontal_deg;
        let dv = self.vertical_deg - other.vertical_deg;
        (dh * dh + dv * dv).sqrt()
    }
}

/// What the eye is currently doing; used to label corner cases (the paper
/// notes blinks and saccades are where pure eventification fails, §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MovementPhase {
    /// Stable gaze with micro-tremor and slow drift.
    Fixation,
    /// Ballistic rapid eye movement toward a new target.
    Saccade,
    /// Smooth pursuit of a slowly moving target.
    SmoothPursuit,
    /// Eyelids closing/reopening; gaze is held.
    Blink,
}

/// Per-frame kinematic state emitted by the trajectory generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GazeState {
    /// Current gaze direction.
    pub gaze: Gaze,
    /// Eyelid aperture in `[0, 1]`; 1 = fully open, 0 = closed.
    pub openness: f32,
    /// Pupil dilation factor relative to the nominal radius (≈0.9–1.1).
    pub pupil_dilation: f32,
    /// Current movement phase.
    pub phase: MovementPhase,
}

/// Configuration of the oculomotor trajectory synthesiser.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryConfig {
    /// Frames per second at which states are sampled.
    pub fps: f32,
    /// Maximum horizontal gaze eccentricity in degrees.
    pub max_horizontal_deg: f32,
    /// Maximum vertical gaze eccentricity in degrees (smaller than the
    /// horizontal range, as in human oculomotor statistics — and keeping the
    /// pupil clear of the eyelids most of the time).
    pub max_vertical_deg: f32,
    /// Peak saccade velocity in degrees/second. Humans reach ~700°/s
    /// (paper §II-A), which motivates the 120 Hz tracking requirement.
    pub saccade_peak_velocity: f32,
    /// Mean fixation duration in seconds.
    pub mean_fixation_s: f32,
    /// Mean interval between blinks in seconds.
    pub mean_blink_interval_s: f32,
    /// Blink duration in seconds (close + reopen).
    pub blink_duration_s: f32,
    /// Fraction of movements that are smooth pursuit instead of saccades.
    pub pursuit_probability: f32,
    /// Fixational tremor amplitude in degrees (1 sigma).
    pub tremor_deg: f32,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            fps: 120.0,
            max_horizontal_deg: 18.0,
            max_vertical_deg: 10.0,
            saccade_peak_velocity: 700.0,
            mean_fixation_s: 0.3,
            mean_blink_interval_s: 4.0,
            blink_duration_s: 0.2,
            pursuit_probability: 0.15,
            tremor_deg: 0.04,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    Fixation {
        remaining_s: f32,
    },
    Saccade {
        from: Gaze,
        to: Gaze,
        elapsed_s: f32,
        duration_s: f32,
    },
    Pursuit {
        velocity_h: f32,
        velocity_v: f32,
        remaining_s: f32,
    },
    Blink {
        elapsed_s: f32,
        resume_fixation_s: f32,
    },
}

/// A stateful oculomotor simulator producing per-frame [`GazeState`]s.
///
/// The generator follows the classic fixation → saccade → fixation cycle with
/// occasional smooth pursuit and blinks. Saccade kinematics use a
/// minimum-jerk position profile whose duration follows the "main sequence"
/// (duration grows with amplitude, peak velocity capped at
/// [`TrajectoryConfig::saccade_peak_velocity`]).
#[derive(Debug)]
pub struct TrajectoryGenerator<R: Rng> {
    config: TrajectoryConfig,
    rng: R,
    gaze: Gaze,
    phase: Phase,
    time_since_blink_s: f32,
    pupil_phase: f32,
}

impl<R: Rng> TrajectoryGenerator<R> {
    /// Creates a generator starting at primary gaze (0°, 0°).
    pub fn new(config: TrajectoryConfig, rng: R) -> Self {
        TrajectoryGenerator {
            config,
            rng,
            gaze: Gaze::default(),
            phase: Phase::Fixation { remaining_s: 0.2 },
            time_since_blink_s: 0.0,
            pupil_phase: 0.0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrajectoryConfig {
        &self.config
    }

    fn sample_target(&mut self) -> Gaze {
        let (h, v) = (self.config.max_horizontal_deg, self.config.max_vertical_deg);
        Gaze::new(self.rng.gen_range(-h..h), self.rng.gen_range(-v..v))
    }

    /// Minimum-jerk interpolation factor in `[0, 1]` for progress `s` in `[0, 1]`.
    fn min_jerk(s: f32) -> f32 {
        let s = s.clamp(0.0, 1.0);
        s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)
    }

    /// Saccade duration from the main sequence, respecting the peak-velocity cap.
    fn saccade_duration(&self, amplitude_deg: f32) -> f32 {
        // Main sequence: D ≈ 25 ms + 2.5 ms/deg.
        let main_seq = 0.025 + 0.0025 * amplitude_deg;
        // Minimum-jerk peak velocity = 1.875 * A / D  =>  D >= 1.875 A / Vmax.
        let cap = 1.875 * amplitude_deg / self.config.saccade_peak_velocity;
        main_seq.max(cap)
    }

    /// Advances one frame (1/fps seconds) and returns the new state.
    pub fn step(&mut self) -> GazeState {
        let dt = 1.0 / self.config.fps;
        self.time_since_blink_s += dt;
        self.pupil_phase += dt * 0.5;
        let pupil_dilation = 1.0 + 0.08 * (self.pupil_phase * std::f32::consts::TAU * 0.2).sin();

        // Random blink initiation (only from fixation, as in real vision).
        if matches!(self.phase, Phase::Fixation { .. })
            && self.time_since_blink_s > 0.5
            && self
                .rng
                .gen_bool((dt / self.config.mean_blink_interval_s).clamp(0.0, 1.0) as f64)
        {
            self.phase = Phase::Blink {
                elapsed_s: 0.0,
                resume_fixation_s: self.sample_fixation_duration(),
            };
            self.time_since_blink_s = 0.0;
        }

        let (openness, phase_kind) = match self.phase {
            Phase::Fixation { remaining_s } => {
                let tremor = self.config.tremor_deg;
                self.gaze.horizontal_deg += bliss_sensor::gauss(&mut self.rng) * tremor;
                self.gaze.vertical_deg += bliss_sensor::gauss(&mut self.rng) * tremor;
                let remaining = remaining_s - dt;
                if remaining <= 0.0 {
                    self.begin_movement();
                } else {
                    self.phase = Phase::Fixation {
                        remaining_s: remaining,
                    };
                }
                (1.0, MovementPhase::Fixation)
            }
            Phase::Saccade {
                from,
                to,
                elapsed_s,
                duration_s,
            } => {
                let t = elapsed_s + dt;
                let s = Self::min_jerk(t / duration_s);
                self.gaze = Gaze::new(
                    from.horizontal_deg + (to.horizontal_deg - from.horizontal_deg) * s,
                    from.vertical_deg + (to.vertical_deg - from.vertical_deg) * s,
                );
                if t >= duration_s {
                    self.phase = Phase::Fixation {
                        remaining_s: self.sample_fixation_duration(),
                    };
                } else {
                    self.phase = Phase::Saccade {
                        from,
                        to,
                        elapsed_s: t,
                        duration_s,
                    };
                }
                (1.0, MovementPhase::Saccade)
            }
            Phase::Pursuit {
                velocity_h,
                velocity_v,
                remaining_s,
            } => {
                let h = self.config.max_horizontal_deg;
                let v = self.config.max_vertical_deg;
                self.gaze.horizontal_deg =
                    (self.gaze.horizontal_deg + velocity_h * dt).clamp(-h, h);
                self.gaze.vertical_deg = (self.gaze.vertical_deg + velocity_v * dt).clamp(-v, v);
                let remaining = remaining_s - dt;
                if remaining <= 0.0 {
                    self.phase = Phase::Fixation {
                        remaining_s: self.sample_fixation_duration(),
                    };
                } else {
                    self.phase = Phase::Pursuit {
                        velocity_h,
                        velocity_v,
                        remaining_s: remaining,
                    };
                }
                (1.0, MovementPhase::SmoothPursuit)
            }
            Phase::Blink {
                elapsed_s,
                resume_fixation_s,
            } => {
                let t = elapsed_s + dt;
                let d = self.config.blink_duration_s;
                // Triangular close/open profile.
                let openness = if t < d / 2.0 {
                    1.0 - 2.0 * t / d
                } else {
                    (2.0 * t / d - 1.0).min(1.0)
                };
                if t >= d {
                    self.phase = Phase::Fixation {
                        remaining_s: resume_fixation_s,
                    };
                } else {
                    self.phase = Phase::Blink {
                        elapsed_s: t,
                        resume_fixation_s,
                    };
                }
                (openness.max(0.0), MovementPhase::Blink)
            }
        };

        GazeState {
            gaze: self.gaze,
            openness,
            pupil_dilation,
            phase: phase_kind,
        }
    }

    fn begin_movement(&mut self) {
        if self.rng.gen_bool(self.config.pursuit_probability as f64) {
            let speed = self.rng.gen_range(5.0f32..30.0);
            let angle = self.rng.gen_range(0.0..std::f32::consts::TAU);
            self.phase = Phase::Pursuit {
                velocity_h: speed * angle.cos(),
                velocity_v: speed * angle.sin(),
                remaining_s: self.rng.gen_range(0.3..0.8),
            };
        } else {
            let to = self.sample_target();
            let amplitude = self.gaze.angular_distance(&to);
            let duration = self.saccade_duration(amplitude).max(1.0 / self.config.fps);
            self.phase = Phase::Saccade {
                from: self.gaze,
                to,
                elapsed_s: 0.0,
                duration_s: duration,
            };
        }
    }

    fn sample_fixation_duration(&mut self) -> f32 {
        // Exponential with the configured mean, floored at 80 ms.
        let u: f32 = self.rng.gen_range(f32::EPSILON..1.0);
        (-u.ln() * self.config.mean_fixation_s).max(0.08)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn generator(seed: u64) -> TrajectoryGenerator<StdRng> {
        TrajectoryGenerator::new(TrajectoryConfig::default(), StdRng::seed_from_u64(seed))
    }

    #[test]
    fn gaze_stays_within_eccentricity_budget() {
        let mut g = generator(1);
        let limit_h = g.config().max_horizontal_deg + 2.0; // tremor slack
        let limit_v = g.config().max_vertical_deg + 2.0;
        for _ in 0..2_000 {
            let s = g.step();
            assert!(s.gaze.horizontal_deg.abs() < limit_h);
            assert!(s.gaze.vertical_deg.abs() < limit_v);
        }
    }

    #[test]
    fn velocity_never_exceeds_peak() {
        let mut g = generator(2);
        let mut prev = g.step().gaze;
        let fps = g.config().fps;
        let vmax = g.config().saccade_peak_velocity;
        for _ in 0..5_000 {
            let s = g.step();
            let v = s.gaze.angular_distance(&prev) * fps;
            assert!(
                v <= vmax * 1.25,
                "instantaneous velocity {v}°/s exceeds cap"
            );
            prev = s.gaze;
        }
    }

    #[test]
    fn saccades_and_fixations_both_occur() {
        let mut g = generator(3);
        let mut saw_fix = false;
        let mut saw_sac = false;
        for _ in 0..3_000 {
            match g.step().phase {
                MovementPhase::Fixation => saw_fix = true,
                MovementPhase::Saccade => saw_sac = true,
                _ => {}
            }
        }
        assert!(saw_fix && saw_sac);
    }

    #[test]
    fn blinks_close_the_eye() {
        let mut g = generator(4);
        let mut min_open = 1.0f32;
        for _ in 0..10_000 {
            min_open = min_open.min(g.step().openness);
        }
        assert!(min_open < 0.3, "expected a blink, min openness {min_open}");
    }

    #[test]
    fn openness_is_always_valid() {
        let mut g = generator(5);
        for _ in 0..5_000 {
            let s = g.step();
            assert!((0.0..=1.0).contains(&s.openness));
            assert!((0.8..=1.2).contains(&s.pupil_dilation));
        }
    }

    #[test]
    fn min_jerk_boundary_conditions() {
        assert_eq!(TrajectoryGenerator::<StdRng>::min_jerk(0.0), 0.0);
        assert_eq!(TrajectoryGenerator::<StdRng>::min_jerk(1.0), 1.0);
        let mid = TrajectoryGenerator::<StdRng>::min_jerk(0.5);
        assert!((mid - 0.5).abs() < 1e-6);
    }

    #[test]
    fn angular_distance_is_euclidean() {
        let a = Gaze::new(0.0, 0.0);
        let b = Gaze::new(3.0, 4.0);
        assert!((a.angular_distance(&b) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut g1 = generator(42);
        let mut g2 = generator(42);
        for _ in 0..500 {
            assert_eq!(g1.step(), g2.step());
        }
    }
}
