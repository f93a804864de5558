//! Behavioural simulator of the BlissCam stacked digital pixel sensor (DPS).
//!
//! The BlissCam sensor (paper §IV) augments a standard two-layer DPS — a
//! 65 nm pixel array stacked on a 22 nm per-pixel ADC/SRAM layer — with a few
//! switches and a small logic unit so the *same* analog readout circuit
//! time-multiplexes between three modes (Fig. 10):
//!
//! 1. **Analog memory** — the comparator becomes a unity-gain buffer holding
//!    the previous frame on the auto-zero capacitor during exposure;
//! 2. **Eventification** — switched-capacitor subtraction of consecutive
//!    frames, compared against ±σ to emit a binary event map (Eqn. 1);
//! 3. **ADC** — the normal single-slope conversion, executed *only* for
//!    pixels selected by the in-ROI random sampler ("If Skip ADC" logic,
//!    Fig. 9).
//!
//! Random sampling reuses the power-up metastability of the per-pixel 10-bit
//! SRAM as an entropy source ([`SramRng`]); a 16-entry lookup table maps a
//! desired sampling rate to the 4-bit threshold θ compared against the
//! number of ones among the ten power-up bits.
//!
//! The sparse readout streams the ROI column-by-column (Fig. 11) with
//! unsampled pixels pinned to zero, then compresses the stream with a
//! [run-length codec](rle) before the MIPI link.
//!
//! # Example
//!
//! ```
//! use bliss_sensor::{DigitalPixelSensor, SensorConfig, RoiBox};
//!
//! let mut sensor = DigitalPixelSensor::new(SensorConfig::miniature(16, 10));
//! sensor.expose(&vec![0.5; 160]);
//! let events = sensor.eventify();          // first frame: all events
//! assert_eq!(events.width(), 16);
//! sensor.expose(&vec![0.5; 160]);
//! let events = sensor.eventify();          // static scene: no events
//! assert_eq!(events.density(), 0.0);
//! let readout = sensor.sparse_readout(RoiBox::new(2, 2, 10, 8), 0.25);
//! assert!(readout.conversions <= readout.roi.area() as u64);
//! ```

mod codes;
mod dps;
mod event;
pub mod rle;
mod rng;
mod roi;

pub use codes::{PackedCodes, SnapshotFrame};
pub use dps::{sparse_image_into, DigitalPixelSensor, ReadoutResult, SensorConfig, SensorSnapshot};
pub use event::EventMap;
pub use rng::{gauss, uniform_word, CalibrationLut, Jump, SramRng, SramRngConfig};
pub use roi::RoiBox;
