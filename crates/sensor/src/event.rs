use serde::{Deserialize, Serialize};

/// A binary event map produced by in-sensor eventification (paper Eqn. 1).
///
/// `bit(x, y)` is set when the corresponding pixel changed by more than ±σ
/// between consecutive frames — i.e. it likely belongs to the moving
/// foreground eye parts. The map is the input to the ROI-prediction DNN and
/// also drives the `Skip` baseline strategy (reuse previous segmentation
/// when event density is low).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventMap {
    width: usize,
    height: usize,
    bits: Vec<bool>,
}

impl EventMap {
    /// Wraps a row-major bit vector.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != width * height`.
    pub fn new(width: usize, height: usize, bits: Vec<bool>) -> Self {
        assert_eq!(bits.len(), width * height, "event map size mismatch");
        EventMap {
            width,
            height,
            bits,
        }
    }

    /// An all-clear map.
    pub fn empty(width: usize, height: usize) -> Self {
        EventMap {
            width,
            height,
            bits: vec![false; width * height],
        }
    }

    /// Reshapes the map in place to `width x height` with every bit clear,
    /// reusing the existing allocation when capacity allows — the in-place
    /// counterpart of [`EventMap::empty`] for per-stream scratch maps.
    pub fn reset(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.bits.clear();
        self.bits.resize(width * height, false);
    }

    /// Mutable access to the raw row-major bits, for in-sensor writers.
    pub(crate) fn bits_mut(&mut self) -> &mut [bool] {
        &mut self.bits
    }

    /// Map width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Map height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The raw row-major bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Event state of pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn bit(&self, x: usize, y: usize) -> bool {
        self.bits[y * self.width + x]
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Fraction of pixels with events, in `[0, 1]`.
    pub fn density(&self) -> f32 {
        if self.bits.is_empty() {
            0.0
        } else {
            self.count() as f32 / self.bits.len() as f32
        }
    }

    /// The map as an `f32` image (1.0 = event), the input format of the
    /// ROI-prediction network.
    pub fn to_f32(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.to_f32_into(&mut out);
        out
    }

    /// Writes the `f32` image into `out` (cleared first), so per-stream
    /// event buffers can be reused across frames.
    pub fn to_f32_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.bits.len());
        out.extend(self.bits.iter().map(|&b| if b { 1.0 } else { 0.0 }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_and_count() {
        let mut bits = vec![false; 16];
        bits[3] = true;
        bits[7] = true;
        let m = EventMap::new(4, 4, bits);
        assert_eq!(m.count(), 2);
        assert!((m.density() - 0.125).abs() < 1e-6);
    }

    #[test]
    fn to_f32_maps_bits() {
        let m = EventMap::new(2, 1, vec![true, false]);
        assert_eq!(m.to_f32(), vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let _ = EventMap::new(3, 3, vec![false; 8]);
    }
}
