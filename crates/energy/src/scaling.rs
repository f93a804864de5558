use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error returned for process nodes outside the modelled range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessNodeError {
    nm: u32,
}

impl fmt::Display for ProcessNodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "process node {} nm outside supported range 7-180 nm",
            self.nm
        )
    }
}

impl Error for ProcessNodeError {}

/// A CMOS technology node, with DeepScaleTool-style scaling factors.
///
/// The paper synthesises all digital logic with a TSMC 16 nm FinFET library
/// and scales results to other nodes with DeepScaleTool, which "fits
/// published data by a leading commercial fabrication company for silicon
/// fabrication technology generations from 130 nm to 7 nm" (§V). We embed an
/// equivalent table of per-operation dynamic energy, gate delay, area and
/// leakage factors, normalised to 16 nm, and interpolate (log-log) between
/// anchor nodes.
///
/// # Example
///
/// ```
/// use bliss_energy::ProcessNode;
///
/// let n22 = ProcessNode::NM22;
/// let n7 = ProcessNode::NM7;
/// assert!(n22.energy_factor() > n7.energy_factor());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcessNode(u32);

/// Anchor table: (nm, energy, delay, area, leakage) relative to 16 nm.
///
/// Energy/delay derived from the Stillmaker & Baas scaling equations
/// (general-purpose logic, nominal voltage); area follows published
/// logic-density ratios; leakage tracks area times per-um^2 leakage trends
/// (FinFET nodes leak less per gate).
const ANCHORS: &[(u32, f32, f32, f32, f32)] = &[
    (7, 0.53, 0.62, 0.28, 0.45),
    (10, 0.72, 0.78, 0.50, 0.65),
    (16, 1.00, 1.00, 1.00, 1.00),
    (22, 1.60, 1.30, 1.85, 1.90),
    (28, 2.10, 1.55, 2.90, 2.60),
    (40, 3.20, 2.00, 5.90, 4.20),
    (65, 5.70, 3.10, 15.0, 8.50),
    (90, 9.00, 4.20, 29.0, 14.0),
    (130, 14.7, 6.00, 60.0, 24.0),
    (180, 23.2, 8.30, 115.0, 40.0),
];

impl ProcessNode {
    /// 7 nm — the paper's host SoC node.
    pub const NM7: ProcessNode = ProcessNode(7);
    /// 10 nm.
    pub const NM10: ProcessNode = ProcessNode(10);
    /// 16 nm — the synthesis reference node.
    pub const NM16: ProcessNode = ProcessNode(16);
    /// 22 nm — the paper's sensor logic/analog layer node.
    pub const NM22: ProcessNode = ProcessNode(22);
    /// 28 nm.
    pub const NM28: ProcessNode = ProcessNode(28);
    /// 40 nm — swept in the paper's Fig. 17.
    pub const NM40: ProcessNode = ProcessNode(40);
    /// 65 nm — the paper's pixel (top) layer node.
    pub const NM65: ProcessNode = ProcessNode(65);
    /// 90 nm.
    pub const NM90: ProcessNode = ProcessNode(90);
    /// 130 nm.
    pub const NM130: ProcessNode = ProcessNode(130);
    /// 180 nm.
    pub const NM180: ProcessNode = ProcessNode(180);

    /// Creates a node from a feature size in nanometres.
    ///
    /// # Errors
    ///
    /// Returns [`ProcessNodeError`] outside the modelled 7–180 nm range.
    pub fn new(nm: u32) -> Result<Self, ProcessNodeError> {
        if !(7..=180).contains(&nm) {
            return Err(ProcessNodeError { nm });
        }
        Ok(ProcessNode(nm))
    }

    fn interpolate(&self, select: impl Fn(&(u32, f32, f32, f32, f32)) -> f32) -> f32 {
        let nm = self.0 as f32;
        // Exact anchor?
        for a in ANCHORS {
            if a.0 == self.0 {
                return select(a);
            }
        }
        // Log-log linear interpolation between surrounding anchors.
        let mut lo = ANCHORS[0];
        let mut hi = *ANCHORS.last().expect("anchors non-empty");
        for w in ANCHORS.windows(2) {
            if (w[0].0 as f32) <= nm && nm <= (w[1].0 as f32) {
                lo = w[0];
                hi = w[1];
                break;
            }
        }
        let (x0, y0) = ((lo.0 as f32).ln(), select(&lo).ln());
        let (x1, y1) = ((hi.0 as f32).ln(), select(&hi).ln());
        let t = (nm.ln() - x0) / (x1 - x0);
        (y0 + t * (y1 - y0)).exp()
    }

    /// Dynamic energy per operation relative to 16 nm.
    pub fn energy_factor(&self) -> f32 {
        self.interpolate(|a| a.1)
    }

    /// Gate delay relative to 16 nm.
    pub fn delay_factor(&self) -> f32 {
        self.interpolate(|a| a.2)
    }

    /// Logic area relative to 16 nm.
    pub fn area_factor(&self) -> f32 {
        self.interpolate(|a| a.3)
    }

    /// Static (leakage) power per equivalent design relative to 16 nm.
    pub fn leakage_factor(&self) -> f32 {
        self.interpolate(|a| a.4)
    }
}

impl fmt::Display for ProcessNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nm", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_node_is_unity() {
        let n = ProcessNode::NM16;
        assert_eq!(n.energy_factor(), 1.0);
        assert_eq!(n.delay_factor(), 1.0);
        assert_eq!(n.area_factor(), 1.0);
        assert_eq!(n.leakage_factor(), 1.0);
    }

    #[test]
    fn factors_monotonic_in_feature_size() {
        let nodes = [7u32, 10, 16, 22, 28, 40, 65, 90, 130, 180];
        for w in nodes.windows(2) {
            let a = ProcessNode::new(w[0]).unwrap();
            let b = ProcessNode::new(w[1]).unwrap();
            assert!(a.energy_factor() < b.energy_factor());
            assert!(a.delay_factor() < b.delay_factor());
            assert!(a.area_factor() < b.area_factor());
            assert!(a.leakage_factor() < b.leakage_factor());
        }
    }

    #[test]
    fn interpolation_between_anchors_is_bounded() {
        let mid = ProcessNode::new(50).unwrap();
        assert!(mid.energy_factor() > ProcessNode::NM40.energy_factor());
        assert!(mid.energy_factor() < ProcessNode::NM65.energy_factor());
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(ProcessNode::new(5).is_err());
        assert!(ProcessNode::new(250).is_err());
        assert!(ProcessNode::new(7).is_ok());
        assert!(ProcessNode::new(180).is_ok());
    }

    #[test]
    fn paper_nodes_energy_ordering() {
        // 22 nm sensor logic burns more energy per op than the 7 nm SoC —
        // the reason S+NPU loses to NPU-ROI in Fig. 13.
        assert!(ProcessNode::NM22.energy_factor() > 2.5 * ProcessNode::NM7.energy_factor());
    }

    #[test]
    fn display_contains_units() {
        assert_eq!(ProcessNode::NM22.to_string(), "22 nm");
    }
}
