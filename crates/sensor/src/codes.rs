//! Exact, compact storage of snapshot buffers.
//!
//! The imaging-noise model quantises every exposure with the 10-bit ADC and
//! renormalises it, so each pixel is `code / 1023` for a code in
//! `0..=1023` (`bliss_eye::ImagingNoise`). A frame on that grid is stored
//! as its codes ([`SnapshotFrame::Codes`]), bit-packed into base64: about
//! 1.7 bytes of JSON per pixel against about 10 for shortest-repr f32. A
//! frame with any pixel off the grid is stored value for value. Both forms
//! restore the exact f32 bits. [`PackedCodes`] also stores other small
//! per-pixel values, such as segmentation classes at two bits each.

use serde::{Deserialize, JsonError, JsonValue, Serialize};

/// Bits per ADC code.
const ADC_BITS: u32 = 10;

/// Largest ADC code.
const MAX_CODE: u16 = (1 << ADC_BITS) - 1;

/// Bits per base64 character.
const DIGIT_BITS: u32 = 6;

/// The base64 alphabet (RFC 4648 §4); every character is JSON-safe.
const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside [`ALPHABET`] in [`DIGITS`].
const NOT_A_DIGIT: u8 = 0xFF;

/// The 6-bit value of each base64 character, [`NOT_A_DIGIT`] elsewhere.
const DIGITS: [u8; 256] = {
    let mut table = [NOT_A_DIGIT; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The value the ADC stands for with `code`: the same division the
/// imaging-noise model renormalises with.
fn code_value(code: u16) -> f32 {
    f32::from(code) / f32::from(MAX_CODE)
}

/// Unsigned codes, bit-packed at the width of the largest one (at least
/// one bit).
///
/// They serialise as one string, `"<width>:<count>:<payload>"`: the payload
/// is the codes' bits, least significant first, six to a base64
/// character, with the last character's unused high bits zero. So every
/// code sequence has exactly one string, and the count is bounded by the
/// payload's length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCodes {
    width: u32,
    codes: Vec<u16>,
}

impl PackedCodes {
    /// Packs `codes`.
    pub fn new(codes: Vec<u16>) -> Self {
        let largest = codes.iter().copied().max().unwrap_or(0);
        PackedCodes {
            width: (u16::BITS - largest.leading_zeros()).max(1),
            codes,
        }
    }

    /// The codes.
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Bits per code: enough for the largest.
    pub fn width(&self) -> u32 {
        self.width
    }
}

impl Serialize for PackedCodes {
    fn write_json(&self, out: &mut String) {
        let digits = (self.codes.len() * self.width as usize).div_ceil(DIGIT_BITS as usize);
        out.reserve(digits + 16);
        out.push('"');
        out.push_str(&format!("{}:{}:", self.width, self.codes.len()));
        let (mut bits, mut held) = (0u32, 0u32);
        let mut emit = |bits: u32| out.push(char::from(ALPHABET[bits as usize & 63]));
        for &code in &self.codes {
            bits |= u32::from(code) << held;
            held += self.width;
            while held >= DIGIT_BITS {
                emit(bits);
                bits >>= DIGIT_BITS;
                held -= DIGIT_BITS;
            }
        }
        if held > 0 {
            emit(bits);
        }
        out.push('"');
    }
}

impl<'de> Deserialize<'de> for PackedCodes {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        let JsonValue::String(text) = value else {
            return Err(JsonError::Type {
                expected: "string",
                found: value.kind(),
            });
        };
        let invalid = |what: &str| JsonError::Custom(format!("packed codes: {what}"));
        let mut parts = text.splitn(3, ':');
        let mut header = || -> Option<usize> { parts.next()?.parse().ok() };
        let (Some(width), Some(count)) = (header(), header()) else {
            return Err(invalid("malformed `width:count:` header"));
        };
        let payload = parts.next().unwrap_or_default().as_bytes();
        if !(1..=u16::BITS as usize).contains(&width) {
            return Err(invalid(&format!("width {width} outside 1..=16")));
        }
        let digits = count
            .checked_mul(width)
            .map(|bits| bits.div_ceil(DIGIT_BITS as usize));
        if digits != Some(payload.len()) {
            return Err(invalid(&format!(
                "{} payload characters for {count} codes of {width} bits",
                payload.len()
            )));
        }
        let width = width as u32;
        let mask = (1u32 << width) - 1;
        let mut codes = Vec::with_capacity(count);
        let (mut bits, mut held) = (0u32, 0u32);
        for &ch in payload {
            let digit = DIGITS[usize::from(ch)];
            if digit == NOT_A_DIGIT {
                return Err(invalid("a character outside the base64 alphabet"));
            }
            bits |= u32::from(digit) << held;
            held += DIGIT_BITS;
            while held >= width && codes.len() < count {
                codes.push((bits & mask) as u16);
                bits >>= width;
                held -= width;
            }
        }
        if bits != 0 {
            return Err(invalid("non-zero padding bits"));
        }
        Ok(PackedCodes { width, codes })
    }
}

/// One frame buffer of a [`SensorSnapshot`](crate::SensorSnapshot), in the
/// most compact form that restores its exact bits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SnapshotFrame {
    /// Every pixel is `code / 1023` for a 10-bit ADC code.
    Codes(PackedCodes),
    /// A frame with a pixel off the ADC grid, value for value.
    Raw(Vec<f32>),
}

impl SnapshotFrame {
    /// Stores `frame` as codes when every pixel is on the ADC grid, and
    /// verbatim otherwise.
    pub fn encode(frame: &[f32]) -> Self {
        let mut codes = Vec::with_capacity(frame.len());
        for &v in frame {
            // Rounding finds the code of any on-grid value; the bit compare
            // decides. The cast saturates, so NaN and negatives land on 0.
            let code = (v * f32::from(MAX_CODE) + 0.5) as u16;
            if code > MAX_CODE || code_value(code).to_bits() != v.to_bits() {
                return SnapshotFrame::Raw(frame.to_vec());
            }
            codes.push(code);
        }
        SnapshotFrame::Codes(PackedCodes::new(codes))
    }

    /// Checks that the frame holds `pixels` pixels and, stored as codes,
    /// codes of at most the ADC's ten bits.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    pub fn check(&self, pixels: usize) -> Result<(), String> {
        let (len, width) = match self {
            SnapshotFrame::Codes(codes) => (codes.codes.len(), codes.width),
            SnapshotFrame::Raw(values) => (values.len(), 0),
        };
        if len != pixels {
            return Err(format!("holds {len} pixels, the pixel count is {pixels}"));
        }
        if width > ADC_BITS {
            return Err(format!("codes take {width} bits, the ADC has {ADC_BITS}"));
        }
        Ok(())
    }

    /// Writes the frame's values into `out` (cleared first).
    pub fn decode_into(&self, out: &mut Vec<f32>) {
        out.clear();
        match self {
            SnapshotFrame::Codes(codes) => out.extend(codes.codes.iter().map(|&c| code_value(c))),
            SnapshotFrame::Raw(values) => out.extend_from_slice(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: &[f32]) -> (SnapshotFrame, String) {
        let stored = SnapshotFrame::encode(frame);
        let json = stored.to_json();
        let back = SnapshotFrame::from_json(&json).expect("frame parses");
        assert_eq!(back, stored);
        let mut out = vec![7.0; 3];
        back.decode_into(&mut out);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(frame), "frame bits changed");
        (stored, json)
    }

    #[test]
    fn every_code_round_trips_at_every_tail_length() {
        let all: Vec<f32> = (0..=MAX_CODE).map(code_value).collect();
        for len in [0, 1, 2, 3, 4, 5, all.len()] {
            let (stored, _) = round_trip(&all[..len]);
            assert!(matches!(stored, SnapshotFrame::Codes(_)), "len {len}");
        }
        // Three 10-bit codes take five characters.
        let (_, json) = round_trip(&all);
        let prefix = "{\"Codes\":\"10:1024:";
        assert!(json.starts_with(prefix), "{json}");
        assert_eq!(json.len(), prefix.len() + 1024 / 3 * 5 + 2 + "\"}".len());
    }

    #[test]
    fn codes_pack_at_the_width_of_the_largest() {
        for (codes, width) in [
            (vec![], 1),
            (vec![0, 0, 0], 1),
            (vec![1, 3, 2, 0, 3], 2),
            (vec![4], 3),
            (vec![u16::MAX, 0, 7], 16),
        ] {
            let packed = PackedCodes::new(codes.clone());
            assert_eq!(packed.width(), width, "{codes:?}");
            let json = packed.to_json();
            let back = PackedCodes::from_json(&json).expect("parses");
            assert_eq!(back.codes(), &codes[..], "{json}");
            assert_eq!(back, packed);
        }
        // Four 2-bit classes per 8 bits: 4 pixels take 2 characters.
        assert_eq!(PackedCodes::new(vec![3, 0, 1, 2]).to_json(), "\"2:4:TC\"");
    }

    #[test]
    fn off_grid_frames_are_stored_verbatim() {
        let on = code_value(512);
        let nudged = f32::from_bits(on.to_bits() + 1);
        for odd in [nudged, -0.0, 1024.0 / 1023.0, 0.3, f32::MIN_POSITIVE] {
            let (stored, _) = round_trip(&[on, odd, on]);
            assert!(matches!(stored, SnapshotFrame::Raw(_)), "{odd:e}");
        }
    }

    #[test]
    fn malformed_code_strings_fail_typed() {
        for text in [
            "",
            "10",
            "10:3",
            "x:1:AA",
            "0:3:",
            "17:1:AAA",
            "10:1:A",
            "10:1:AAA",
            "2:4:M",
            "2:4:M*",
            "10:1:A/",
            "2:1:E",
            "10:99999999999999999999:",
        ] {
            let err = PackedCodes::from_json(&format!("\"{text}\"")).expect_err(text);
            assert!(matches!(err, JsonError::Custom(_)), "{text}: {err:?}");
        }
        assert!(matches!(
            PackedCodes::from_json("[1]"),
            Err(JsonError::Type { .. })
        ));
    }
}
