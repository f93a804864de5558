//! Run-length codec for the sparse readout stream.
//!
//! Only ~20 % of the pixels inside the ROI are sampled; the rest leave the
//! output buffer as zeros (paper Fig. 11). The stream is therefore
//! zero-dominant and the paper compresses it with a run-length encoder
//! before the MIPI interface, decoding on the host ("a sequence of
//! 1110000000 is compressed to 1307").
//!
//! The wire format alternates tokens:
//!
//! ```text
//! [zero_run: u16 LE] [literal_count: u16 LE] [literal values: u16 LE each]
//! ```
//!
//! starting with a zero-run (possibly 0). Values are 10-bit ADC codes stored
//! in `u16`. Runs longer than `u16::MAX` are split.

use bytes::Bytes;
use std::error::Error;
use std::fmt;

/// Errors from decoding a run-length stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RleError {
    /// The stream ended in the middle of a token.
    Truncated,
    /// Decoded more pixels than the caller-specified limit.
    TooLong {
        /// The declared pixel budget.
        expected: usize,
    },
}

impl fmt::Display for RleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RleError::Truncated => write!(f, "run-length stream truncated mid-token"),
            RleError::TooLong { expected } => {
                write!(f, "run-length stream decodes past {expected} pixels")
            }
        }
    }
}

impl Error for RleError {}

/// Encodes a stream of 10-bit pixel codes (zeros mark unsampled pixels).
///
/// # Example
///
/// ```
/// use bliss_sensor::rle::{encode, decode};
///
/// let stream = vec![0, 0, 0, 7, 9, 0, 0, 0, 0, 1];
/// let bytes = encode(&stream);
/// assert_eq!(decode(&bytes, stream.len()).unwrap(), stream);
/// ```
pub fn encode(pixels: &[u16]) -> Bytes {
    let mut out = Vec::with_capacity(16 + pixels.len() / 4);
    encode_into(pixels, &mut out);
    Bytes::from(out)
}

/// [`encode`] into a caller-owned byte buffer (cleared first), so the
/// per-frame MIPI staging buffer can be reused across a stream without
/// touching the allocator. Produces the identical wire format.
pub fn encode_into(pixels: &[u16], out: &mut Vec<u8>) {
    // Alternating zero-run and literal-run tokens. A run longer than
    // `u16::MAX` is split, with an empty run of the other kind between its
    // chunks to keep the alternation.
    const MAX_RUN: usize = u16::MAX as usize;
    out.clear();
    let mut put = |token: u16| out.extend_from_slice(&token.to_le_bytes());
    let mut i = 0usize;
    while i < pixels.len() {
        let zero_start = i;
        while i < pixels.len() && pixels[i] == 0 {
            i += 1;
        }
        let mut zeros = i - zero_start;
        let lit_start = i;
        while i < pixels.len() && pixels[i] != 0 {
            i += 1;
        }
        while zeros > MAX_RUN {
            put(u16::MAX);
            put(0);
            zeros -= MAX_RUN;
        }
        put(zeros as u16);
        let mut literals = &pixels[lit_start..i];
        loop {
            let chunk = &literals[..literals.len().min(MAX_RUN)];
            put(chunk.len() as u16);
            for &v in chunk {
                put(v);
            }
            literals = &literals[chunk.len()..];
            if literals.is_empty() {
                break;
            }
            put(0);
        }
    }
}

/// Decodes a run-length stream produced by [`encode`].
///
/// `expected_pixels` bounds the output (the host knows the ROI size from the
/// ROI coordinates that accompany the stream). Trailing zeros are implied if
/// the stream ends early.
///
/// # Errors
///
/// Returns [`RleError::Truncated`] on a malformed stream and
/// [`RleError::TooLong`] if it expands past `expected_pixels`.
pub fn decode(bytes: &Bytes, expected_pixels: usize) -> Result<Vec<u16>, RleError> {
    let mut out = Vec::with_capacity(expected_pixels);
    decode_into(bytes, expected_pixels, &mut out)?;
    Ok(out)
}

/// [`decode`] into a caller-owned pixel buffer (cleared first), so the
/// host-side decode staging buffer can be reused across frames.
///
/// # Errors
///
/// Same as [`decode`].
pub fn decode_into(
    bytes: &[u8],
    expected_pixels: usize,
    out: &mut Vec<u16>,
) -> Result<(), RleError> {
    out.clear();
    let mut pos = 0usize;
    let mut expect_zero_run = true;
    let next_u16 = |pos: &mut usize| -> Result<u16, RleError> {
        let end = *pos + 2;
        if end > bytes.len() {
            return Err(RleError::Truncated);
        }
        let v = u16::from_le_bytes([bytes[*pos], bytes[*pos + 1]]);
        *pos = end;
        Ok(v)
    };
    while pos < bytes.len() {
        let count = next_u16(&mut pos)? as usize;
        if expect_zero_run {
            if out.len() + count > expected_pixels {
                return Err(RleError::TooLong {
                    expected: expected_pixels,
                });
            }
            out.resize(out.len() + count, 0);
        } else {
            if bytes.len() - pos < 2 * count {
                return Err(RleError::Truncated);
            }
            if out.len() + count > expected_pixels {
                return Err(RleError::TooLong {
                    expected: expected_pixels,
                });
            }
            for _ in 0..count {
                out.push(next_u16(&mut pos)?);
            }
        }
        expect_zero_run = !expect_zero_run;
    }
    // Implied trailing zeros.
    out.resize(expected_pixels, 0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_roundtrip() {
        // "1110000000" -> three literals, seven zeros
        let stream = vec![1u16, 1, 1, 0, 0, 0, 0, 0, 0, 0];
        let enc = encode(&stream);
        assert_eq!(decode(&enc, 10).unwrap(), stream);
    }

    #[test]
    fn empty_stream() {
        let enc = encode(&[]);
        assert!(decode(&enc, 0).unwrap().is_empty());
    }

    #[test]
    fn all_zeros_compresses_heavily() {
        let stream = vec![0u16; 10_000];
        let enc = encode(&stream);
        assert!(enc.len() <= 8, "all-zero stream took {} bytes", enc.len());
        assert_eq!(decode(&enc, 10_000).unwrap(), stream);
    }

    #[test]
    fn all_literals_costs_overhead_only() {
        let stream: Vec<u16> = (1..=1000).collect();
        let enc = encode(&stream);
        // 2 bytes/pixel payload + small token overhead
        assert!(enc.len() < 2 * 1000 + 16);
        assert_eq!(decode(&enc, 1000).unwrap(), stream);
    }

    #[test]
    fn sparse_stream_compresses_proportionally_to_density() {
        let mut stream = vec![0u16; 10_000];
        for i in (0..10_000).step_by(50) {
            stream[i] = 512;
        }
        let enc = encode(&stream);
        // 200 literals * (2 bytes + token overhead) << 20 000 raw bytes
        assert!(enc.len() < 2_000, "encoded {} bytes", enc.len());
        assert_eq!(decode(&enc, 10_000).unwrap(), stream);
    }

    #[test]
    fn truncated_stream_is_detected() {
        let stream = vec![0u16, 5, 6, 7];
        let enc = encode(&stream);
        let cut = enc.slice(0..enc.len() - 1);
        assert_eq!(decode(&cut, 4), Err(RleError::Truncated));
    }

    #[test]
    fn overlong_stream_is_detected() {
        let stream = vec![1u16; 20];
        let enc = encode(&stream);
        assert!(matches!(decode(&enc, 10), Err(RleError::TooLong { .. })));
    }

    #[test]
    fn implied_trailing_zeros() {
        let stream = vec![3u16, 0, 0, 0];
        let enc = encode(&[3u16]); // encode only the literal prefix
        assert_eq!(decode(&enc, 4).unwrap(), stream);
    }

    #[test]
    fn encoded_len_counts_split_runs() {
        let long = u16::MAX as usize;
        let mut stream = vec![0u16; 2 * long + 3];
        stream.extend(vec![9u16; long + 1]);
        stream.push(0);
        assert_eq!(decode(&encode(&stream), stream.len()).unwrap(), stream);
    }

    #[test]
    fn alternation_with_leading_literals() {
        let stream = vec![5u16, 6, 0, 0, 9];
        let enc = encode(&stream);
        assert_eq!(decode(&enc, 5).unwrap(), stream);
    }
}
