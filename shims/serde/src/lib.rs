//! Offline stand-in for `serde` (with the `derive` feature).
//!
//! Unlike the first-cut shim, [`Serialize`] is now a *real* trait: it writes
//! a JSON encoding of the value, and `#[derive(Serialize)]` (re-exported
//! from the `serde_derive` shim) generates field-by-field implementations.
//! The report types (`ServeReport`, `FleetReport`, the bench sweeps)
//! serialise through a hand-rolled JSON layer with no change at their
//! definition sites. Swapping the real `serde`
//! back in (see `shims/README.md`) still requires no source change for the
//! derives; only direct `to_json()` call sites would move to `serde_json`.
//!
//! Encoding rules:
//!
//! * structs → objects, tuple structs/tuples → arrays, unit structs → `null`;
//! * enums → serde's externally-tagged form (`"Variant"`,
//!   `{"Variant": …}`);
//! * non-finite floats → `null` (JSON has no NaN/infinity);
//! * `Option::None` → `null`; strings are escaped per RFC 8259.
//!
//! [`Deserialize`] is now the real mirror: a strict RFC 8259 parser
//! ([`JsonValue::parse`]) plus `#[derive(Deserialize)]` implementations for
//! every shape the workspace derives, decoding exactly the encoding above.
//! Round-trip fidelity is pinned by proptests (`tests/roundtrip.rs`):
//! integers re-parse their raw tokens (u64 seeds above 2^53 survive), floats
//! re-parse Rust's shortest-roundtrip form bit-exactly, and malformed input
//! (truncation, unknown enum tags, trailing garbage) fails with a typed
//! [`JsonError`] instead of misparsing.

// Lets the derive-generated `::serde::Serialize` paths resolve inside this
// crate's own test types.
extern crate self as serde;

use std::fmt::Write as _;

mod de;
pub mod json;

pub use de::Deserialize;
pub use json::{JsonError, JsonValue};
pub use serde_derive::{Deserialize, Serialize};

/// JSON serialisation, standing in for `serde::Serialize`.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn write_json(&self, out: &mut String);

    /// The JSON encoding of `self` as an owned string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Escapes `s` into `out` as a quoted JSON string (RFC 8259 §7).
pub fn escape_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_display_serialize {
    ($($t:ty),+) => {
        $(impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        })+
    };
}

impl_display_serialize!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool);

macro_rules! impl_float_serialize {
    ($($t:ty),+) => {
        $(impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    let _ = write!(out, "{self}");
                } else {
                    out.push_str("null");
                }
            }
        })+
    };
}

impl_float_serialize!(f32, f64);

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        escape_str(self, out);
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        escape_str(self, out);
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        escape_str(self.encode_utf8(&mut [0u8; 4]), out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

fn write_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

macro_rules! impl_tuple_serialize {
    ($(($($idx:tt $t:ident),+)),+) => {
        $(impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$idx.write_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        })+
    };
}

impl_tuple_serialize!((0 A), (0 A, 1 B), (0 A, 1 B, 2 C), (0 A, 1 B, 2 C, 3 D));

#[cfg(test)]
mod tests {
    use super::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Plain {
        a: u32,
        b: Vec<f32>,
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    enum WithVariants {
        A,
        B(u8),
        C { x: f64 },
        D(u8, bool),
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct TupleStruct(u8, f32);

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Nested {
        name: String,
        inner: Plain,
        opt: Option<u8>,
        arr: [f64; 2],
    }

    fn assert_bounds<T: Serialize + for<'de> Deserialize<'de>>() {}

    #[test]
    fn derives_satisfy_both_bounds() {
        assert_bounds::<Plain>();
        assert_bounds::<WithVariants>();
        assert_bounds::<String>();
    }

    #[test]
    fn derived_structs_round_trip() {
        let p = Plain {
            a: 1,
            b: vec![0.5, 2.0],
        };
        assert_eq!(Plain::from_json(&p.to_json()), Ok(p));
        let t = TupleStruct(9, -1.25);
        assert_eq!(TupleStruct::from_json(&t.to_json()), Ok(t));
        let n = Nested {
            name: "a \"b\"\n".into(),
            inner: Plain { a: 2, b: vec![] },
            opt: None,
            arr: [1.0, -3.5],
        };
        assert_eq!(Nested::from_json(&n.to_json()), Ok(n));
    }

    #[test]
    fn derived_enums_round_trip() {
        for v in [
            WithVariants::A,
            WithVariants::B(7),
            WithVariants::C { x: 1.5 },
            WithVariants::D(3, true),
        ] {
            assert_eq!(WithVariants::from_json(&v.to_json()), Ok(v));
        }
    }

    #[test]
    fn malformed_input_is_rejected_with_typed_errors() {
        use crate::JsonError;
        assert!(matches!(
            Plain::from_json(r#"{"a":1,"b":[0.5]"#),
            Err(JsonError::Syntax { .. })
        ));
        assert!(matches!(
            Plain::from_json(r#"{"a":1,"b":[0.5]} extra"#),
            Err(JsonError::Syntax { .. })
        ));
        assert!(matches!(
            Plain::from_json(r#"{"a":1}"#),
            Err(JsonError::MissingField("b"))
        ));
        assert_eq!(
            WithVariants::from_json(r#""Nope""#),
            Err(JsonError::UnknownVariant("Nope".into()))
        );
        assert!(matches!(
            Plain::from_json(r#"{"a":-1,"b":[]}"#),
            Err(JsonError::InvalidNumber { .. })
        ));
    }

    #[test]
    fn u64_seeds_above_2_pow_53_round_trip() {
        let seed = u64::MAX - 12345;
        assert_eq!(u64::from_json(&seed.to_json()), Ok(seed));
    }

    #[test]
    fn struct_serialises_as_object() {
        let p = Plain {
            a: 1,
            b: vec![0.5, 2.0],
        };
        assert_eq!(p.to_json(), r#"{"a":1,"b":[0.5,2]}"#);
    }

    #[test]
    fn enum_variants_are_externally_tagged() {
        assert_eq!(WithVariants::A.to_json(), r#""A""#);
        assert_eq!(WithVariants::B(7).to_json(), r#"{"B":7}"#);
        assert_eq!(WithVariants::C { x: 1.5 }.to_json(), r#"{"C":{"x":1.5}}"#);
        assert_eq!(WithVariants::D(3, true).to_json(), r#"{"D":[3,true]}"#);
    }

    #[test]
    fn tuple_struct_serialises_as_array() {
        assert_eq!(TupleStruct(9, -1.25).to_json(), "[9,-1.25]");
    }

    #[test]
    fn nested_structures_compose() {
        let n = Nested {
            name: "a \"b\"\n".into(),
            inner: Plain { a: 2, b: vec![] },
            opt: None,
            arr: [1.0, f64::NAN],
        };
        assert_eq!(
            n.to_json(),
            r#"{"name":"a \"b\"\n","inner":{"a":2,"b":[]},"opt":null,"arr":[1,null]}"#
        );
    }

    #[derive(Serialize)]
    struct RawIdent {
        r#type: u8,
    }

    #[test]
    fn raw_identifier_fields_serialise_without_prefix() {
        assert_eq!(RawIdent { r#type: 3 }.to_json(), r#"{"type":3}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f32::INFINITY.to_json(), "null");
        assert_eq!(f64::NEG_INFINITY.to_json(), "null");
        assert_eq!(f32::NAN.to_json(), "null");
        assert_eq!(1.5f32.to_json(), "1.5");
    }

    #[test]
    fn tuples_and_references_serialise() {
        assert_eq!((1u8, "x", 2.5f32).to_json(), r#"[1,"x",2.5]"#);
        let v = vec![1u8, 2];
        let r: &Vec<u8> = &v;
        assert_eq!(r.to_json(), "[1,2]");
    }
}
