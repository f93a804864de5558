//! Property-based round-trip suite for the serde shim's derive surface:
//! arbitrary values of derive-covered shapes → JSON → parse → equality,
//! plus malformed-input rejection (truncation, wrong tags, trailing
//! garbage, shape mismatches).
//!
//! The shapes here exercise every construct the derives support — plain
//! structs, tuple structs, unit structs, externally-tagged enums with
//! unit/tuple/struct variants, nesting through `Vec`, `Option` and fixed
//! arrays — with proptest choosing the values, including the full escape
//! surface of strings and the full bit pattern space of floats (finite
//! floats must round-trip **bit-exactly**; that is what makes snapshot
//! restores byte-identical downstream).

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Plain {
    a: u32,
    b: i64,
    c: f64,
    d: bool,
    e: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(i32, f32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Tag {
    Unit,
    Tup(u8, i16),
    Fields { x: f64, v: Vec<u32> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Nested {
    id: usize,
    tag: Tag,
    opt: Option<Pair>,
    arr: [u16; 3],
    list: Vec<Plain>,
    unit: Marker,
}

/// Characters spanning the JSON escape surface: mandatory escapes (`"`,
/// `\`), control characters (short + `\u` forms), multi-byte UTF-8 and an
/// astral-plane code point (surrogate-pair `\u` form when escaped).
const PALETTE: [char; 12] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', '\u{2028}', '🦀',
];

fn string_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|ixs| ixs.into_iter().map(|i| PALETTE[i]).collect())
}

fn plain_strategy() -> impl Strategy<Value = Plain> {
    (
        0u32..=u32::MAX,
        i64::MIN..=i64::MAX,
        -1e18f64..1e18,
        0u8..2,
        string_strategy(),
    )
        .prop_map(|(a, b, c, d, e)| Plain {
            a,
            b,
            c,
            d: d == 1,
            e,
        })
}

fn tag_strategy() -> impl Strategy<Value = Tag> {
    (
        0u8..3,
        0u8..=u8::MAX,
        i16::MIN..=i16::MAX,
        -1e9f64..1e9,
        prop::collection::vec(0u32..=u32::MAX, 0..5),
    )
        .prop_map(|(which, t0, t1, x, v)| match which {
            0 => Tag::Unit,
            1 => Tag::Tup(t0, t1),
            _ => Tag::Fields { x, v },
        })
}

fn nested_strategy() -> impl Strategy<Value = Nested> {
    (
        0usize..=usize::MAX,
        tag_strategy(),
        (0u8..2, (i32::MIN..=i32::MAX, -1e9f32..1e9)),
        (0u16..=u16::MAX, 0u16..=u16::MAX, 0u16..=u16::MAX),
        prop::collection::vec(plain_strategy(), 0..4),
    )
        .prop_map(|(id, tag, (some, (p0, p1)), (a0, a1, a2), list)| Nested {
            id,
            tag,
            opt: (some == 1).then_some(Pair(p0, p1)),
            arr: [a0, a1, a2],
            list,
            unit: Marker,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn plain_structs_round_trip(v in plain_strategy()) {
        prop_assert_eq!(Plain::from_json(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn enums_round_trip_every_variant_shape(t in tag_strategy()) {
        prop_assert_eq!(Tag::from_json(&t.to_json()).unwrap(), t);
    }

    #[test]
    fn nested_values_round_trip(v in nested_strategy()) {
        prop_assert_eq!(Nested::from_json(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn strings_round_trip_through_escaping(s in string_strategy()) {
        prop_assert_eq!(String::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn finite_floats_round_trip_bit_exactly(bits in 0u64..=u64::MAX) {
        let x = f64::from_bits(bits);
        prop_assume!(x.is_finite());
        let back = f64::from_json(&x.to_json()).unwrap();
        // Bit equality, not numeric equality: -0.0 must stay -0.0 and
        // subnormals must not be rounded by the formatter/parser pair.
        prop_assert_eq!(back.to_bits(), x.to_bits());
    }

    #[test]
    fn finite_f32_round_trip_bit_exactly(bits in 0u32..=u32::MAX) {
        let x = f32::from_bits(bits);
        prop_assume!(x.is_finite());
        prop_assert_eq!(f32::from_json(&x.to_json()).unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn every_proper_prefix_of_valid_json_is_rejected(v in nested_strategy()) {
        let json = v.to_json();
        for cut in 0..json.len() {
            if !json.is_char_boundary(cut) {
                continue;
            }
            prop_assert!(
                Nested::from_json(&json[..cut]).is_err(),
                "truncated JSON (first {} bytes) parsed successfully", cut
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(v in plain_strategy(), junk in 0usize..5) {
        let suffix = [",", "x", " {}", "]", " 1"][junk];
        let json = format!("{}{}", v.to_json(), suffix);
        prop_assert!(Plain::from_json(&json).is_err());
    }

    #[test]
    fn single_byte_corruption_never_panics(v in nested_strategy(), pos in 0usize..4096, byte in 0u8..=255) {
        // Totality: any one-byte mutation either still parses (to *some*
        // value) or errors — the parser must not panic or hang.
        let mut bytes = v.to_json().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        if let Ok(s) = String::from_utf8(bytes) {
            let _ = Nested::from_json(&s);
        }
    }
}

#[test]
fn malformed_shapes_are_rejected() {
    // Wrong enum tag.
    assert!(Tag::from_json("{\"Unknwon\": [1, 2]}").is_err());
    assert!(Tag::from_json("\"NotAVariant\"").is_err());
    // Wrong payload arity for a tuple variant.
    assert!(Tag::from_json("{\"Tup\": [1]}").is_err());
    assert!(Tag::from_json("{\"Tup\": [1, 2, 3]}").is_err());
    // Missing struct field.
    assert!(Plain::from_json("{\"a\": 1, \"b\": 2, \"c\": 3.0, \"d\": true}").is_err());
    // Type mismatch.
    assert!(
        Plain::from_json("{\"a\": \"one\", \"b\": 2, \"c\": 3.0, \"d\": true, \"e\": \"\"}")
            .is_err()
    );
    // Fixed-array length mismatch.
    assert!(<[u16; 3]>::from_json("[1, 2]").is_err());
    assert!(<[u16; 3]>::from_json("[1, 2, 3, 4]").is_err());
    // Tuple-struct arity mismatch.
    assert!(Pair::from_json("[1]").is_err());
    // Non-finite tokens are not JSON.
    assert!(f64::from_json("NaN").is_err());
    assert!(f64::from_json("Infinity").is_err());
    assert!(f64::from_json("-Infinity").is_err());
    // Bare garbage.
    assert!(Nested::from_json("").is_err());
    assert!(Nested::from_json("nul").is_err());
}

#[test]
fn unknown_struct_keys_are_ignored() {
    // Forward compatibility: extra keys skip cleanly (documented shim
    // behaviour), so adding a field does not brick older snapshots' peers.
    let v = Pair::from_json("[3, 4.5]").unwrap();
    assert_eq!(v, Pair(3, 4.5));
    let p = Plain::from_json(
        "{\"a\": 1, \"b\": -2, \"zzz\": [1, {\"q\": null}], \"c\": 0.5, \"d\": false, \"e\": \"hi\"}",
    )
    .unwrap();
    assert_eq!(
        p,
        Plain {
            a: 1,
            b: -2,
            c: 0.5,
            d: false,
            e: "hi".into()
        }
    );
}

#[test]
fn nesting_is_capped_instead_of_overflowing_the_stack() {
    use serde::json::{JsonError, JsonValue, MAX_DEPTH};

    // A million unclosed brackets used to recurse once per bracket and
    // abort the process; now the parser stops at the depth cap.
    let err = JsonValue::parse(&"[".repeat(1_000_000)).expect_err("must not parse");
    assert!(
        matches!(err, JsonError::Syntax { offset, .. } if offset == MAX_DEPTH),
        "got {err:?}"
    );
    let objects = "{\"k\":".repeat(1_000_000);
    assert!(matches!(
        JsonValue::parse(&objects),
        Err(JsonError::Syntax { .. })
    ));

    // Exactly at the cap still parses; one level more does not.
    let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(JsonValue::parse(&at_cap).is_ok());
    let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert!(matches!(
        JsonValue::parse(&over),
        Err(JsonError::Syntax { .. })
    ));
}
