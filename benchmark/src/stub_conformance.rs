//! The local `serde` / `serde_json` stand-ins (`stubs/`) against the
//! behaviour of the published crates that the product crates rely on:
//! text formats, attribute handling, error classes. The product types
//! themselves go through the stand-ins in the smoke tests (cache entries,
//! journals, manifests, artifacts, request and response bodies).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Inner {
    a: u32,
    b: Vec<(u32, f64)>,
}

fn seven() -> u32 {
    7
}

fn is_false(v: &bool) -> bool {
    !v
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Outer {
    name: String,
    #[serde(default)]
    count: u64,
    #[serde(default = "seven")]
    with_default_fn: u32,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    maybe: Option<f64>,
    plain_option: Option<String>,
    #[serde(default, skip_serializing_if = "is_false")]
    flag: bool,
    #[serde(skip, default = "seven")]
    skipped: u32,
    layers: [Inner; 2],
    table: BTreeMap<String, i64>,
    #[serde(flatten)]
    flat: Inner,
    mode: Mode,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Mode {
    McFirst,
    TreePlru,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum External {
    Unit,
    Newtype(Inner),
    Struct { x: f64, y: usize },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "t", rename_all = "snake_case")]
enum Tagged {
    Plan(Inner),
    Run { key_hash: String, status: Mode },
    Done,
}

fn inner(a: u32) -> Inner {
    Inner {
        a,
        b: vec![(1, 0.5), (2, 1e-7)],
    }
}

fn outer() -> Outer {
    Outer {
        name: "a \"quoted\"\\\n\ttab \u{1} é".to_owned(),
        count: u64::MAX,
        with_default_fn: 3,
        maybe: None,
        plain_option: None,
        flag: false,
        skipped: 7,
        layers: [inner(1), inner(2)],
        table: BTreeMap::from([("k".to_owned(), -5)]),
        flat: inner(9),
        mode: Mode::McFirst,
    }
}

#[test]
fn struct_text_is_in_declaration_order_with_attributes_applied() {
    let text = serde_json::to_string(&outer()).expect("serializes");
    assert_eq!(
        text,
        "{\"name\":\"a \\\"quoted\\\"\\\\\\n\\ttab \\u0001 é\",\"count\":18446744073709551615,\
         \"with_default_fn\":3,\"plain_option\":null,\
         \"layers\":[{\"a\":1,\"b\":[[1,0.5],[2,1e-7]]},{\"a\":2,\"b\":[[1,0.5],[2,1e-7]]}],\
         \"table\":{\"k\":-5},\"a\":9,\"b\":[[1,0.5],[2,1e-7]],\"mode\":\"mc_first\"}"
    );
    let back: Outer = serde_json::from_str(&text).expect("parses");
    assert_eq!(back, outer());
}

#[test]
fn absent_members_take_their_defaults_and_unknown_ones_are_ignored() {
    let text = r#"{"name":"n","layers":[{"a":1,"b":[]},{"a":2,"b":[]}],"table":{},
                   "a":1,"b":[],"mode":"tree_plru","unknown":[1,2,{"x":null}]}"#;
    let v: Outer = serde_json::from_str(text).expect("parses");
    assert_eq!(
        (v.count, v.with_default_fn, v.maybe, v.flag, v.skipped),
        (0, 7, None, false, 7)
    );
    assert_eq!(
        v.plain_option, None,
        "an absent Option is None without #[serde(default)]"
    );
    assert_eq!(v.mode, Mode::TreePlru);
    let missing = serde_json::from_str::<Outer>(r#"{"name":"n"}"#).expect_err("layers is required");
    assert!(
        missing.is_data() && missing.to_string().contains("layers"),
        "{missing}"
    );
}

#[test]
fn enum_representations_match_the_published_crate() {
    let cases = [
        (External::Unit, r#""Unit""#),
        (
            External::Newtype(inner(1)),
            r#"{"Newtype":{"a":1,"b":[[1,0.5],[2,1e-7]]}}"#,
        ),
        (
            External::Struct { x: 1.0, y: 2 },
            r#"{"Struct":{"x":1.0,"y":2}}"#,
        ),
    ];
    for (value, text) in cases {
        assert_eq!(serde_json::to_string(&value).expect("serializes"), text);
        assert_eq!(
            serde_json::from_str::<External>(text).expect("parses"),
            value
        );
    }
    let cases = [
        (
            Tagged::Plan(inner(1)),
            r#"{"t":"plan","a":1,"b":[[1,0.5],[2,1e-7]]}"#,
        ),
        (
            Tagged::Run {
                key_hash: "00".to_owned(),
                status: Mode::TreePlru,
            },
            r#"{"t":"run","key_hash":"00","status":"tree_plru"}"#,
        ),
        (Tagged::Done, r#"{"t":"done"}"#),
    ];
    for (value, text) in cases {
        assert_eq!(serde_json::to_string(&value).expect("serializes"), text);
        assert_eq!(serde_json::from_str::<Tagged>(text).expect("parses"), value);
    }
    assert!(serde_json::from_str::<Tagged>(r#"{"t":"nope"}"#).is_err());
    assert!(serde_json::from_str::<External>(r#""Nope""#).is_err());
}

#[test]
fn floats_print_shortest_and_parse_back_to_the_same_bits() {
    for (x, text) in [
        (1.0, "1.0"),
        (0.1, "0.1"),
        (1e-7, "1e-7"),
        (1e16, "1e16"),
        (123456789012345680.0, "1.2345678901234568e17"),
        (-2.5e-300, "-2.5e-300"),
        (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
    ] {
        assert_eq!(serde_json::to_string(&x).expect("serializes"), text);
        let back: f64 = serde_json::from_str(text).expect("parses");
        assert_eq!(back.to_bits(), x.to_bits(), "{text}");
    }
    assert_eq!(
        serde_json::to_string(&f64::NAN).expect("serializes"),
        "null"
    );
    // Integers keep their exact value and their type.
    let v: Value =
        serde_json::from_str("[18446744073709551615, -9223372036854775808, 1.0]").expect("parses");
    assert_eq!(v[0].as_u64(), Some(u64::MAX));
    assert_eq!(v[1].as_i64(), Some(i64::MIN));
    assert_eq!((v[2].as_u64(), v[2].as_f64()), (None, Some(1.0)));
    assert!(serde_json::from_str::<u32>("4294967296").is_err());
    assert!(serde_json::from_str::<u32>("1.0").is_err());
}

#[test]
fn values_sort_their_keys_and_pretty_print_with_two_spaces() {
    let v = json!({ "b": [1, null, { "z": true }], "a": { "y": "s", "x": outer().flat }, "e": {}, "l": [] });
    assert_eq!(
        v.to_string(),
        r#"{"a":{"x":{"a":9,"b":[[1,0.5],[2,1e-7]]},"y":"s"},"b":[1,null,{"z":true}],"e":{},"l":[]}"#
    );
    let pretty =
        serde_json::to_string_pretty(&json!({ "k": [1, { "n": null }], "e": [], "o": {} }))
            .expect("ok");
    assert_eq!(
        pretty,
        "{\n  \"e\": [],\n  \"k\": [\n    1,\n    {\n      \"n\": null\n    }\n  ],\n  \"o\": {}\n}"
    );
    // `to_value` of a struct equals parsing its text: the canonical form
    // `to_canonical_json` relies on.
    let via_value =
        serde_json::to_string(&serde_json::to_value(outer()).expect("to_value")).expect("ok");
    let via_text: Value =
        serde_json::from_str(&serde_json::to_string(&outer()).expect("ok")).expect("ok");
    assert_eq!(via_value, via_text.to_string());
    let back: Outer = serde_json::from_value(via_text).expect("from_value");
    assert_eq!(back, outer());
}

#[test]
fn parse_errors_tell_truncated_from_malformed() {
    for cut in [r#"{"a":"#, r#"{"a":[1,"#, r#"{"a":"un"#, "", "tru", "[1"] {
        let e = serde_json::from_str::<Value>(cut).expect_err(cut);
        assert!(e.is_eof(), "{cut:?} is cut off, not malformed: {e}");
    }
    for bad in [
        r#"{"a" 1}"#,
        "[1,]",
        "{nope",
        "01",
        r#""\x""#,
        "1 2",
        "nulx",
    ] {
        let e = serde_json::from_str::<Value>(bad).expect_err(bad);
        assert!(e.is_syntax(), "{bad:?} is malformed: {e}");
    }
    let e = serde_json::from_str::<Value>("{\n  \"a\": ?").expect_err("bad");
    assert_eq!((e.line(), e.column()), (2, 7));
    // Escapes, surrogate pairs included, decode.
    let s: String = serde_json::from_str(r#""é😀\/\b\f""#).expect("parses");
    assert_eq!(s, "é😀/\u{8}\u{c}");
    assert!(serde_json::from_str::<String>(r#""\ud83d""#).is_err());
    // Depth is bounded.
    assert!(serde_json::from_str::<Value>(&"[".repeat(200)).is_err());
}
