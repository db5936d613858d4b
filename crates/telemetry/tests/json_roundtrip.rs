//! Property tests: telemetry counter sets and latency histograms survive
//! the dependency-free JSON round trip **bit-exactly** — including the
//! merged-fabric shape (counters folded across chips) and the all-zero
//! empty case. `Json::Num` keeps raw number text, so full-range `u64`
//! counters must never be squeezed through an `f64`.

use proptest::prelude::*;
use tsp_telemetry::hist::Histogram;
use tsp_telemetry::json::Json;
use tsp_telemetry::Telemetry;

/// Counter ceiling leaving headroom so merging several sets cannot
/// overflow; still far beyond `f64`'s 2^53 exact-integer range, which is
/// what the round trip must survive.
const CAP: u64 = u64::MAX / 8;

/// A fixed-size array of counters below [`CAP`].
fn capped<const N: usize>() -> impl Strategy<Value = [u64; N]> {
    any::<[u64; N]>().prop_map(|a| a.map(|v| v % CAP))
}

fn arb_telemetry() -> impl Strategy<Value = Telemetry> {
    (
        (capped::<4>(), capped::<4>(), capped::<16>()),
        (capped::<2>(), 0..CAP, 0..CAP, capped::<2>(), capped::<2>()),
        (0..CAP, 0..CAP, 0..CAP, 0..CAP, 0..CAP, 0..CAP),
    )
        .prop_map(
            |(
                (mxm_plane_busy, mxm_macc_waves, vxm_alu_issue),
                (sram_reads, mem_reads_pristine, mem_reads_verified, sram_writes, sxm_ops),
                (
                    c2c_sends,
                    c2c_receives,
                    ifetches,
                    stream_high_water,
                    icu_queue_high_water,
                    dropped_events,
                ),
            )| Telemetry {
                mxm_plane_busy,
                mxm_macc_waves,
                vxm_alu_issue,
                sram_reads,
                mem_reads_pristine,
                mem_reads_verified,
                sram_writes,
                sxm_ops,
                c2c_sends,
                c2c_receives,
                ifetches,
                stream_high_water,
                icu_queue_high_water,
                dropped_events,
            },
        )
}

fn roundtrip(t: &Telemetry) -> Telemetry {
    let text = t.to_json(0);
    let doc = Json::parse(&text).expect("to_json emits parseable JSON");
    Telemetry::from_json(&doc).expect("every field present")
}

proptest! {
    /// Any counter set round-trips bit-exactly, and serialization is a
    /// fixed point (same bytes after a parse → serialize cycle).
    #[test]
    fn telemetry_round_trips_bit_exactly(t in arb_telemetry()) {
        let back = roundtrip(&t);
        prop_assert_eq!(&back, &t);
        prop_assert_eq!(back.to_json(0), t.to_json(0));
    }

    /// The merged-fabric case: counters folded across chips (counts sum,
    /// high-water marks max) round-trip exactly, and the round trip
    /// commutes with the merge.
    #[test]
    fn merged_fabric_telemetry_round_trips(a in arb_telemetry(), b in arb_telemetry()) {
        let mut fabric = a.clone();
        fabric.merge(&b);
        prop_assert_eq!(roundtrip(&fabric), fabric.clone());

        let mut via_roundtrip = roundtrip(&a);
        via_roundtrip.merge(&roundtrip(&b));
        prop_assert_eq!(via_roundtrip, fabric);
    }

    /// Histograms round-trip exactly too: counts, sum, min/max and every
    /// quantile agree after parse.
    #[test]
    fn histogram_round_trips_bit_exactly(values in proptest::collection::vec(any::<u64>(), 0..64)) {
        let mut h = Histogram::new();
        for v in &values {
            h.record(*v);
        }
        let doc = Json::parse(&h.to_json(0)).expect("parseable");
        let back = Histogram::from_json(&doc).expect("complete");
        prop_assert_eq!(&back, &h);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            prop_assert_eq!(back.quantile(q), h.quantile(q));
        }
    }
}

/// The empty-counter case (a run with `counters: false`, or a fresh chip)
/// round-trips and serializes indent-stably.
#[test]
fn empty_counters_round_trip() {
    let empty = Telemetry::new();
    assert_eq!(roundtrip(&empty), empty);
    let indented = empty.to_json(4);
    let doc = Json::parse(&indented).expect("indented form parses");
    assert_eq!(Telemetry::from_json(&doc), Some(empty));
}

/// An empty histogram round-trips (min is a sentinel when nothing was
/// recorded; the round trip must preserve "empty", not materialize it).
#[test]
fn empty_histogram_round_trips() {
    let h = Histogram::new();
    let doc = Json::parse(&h.to_json(0)).expect("parseable");
    let back = Histogram::from_json(&doc).expect("complete");
    assert!(back.is_empty());
    assert_eq!(back, h);
}

/// Parsing is linear in the document: a multi-megabyte document of short
/// strings (the shape of a Perfetto trace) parses in one pass. When every
/// character re-validated the rest of the input this took minutes.
#[test]
fn large_document_of_short_strings_parses() {
    let mut text = String::from("[");
    let mut n = 0usize;
    while text.len() < 2 << 20 {
        if n > 0 {
            text.push(',');
        }
        text.push_str(&format!(
            "{{\"name\":\"layer{n}\",\"ph\":\"X\",\"ts\":{n}}}"
        ));
        n += 1;
    }
    text.push(']');
    let doc = Json::parse(&text).expect("well-formed");
    let events = doc.as_array().unwrap();
    assert_eq!(events.len(), n);
    let last = format!("layer{}", n - 1);
    assert_eq!(events[n - 1].get("name").unwrap().as_str(), Some(&last[..]));
}

/// Nesting is bounded by a structured error, not by the stack: documents at
/// the bound parse, one level deeper is refused, and 200,000 open brackets
/// come back as `Err` instead of killing the process.
#[test]
fn over_deep_nesting_is_an_error() {
    use tsp_telemetry::json::MAX_DEPTH;
    let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let objects = |depth: usize| format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
    assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
    assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
    for text in [
        arrays(MAX_DEPTH + 1),
        objects(MAX_DEPTH + 1),
        "[".repeat(200_000),
        "{\"k\":".repeat(200_000),
    ] {
        let error = Json::parse(&text).unwrap_err();
        assert!(error.contains("nesting deeper"), "{error}");
    }
    // Siblings do not count as depth.
    let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
    assert!(Json::parse(&wide).is_ok());
}

/// Multi-byte UTF-8 and every escape survive parse → serialize → parse.
#[test]
fn unicode_and_every_escape_round_trip() {
    let text = r#"["\"\\\/\b\f\n\r\t\u0041\u00e9\u20ac","héllo — ≥ 日本語 🦀","a\\b\"c","","é\"","\u0001"]"#;
    let doc = Json::parse(text).expect("well-formed");
    let items: Vec<&str> = doc
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert_eq!(
        items,
        [
            "\"\\/\u{8}\u{c}\n\r\tAé€",
            "héllo — ≥ 日本語 🦀",
            "a\\b\"c",
            "",
            "é\"",
            "\u{1}"
        ]
    );
    let again = Json::parse(&doc.to_string()).expect("serializer emits parseable JSON");
    assert_eq!(again, doc);
    // A `\u` escape cut short, or cut inside a multi-byte character, is an
    // error, not a panic.
    assert!(Json::parse("\"\\u00").is_err());
    assert!(Json::parse("\"\\u0é0\"").is_err());
}
