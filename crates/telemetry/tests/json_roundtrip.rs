//! Properties of the one JSON printer (`tsp_telemetry::json`): every
//! telemetry counter set it prints parses back to the same `Json` value,
//! each counter as its exact `u64` decimal token — above `f64`'s 2^53
//! exact-integer range too, since `Json::Num` keeps raw number text — and
//! parse ∘ print is the identity on any `Json` tree, in both the compact and
//! the laid-out form. Plus the parser's own bounds: linear time, bounded
//! nesting, every escape.

use proptest::prelude::*;
use tsp_telemetry::json::Json;
use tsp_telemetry::perfetto::TraceBuilder;
use tsp_telemetry::Telemetry;

/// Counter ceiling leaving headroom so merging several sets cannot
/// overflow; still far beyond `f64`'s 2^53 exact-integer range.
const CAP: u64 = u64::MAX / 8;

/// A fixed-size array of counters below `cap`.
fn counters<const N: usize>(cap: u64) -> impl Strategy<Value = [u64; N]> {
    any::<[u64; N]>().prop_map(move |a| a.map(|v| v % cap))
}

/// Any counter set with every counter below `cap`.
fn arb_telemetry(cap: u64) -> impl Strategy<Value = Telemetry> {
    (
        (counters::<4>(cap), counters::<4>(cap), counters::<16>(cap)),
        (counters::<2>(cap), counters::<2>(cap), counters::<2>(cap)),
        (counters::<4>(cap), counters::<4>(cap)),
    )
        .prop_map(
            |(
                (mxm_plane_busy, mxm_macc_waves, vxm_alu_issue),
                (sram_reads, sram_writes, sxm_ops),
                (
                    [mem_reads_pristine, mem_reads_verified, c2c_sends, c2c_receives],
                    [ifetches, stream_high_water, icu_queue_high_water, dropped_events],
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

/// Every counter of `t` under its key, in the order `to_json` prints them.
fn expected_counters(t: &Telemetry) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("mxm_plane_busy", t.mxm_plane_busy.to_vec()),
        ("mxm_macc_waves", t.mxm_macc_waves.to_vec()),
        ("vxm_alu_issue", t.vxm_alu_issue.to_vec()),
        ("sram_reads", t.sram_reads.to_vec()),
        ("mem_reads_pristine", vec![t.mem_reads_pristine]),
        ("mem_reads_verified", vec![t.mem_reads_verified]),
        ("sram_writes", t.sram_writes.to_vec()),
        ("sxm_ops", t.sxm_ops.to_vec()),
        ("c2c_sends", vec![t.c2c_sends]),
        ("c2c_receives", vec![t.c2c_receives]),
        ("ifetches", vec![t.ifetches]),
        ("stream_high_water", vec![t.stream_high_water]),
        ("icu_queue_high_water", vec![t.icu_queue_high_water]),
        ("dropped_events", vec![t.dropped_events]),
    ]
}

/// The number tokens of `v`: itself, or an array's elements.
fn tokens(v: &Json) -> Vec<&str> {
    match v {
        Json::Arr(items) => items.iter().flat_map(tokens).collect(),
        Json::Num(token) => vec![token],
        other => panic!("not a number: {other}"),
    }
}

/// `t.to_json(indent)` parsed, after checking that printing the parsed
/// value again gives the same text and that every counter is its exact
/// decimal under its key, in order.
fn printed(t: &Telemetry, indent: usize) -> Json {
    let text = t.to_json(indent);
    let doc = Json::parse(&text).expect("to_json prints parseable JSON");
    assert_eq!(doc.pretty(indent), text, "print ∘ parse is the identity");
    let fields = doc.as_object().expect("an object");
    let expected = expected_counters(t);
    assert_eq!(fields.len(), expected.len(), "one key per counter");
    for ((key, value), (want_key, want)) in fields.iter().zip(&expected) {
        assert_eq!(key, want_key);
        let want: Vec<String> = want.iter().map(u64::to_string).collect();
        assert_eq!(tokens(value), want, "{key}");
    }
    doc
}

/// A splitmix64 stream: the random `Json` trees below grow from one seed.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// Up to seven characters drawn from every escape JSON has, control
    /// characters, and one- to four-byte UTF-8.
    fn string(&mut self) -> String {
        const CHARS: [char; 20] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t', '\u{0}',
            '\u{1f}', '\u{7f}', 'é', '€', '日', '🦀', '\u{2028}',
        ];
        let len = self.below(8);
        (0..len).map(|_| CHARS[self.below(20) as usize]).collect()
    }

    fn number(&mut self) -> Json {
        let raw = self.below(u64::MAX);
        match self.below(4) {
            0 => Json::from(raw),
            1 => Json::Num((raw as i64).to_string()),
            2 => Json::Num(format!("{}.{:03}", raw >> 40, raw % 1000)),
            _ => Json::Num(format!(
                "-{}.{}e{}",
                raw % 1000,
                raw % 7,
                (raw % 41) as i64 - 20
            )),
        }
    }

    /// A value nested at most `depth` containers deep.
    fn value(&mut self, depth: u32) -> Json {
        match self.below(if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(self.below(2) == 1),
            2 => self.number(),
            3 => Json::Str(self.string()),
            4 => Json::Arr((0..self.below(5)).map(|_| self.value(depth - 1)).collect()),
            _ => Json::Obj(
                (0..self.below(5))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    /// Any counter set prints a document that parses back to the value it
    /// printed, every counter its exact `u64` decimal — including the full
    /// range above 2^53.
    #[test]
    fn telemetry_round_trips_bit_exactly(t in arb_telemetry(u64::MAX)) {
        printed(&t, 0);
        printed(&t, 6);
    }

    /// The merged-fabric case: counters folded across chips print as the
    /// exact sums (counts) and maxima (high-water marks) of the chips'
    /// printed tokens.
    #[test]
    fn merged_fabric_telemetry_round_trips(a in arb_telemetry(CAP), b in arb_telemetry(CAP)) {
        let mut fabric = a.clone();
        fabric.merge(&b);
        let docs = [printed(&a, 0), printed(&b, 0), printed(&fabric, 0)];
        for (key, _) in expected_counters(&fabric) {
            let [a, b, fabric] = docs.each_ref().map(|d| {
                let values = tokens(d.get(key).expect("key present"));
                values.iter().map(|v| v.parse::<u64>().expect("u64 token")).collect::<Vec<_>>()
            });
            let high_water = key.ends_with("_high_water");
            let folded: Vec<u64> = a.iter().zip(&b).map(|(x, y)| if high_water { *x.max(y) } else { x + y }).collect();
            prop_assert_eq!(fabric, folded, "{}", key);
        }
    }

    /// parse ∘ print is the identity on any `Json` tree — every escape,
    /// control characters, multi-byte UTF-8, raw number tokens, empty and
    /// nested containers — compact and laid out at any indent.
    #[test]
    fn json_trees_round_trip(seed in any::<u64>(), indent in 0..9usize) {
        let tree = Gen(seed).value(4);
        prop_assert_eq!(Json::parse(&tree.to_string()), Ok(tree.clone()));
        prop_assert_eq!(Json::parse(&tree.pretty(indent)), Ok(tree.clone()));
    }
}

/// The empty-counter case (a run with `counters: false`, or a fresh chip)
/// prints every counter as `0` and parses back, at any indent.
#[test]
fn empty_counters_round_trip() {
    let empty = Telemetry::new();
    for indent in [0, 4] {
        let doc = printed(&empty, indent);
        assert!(doc
            .as_object()
            .unwrap()
            .iter()
            .all(|(_, v)| tokens(v).iter().all(|t| *t == "0")));
    }
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

/// Hostile text never panics the parser, in either profile: every
/// truncation and every single-byte mutation of a printed counter set and
/// of a Perfetto trace, and 20,000 seeded texts of JSON's own punctuation
/// mixed with random bytes, come back `Ok` or `Err`.
#[test]
fn no_text_panics_the_parser() {
    let parse = |bytes: &[u8]| Json::parse(&String::from_utf8_lossy(bytes)).is_ok();
    let counters = Telemetry {
        mxm_macc_waves: [0, 7, 1 << 40, u64::MAX],
        ..Telemetry::new()
    };
    let mut trace = TraceBuilder::new();
    trace.process(20, "requests");
    trace.thread(20, 1, "request \"7\"");
    trace.span_with_text(
        20,
        1,
        "attempt 1",
        1 << 40,
        u64::MAX >> 1,
        &[("fault_cycle", u64::MAX)],
        &[("cause", "ecc\n")],
    );
    for doc in [counters.to_json(0), trace.finish()] {
        let doc = doc.as_bytes();
        assert!(parse(doc), "the printed document parses");
        for at in 0..doc.len() {
            parse(&doc[..at]);
            let mut mutated = doc.to_vec();
            for byte in 0..=u8::MAX {
                mutated[at] = byte;
                parse(&mutated);
            }
        }
    }
    const PUNCTUATION: &[u8] = b"{}[]:,\"\\/ 0123456789.-+eEutrfalsn";
    let mut gen = Gen(0x4a53_4f4e_f022);
    for _ in 0..20_000 {
        let text: Vec<u8> = (0..gen.below(48))
            .map(|_| match gen.below(8) {
                0 => gen.below(256) as u8,
                _ => PUNCTUATION[gen.below(PUNCTUATION.len() as u64) as usize],
            })
            .collect();
        parse(&text);
    }
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
