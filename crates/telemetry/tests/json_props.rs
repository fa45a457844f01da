//! Seeded property sweeps for the `Json` codec: the f64 writer must be
//! byte-identical to std `Display` (plus `.0` on integral values), random
//! trees must round-trip through text, and parsing must stay linear in
//! the input length.
//!
//! The generator is a splitmix64 seeded from `COPERNICUS_TEST_SEED`
//! (default `0xC0FFEE`), the same convention as the wire and codec
//! suites, so the CI seed matrix sweeps this file too.

use copernicus_telemetry::Json;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e3779b97f4a7c15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn seed() -> u64 {
    std::env::var("COPERNICUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// The writer's contract: std `Display`, `.0` appended when integral,
/// `null` for NaN and infinities; and the text parses back bit-exactly.
fn check_f64(v: f64) {
    let text = Json::F64(v).to_string();
    if !v.is_finite() {
        assert_eq!(text, "null", "{:#018x}", v.to_bits());
        return;
    }
    let mut expected = format!("{v}");
    if v == v.trunc() {
        expected.push_str(".0");
    }
    assert_eq!(
        text,
        expected,
        "seed {} value {:#018x}",
        seed(),
        v.to_bits()
    );
    match Json::parse(&text) {
        Ok(Json::F64(back)) => assert_eq!(back.to_bits(), v.to_bits(), "{text}"),
        other => panic!("{text} parsed back as {other:?}"),
    }
}

/// Every power of ten and of two, their neighbours, and the fixed edges.
fn edge_values() -> Vec<f64> {
    let mut out = vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        // An exact decimal tie between two 17-digit candidates: std
        // rounds it up (...695313).
        2f64.powi(-25),
        1e15,
        -1e15,
        1e16,
        9007199254740994.0,
        1e300,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for k in -324..=308 {
        out.push(format!("1e{k}").parse().unwrap());
    }
    for k in -1074..=1023 {
        out.push(2f64.powi(k));
    }
    let neighbours: Vec<f64> = out
        .iter()
        .filter(|v| v.is_finite() && **v > 0.0)
        .flat_map(|v| {
            [
                f64::from_bits(v.to_bits() - 1),
                f64::from_bits(v.to_bits() + 1),
            ]
        })
        .collect();
    out.extend(neighbours);
    out
}

#[test]
fn f64_writer_matches_std_display() {
    let mut rng = Rng::new(seed());
    let mut checked = 0usize;
    for v in edge_values() {
        check_f64(v);
        check_f64(-v);
        checked += 2;
    }
    for _ in 0..250_000 {
        let bits = rng.next_u64();
        // Any bit pattern (NaN and infinities included).
        check_f64(f64::from_bits(bits));
        // Subnormals.
        check_f64(f64::from_bits(bits & ((1 << 52) - 1)));
        // Short decimals, where the interval bounds can be exact.
        let short = (bits >> 40) as f64 / 10f64.powi(rng.below(20) as i32);
        check_f64(short);
        // Integers either side of 2^53, where `.0` must be appended.
        check_f64((bits >> rng.below(30)) as f64);
        checked += 4;
    }
    assert!(checked >= 1_000_000, "{checked}");
}

#[test]
fn integral_f64_round_trips_as_f64() {
    for v in [1e15, -1e15, 1e16, 9007199254740994.0, 1e300, -0.0, 3.0] {
        let text = Json::F64(v).to_string();
        assert!(text.ends_with(".0"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), Json::F64(v), "{text}");
    }
    assert_eq!(Json::F64(1e15).to_string(), "1000000000000000.0");
}

/// Characters that exercise every escape and every UTF-8 width.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '\u{7ff}',
    '€',
    '\u{fffd}',
    '\u{e000}',
    '😀',
    '\u{10ffff}',
];

fn rand_string(rng: &mut Rng) -> String {
    let mut s = String::new();
    for _ in 0..rng.below(6) {
        let c = CHARS[rng.below(CHARS.len())];
        // Mostly single characters, sometimes a long run of one.
        let n = if rng.below(8) == 0 {
            1 + rng.below(2000)
        } else {
            1
        };
        s.extend(std::iter::repeat_n(c, n));
    }
    s
}

fn rand_json(rng: &mut Rng, depth: usize) -> Json {
    let leaf = depth == 0 || rng.below(3) == 0;
    match rng.below(if leaf { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::U64(rng.next_u64() >> rng.below(64)),
        // Non-negative integers parse back as U64, so only negatives here.
        3 => Json::I64(-1 - (rng.next_u64() >> (1 + rng.below(63))) as i64),
        4 => {
            let v = f64::from_bits(rng.next_u64());
            Json::F64(if v.is_finite() { v } else { 0.5 })
        }
        5 => Json::Str(rand_string(rng)),
        6 => Json::Array(
            (0..rng.below(8))
                .map(|_| rand_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.below(8))
                .map(|_| (rand_string(rng), rand_json(rng, depth - 1)))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

#[test]
fn random_trees_round_trip_through_text() {
    let mut rng = Rng::new(seed());
    for case in 0..2_000 {
        let tree = rand_json(&mut rng, 4);
        for text in [tree.to_string(), tree.to_string_pretty()] {
            let back = Json::parse(&text)
                .unwrap_or_else(|e| panic!("seed {} case {case}: {e}\n{text}", seed()));
            assert_eq!(back, tree, "seed {} case {case}\n{text}", seed());
            assert_eq!(back.to_string(), tree.to_string(), "case {case}");
        }
    }
}

/// Parse on a helper thread and give up after `budget`, so a regression
/// to a quadratic parser fails promptly instead of running for hours.
fn parse_within(label: &str, text: String, budget: Duration) -> Json {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(Json::parse(&text));
    });
    match rx.recv_timeout(budget) {
        Ok(parsed) => parsed.unwrap(),
        Err(_) => panic!("{label} did not parse within {budget:?}"),
    }
}

/// Parsing is linear in the input: a quadratic string or object path
/// takes hours on these inputs, so the budget is far from tight.
#[test]
fn large_inputs_parse_in_linear_time() {
    let budget = Duration::from_secs(5);

    let long: String = "abcdé€😀".chars().cycle().take(1 << 20).collect();
    let text = Json::Str(long.clone()).to_string();
    assert_eq!(
        parse_within("1 Mi-char string", text, budget).as_str(),
        Some(long.as_str())
    );

    let mut map = BTreeMap::new();
    for i in 0..65_536u64 {
        map.insert(format!("key{i:05}"), Json::U64(i));
    }
    let object = Json::Object(map);
    assert_eq!(
        parse_within("64 k-key object", object.to_string(), budget),
        object
    );
}
