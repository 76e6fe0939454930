//! The JSON writer against an oracle, and the parser against hostile
//! input.
//!
//! Random nested trees carry every case the text rules single out:
//! quote, backslash, the named and the `\u00XX` control escapes,
//! non-BMP characters, integral floats on both sides of 1e15, −0.0,
//! NaN and ±inf, `u64::MAX` and `i64::MIN`. For each tree the streaming
//! text sink must equal, byte for byte, the tree renderer it replaced
//! (kept here as [`Reference`]), and `Json::parse` of that text must
//! return the tree as text can carry it. Random bytes, truncations and
//! one-byte mutations of valid documents must come back as a value or a
//! `JsonError` inside the input, never a panic.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use hcc_check::strategy::{bytes, u64s, vecs};
use hcc_check::{ensure, ensure_eq, forall, Config, Xoshiro256};
use hcc_types::json::{Json, JsonError, ToJson};

/// The compact renderer the streaming writer replaced, verbatim.
struct Reference<'a>(&'a Json);

impl fmt::Display for Reference<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", Reference(item))?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{}", Reference(v))?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Characters the text rules single out, plus plain ones.
const PALETTE: &str = "aZ /é\"\\\n\r\t\0\u{1}\u{1f}\u{7f}😀\u{10FFFF}";

fn pick<T: Copy>(rng: &mut Xoshiro256, options: &[T]) -> T {
    options[rng.next_range(options.len() as u64) as usize]
}

fn text(rng: &mut Xoshiro256) -> String {
    let palette: Vec<char> = PALETTE.chars().collect();
    (0..rng.next_range(6))
        .map(|_| match rng.next_range(4) {
            0 => char::from_u32(rng.next_range(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => pick(rng, &palette),
        })
        .collect()
}

fn float(rng: &mut Xoshiro256) -> f64 {
    match rng.next_range(3) {
        0 => f64::from_bits(rng.next_u64()),
        1 => (rng.next_f64() - 0.5) * 1e17,
        _ => pick(
            rng,
            &[
                0.0,
                -0.0,
                1.42,
                3.0,
                -2.5,
                1e15 - 1.0,
                1e15,
                -1e15,
                1e15 + 2.0,
                18_446_744_073_709_551_616.0,
                1e300,
                5e-324,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ],
        ),
    }
}

/// A random tree at most `depth` containers deep.
fn tree(rng: &mut Xoshiro256, depth: u32) -> Json {
    let kinds = if depth == 0 { 6 } else { 8 };
    let len = |rng: &mut Xoshiro256| rng.next_range(5);
    let raw = rng.next_u64();
    match rng.next_range(kinds) {
        0 => Json::Null,
        1 => Json::Bool(raw & 1 == 1),
        2 => Json::U64(pick(rng, &[0, 42, u64::MAX, raw])),
        3 => Json::I64(pick(rng, &[i64::MIN, -1, 7, raw as i64])),
        4 => Json::F64(float(rng)),
        5 => Json::Str(text(rng)),
        6 => Json::Arr((0..len(rng)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..len(rng))
                .map(|_| (text(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A random document whose root is a container, so no proper prefix of
/// its text is a document.
fn document(seed: u64) -> Json {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let items = (0..1 + rng.next_range(4)).map(|_| tree(&mut rng, 4));
    if seed & 1 == 0 {
        Json::Arr(items.collect())
    } else {
        Json::Obj(items.map(|v| ("k".to_string(), v)).collect())
    }
}

/// What text carries of `v`: non-finite floats print as `null`, and a
/// float printed without a fraction (integral, at or above 1e15 in
/// magnitude: its shortest round-trip digits, zero-padded) re-parses as
/// the narrowest integer type that holds those digits.
fn as_text_carries(v: &Json) -> Json {
    match v {
        Json::F64(x) if !x.is_finite() => Json::Null,
        Json::F64(x) if x.fract() == 0.0 && x.abs() >= 1e15 => {
            let digits = x.to_string();
            (digits.parse().map(Json::U64))
                .or_else(|_| digits.parse().map(Json::I64))
                .unwrap_or(Json::F64(*x))
        }
        Json::I64(x) if *x >= 0 => Json::U64(*x as u64),
        Json::Arr(items) => Json::Arr(items.iter().map(as_text_carries).collect()),
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), as_text_carries(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// `Json::parse(text)` without a panic, and any error inside the input.
fn parse(text: &str) -> Result<Result<Json, JsonError>, String> {
    let parsed = catch_unwind(AssertUnwindSafe(|| Json::parse(text)))
        .map_err(|_| format!("parse panicked on {text:?}"))?;
    if let Err(e) = &parsed {
        ensure!(
            e.offset <= text.len(),
            "error offset {} past the input's {} bytes: {e}",
            e.offset,
            text.len()
        );
    }
    Ok(parsed)
}

#[test]
fn text_sink_matches_the_tree_renderer_and_parses_back() {
    forall!(Config::new(0x150_0001).with_cases(1024), seed in u64s(0..u64::MAX) => {
        let doc = document(seed);
        let text = doc.to_json_string();
        ensure_eq!(text, Reference(&doc).to_string());
        ensure_eq!(doc.to_string(), text);
        let back = parse(&text)?.map_err(|e| format!("{e} in {text:?}"))?;
        ensure_eq!(back, as_text_carries(&doc));
    });
}

#[test]
fn truncated_documents_are_refused_with_an_offset() {
    forall!(Config::new(0x150_0002).with_cases(256), seed in u64s(0..u64::MAX) => {
        let text = document(seed).to_json_string();
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            ensure!(parse(&text[..cut])?.is_err(), "prefix {:?} parsed", &text[..cut]);
        }
    });
}

#[test]
fn mutated_documents_and_random_bytes_never_panic() {
    forall!(
        Config::new(0x150_0003).with_cases(1024),
        (seed, noise) in (u64s(0..u64::MAX), vecs(bytes(), 1..24)) =>
    {
        let mut raw = document(seed).to_json_string().into_bytes();
        let at = (seed as usize >> 1) % raw.len();
        raw[at] = noise[0];
        for text in [&raw, &noise].map(|b| String::from_utf8_lossy(b)) {
            let _ = parse(&text)?;
        }
    });
}
