//! A tiny text format for defining workloads without writing Rust — the
//! lab's equivalent of a benchmark input deck.
//!
//! ```text
//! # copy-then-execute with one managed range
//! app mytest
//! host  a 64MiB pageable
//! dev   b 64MiB
//! managed m 32MiB
//! h2d   b a 64MiB
//! launch k0 250us x10 managed=m
//! sync
//! d2h   a b 64MiB
//! free dev b
//! free host a
//! free managed m
//! ```
//!
//! Sizes accept `B`, `KiB`, `MiB`, `GiB`; durations accept `ns`, `us`,
//! `ms`, `s`. Kernel names are `k<digits>`; `x<N>` repeats a launch. A
//! deck's launches may declare at most [`MAX_DECK_KERNEL_TIME`] of
//! kernel time in all.

use std::collections::HashMap;

use hcc_types::{ByteSize, HostMemKind, SimDuration};

use crate::spec::{Op, Suite, WorkloadSpec};

/// Errors from parsing a workload deck.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Why a size or duration literal was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiteralError {
    /// Not one or more ASCII digits followed by a unit.
    Malformed,
    /// A unit this kind of literal does not take.
    UnknownUnit(String),
    /// The value does not fit in 64 bits of its base unit (`bytes` or
    /// `ns`).
    Overflow {
        /// The base unit the value overflows.
        base: &'static str,
    },
}

impl std::fmt::Display for LiteralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiteralError::Malformed => f.write_str("expected <digits><unit>"),
            LiteralError::UnknownUnit(unit) => write!(f, "unknown unit {unit:?}"),
            LiteralError::Overflow { base } => write!(f, "more than {} {base}", u64::MAX),
        }
    }
}

impl std::error::Error for LiteralError {}

/// `digits` × `scale` in the base unit `base`, refusing a value past
/// `u64::MAX`.
fn scaled(digits: &str, scale: u64, base: &'static str) -> Result<u64, LiteralError> {
    let n: u64 = digits
        .parse()
        .map_err(|e: std::num::ParseIntError| match e.kind() {
            std::num::IntErrorKind::PosOverflow => LiteralError::Overflow { base },
            _ => LiteralError::Malformed,
        })?;
    n.checked_mul(scale).ok_or(LiteralError::Overflow { base })
}

/// Parses a size literal like `64MiB`, `4KiB`, `512B`, `1GiB`.
///
/// # Errors
/// [`LiteralError`] for a literal that is not `<digits><unit>`, an
/// unknown unit, or a size past `u64::MAX` bytes.
pub fn parse_size(s: &str) -> Result<ByteSize, LiteralError> {
    let (digits, unit) = split_number(s)?;
    let scale = match unit {
        "B" | "b" => 1,
        "KiB" | "kib" | "KB" => 1 << 10,
        "MiB" | "mib" | "MB" => 1 << 20,
        "GiB" | "gib" | "GB" => 1 << 30,
        _ => return Err(LiteralError::UnknownUnit(unit.to_string())),
    };
    scaled(digits, scale, "bytes").map(ByteSize::bytes)
}

/// Parses a duration literal like `250us`, `2ms`, `1s`, `800ns`.
///
/// # Errors
/// [`LiteralError`] for a literal that is not `<digits><unit>`, an
/// unknown unit, or a duration past `u64::MAX` nanoseconds.
pub fn parse_duration(s: &str) -> Result<SimDuration, LiteralError> {
    let (digits, unit) = split_number(s)?;
    let scale = match unit {
        "ns" => 1,
        "us" => 1_000,
        "ms" => 1_000_000,
        "s" => 1_000_000_000,
        _ => return Err(LiteralError::UnknownUnit(unit.to_string())),
    };
    scaled(digits, scale, "ns").map(SimDuration::from_nanos)
}

fn split_number(s: &str) -> Result<(&str, &str), LiteralError> {
    match s.find(|c: char| !c.is_ascii_digit()) {
        Some(split) if split > 0 => Ok((&s[..split], &s[split..])),
        _ => Err(LiteralError::Malformed),
    }
}

/// The most kernel time a deck may declare, Σ duration × repeat over its
/// launches: half the virtual clock's range (about 292 years). The other
/// half is room for what the simulator adds on top (execution jitter,
/// the CC slowdown, launch and copy overheads), so a deck that parses
/// cannot run the clock past `u64::MAX` ns.
pub const MAX_DECK_KERNEL_TIME: SimDuration = SimDuration::from_nanos(u64::MAX / 2);

#[derive(Default)]
struct SlotTable {
    host: HashMap<String, usize>,
    dev: HashMap<String, usize>,
    managed: HashMap<String, usize>,
}

/// Parses a workload deck into a [`WorkloadSpec`]. The spec's name is
/// taken from the `app` directive; the suite is [`Suite::Micro`].
///
/// # Errors
/// Returns [`ParseError`] with a line number for malformed decks,
/// unknown buffer names, a missing `app` directive, or the launch that
/// takes the deck's kernel time past [`MAX_DECK_KERNEL_TIME`].
pub fn parse_workload(text: &str) -> Result<WorkloadSpec, ParseError> {
    let mut name: Option<String> = None;
    let mut slots = SlotTable::default();
    let mut ops = Vec::new();
    let mut uvm = false;
    // Σ ket × repeat so far: at most the budget plus one line's 96-bit
    // product, since the first line past the budget is refused.
    let mut kernel_ns = 0u128;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "app" => {
                let app_name = tokens
                    .get(1)
                    .ok_or_else(|| err(lineno, "app needs a name"))?;
                name = Some((*app_name).to_string());
            }
            "host" => {
                let [_, buf, size, kind] = tokens[..] else {
                    return Err(err(lineno, "usage: host <name> <size> pageable|pinned"));
                };
                let size =
                    parse_size(size).map_err(|e| err(lineno, format!("bad size {size}: {e}")))?;
                let kind = match kind {
                    "pageable" => HostMemKind::Pageable,
                    "pinned" => HostMemKind::Pinned,
                    other => return Err(err(lineno, format!("bad host kind {other}"))),
                };
                let slot = slots.host.len();
                slots.host.insert(buf.to_string(), slot);
                ops.push(Op::MallocHost { slot, size, kind });
            }
            "dev" => {
                let [_, buf, size] = tokens[..] else {
                    return Err(err(lineno, "usage: dev <name> <size>"));
                };
                let size =
                    parse_size(size).map_err(|e| err(lineno, format!("bad size {size}: {e}")))?;
                let slot = slots.dev.len();
                slots.dev.insert(buf.to_string(), slot);
                ops.push(Op::MallocDevice { slot, size });
            }
            "managed" => {
                let [_, buf, size] = tokens[..] else {
                    return Err(err(lineno, "usage: managed <name> <size>"));
                };
                let size =
                    parse_size(size).map_err(|e| err(lineno, format!("bad size {size}: {e}")))?;
                let slot = slots.managed.len();
                slots.managed.insert(buf.to_string(), slot);
                ops.push(Op::MallocManaged { slot, size });
                uvm = true;
            }
            "h2d" | "d2h" => {
                let [dir, a, b, size] = tokens[..] else {
                    return Err(err(
                        lineno,
                        "usage: h2d <dev> <host> <size> (or d2h <host> <dev> <size>)",
                    ));
                };
                let size =
                    parse_size(size).map_err(|e| err(lineno, format!("bad size {size}: {e}")))?;
                if dir == "h2d" {
                    let dst = *slots
                        .dev
                        .get(a)
                        .ok_or_else(|| err(lineno, format!("unknown dev buffer {a}")))?;
                    let src = *slots
                        .host
                        .get(b)
                        .ok_or_else(|| err(lineno, format!("unknown host buffer {b}")))?;
                    ops.push(Op::H2D {
                        dst,
                        src,
                        bytes: size,
                    });
                } else {
                    let dst = *slots
                        .host
                        .get(a)
                        .ok_or_else(|| err(lineno, format!("unknown host buffer {a}")))?;
                    let src = *slots
                        .dev
                        .get(b)
                        .ok_or_else(|| err(lineno, format!("unknown dev buffer {b}")))?;
                    ops.push(Op::D2H {
                        dst,
                        src,
                        bytes: size,
                    });
                }
            }
            "d2d" => {
                let [_, a, b, size] = tokens[..] else {
                    return Err(err(lineno, "usage: d2d <dst> <src> <size>"));
                };
                let size =
                    parse_size(size).map_err(|e| err(lineno, format!("bad size {size}: {e}")))?;
                let dst = *slots
                    .dev
                    .get(a)
                    .ok_or_else(|| err(lineno, format!("unknown dev buffer {a}")))?;
                let src = *slots
                    .dev
                    .get(b)
                    .ok_or_else(|| err(lineno, format!("unknown dev buffer {b}")))?;
                ops.push(Op::D2D {
                    dst,
                    src,
                    bytes: size,
                });
            }
            "launch" => {
                if tokens.len() < 3 {
                    return Err(err(
                        lineno,
                        "usage: launch k<N> <duration> [x<reps>] [managed=<buf>,...]",
                    ));
                }
                let kernel = tokens[1]
                    .strip_prefix('k')
                    .and_then(|k| k.parse::<u32>().ok())
                    .ok_or_else(|| err(lineno, format!("bad kernel name {}", tokens[1])))?;
                let ket = parse_duration(tokens[2])
                    .map_err(|e| err(lineno, format!("bad duration {}: {e}", tokens[2])))?;
                let mut repeat = 1u32;
                let mut managed = Vec::new();
                for tok in &tokens[3..] {
                    if let Some(reps) = tok.strip_prefix('x') {
                        repeat = reps
                            .parse()
                            .map_err(|_| err(lineno, format!("bad repeat {tok}")))?;
                    } else if let Some(bufs) = tok.strip_prefix("managed=") {
                        for buf in bufs.split(',') {
                            let slot = *slots.managed.get(buf).ok_or_else(|| {
                                err(lineno, format!("unknown managed buffer {buf}"))
                            })?;
                            managed.push(slot);
                        }
                    } else {
                        return Err(err(lineno, format!("unknown launch option {tok}")));
                    }
                }
                kernel_ns += u128::from(ket.as_nanos()) * u128::from(repeat);
                if kernel_ns > u128::from(MAX_DECK_KERNEL_TIME.as_nanos()) {
                    return Err(err(
                        lineno,
                        format!(
                            "launches declare more than {MAX_DECK_KERNEL_TIME} of kernel \
                             time: the virtual clock would overflow"
                        ),
                    ));
                }
                ops.push(Op::Launch {
                    kernel,
                    ket,
                    managed,
                    repeat,
                });
            }
            "sync" => ops.push(Op::Sync),
            "free" => {
                let [_, kind, buf] = tokens[..] else {
                    return Err(err(lineno, "usage: free dev|host|managed <name>"));
                };
                match kind {
                    "dev" => {
                        let slot = *slots
                            .dev
                            .get(buf)
                            .ok_or_else(|| err(lineno, format!("unknown dev buffer {buf}")))?;
                        ops.push(Op::FreeDevice { slot });
                    }
                    "host" => {
                        let slot = *slots
                            .host
                            .get(buf)
                            .ok_or_else(|| err(lineno, format!("unknown host buffer {buf}")))?;
                        ops.push(Op::FreeHost { slot });
                    }
                    "managed" => {
                        let slot = *slots
                            .managed
                            .get(buf)
                            .ok_or_else(|| err(lineno, format!("unknown managed buffer {buf}")))?;
                        ops.push(Op::FreeManaged { slot });
                    }
                    other => return Err(err(lineno, format!("bad free kind {other}"))),
                }
            }
            other => return Err(err(lineno, format!("unknown directive {other}"))),
        }
    }
    let name = name.ok_or_else(|| err(1, "missing `app <name>` directive"))?;
    Ok(WorkloadSpec {
        // Leak the name: specs carry &'static str names; decks are
        // long-lived experiment definitions, so one leak per parse is the
        // pragmatic trade (same pattern as test fixtures).
        name: Box::leak(name.into_boxed_str()),
        suite: Suite::Micro,
        uvm,
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use hcc_runtime::SimConfig;
    use hcc_types::CcMode;

    const DECK: &str = "
# demo deck
app demo
host a 8MiB pageable
dev  b 8MiB
managed m 4MiB
h2d b a 8MiB
launch k0 250us x10 managed=m
sync
d2h a b 8MiB
free dev b
free host a
free managed m
";

    #[test]
    fn parses_and_runs() {
        let spec = parse_workload(DECK).unwrap();
        assert_eq!(spec.name, "demo");
        assert!(spec.uvm);
        assert_eq!(spec.launch_count(), 10);
        assert_eq!(spec.copy_bytes(), ByteSize::mib(16));
        let r = runner::run(&spec, SimConfig::new(CcMode::On)).unwrap();
        assert_eq!(r.timeline.launch_metrics().launch_count(), 10);
        assert!(r.uvm.faults > 0);
    }

    #[test]
    fn size_and_duration_literals() {
        assert_eq!(parse_size("512B"), Ok(ByteSize::bytes(512)));
        assert_eq!(parse_size("4KiB"), Ok(ByteSize::kib(4)));
        assert_eq!(parse_size("1GiB"), Ok(ByteSize::gib(1)));
        assert_eq!(parse_size("MiB"), Err(LiteralError::Malformed));
        assert_eq!(parse_size("12"), Err(LiteralError::Malformed));
        assert_eq!(
            parse_size("1TiB"),
            Err(LiteralError::UnknownUnit("TiB".to_string()))
        );
        assert_eq!(parse_duration("800ns"), Ok(SimDuration::from_nanos(800)));
        assert_eq!(parse_duration("2ms"), Ok(SimDuration::millis(2)));
        assert_eq!(
            parse_duration("3h"),
            Err(LiteralError::UnknownUnit("h".to_string()))
        );
    }

    /// A deck whose literals each fit is refused at the launch that takes
    /// its kernel time past the clock's budget, never run into a clock
    /// overflow: by one line's repeat, by the sum of lines that each fit
    /// the budget, and by a sum that would pass 64 bits.
    #[test]
    fn kernel_time_past_the_clock_budget_is_refused_by_line() {
        let refused = |deck: &str| parse_workload(deck).expect_err("refused");
        let e = refused("app big\nlaunch k0 18446744073s x1000\nsync\n");
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("virtual clock would overflow"), "{e}");
        let e = refused("app two\nlaunch k0 5000000000s\nlaunch k1 5000000000s\n");
        assert_eq!(e.line, 3, "{e}");
        let e = refused("app wide\nlaunch k0 5000000000s\nlaunch k1 15000000000s\n");
        assert_eq!(e.line, 3, "{e}");
        // Up to the budget a deck parses, and it runs in both modes.
        let budget = MAX_DECK_KERNEL_TIME.as_nanos();
        let spec = parse_workload(&format!(
            "app edge\nlaunch k0 {}ns\nlaunch k1 {}ns\nsync\n",
            budget - 1,
            1
        ))
        .expect("at the budget");
        for cc in [CcMode::Off, CcMode::On] {
            let r = runner::run(&spec, SimConfig::new(cc)).expect("runs");
            // Jitter scales each kernel by 1 ± 1.5%.
            assert!(r.end.as_nanos() > budget / 100 * 98, "{cc}: {}", r.end);
        }
        let over = format!("app over\nlaunch k0 {}ns x2\n", budget / 2 + 1);
        assert_eq!(refused(&over).line, 2);
    }

    /// At every unit, the largest count that fits in 64 bits of the
    /// base unit parses to exactly that many, and one more is refused
    /// as an overflow, as is a digit string past `u64::MAX` itself.
    #[test]
    fn literals_refuse_the_first_count_past_64_bits_at_every_unit() {
        let sizes = [
            ("B", 1u64),
            ("KiB", 1 << 10),
            ("MiB", 1 << 20),
            ("GiB", 1 << 30),
        ];
        let durations = [
            ("ns", 1u64),
            ("us", 1_000),
            ("ms", 1_000_000),
            ("s", 1_000_000_000),
        ];
        let past = "18446744073709551616"; // u64::MAX + 1
        for (unit, scale) in sizes {
            let max = u64::MAX / scale;
            let bytes = parse_size(&format!("{max}{unit}")).map(ByteSize::as_u64);
            assert_eq!(bytes, Ok(max * scale), "{unit}");
            let over = Err(LiteralError::Overflow { base: "bytes" });
            assert_eq!(
                parse_size(&format!("{}{unit}", u128::from(max) + 1)),
                over,
                "{unit}"
            );
            assert_eq!(parse_size(&format!("{past}{unit}")), over, "{unit}");
        }
        for (unit, scale) in durations {
            let max = u64::MAX / scale;
            let ns = parse_duration(&format!("{max}{unit}")).map(SimDuration::as_nanos);
            assert_eq!(ns, Ok(max * scale), "{unit}");
            let over = Err(LiteralError::Overflow { base: "ns" });
            assert_eq!(
                parse_duration(&format!("{}{unit}", u128::from(max) + 1)),
                over,
                "{unit}"
            );
            assert_eq!(parse_duration(&format!("{past}{unit}")), over, "{unit}");
        }
    }

    #[test]
    fn a_deck_refuses_an_overflowing_literal_by_line() {
        let e = parse_workload("app x\ndev d 17179869184GiB\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(
            e.message,
            format!("bad size 17179869184GiB: more than {} bytes", u64::MAX)
        );
        let e = parse_workload("app x\nsync\nlaunch k0 18446744073709551615s x1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e
            .message
            .starts_with("bad duration 18446744073709551615s: more than"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_workload("app x\nbogus y\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = parse_workload("app x\nh2d b a 1MiB\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown dev buffer"));

        let e = parse_workload("host a 1MiB pinned\n").unwrap_err();
        assert!(e.message.contains("missing `app"));

        let e = parse_workload("app x\nlaunch q0 1ms\n").unwrap_err();
        assert!(e.message.contains("bad kernel name"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let spec = parse_workload("app t\n\n# nothing\nsync # trailing\n").unwrap();
        assert_eq!(spec.ops, vec![Op::Sync]);
    }

    #[test]
    fn launch_options() {
        let spec =
            parse_workload("app t\nmanaged m 1MiB\nmanaged n 1MiB\nlaunch k3 5us x7 managed=m,n\n")
                .unwrap();
        let Op::Launch {
            kernel,
            ket,
            managed,
            repeat,
        } = &spec.ops[2]
        else {
            panic!("expected launch op");
        };
        assert_eq!(*kernel, 3);
        assert_eq!(*ket, SimDuration::micros(5));
        assert_eq!(*repeat, 7);
        assert_eq!(managed.len(), 2);
    }

    const SIZE_UNITS: [(&str, u64); 11] = [
        ("B", 1),
        ("b", 1),
        ("KiB", 1 << 10),
        ("kib", 1 << 10),
        ("KB", 1 << 10),
        ("MiB", 1 << 20),
        ("mib", 1 << 20),
        ("MB", 1 << 20),
        ("GiB", 1 << 30),
        ("gib", 1 << 30),
        ("GB", 1 << 30),
    ];
    const DURATION_UNITS: [(&str, u64); 4] = [
        ("ns", 1),
        ("us", 1_000),
        ("ms", 1_000_000),
        ("s", 1_000_000_000),
    ];

    /// What `text` must parse to as a literal of `units`, worked out
    /// apart from the parser: `Malformed` unless it is ASCII digits then
    /// more, `UnknownUnit` for a unit `units` lacks, otherwise the count
    /// times the unit's scale in `base`, or `Overflow` past `u64::MAX`.
    fn oracle(text: &str, units: &[(&str, u64)], base: &'static str) -> Result<u64, LiteralError> {
        let split = text.find(|c: char| !c.is_ascii_digit());
        let (digits, unit) = match split {
            Some(split) if split > 0 => text.split_at(split),
            _ => return Err(LiteralError::Malformed),
        };
        let Some(&(_, scale)) = units.iter().find(|&&(u, _)| u == unit) else {
            return Err(LiteralError::UnknownUnit(unit.to_string()));
        };
        // Past 30 significant digits the count alone is ~1e30 > u64::MAX.
        let count = digits.trim_start_matches('0');
        let count: u128 = if count.len() > 30 {
            u128::MAX
        } else {
            count.parse().unwrap_or(0)
        };
        let value = count.saturating_mul(u128::from(scale));
        u64::try_from(value).map_err(|_| LiteralError::Overflow { base })
    }

    /// Counts around every unit's edge (`u64::MAX / scale` and one more),
    /// `u64::MAX` ± 1 themselves, and small and zero-padded counts.
    fn counts() -> Vec<String> {
        let scales = SIZE_UNITS.iter().chain(&DURATION_UNITS).map(|&(_, s)| s);
        let edges = scales.flat_map(|s| [u64::MAX / s].map(u128::from).map(|n| [n, n + 1]));
        let mut counts: Vec<String> = edges.flatten().map(|n| n.to_string()).collect();
        counts.extend(["0", "1", "7", "64", "0064", "18446744073709551614"].map(String::from));
        counts
    }

    /// What literals and deck lines are glued from besides counts and
    /// units: wrong-case and unknown units, signs, radix and float
    /// syntax, `#` comments, whitespace, empty tokens and non-ASCII.
    const JUNK: [&str; 22] = [
        "", " ", "  ", "\t", "#", "# note", "-", "+", "0x", ".", "e3", "_", "KIB", "Mib", "sec",
        "h", "x", "é", "∞", "\u{0}", "\u{feff}", "𝟙",
    ];

    /// Any text either parses as a size and a duration exactly as
    /// [`oracle`] says, or is refused with that typed error: an accepted
    /// `<n><unit>` is n × scale, and `Overflow` comes back exactly when
    /// that product passes `u64::MAX`. Never a panic.
    #[test]
    fn literals_parse_to_count_times_scale_or_a_typed_error() {
        use hcc_check::strategy::{bytes, u64s, vecs};
        use hcc_check::{ensure_eq, forall, Config};
        let counts = counts();
        let units: Vec<&str> = SIZE_UNITS
            .iter()
            .chain(&DURATION_UNITS)
            .map(|u| u.0)
            .collect();
        let mut pieces: Vec<&str> = counts.iter().map(String::as_str).collect();
        pieces.extend(units.iter().chain(&JUNK));
        let tally = std::cell::RefCell::new([0u32; 3]);
        forall!(
            Config::new(0xDEC_0001).with_cases(2048),
            ((count, unit), (picks, raw)) in (
                (u64s(0..counts.len() as u64), u64s(0..(units.len() + JUNK.len()) as u64)),
                (vecs(u64s(0..pieces.len() as u64), 0..5), vecs(bytes(), 0..16))
            ) => {
                let unit = units.iter().chain(&JUNK).nth(unit as usize).expect("in range");
                let texts = [
                    format!("{}{unit}", counts[count as usize]),
                    picks.iter().map(|&k| pieces[k as usize]).collect(),
                    String::from_utf8_lossy(&raw).into_owned(),
                ];
                for text in texts {
                    let size = parse_size(&text).map(ByteSize::as_u64);
                    ensure_eq!(size, oracle(&text, &SIZE_UNITS, "bytes"));
                    let ns = parse_duration(&text).map(SimDuration::as_nanos);
                    ensure_eq!(ns.clone(), oracle(&text, &DURATION_UNITS, "ns"));
                    let mut tally = tally.borrow_mut();
                    match (size, ns) {
                        (Ok(_), _) | (_, Ok(_)) => tally[0] += 1,
                        (Err(LiteralError::Overflow { .. }), _)
                        | (_, Err(LiteralError::Overflow { .. })) => tally[1] += 1,
                        _ => tally[2] += 1,
                    }
                }
            }
        );
        let [accepted, overflowed, refused] = *tally.borrow();
        assert!(
            accepted > 200 && overflowed > 200 && refused > 200,
            "{tally:?}"
        );
    }

    /// Any deck glued from directives, names, literals, comments, blank
    /// lines and junk, and any raw bytes, either parses or is refused
    /// with a typed error naming a line that holds a directive (line 1
    /// for a missing `app`), never a panic; a deck that parses keeps
    /// its kernel time within [`MAX_DECK_KERNEL_TIME`].
    #[test]
    fn decks_parse_or_are_refused_by_line() {
        use hcc_check::strategy::{bytes, u64s, vecs};
        use hcc_check::{ensure, forall, Config};
        const WORDS: [&str; 23] = [
            "app",
            "host",
            "dev",
            "managed",
            "h2d",
            "d2h",
            "d2d",
            "launch",
            "sync",
            "free",
            "bogus",
            "a",
            "b",
            "m",
            "k0",
            "k4294967296",
            "x3",
            "x0",
            "x4294967296",
            "managed=m",
            "managed=m,q",
            "pinned",
            "pageable",
        ];
        let counts = counts();
        let mut pieces: Vec<String> = WORDS.iter().chain(&JUNK).map(|w| w.to_string()).collect();
        for unit in SIZE_UNITS.iter().chain(&DURATION_UNITS).map(|u| u.0) {
            pieces.extend(counts.iter().map(|n| format!("{n}{unit}")));
        }
        let (parsed, refused) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        forall!(
            Config::new(0xDEC_0002).with_cases(1024),
            (lines, raw) in (
                vecs(vecs(u64s(0..pieces.len() as u64), 0..6), 0..8),
                vecs(bytes(), 0..48)
            ) => {
                let deck = lines.iter().map(|words| {
                    let words = words.iter().map(|&k| pieces[k as usize].as_str());
                    words.collect::<Vec<_>>().join(" ")
                });
                // Every other deck starts with its `app` line, so decks
                // get past the missing-name refusal.
                let app = (lines.len() % 2 == 0).then(|| "app fuzz".to_string());
                let deck: Vec<String> = app.into_iter().chain(deck).collect();
                for text in [deck.join("\n"), String::from_utf8_lossy(&raw).into_owned()] {
                    match parse_workload(&text) {
                        Ok(spec) => {
                            parsed.set(parsed.get() + 1);
                            let ket: u128 = spec.ops.iter().map(|op| match op {
                                Op::Launch { ket, repeat, .. } => {
                                    u128::from(ket.as_nanos()) * u128::from(*repeat)
                                }
                                _ => 0,
                            }).sum();
                            ensure!(ket <= u128::from(MAX_DECK_KERNEL_TIME.as_nanos()));
                        }
                        Err(e) if e.message.starts_with("missing `app") => {
                            refused.set(refused.get() + 1);
                            ensure!(e.line == 1, "{e}");
                        }
                        Err(e) => {
                            refused.set(refused.get() + 1);
                            let line = text.lines().nth(e.line.wrapping_sub(1)).unwrap_or("");
                            let directive = line.split('#').next().unwrap_or("").trim();
                            ensure!(!directive.is_empty(), "{e} names line {line:?} of {text:?}");
                        }
                    }
                }
            }
        );
        assert!(
            parsed.get() > 50 && refused.get() > 500,
            "{parsed:?} {refused:?}"
        );
    }
}
