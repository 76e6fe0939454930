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
}
