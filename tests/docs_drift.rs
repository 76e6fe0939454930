//! EXPERIMENTS.md quotes the numbers `summary` and `figures ablations`
//! print; this holds the doc to them. For every statistic row of
//! `figures::summary::render()`, the doc's "paper | measured" table row
//! for the same statistic must give the same measured value at the
//! precision the doc prints it (`33×` matches a measured `x33.11`,
//! `5.47×` must match `x5.47` exactly). Every number of the ablation
//! table's measured column must do the same against the
//! `figures::ablations::render()` row it quotes, in the same unit.

use hcc_bench::figures::{ablations, summary};

/// Each summary statistic, the first cell of its EXPERIMENTS.md row, and
/// the text in that row's measured cell after which its number is read
/// (`""`: the cell's first number).
const ROWS: [(&str, &str, &str); 18] = [
    ("CC pinned H2D peak (GB/s)", "CC pinned peak", ""),
    ("copy slowdown mean", "mean CC/base copy slowdown", ""),
    ("copy slowdown max", "max (2dconv, pinned→Managed D2D)", ""),
    ("copy slowdown min", "min (cnn, tiny staging copies)", ""),
    ("cudaMallocHost", "cudaMallocHost", ""),
    ("cudaMalloc", "cudaMalloc", ""),
    ("cudaFree", "cudaFree", ""),
    ("cudaMallocManaged", "cudaMallocManaged", ""),
    ("managed cudaFree", "managed cudaFree", ""),
    ("mean KLO slowdown", "mean KLO slowdown", ""),
    ("mean LQT slowdown", "mean LQT slowdown", ""),
    ("mean KQT slowdown", "mean KQT slowdown", ""),
    ("non-UVM KET delta", "non-UVM KET change under CC", ""),
    ("UVM base slowdown mean", "UVM (no CC) slowdown", ""),
    ("UVM-CC slowdown geomean", "UVM-CC slowdown", "geomean"),
    (
        "CNN batch-64 CC throughput drop",
        "batch 64 mean throughput drop",
        "",
    ),
    (
        "CNN batch-1024 CC throughput drop",
        "batch 1024 mean drop",
        "",
    ),
    (
        "min vLLM speedup over HF (all cells)",
        "all vLLM cells > 1× vs HF/BF16/CC-off",
        "",
    ),
];

/// Each row of EXPERIMENTS.md's ablation table (its first cell), and the
/// `figures ablations` rows its measured cell quotes, in order.
const ABLATION_ROWS: [(&str, &[&str]); 9] = [
    (
        "bounce pool, one 4 MiB reservation: thrashing 4 MiB pool / warm 64 MiB pool's first / its steady state",
        &[
            "thrash: 4 MiB pool, reclaimed each transfer",
            "warm 64 MiB pool, first reservation",
            "warm 64 MiB pool, steady state",
            "first / steady state",
        ],
    ),
    (
        "UVM batch 8 / 32 / 128 (+prefetch), cold 64 MiB",
        &["batch 8 + prefetch", "batch 32 + prefetch", "batch 128 + prefetch"],
    ),
    (
        "prefetch off vs on (batch 32)",
        &["batch 32, no prefetch", "batch 32 + prefetch"],
    ),
    (
        "transfer cipher, 64 MiB: GHASH < XTS < CTR < GCM-128 < GCM-256 < ChaCha",
        &[
            "GHASH",
            "AES-XTS-128",
            "AES-CTR-128",
            "AES-GCM-128",
            "AES-GCM-256",
            "ChaCha20-Poly1305",
        ],
    ),
    (
        "ring depth 4 / 32 / 256, total ring wait of a 2000-command burst",
        &["depth 4", "depth 32", "depth 256"],
    ),
    (
        "crypto workers 1 / 2 / 4 / 8, one 1 GiB CC transfer",
        &[
            "1 worker",
            "2 workers",
            "4 workers",
            "8 workers",
            "1 → 8 workers speedup",
        ],
    ),
    (
        "5 µs launch, mean of 8 after warm-up, base / CC",
        &[
            "5 µs launch, mean of 8 after warm-up, base",
            "5 µs launch, mean of 8 after warm-up, cc",
        ],
    ),
    (
        "cold 64 MiB managed access, base / CC",
        &[
            "cold 64 MiB managed access, base",
            "cold 64 MiB managed access, cc",
        ],
    ),
    (
        "16 MiB cudaMalloc + cudaFree, mean of 8, base / CC",
        &[
            "16 MiB cudaMalloc + cudaFree, mean of 8, base",
            "16 MiB cudaMalloc + cudaFree, mean of 8, cc",
        ],
    ),
];

/// The first signed decimal number in `text`, as written.
fn first_number(text: &str) -> Option<&str> {
    let digit = text.find(|c: char| c.is_ascii_digit())?;
    let start = match text[..digit].chars().next_back() {
        Some('+' | '-') => digit - 1,
        _ => digit,
    };
    let len = text[digit..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(text.len() - digit);
    Some(text[start..digit + len].trim_end_matches('.'))
}

/// Cell `column` (the first cell is 1) of the one table row whose first
/// cell is `label`.
fn table_cell<'a>(doc: &'a str, label: &str, column: usize) -> &'a str {
    let rows: Vec<Vec<&str>> = doc
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(|l| l.split('|').map(str::trim).collect())
        .filter(|cells: &Vec<&str>| cells.get(1) == Some(&label))
        .collect();
    assert_eq!(rows.len(), 1, "EXPERIMENTS.md needs one row {label:?}");
    rows[0]
        .get(column)
        .unwrap_or_else(|| panic!("row {label:?} has no column {column}"))
}

/// Whether two decimal numbers agree at the precision `quoted` is
/// written in.
fn agree(quoted: &str, measured: &str) -> bool {
    let decimals = quoted.split_once('.').map_or(0, |(_, frac)| frac.len());
    let value = |text: &str| -> f64 {
        let number = first_number(text).expect("a number");
        number.parse().unwrap_or_else(|e| panic!("{number:?}: {e}"))
    };
    let (quoted, measured) = (value(quoted), value(measured));
    format!("{quoted:.decimals$}") == format!("{measured:.decimals$}")
}

/// Every number in `text` with its unit: the text glued to it (`5144×`),
/// or else the next word (`1.13 ms`).
fn quantities(text: &str) -> Vec<(&str, &str)> {
    let words: Vec<&str> = text
        .split_whitespace()
        .map(|w| w.trim_matches(|c| c == '(' || c == ')'))
        .collect();
    let numbers = words.iter().enumerate();
    let numbers = numbers.filter(|(_, w)| w.starts_with(|c: char| c.is_ascii_digit()));
    numbers
        .map(|(i, word)| {
            let end = word
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(word.len());
            let (number, glued) = word.split_at(end);
            let unit = match glued {
                "" => words.get(i + 1).copied().unwrap_or(""),
                glued => glued,
            };
            (number, unit)
        })
        .collect()
}

/// The statistic rows of the summary table, label to measured value.
fn summary_rows(text: &str) -> Vec<(&str, &str)> {
    text.lines()
        .skip_while(|l| !l.starts_with("statistic "))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let measured = l.split_whitespace().last().expect("a measured column");
            (l[..44].trim_end(), measured)
        })
        .collect()
}

#[test]
fn experiments_md_quotes_what_summary_measures() {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(doc_path).expect("EXPERIMENTS.md");
    let rendered = summary::render();
    assert!(rendered.failures.is_empty(), "{:?}", rendered.failures);
    let stats = summary_rows(&rendered.data);
    let labels: Vec<&str> = stats.iter().map(|(label, _)| *label).collect();
    let mapped: Vec<&str> = ROWS.iter().map(|(label, ..)| *label).collect();
    assert_eq!(labels, mapped, "every summary statistic needs a doc row");

    let mut drifted = Vec::new();
    for ((label, measured), (_, row, anchor)) in stats.iter().zip(ROWS) {
        // ["", label, paper, measured, ""]: the measured column is the third.
        let cell = table_cell(&doc, row, 3);
        let after = cell
            .find(anchor)
            .map(|i| &cell[i + anchor.len()..])
            .unwrap_or_else(|| panic!("row {row:?}: no {anchor:?} in {cell:?}"));
        let quoted = first_number(after).unwrap_or_else(|| panic!("row {row:?}: no number"));
        if !agree(quoted, measured) {
            drifted.push(format!(
                "{label}: summary measures {measured}, EXPERIMENTS.md row {row:?} says {quoted}"
            ));
        }
    }
    assert!(drifted.is_empty(), "docs drifted:\n{}", drifted.join("\n"));
}

#[test]
fn experiments_md_quotes_what_the_ablations_measure() {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(doc_path).expect("EXPERIMENTS.md");
    let rendered = ablations::render();
    assert!(rendered.failures.is_empty(), "{:?}", rendered.failures);
    // Each `  label  number unit` (or `  label  number×`) row of the figure.
    let rows: Vec<(String, (&str, &str))> = rendered
        .data
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            let value = quantities(l).pop().expect("a value");
            let glued = words.last().is_some_and(|w| w.starts_with(value.0));
            let label = words[..words.len() - if glued { 1 } else { 2 }].join(" ");
            (label, value)
        })
        .collect();
    let mut quoted: Vec<&str> = ABLATION_ROWS.iter().flat_map(|(_, r)| r.to_vec()).collect();
    let mut printed: Vec<&str> = rows.iter().map(|(label, _)| label.as_str()).collect();
    quoted.sort_unstable();
    quoted.dedup();
    printed.sort_unstable();
    assert_eq!(quoted, printed, "the doc must quote every figure row");

    let mut drifted = Vec::new();
    for (row, labels) in ABLATION_ROWS {
        // ["", ablation, measured, takeaway, ""]: measured is the second.
        let cell = table_cell(&doc, row, 2);
        let numbers = quantities(cell);
        if numbers.len() != labels.len() {
            drifted.push(format!(
                "row {row:?} quotes {numbers:?}, the figure {labels:?}"
            ));
            continue;
        }
        for ((number, unit), label) in numbers.into_iter().zip(labels) {
            let (_, (value, printed_unit)) = rows.iter().find(|(l, _)| l == label).unwrap();
            if unit != *printed_unit || !agree(number, value) {
                drifted.push(format!(
                    "{label}: the figure prints {value} {printed_unit}, \
                     EXPERIMENTS.md row {row:?} says {number} {unit}"
                ));
            }
        }
    }
    assert!(drifted.is_empty(), "docs drifted:\n{}", drifted.join("\n"));
}
