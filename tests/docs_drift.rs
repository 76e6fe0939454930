//! EXPERIMENTS.md quotes the numbers `summary` prints; this holds the doc
//! to them. For every statistic row of `figures::summary::render()`, the
//! doc's "paper | measured" table row for the same statistic must give
//! the same measured value at the precision the doc prints it (`33×`
//! matches a measured `x33.11`, `5.47×` must match `x5.47` exactly).

use hcc_bench::figures::summary;

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

/// The measured cell of the one table row whose first cell is `label`.
fn measured_cell<'a>(doc: &'a str, label: &str) -> &'a str {
    let rows: Vec<Vec<&str>> = doc
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(|l| l.split('|').map(str::trim).collect())
        .filter(|cells: &Vec<&str>| cells.get(1) == Some(&label))
        .collect();
    assert_eq!(rows.len(), 1, "EXPERIMENTS.md needs one row {label:?}");
    // ["", label, paper, measured, ""]: the measured column is the third.
    rows[0]
        .get(3)
        .unwrap_or_else(|| panic!("row {label:?} has no measured column"))
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
        let cell = measured_cell(&doc, row);
        let after = cell
            .find(anchor)
            .map(|i| &cell[i + anchor.len()..])
            .unwrap_or_else(|| panic!("row {row:?}: no {anchor:?} in {cell:?}"));
        let quoted = first_number(after).unwrap_or_else(|| panic!("row {row:?}: no number"));
        let decimals = quoted.split_once('.').map_or(0, |(_, frac)| frac.len());
        let value = |text: &str| -> f64 {
            let number = first_number(text).expect("a number");
            number.parse().unwrap_or_else(|e| panic!("{number:?}: {e}"))
        };
        let (doc_value, code_value) = (value(quoted), value(measured));
        if format!("{doc_value:.decimals$}") != format!("{code_value:.decimals$}") {
            drifted.push(format!(
                "{label}: summary measures {measured}, EXPERIMENTS.md row {row:?} says {quoted}"
            ));
        }
    }
    assert!(drifted.is_empty(), "docs drifted:\n{}", drifted.join("\n"));
}
