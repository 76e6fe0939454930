//! Golden-snapshot comparison shared by the suites that freeze a report
//! under `tests/golden/`.

use std::path::PathBuf;

/// Asserts that `text` equals `tests/golden/<file>`. With `HCC_BLESS`
/// set, rewrites the file instead: bless a deliberate change with
/// `HCC_BLESS=1 cargo test --test <suite>`.
pub fn assert_matches(file: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("HCC_BLESS").is_some() {
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with HCC_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        text, golden,
        "{file} drifted from its golden snapshot; if intentional, re-bless with HCC_BLESS=1"
    );
}
