//! The process exit-code contract, in one place.
//!
//! Every front end (the `awg-repro` CLI, CI scripts, the future campaign
//! server) maps failure classes to these codes; tests assert them over the
//! real binary. Keep this table in sync with the exit-code table in
//! `README.md` ("Trust but verify").

/// Success: the command ran to completion and every job produced a result.
pub const EXIT_OK: u8 = 0;

/// Generic failure (I/O errors, invalid reproduction results).
pub const EXIT_FAIL: u8 = 1;

/// Usage error: unknown command or malformed flags.
pub const EXIT_USAGE: u8 = 2;

/// A replayed run hung (deadlock or cycle-limit) — the reproducer's
/// expected outcome for shrunk fault plans.
pub const EXIT_HANG: u8 = 3;

/// The invariant oracle caught the machine violating a machine-wide
/// invariant.
pub const EXIT_INVARIANT: u8 = 4;

/// A fault-plan file could not be parsed.
pub const EXIT_PLAN: u8 = 5;

/// Partial completion: the campaign finished, but at least one job
/// panicked or timed out and its rows are ERROR markers rather than
/// measurements.
pub const EXIT_PARTIAL: u8 = 6;

/// The conformance matrix regressed: the observed policy × progress-model
/// classification differs from the committed expected matrix
/// (`results/conformance_expected.csv`). Re-bless deliberate changes with
/// `BLESS=1`.
pub const EXIT_CONFORMANCE: u8 = 8;

/// The bench campaign regressed: aggregate Mcycles/s fell below the
/// committed baseline snapshot by more than `--max-regress` percent
/// (`bench --compare <BENCH_*.json>`). Re-bless deliberate slowdowns by
/// committing a fresh snapshot.
pub const EXIT_REGRESSION: u8 = 9;

/// The full exit-code table: `(code, meaning)`, ascending.
pub const EXIT_TABLE: &[(u8, &str)] = &[
    (EXIT_OK, "success"),
    (
        EXIT_FAIL,
        "failure (I/O error or invalid reproduction result)",
    ),
    (EXIT_USAGE, "usage error (unknown command or flag)"),
    (EXIT_HANG, "replayed run hung (deadlock or cycle limit)"),
    (EXIT_INVARIANT, "invariant oracle violation"),
    (EXIT_PLAN, "fault plan parse error"),
    (
        EXIT_PARTIAL,
        "partial completion (some jobs panicked or timed out; rows marked ERROR)",
    ),
    (
        EXIT_CONFORMANCE,
        "conformance matrix regression (observed matrix differs from the committed expected CSV)",
    ),
    (
        EXIT_REGRESSION,
        "perf regression (bench aggregate fell below the baseline snapshot by more than --max-regress)",
    ),
];

/// The exit-code table rendered for `--help` output, one code per line.
pub fn exit_table_text() -> String {
    let mut out = String::from("Exit codes:\n");
    for (code, meaning) in EXIT_TABLE {
        out.push_str(&format!("  {code:>3}  {meaning}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_complete_and_sorted() {
        let codes: Vec<u8> = EXIT_TABLE.iter().map(|&(c, _)| c).collect();
        assert_eq!(
            codes,
            vec![
                EXIT_OK,
                EXIT_FAIL,
                EXIT_USAGE,
                EXIT_HANG,
                EXIT_INVARIANT,
                EXIT_PLAN,
                EXIT_PARTIAL,
                EXIT_CONFORMANCE,
                EXIT_REGRESSION
            ]
        );
        assert!(codes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn readme_table_lists_exactly_the_exit_table_codes() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
        let readme = std::fs::read_to_string(&path).expect("README.md at the repository root");
        let table = readme
            .split("| code | meaning |")
            .nth(1)
            .expect("README has an exit-code table");
        let codes: Vec<u8> = table
            .lines()
            .skip(2) // the rest of the header line, then the alignment row
            .take_while(|line| line.starts_with('|'))
            .map(|line| {
                let code = line.split('|').nth(1).unwrap_or("").trim();
                code.parse()
                    .unwrap_or_else(|_| panic!("README row without a numeric code: {line}"))
            })
            .collect();
        let expected: Vec<u8> = EXIT_TABLE.iter().map(|&(c, _)| c).collect();
        assert_eq!(codes, expected, "README's exit-code table and EXIT_TABLE");
    }

    #[test]
    fn help_text_names_every_code() {
        let text = exit_table_text();
        for (code, meaning) in EXIT_TABLE {
            assert!(text.contains(&format!("{code:>3}  ")), "{text}");
            assert!(text.contains(meaning), "{text}");
        }
    }
}
