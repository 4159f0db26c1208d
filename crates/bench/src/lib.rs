//! Harness support for regenerating every table and figure of the paper.
//!
//! Each evaluation artifact has a dedicated binary (run with
//! `cargo run -p gals-bench --release --bin <name>`):
//!
//! | Artifact | Binary |
//! |---|---|
//! | Table 1 (D/L2 configurations) | `table1_dl2_configs` |
//! | Figure 2 (D/L2 frequencies) | `fig2_dcache_freq` |
//! | Table 2 (adaptive I-cache/BP) | `table2_adaptive_icache` |
//! | Table 3 (fixed I-cache/BP options) | `table3_optimal_icache` |
//! | Figure 3 (I-cache frequencies) | `fig3_icache_freq` |
//! | Figure 4 (issue-queue frequencies) | `fig4_iq_freq` |
//! | Table 4 (controller gate cost) | `table4_hw_cost` |
//! | Table 5 (architectural parameters) | `table5_params` |
//! | Tables 6–8 (benchmark suites) | `tables6_7_8_benchmarks` |
//! | Figure 6 (headline performance) | `fig6_performance` |
//! | Table 9 (program-adaptive choices) | `table9_distribution` |
//! | Figure 7 (reconfiguration traces) | `fig7_traces` |
//! | Policy comparison (beyond the paper) | `policy_compare` |
//!
//! The sweeps behind Figure 6 / Table 9 can also be primed separately via
//! `sweep_sync` and `sweep_program_adaptive`; all measured runtimes are
//! cached (see `gals-explore`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod loadgen;

use std::fmt::Display;

/// Prints a ruled table: header row, then rows of equal arity.
///
/// # Panics
///
/// Panics if any row's arity differs from the header's.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    for row in &rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    println!("\n== {title}");
    let line: String = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}  "))
        .collect();
    println!("{}", line.trim_end());
    println!("{}", "-".repeat(line.trim_end().len()));
    for row in &rows {
        let line: String = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}  "))
            .collect();
        println!("{}", line.trim_end());
    }
}

/// Pulls `"key": <number>` out of flat-ish JSON text, searching after
/// the first occurrence of `anchor` (`""` = from the top). Hand-rolled
/// on purpose: the artifacts it reads (`BENCH_*.json`) are written by
/// this crate's binaries, so their shapes are known and no JSON
/// dependency is needed.
pub fn extract_number(text: &str, anchor: &str, key: &str) -> Option<f64> {
    let from = if anchor.is_empty() {
        0
    } else {
        text.find(anchor)? + anchor.len()
    };
    let rest = &text[from..];
    let kpos = rest.find(key)? + key.len();
    let rest = rest[kpos..].trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Renders a simple horizontal ASCII bar for figure-style output.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round().max(0.0) as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printing_does_not_panic() {
        print_table("t", &["a", "b"], &[vec!["1", "2"], vec!["30", "40"]]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        print_table("t", &["a", "b"], &[vec!["1"]]);
    }
}
