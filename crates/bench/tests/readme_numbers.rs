//! README's performance numbers must match the committed artifacts,
//! each compared at the precision README quotes it:
//!
//! * "Serving layer" against `BENCH_serve.json`: the dedupe speedup, the
//!   high/low-priority median latency ratio, and each connection-grid
//!   point's req/s and p99.
//! * "Measured throughput" against `BENCH_sim.json`: the simulator's
//!   geomean, floor and peak speedups, the sweep speedups and configs/s,
//!   and the cache-model bytes. The 1.42× and 1.5× quoted there are a
//!   re-measurement and a bound README itself says the artifact does not
//!   hold, so they are not checked.

use gals_bench::extract_number;

fn read(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// README's section under `heading`, up to the next heading of the same
/// or a higher level.
fn section<'a>(readme: &'a str, heading: &str) -> &'a str {
    let start = readme
        .find(heading)
        .unwrap_or_else(|| panic!("README has a {heading:?} section"));
    let level = heading.len() - heading.trim_start_matches('#').len();
    let rest = &readme[start + level..];
    let end = (1..=level)
        .filter_map(|l| rest.find(&format!("\n{} ", "#".repeat(l))))
        .min()
        .unwrap_or(rest.len());
    &rest[..end]
}

/// Whether `c` can be part of a quoted number (`1,005`, `2.71`).
fn in_number(c: char) -> bool {
    c == '.' || c == ',' || c.is_ascii_digit()
}

/// The number written just before `marker` (e.g. `6.2` in
/// `**6.2× faster**` for marker `× faster`), as text.
fn number_before<'a>(text: &'a str, marker: &str) -> &'a str {
    let end = text
        .find(marker)
        .unwrap_or_else(|| panic!("README quotes nothing before {marker:?}"));
    let head = &text[..end];
    let start = head.rfind(|c| !in_number(c)).map_or(0, |i| i + 1);
    &head[start..]
}

/// The first number written after `anchor` (e.g. `1.08` in
/// `sits at **1.08×**` for anchor `sits at`), as text.
fn number_after<'a>(text: &'a str, anchor: &str) -> &'a str {
    let from = text
        .find(anchor)
        .unwrap_or_else(|| panic!("README has no {anchor:?}"))
        + anchor.len();
    let rest = &text[from..];
    let rest = &rest[rest
        .find(|c: char| c.is_ascii_digit())
        .unwrap_or_else(|| panic!("README quotes no number after {anchor:?}"))..];
    &rest[..rest.find(|c| !in_number(c)).unwrap_or(rest.len())]
}

/// Asserts `measured` rounds to `quoted` at `quoted`'s own precision.
fn assert_quoted(what: &str, quoted: &str, measured: f64) {
    let quoted = quoted.replace(',', "");
    let decimals = quoted.find('.').map_or(0, |dot| quoted.len() - dot - 1);
    let want: f64 = quoted
        .parse()
        .unwrap_or_else(|_| panic!("{what}: {quoted:?} is not a number"));
    let rounded = format!("{measured:.decimals$}");
    assert_eq!(
        rounded.parse::<f64>().unwrap(),
        want,
        "{what}: README says {quoted}, the artifact says {measured} (rounds to {rounded})"
    );
}

/// The connection-scaling table row for `conns`: `| C | req/s | p99 |`.
fn table_row(section: &str, conns: u64) -> Vec<&str> {
    let prefix = format!("| {conns} |");
    let row = section
        .lines()
        .find(|line| line.starts_with(&prefix))
        .unwrap_or_else(|| panic!("README has no scaling row for C={conns}"));
    row.trim_matches('|').split('|').map(str::trim).collect()
}

#[test]
fn readme_serve_numbers_match_the_artifact() {
    let readme = read("README.md");
    let section = section(&readme, "## Serving layer");
    let artifact = read("BENCH_serve.json");
    let num = |anchor: &str, key: &str| {
        extract_number(&artifact, anchor, key)
            .unwrap_or_else(|| panic!("BENCH_serve.json lacks {key} after {anchor:?}"))
    };

    assert_quoted(
        "dedupe speedup",
        number_before(section, "× faster"),
        num("", "\"speedup\""),
    );
    assert_quoted(
        "high/low median latency ratio",
        number_before(section, "× lower median latency"),
        num("", "\"low_priority_median_ms\"") / num("", "\"high_priority_median_ms\""),
    );

    let grid_start = artifact
        .find("\"scaling\"")
        .expect("BENCH_serve.json has a connections.scaling grid");
    let grid = &artifact[grid_start..];
    let points: Vec<&str> = grid
        .split("{\"conns\"")
        .skip(1)
        .map(|p| &p[..p.find('}').expect("closed grid point")])
        .collect();
    assert!(!points.is_empty(), "the scaling grid has points");
    for point in points {
        let point = format!("\"conns\"{point}");
        let conns = extract_number(&point, "", "\"conns\"").expect("conns") as u64;
        let row = table_row(section, conns);
        assert_eq!(row.len(), 3, "C={conns}: row is | C | req/s | p99 |");
        let rps = row[1].trim_start_matches('~');
        assert_quoted(
            &format!("C={conns} kreq/s"),
            rps.strip_suffix('k').expect("req/s quoted in thousands"),
            extract_number(&point, "", "\"throughput_rps\"").expect("throughput_rps") / 1e3,
        );
        assert_quoted(
            &format!("C={conns} p99"),
            row[2].strip_suffix(" ms").expect("p99 quoted in ms"),
            extract_number(&point, "", "\"p99_ms\"").expect("p99_ms"),
        );
    }
}

#[test]
fn readme_throughput_numbers_match_the_artifact() {
    let readme = read("README.md");
    let section = section(&readme, "### Measured throughput");
    let artifact = read("BENCH_sim.json");
    let num = |anchor: &str, key: &str| {
        extract_number(&artifact, anchor, key)
            .unwrap_or_else(|| panic!("BENCH_sim.json lacks {key} after {anchor:?}"))
    };
    let simulator = &artifact[artifact.find("\"simulator\"").expect("simulator rows")..];
    let simulator = &simulator[..simulator.find(']').expect("closed simulator rows")];
    let peak = simulator
        .split("\"speedup\"")
        .skip(1)
        .map(|row| extract_number(row, "", ":").expect("row speedup"))
        .fold(0.0, f64::max);

    let checks = [
        (
            "simulator geomean speedup",
            number_before(section, "× geomean"),
            num("", "\"simulator_geomean_speedup\""),
        ),
        (
            "simulator peak speedup",
            number_before(section, "× on memory-bound"),
            peak,
        ),
        (
            "simulator floor speedup",
            number_after(section, "sits at"),
            num("", "\"simulator_min_speedup\""),
        ),
        (
            "sweep_sync speedup",
            number_before(section, "×** end-to-end"),
            num("\"sweep_sync\"", "\"speedup\""),
        ),
        (
            "speedup over the v1 sweep",
            number_before(section, "×** sweep configs/sec"),
            num("", "\"speedup_vs_v1_sweep\""),
        ),
        (
            "pooled configs/s",
            number_after(section, "(`speedup_vs_v1_sweep`;"),
            num("", "\"pooled_configs_per_sec\""),
        ),
        (
            "v1 configs/s",
            number_before(section, " configs/s at the same"),
            num("", "\"v1_fast_configs_per_sec\""),
        ),
        (
            "mixed-window speedup",
            number_before(section, "×** on the mixed-window shape"),
            num("\"sweep_batched\"", "\"speedup\""),
        ),
        (
            "resident cache-model bytes per sim",
            number_before(section, " B** resident"),
            num("", "\"cache_model_bytes_per_sim\""),
        ),
        (
            "eager-layout bytes per sim",
            number_before(section, " B under the old eager layout"),
            num("", "\"eager_layout_bytes_per_sim\""),
        ),
        (
            "cache-model reduction",
            number_before(section, "× smaller"),
            num("\"eager_layout_bytes_per_sim\"", "\"reduction\""),
        ),
    ];
    for (what, quoted, measured) in checks {
        assert_quoted(what, quoted, measured);
    }
}
