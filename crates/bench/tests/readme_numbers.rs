//! README's serving-layer numbers must match the committed
//! `BENCH_serve.json`: the dedupe speedup, the high/low-priority median
//! latency ratio, and each connection-grid point's req/s and p99, each
//! compared at the precision README quotes it.

use gals_bench::extract_number;

fn read(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// README's "Serving layer" section, up to the next `## ` heading.
fn serve_section(readme: &str) -> &str {
    let start = readme
        .find("## Serving layer")
        .expect("README has a Serving layer section");
    let rest = &readme[start + 3..];
    &rest[..rest.find("\n## ").unwrap_or(rest.len())]
}

/// The number written just before `marker` (e.g. `6.2` in
/// `**6.2× faster**` for marker `× faster`), as text.
fn number_before<'a>(text: &'a str, marker: &str) -> &'a str {
    let end = text
        .find(marker)
        .unwrap_or_else(|| panic!("README quotes nothing before {marker:?}"));
    let head = &text[..end];
    let start = head
        .rfind(|c: char| c != '.' && !c.is_ascii_digit())
        .map_or(0, |i| i + 1);
    &head[start..]
}

/// Asserts `measured` rounds to `quoted` at `quoted`'s own precision.
fn assert_quoted(what: &str, quoted: &str, measured: f64) {
    let decimals = quoted.find('.').map_or(0, |dot| quoted.len() - dot - 1);
    let want: f64 = quoted
        .parse()
        .unwrap_or_else(|_| panic!("{what}: {quoted:?} is not a number"));
    let rounded = format!("{measured:.decimals$}");
    assert_eq!(
        rounded.parse::<f64>().unwrap(),
        want,
        "{what}: README says {quoted}, BENCH_serve.json says {measured} (rounds to {rounded})"
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
    let section = serve_section(&readme);
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
