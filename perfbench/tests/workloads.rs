//! Every workload runs to its end at a tiny size, untraced and traced,
//! with every output check passing and every metric of its kind reported.

use std::path::PathBuf;
use std::time::Instant;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run_workload, Params, Size, WORKLOADS};

fn params(trace: bool) -> Params {
    Params {
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        started: Instant::now(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-work"),
    }
}

#[test]
fn every_workload_runs_untraced() {
    for w in WORKLOADS {
        let mut o = run_workload(w, &params(false)).expect("runs");
        let line = o.to_line(false);
        assert!(o.correct(), "{w}: {:?}", o.errors);
        assert!(o.attempted > 0 && o.failed == 0, "{w}: {line}");
        for (name, _) in END_TO_END {
            let v = o.metrics.get(name).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{w}: {name} = {v}");
        }
    }
}

#[test]
fn every_workload_runs_traced() {
    for w in WORKLOADS {
        let mut o = run_workload(w, &params(true)).expect("runs");
        let line = o.to_line(true);
        assert!(o.correct(), "{w}: {:?}", o.errors);
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
        for name in [
            "trace.sim_minst_per_s",
            "core.committed",
            "core.sim_self_s",
            "workloads.capture_ms",
            "store.get_us",
        ] {
            assert!(
                o.metrics.get(name).copied().unwrap_or(0.0) > 0.0,
                "{w}: {name}"
            );
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run_workload("nope", &params(false)).is_err());
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed = |section: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..start + text[start..].find(']').expect("section end")];
        body.lines()
            .filter_map(|l| {
                let field = |key: &str| {
                    let at = l.find(&format!("\"{key}\": \""))? + key.len() + 5;
                    Some(l[at..at + l[at..].find('"')?].to_string())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
}
