//! The benchmark command:
//!
//! ```text
//! perfbench --workload <sweep-sync|mcd-long|serve-mixed> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Progress, diagnostics and the trace go to stderr or to files under
//! `.perfbench/`; the last line of stdout is the one-line JSON result.
//! A failed output check prints the result with `"correct": false` and
//! exits 1.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::{run_workload, Params, Size};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" => {
                    trace = false;
                    true
                }
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let params = Params {
        seed,
        seconds,
        trace,
        size: Size::Full,
        started,
        work_dir: PathBuf::from(".perfbench"),
    };
    eprintln!(
        "perfbench: {workload} seed {seed}, {seconds} s, trace {}",
        u8::from(trace)
    );
    let mut outcome = match run_workload(&workload, &params) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = outcome.to_line(trace);
    for e in &outcome.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
