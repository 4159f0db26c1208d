//! Output checks. Each compares the program's output with a
//! computation made apart from the path under test, or with a property
//! the method must have; none compares with a stored copy of an
//! earlier output. Each returns a description of the first violation.

use gals_core::{CacheSummary, SimResult};
use gals_explore::{CacheKey, RecoveryReport};
use gals_serve::Response;

/// `got` must equal `want` bit for bit.
pub fn bit_equal(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?} ns, expected {want:?} ns"))
    }
}

/// Cache conservation: every access is an A hit, a B hit or a miss.
pub fn conserved(what: &str, c: &CacheSummary) -> Result<(), String> {
    if c.accesses == c.a_hits + c.b_hits + c.misses {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} accesses != {} A hits + {} B hits + {} misses",
            c.accesses, c.a_hits, c.b_hits, c.misses
        ))
    }
}

/// The properties every `SimResult` must have: it commits exactly its
/// window, each cache conserves accesses, commit never outruns decode
/// (`committed <= decode_width x FE cycles`), and a synchronous
/// machine ends with all four domain frequencies equal.
pub fn sim_result(
    what: &str,
    r: &SimResult,
    window: u64,
    decode_width: usize,
    synchronous: bool,
) -> Result<(), String> {
    if r.committed != window {
        return Err(format!(
            "{what}: committed {} of a {window} window",
            r.committed
        ));
    }
    conserved(&format!("{what} icache"), &r.icache)?;
    conserved(&format!("{what} l1d"), &r.l1d)?;
    conserved(&format!("{what} l2"), &r.l2)?;
    let fe = r.domain_cycles[0];
    if r.committed > decode_width as u64 * fe {
        return Err(format!(
            "{what}: committed {} > decode width {decode_width} x {fe} FE cycles",
            r.committed
        ));
    }
    if synchronous && r.final_freqs.iter().any(|f| *f != r.final_freqs[0]) {
        return Err(format!(
            "{what}: synchronous machine ended with unequal domain frequencies {:?}",
            r.final_freqs
        ));
    }
    Ok(())
}

/// One request's response stream: frames all carry `id`, exactly one
/// is terminal and it comes last, no job expired or failed, and the
/// terminal `done` frame's `results` equals both the `partial` frames
/// before it and `jobs`, the number of jobs the request expands to. A
/// `status` request (`jobs == 0`) ends in a `status` frame alone.
pub fn frames(id: &str, jobs: u64, frames: &[Response]) -> Result<(), String> {
    let Some((last, before)) = frames.split_last() else {
        return Err(format!("request {id}: no response frames"));
    };
    if let Some(f) = frames.iter().find(|f| f.id() != id) {
        return Err(format!("request {id}: frame for request {:?}", f.id()));
    }
    if let Some(f) = before.iter().find(|f| f.is_terminal()) {
        return Err(format!(
            "request {id}: terminal frame {f:?} before the last frame"
        ));
    }
    let partials = before
        .iter()
        .filter(|f| matches!(f, Response::Partial { .. }))
        .count() as u64;
    if partials as usize != before.len() {
        return Err(format!(
            "request {id}: {} expired frames",
            before.len() as u64 - partials
        ));
    }
    match last {
        Response::Status { .. } if jobs == 0 && before.is_empty() => Ok(()),
        Response::Done {
            results, expired, ..
        } if jobs > 0 => {
            if *expired != 0 || *results != partials || partials != jobs {
                Err(format!(
                    "request {id}: done reports {results} results ({expired} expired) after \
                     {partials} partial frames for {jobs} jobs"
                ))
            } else {
                Ok(())
            }
        }
        other => Err(format!(
            "request {id} ({jobs} jobs): unexpected terminal frame {other:?}"
        )),
    }
}

/// A reopened store recovered every expected result bit-exact, with
/// no damage in its recovery report.
pub fn recovered(
    report: &RecoveryReport,
    lookup: impl Fn(&CacheKey) -> Option<f64>,
    expected: &[(CacheKey, f64)],
) -> Result<(), String> {
    if report.had_damage() {
        return Err(format!("recovery reported damage: {report:?}"));
    }
    for (key, want) in expected {
        match lookup(key) {
            Some(got) => bit_equal(&format!("recovered {}", key.as_str()), got, *want)?,
            None => return Err(format!("recovered store lost {}", key.as_str())),
        }
    }
    Ok(())
}
