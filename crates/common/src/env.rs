//! Environment-variable tuning knobs with loud failure reporting.
//!
//! The sweep engine reads a handful of `GALS_MCD_*` variables at
//! construction. Historically a malformed value
//! (`GALS_MCD_INTERVAL_MEMO_SNAPS=eight`) was silently swallowed by
//! `.ok().and_then(|v| v.parse().ok())` and the default used — the worst failure mode for a tuning knob, because the
//! operator believes the override took effect. [`parse_env_or`] keeps the
//! fall-back-to-default behavior but prints one warning to stderr naming
//! the variable, the rejected value, and the default actually used.

//! This module is also the only place in the workspace allowed to touch
//! `std::env` directly (the `env-discipline` lint rule enforces it):
//! every knob read goes through [`parse_env_or`] (typed) or [`var`]
//! (strings), so a grep for `GALS_` here and in the bin docs is the
//! complete override surface.

use std::fmt::Display;
use std::str::FromStr;

/// Reads a string-valued variable (`None` when unset or non-unicode).
///
/// The sanctioned raw accessor for the handful of knobs that are paths
/// or addresses rather than parseable numbers; prefer [`parse_env_or`]
/// wherever a parse is involved so malformed overrides fail loudly.
pub fn var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// True when `name` is set to exactly `"1"` (the workspace's boolean
/// knob convention, e.g. `GALS_MCD_SYNC_SUBSET=1`).
pub fn flag(name: &str) -> bool {
    var(name).is_some_and(|v| v == "1")
}

/// Sets a process-environment variable.
///
/// Mutating the environment is only sound before any thread that might
/// concurrently read it exists; the single caller (the throughput
/// reporter pinning `GALS_MCD_SYNC_SUBSET` at startup) runs on the main
/// thread before the sweep pool spawns. Centralized here so the
/// `env-discipline` rule keeps new call sites reviewable.
pub fn set_var(name: &str, value: &str) {
    std::env::set_var(name, value);
}

/// Reads `name` from the environment and parses it as `T`.
///
/// * Unset (or non-unicode) variable → `default`, silently: absence is
///   the normal state for a tuning knob.
/// * Present and parseable → the parsed value.
/// * Present but malformed → `default`, with one loud warning line on
///   stderr. A malformed override is an operator error and must never
///   be indistinguishable from a successful one.
pub fn parse_env_or<T>(name: &str, default: T) -> T
where
    T: FromStr + Display,
{
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => parse_value_or(name, &raw, default),
    }
}

/// The value-level half of [`parse_env_or`], split out so unit tests can
/// exercise the malformed-value path without mutating the process
/// environment (test binaries run threads concurrently; `set_var` races).
pub fn parse_value_or<T>(name: &str, raw: &str, default: T) -> T
where
    T: FromStr + Display,
{
    match raw.trim().parse::<T>() {
        Ok(v) => v,
        Err(_) => {
            eprintln!(
                "warning: ignoring malformed {name}={raw:?}: expected a value like \
                 {default}; using default {default}"
            );
            default
        }
    }
}

/// Reads `name` as a comma-separated list of `T` (e.g.
/// `GALS_SERVE_BENCH_CONNS=8,64,256`).
///
/// Same contract as [`parse_env_or`], applied to the whole list: unset
/// → `default` silently; any malformed or empty element rejects the
/// entire override with one loud warning (a half-applied list would be
/// worse than either extreme — the operator would get a grid they
/// never asked for).
pub fn parse_list_or<T>(name: &str, default: &[T]) -> Vec<T>
where
    T: FromStr + Display + Clone,
{
    match std::env::var(name) {
        Err(_) => default.to_vec(),
        Ok(raw) => parse_list_value_or(name, &raw, default),
    }
}

/// The value-level half of [`parse_list_or`] (see [`parse_value_or`]
/// for why the split exists).
pub fn parse_list_value_or<T>(name: &str, raw: &str, default: &[T]) -> Vec<T>
where
    T: FromStr + Display + Clone,
{
    let parsed: Result<Vec<T>, ()> = raw
        .split(',')
        .map(|part| part.trim().parse::<T>().map_err(|_| ()))
        .collect();
    match parsed {
        Ok(values) if !values.is_empty() => values,
        _ => {
            let shown: Vec<String> = default.iter().map(ToString::to_string).collect();
            eprintln!(
                "warning: ignoring malformed {name}={raw:?}: expected a comma-separated \
                 list like {}; using default",
                shown.join(",")
            );
            default.to_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_values() {
        assert_eq!(parse_value_or("X", "12", 7u64), 12);
        assert_eq!(parse_value_or("X", " 12 ", 7u64), 12);
        assert_eq!(parse_value_or("X", "0", 7usize), 0);
    }

    #[test]
    fn malformed_values_fall_back_to_default() {
        assert_eq!(parse_value_or("X", "eight", 7u64), 7);
        assert_eq!(parse_value_or("X", "", 7u64), 7);
        assert_eq!(parse_value_or("X", "-3", 7u64), 7);
        assert_eq!(parse_value_or("X", "1e6", 7u64), 7);
        assert_eq!(parse_value_or("X", "4096k", 7usize), 7);
    }

    #[test]
    fn parses_well_formed_lists() {
        assert_eq!(parse_list_value_or("X", "8,64,256", &[1u64]), [8, 64, 256]);
        assert_eq!(parse_list_value_or("X", " 8 , 64 ", &[1u64]), [8, 64]);
        assert_eq!(parse_list_value_or("X", "42", &[1u64]), [42]);
    }

    #[test]
    fn malformed_lists_fall_back_whole() {
        assert_eq!(parse_list_value_or("X", "8,sixty,256", &[1u64, 2]), [1, 2]);
        assert_eq!(parse_list_value_or("X", "8,,256", &[1u64, 2]), [1, 2]);
        assert_eq!(parse_list_value_or("X", "", &[1u64, 2]), [1, 2]);
    }

    #[test]
    fn unset_variable_is_silent_default() {
        assert_eq!(
            parse_env_or("GALS_MCD_TEST_KNOB_THAT_IS_NEVER_SET", 42u64),
            42
        );
    }
}
