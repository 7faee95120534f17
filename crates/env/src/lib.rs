//! # dise-env — the one parser for every `DISE_*` environment knob
//!
//! The `dise-bench` binaries read three knobs from the environment, once,
//! at startup: `DISE_ITERS` (kernel scale), `DISE_JOBS` (worker
//! threads) and `DISE_SLICE` (scheduler slice budget); a few ablation
//! binaries add their own (`DISE_SESSIONS`), and the trace-codec golden
//! test reads the `DISE_BLESS_TRACE` flag. Library code reads none of them —
//! configuration is passed down explicitly. The contract is uniform:
//! **a typo must fail loudly**, never silently fall back to a default
//! the user did not ask for — a mistyped `DISE_ITERS=4O0` that quietly
//! ran the default scale would invalidate an experiment without anyone
//! noticing. This crate holds the parsers ([`env_number`] and
//! [`env_flag`]) so every reader keeps that contract.
//!
//! Unset and empty/whitespace-only values mean "use the default" for
//! every parser: an empty variable is how shells and CI matrices spell
//! "not configured", not a typo.

/// Parse a numeric environment knob, `default` when unset or empty.
///
/// Whitespace is trimmed before parsing, and a trimmed-empty value
/// counts as unset (CI matrices routinely pass `DISE_FOO=`).
///
/// # Panics
///
/// Panics on an unparsable (or non-unicode) value — the loud-on-typo
/// contract.
pub fn env_number<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match std::env::var(name) {
        Ok(s) if s.trim().is_empty() => default,
        Ok(s) => s.trim().parse().unwrap_or_else(|e| panic!("invalid {name} value `{s}`: {e}")),
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(s)) => {
            panic!("invalid {name} value {s:?}: not unicode")
        }
    }
}

/// Parse a boolean environment knob, `default` when unset or empty:
/// `1`/`true`/`on` enable, `0`/`false`/`off` disable (whitespace
/// trimmed).
///
/// # Panics
///
/// Panics on any other value — the loud-on-typo contract.
pub fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(s)) => {
            panic!("invalid {name} value {s:?}: not unicode")
        }
        Ok(v) => match v.trim() {
            "" => default,
            "1" | "true" | "on" => true,
            "0" | "false" | "off" => false,
            other => panic!("{name} must be 0/1/true/false/on/off, got {other:?}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    // Each test owns uniquely named variables: the process environment
    // is shared across test threads, so reusing names would race.

    #[test]
    fn numbers_parse_trim_and_default() {
        assert_eq!(env_number("DISE_ENV_TEST_UNSET", 42u32), 42);
        std::env::set_var("DISE_ENV_TEST_SET", "17");
        assert_eq!(env_number("DISE_ENV_TEST_SET", 42u32), 17);
        std::env::set_var("DISE_ENV_TEST_PADDED", " 8 ");
        assert_eq!(env_number("DISE_ENV_TEST_PADDED", 1usize), 8, "whitespace is trimmed");
        std::env::set_var("DISE_ENV_TEST_EMPTY", "");
        assert_eq!(env_number("DISE_ENV_TEST_EMPTY", 7u64), 7, "empty means unset");
        std::env::set_var("DISE_ENV_TEST_BLANK", "  ");
        assert_eq!(env_number("DISE_ENV_TEST_BLANK", 9u64), 9, "blank means unset");
    }

    #[test]
    fn number_typo_fails_loudly_naming_knob_and_value() {
        std::env::set_var("DISE_ENV_TEST_NUM_TYPO", "4O0"); // letter O
        let err = catch_unwind(|| env_number("DISE_ENV_TEST_NUM_TYPO", 400u32)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("DISE_ENV_TEST_NUM_TYPO"), "panic names the knob: {msg}");
        assert!(msg.contains("4O0"), "panic shows the bad value: {msg}");
    }

    #[test]
    fn negative_number_rejected_for_unsigned_knob() {
        std::env::set_var("DISE_ENV_TEST_NEGATIVE", "-3");
        assert!(catch_unwind(|| env_number("DISE_ENV_TEST_NEGATIVE", 1usize)).is_err());
    }

    #[test]
    fn flags_parse_every_spelling_and_default() {
        assert!(env_flag("DISE_ENV_TEST_FLAG_UNSET", true));
        assert!(!env_flag("DISE_ENV_TEST_FLAG_UNSET", false));
        for (value, expect) in [
            ("1", true),
            ("true", true),
            ("on", true),
            ("0", false),
            ("false", false),
            ("off", false),
            (" on ", true),
            ("", false),
        ] {
            std::env::set_var("DISE_ENV_TEST_FLAG_VAL", value);
            assert_eq!(
                env_flag("DISE_ENV_TEST_FLAG_VAL", false),
                expect,
                "value {value:?} must parse"
            );
            std::env::remove_var("DISE_ENV_TEST_FLAG_VAL");
        }
    }

    #[test]
    fn flag_typo_fails_loudly_naming_knob_and_value() {
        // The canonical near-miss: `ture` must not silently disable (or
        // enable) the knob the user was trying to set.
        std::env::set_var("DISE_ENV_TEST_FLAG_TYPO", "ture");
        let err = catch_unwind(|| env_flag("DISE_ENV_TEST_FLAG_TYPO", true)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("DISE_ENV_TEST_FLAG_TYPO"), "panic names the knob: {msg}");
        assert!(msg.contains("ture"), "panic shows the bad value: {msg}");
    }

    #[test]
    fn flag_case_is_not_guessed() {
        // `TRUE`/`ON` are rejected rather than guessed: the accepted
        // spellings are part of the documented contract, and guessing
        // case invites guessing further.
        std::env::set_var("DISE_ENV_TEST_FLAG_CASE", "TRUE");
        assert!(catch_unwind(|| env_flag("DISE_ENV_TEST_FLAG_CASE", false)).is_err());
    }
}
