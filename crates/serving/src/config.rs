//! Reading `TT_*` knobs: one parser for every serving config, loud on
//! malformed values.
//!
//! An unset knob takes its default. A knob that is set but does not parse
//! stops the process with a panic naming the variable and its raw value:
//! a typo'd `TT_RETRY_MAX=3x` silently running with the default is a
//! misconfiguration nobody sees. Configs read through a [`Lookup`] so
//! tests can pass a map instead of mutating the process environment.

use std::str::FromStr;
use std::time::Duration;

/// Where knob values come from: [`process_env`] in production, a closure
/// over a map in tests.
pub type Lookup<'a> = &'a dyn Fn(&str) -> Option<String>;

/// The process environment as a [`Lookup`].
pub fn process_env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The parsed value of knob `name`, or `None` when it is unset.
///
/// # Panics
///
/// When the knob is set but (after trimming whitespace) does not parse as
/// a `T`; the message names the variable and the raw value.
pub fn knob_opt<T: FromStr>(lookup: Lookup<'_>, name: &str) -> Option<T> {
    let raw = lookup(name)?;
    let parsed = raw.trim().parse().unwrap_or_else(|_| {
        panic!("{name}={raw:?} does not parse as {}", std::any::type_name::<T>())
    });
    Some(parsed)
}

/// The parsed value of knob `name`, or `default` when it is unset.
///
/// # Panics
///
/// As [`knob_opt`]: on a set but unparsable value.
pub fn knob<T: FromStr>(lookup: Lookup<'_>, name: &str, default: T) -> T {
    knob_opt(lookup, name).unwrap_or(default)
}

/// A knob holding whole milliseconds, as a [`Duration`].
///
/// # Panics
///
/// As [`knob_opt`]: on a set but unparsable value.
pub fn knob_ms(lookup: Lookup<'_>, name: &str, default: Duration) -> Duration {
    knob_opt(lookup, name).map_or(default, Duration::from_millis)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A [`Lookup`] over fixed `(name, value)` pairs.
    pub(crate) fn vars(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: Vec<(String, String)> =
            pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        move |name| map.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    }

    #[test]
    fn unset_takes_the_default_and_set_values_parse_trimmed() {
        let lookup = vars(&[("TT_A", " 12 "), ("TT_B", "0.25")]);
        assert_eq!(knob(&lookup, "TT_A", 3usize), 12);
        assert_eq!(knob(&lookup, "TT_B", 1.0f64), 0.25);
        assert_eq!(knob(&lookup, "TT_UNSET", 7u64), 7);
        assert_eq!(knob_opt::<u32>(&lookup, "TT_UNSET"), None);
    }

    #[test]
    #[should_panic(expected = "TT_A=\"3x\" does not parse as usize")]
    fn unparsable_values_panic_with_name_and_raw_value() {
        knob(&vars(&[("TT_A", "3x")]), "TT_A", 3usize);
    }

    #[test]
    #[should_panic(expected = "TT_A=\"\"")]
    fn empty_values_are_rejected_too() {
        knob_opt::<u64>(&vars(&[("TT_A", "")]), "TT_A");
    }

    #[test]
    fn serving_configs_read_their_knobs_and_default_the_rest() {
        use crate::{FleetConfig, GenConfig, HttpConfig};
        use std::time::Duration;
        use tt_runtime::decode::DecodeConfig;
        let lookup = vars(&[
            ("TT_FLEET_REPLICAS", "3"),
            ("TT_HEDGE_MS", "40"),
            ("TT_FLEET_POLL_MS", "7"),
            ("TT_RETRY_MAX", "5"),
            ("TT_HTTP_ADDR", "127.0.0.1:0"),
            ("TT_HTTP_WORKERS", "2"),
            ("TT_KV_PAGE_SLOTS", "8"),
            ("TT_KV_PAGES", "32"),
            ("TT_GEN_EOS", "2"),
        ]);
        let fleet = FleetConfig::from_lookup(&lookup);
        assert_eq!(fleet.replicas, 3);
        assert_eq!(fleet.hedge, Some(Duration::from_millis(40)));
        assert_eq!(fleet.supervisor.poll_interval, Duration::from_millis(7));
        assert_eq!(fleet.retry.max_attempts, 5);
        let http = HttpConfig::from_lookup(&lookup);
        assert_eq!((http.addr.as_str(), http.workers), ("127.0.0.1:0", 2));
        let gen = GenConfig::from_lookup(&lookup);
        assert_eq!(gen.kv, DecodeConfig { page_slots: 8, num_pages: 32 });
        assert_eq!(gen.eos_token, Some(2));

        let unset = vars(&[]);
        assert_eq!(FleetConfig::from_lookup(&unset).replicas, 1);
        assert_eq!(FleetConfig::from_lookup(&unset).hedge, None);
        assert_eq!(GenConfig::from_lookup(&unset).kv, DecodeConfig::default());
        assert_eq!(GenConfig::from_lookup(&unset).eos_token, None);
        assert_eq!(HttpConfig::from_lookup(&unset).workers, HttpConfig::default().workers);
    }

    #[test]
    #[should_panic(expected = "TT_KV_PAGES=\"lots\"")]
    fn malformed_kv_knob_stops_the_gen_config() {
        crate::GenConfig::from_lookup(&vars(&[("TT_KV_PAGES", "lots")]));
    }

    #[test]
    #[should_panic(expected = "TT_FLEET_LIVENESS_MS=\"1.5s\"")]
    fn malformed_supervisor_knob_stops_the_fleet_config() {
        crate::FleetConfig::from_lookup(&vars(&[("TT_FLEET_LIVENESS_MS", "1.5s")]));
    }

    #[test]
    #[should_panic(expected = "TT_RETRY_BUDGET=\"ten\"")]
    fn malformed_retry_knob_stops_the_retry_config() {
        crate::retry::RetryConfig::from_lookup(&vars(&[("TT_RETRY_BUDGET", "ten")]));
    }

    #[test]
    #[should_panic(expected = "TT_HTTP_QUEUE_DEPTH=\"-1\"")]
    fn malformed_http_knob_stops_the_http_config() {
        crate::HttpConfig::from_lookup(&vars(&[("TT_HTTP_QUEUE_DEPTH", "-1")]));
    }
}
