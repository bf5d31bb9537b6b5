//! The campaign's wire records, each declared once: one row per field,
//! giving its doc comment, its type and how two shards' values of it merge.
//! The table writes the struct, its [`ToJson`] form (the rows' order is the
//! key order), a `from_json` that rejects a missing, wrongly-typed or
//! unknown key by name, and the `merged` that combines the records of two
//! disjoint shards.
//!
//! [`DayStats`] is the per-day wire format shared by checkpoints, journal
//! entries and the service daemon's `day` lines; [`Cumulative`] is a
//! checkpoint's run-wide counters.

use crate::json::{closed, decode, Json, ToJson};
use std::fmt::Debug;
use std::ops::Add;

macro_rules! record {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$doc:meta])* $field_vis:vis $field:ident: $type:ty, $merge:ident;)*
        }
    )*) => {$(
        $(#[$meta])*
        $vis struct $name {
            $($(#[$doc])* $field_vis $field: $type,)*
        }

        impl $name {
            /// Every key, in the rows' order.
            const KEYS: &[&str] = &[$(stringify!($field)),*];

            /// Reads a record back from its [`ToJson`] form. A missing key,
            /// a wrongly-typed one, an integer that does not fit its field
            /// or a key that names no field is an error naming the key.
            pub fn from_json(json: &Json) -> Result<$name, String> {
                closed(json, |key| $name::KEYS.contains(&key))?;
                Ok($name { $($field: decode(json, stringify!($field), None)?,)* })
            }

            /// Combines the records of two disjoint shards field by field;
            /// a field both must agree on is an error naming it when they
            /// do not.
            pub fn merged(&self, other: &$name) -> Result<$name, String> {
                Ok($name { $($field: $merge(stringify!($field), self.$field, other.$field)?,)* })
            }
        }

        impl ToJson for $name {
            fn to_json(&self) -> Json {
                Json::obj([$((stringify!($field), self.$field.to_json())),*])
            }
        }
    )*};
}

/// A shard-local counter: the merged value is the sum.
fn sum<T: Add<Output = T>>(_key: &str, a: T, b: T) -> Result<T, String> {
    Ok(a + b)
}

/// A campaign-wide fact every shard computes alike: the values must agree.
fn equal<T: PartialEq + Debug>(key: &str, a: T, b: T) -> Result<T, String> {
    if a != b {
        return Err(format!("cannot merge records that differ in {key:?} ({a:?} vs {b:?})"));
    }
    Ok(a)
}

record! {
    /// What happened on one simulated day of a multi-day campaign.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DayStats {
        /// The day number (1-based).
        pub day: u32, equal;
        /// Seats whose occupant departed (their cache leaves with them).
        pub departures: usize, sum;
        /// Fresh clean arrivals (equals `departures`: the café stays full).
        pub arrivals: usize, sum;
        /// Infected residents who cleared their browser cache today.
        pub cache_clears: usize, sum;
        /// Whether the target object was renamed by its site today (Figure 3
        /// churn): a rotation breaks every parasite riding on the old name.
        pub object_rotated: bool, equal;
        /// Infections broken by today's object rotation.
        pub rotation_cured: usize, sum;
        /// Clean seats that browsed through the hostile AP and were raced.
        pub exposed: usize, sum;
        /// Seats that newly picked up the parasite today.
        pub newly_infected: usize, sum;
        /// AP simulations that failed today (event budget); their exposed
        /// seats stay clean.
        pub failed_aps: usize, sum;
        /// Infected population at the end of the day.
        pub infected: usize, sum;
        /// Clean population at the end of the day.
        pub clean: usize, sum;
        /// Simulator events spent on today's exposures.
        pub events: u64, sum;
    }

    /// Fleet-wide counters accumulated across all completed days (they feed
    /// the merged [`CampaignFleetResult`](super::CampaignFleetResult)).
    /// Plain sums, so partial outcomes merge by adding.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(super) struct Cumulative {
        /// Simulator events processed.
        pub(super) total_events: u64, sum;
        /// Application payload bytes that crossed the networks.
        pub(super) payload_bytes: u64, sum;
        /// Spoofed transmissions injected by the masters.
        pub(super) injected_events: u64, sum;
        /// Pre-handshake send buffers evicted (failed connections).
        pub(super) pending_bytes_dropped: u64, sum;
        /// AP simulations that failed, summed over the days.
        pub(super) failed_aps: usize, sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record whose every field differs from its default, as JSON: each
    /// number is its key's position plus one, each boolean flipped.
    fn sample(default: &Json) -> Json {
        let Json::Obj(pairs) = default else { panic!("a record encodes as an object") };
        let pairs = pairs.iter().enumerate().map(|(index, (key, value))| {
            let value = match value {
                Json::Bool(flag) => Json::Bool(!flag),
                _ => Json::Num(index as f64 + 1.0),
            };
            (key.clone(), value)
        });
        Json::Obj(pairs.collect())
    }

    /// Encode then decode is the identity, and every key that is missing,
    /// wrongly typed or unknown is an error naming it.
    fn round_trips_and_names_bad_keys<T: ToJson + Default + PartialEq + Debug>(
        keys: &[&str],
        from_json: fn(&Json) -> Result<T, String>,
    ) {
        let json = sample(&T::default().to_json());
        let record = from_json(&json).expect("the sample decodes");
        assert_ne!(record, T::default(), "the sample sets every field");
        assert_eq!(record.to_json(), json);
        let text = record.to_json().to_string();
        assert_eq!(from_json(&Json::parse(&text).expect("well-formed JSON")), Ok(record));

        let Json::Obj(pairs) = &json else { unreachable!() };
        assert_eq!(pairs.iter().map(|(key, _)| key.as_str()).collect::<Vec<_>>(), keys);
        for (index, key) in keys.iter().enumerate() {
            let mut missing = pairs.clone();
            missing.remove(index);
            assert_eq!(from_json(&Json::Obj(missing)), Err(format!("missing key {key:?}")));
            let mut mistyped = pairs.clone();
            mistyped[index].1 = Json::Str("x".to_string());
            let error = from_json(&Json::Obj(mistyped)).expect_err("a string is no field value");
            assert!(error.contains(&format!("{key:?}")), "{key}: {error}");
        }
        let mut unknown = pairs.clone();
        unknown.push(("bogus".to_string(), Json::Num(0.0)));
        assert_eq!(from_json(&Json::Obj(unknown)), Err("unknown key \"bogus\"".to_string()));
        assert!(from_json(&Json::Arr(Vec::new())).is_err());
    }

    #[test]
    fn day_stats_round_trips_and_names_bad_keys() {
        round_trips_and_names_bad_keys(DayStats::KEYS, DayStats::from_json);
    }

    #[test]
    fn cumulative_round_trips_and_names_bad_keys() {
        round_trips_and_names_bad_keys(Cumulative::KEYS, Cumulative::from_json);
    }

    #[test]
    fn merging_sums_counters_and_names_a_fact_the_shards_disagree_on() {
        let day = DayStats { day: 2, exposed: 5, events: 7, ..DayStats::default() };
        assert_eq!(day.merged(&day), Ok(DayStats { exposed: 10, events: 14, ..day }));
        let rotated = DayStats { object_rotated: true, ..day };
        assert_eq!(
            day.merged(&rotated),
            Err("cannot merge records that differ in \"object_rotated\" (false vs true)".to_string())
        );
        let error = day.merged(&DayStats { day: 3, ..day }).expect_err("another day");
        assert!(error.contains("\"day\""), "{error}");
    }
}
