//! The run-config field table: one row per [`RunConfig`] field, giving its
//! JSON key, the `paper-report` flag that sets it and how that flag's text
//! parses, whether the JSON echo always carries it, and the experiments
//! without which its flag is inert. The JSON codec
//! ([`RunConfig::from_json`] and `to_json`), the flag parser
//! ([`ConfigFlags`]), the flag a [`ConfigError`] names and the inert-flag
//! check all read this one table. The table also writes the struct literal
//! of `from_json`, so a field without a row, or a row without a field, fails
//! to compile.

use super::{ConfigError, ExperimentId, RunConfig, SurfaceVector};
use crate::json::{closed, decode, Json, ToJson};

// The experiments that read a field: its flag is inert, and rejected, when
// none of them is selected. A paper field is never inert.
const ANY: &[ExperimentId] = &[];
const FLEET: &[ExperimentId] = &[ExperimentId::CampaignFleet];
const EXTENSIONS: &[ExperimentId] = &[ExperimentId::CampaignFleet, ExperimentId::AttackSurface];
const SURFACE: &[ExperimentId] = &[ExperimentId::AttackSurface];

/// One row of [`FIELDS`].
#[derive(Debug)]
pub(super) struct Field {
    /// The field's name, which is also its JSON key.
    pub(super) key: &'static str,
    /// The flag that sets it; an axis flag sets three fields.
    flag: &'static str,
    /// Whether the flag stands alone instead of taking a value.
    switch: bool,
    /// Whether the JSON echo carries the field at its default value too.
    pub(super) always: bool,
    /// The experiments without which the flag is inert.
    scope: &'static [ExperimentId],
}

macro_rules! fields {
    (@switch switch) => { true };
    (@switch $parse:ident) => { false };
    ($($name:ident: $flag:literal, $parse:ident, $always:literal, $scope:ident;)*) => {
        /// Every field, in the struct's order, which is also the JSON echo's.
        pub(super) const FIELDS: &[Field] = &[$(Field {
            key: stringify!($name),
            flag: $flag,
            switch: fields!(@switch $parse),
            always: $always,
            scope: $scope,
        }),*];

        impl RunConfig {
            /// Reads a config back from its [`ToJson`] representation, an
            /// object whose keys are field names. Missing keys fall back to
            /// the defaults; an unknown key, a wrongly-typed one, or an
            /// integer that does not fit its field is an error naming the
            /// key. Decoding does not validate: see [`RunConfig::validate`].
            pub fn from_json(json: &Json) -> Result<RunConfig, String> {
                closed(json, |key| field(key).is_some())?;
                let defaults = RunConfig::default();
                Ok(RunConfig { $($name: decode(json, stringify!($name), Some(defaults.$name))?,)* })
            }

            /// Every field's JSON value, in table order.
            fn values(&self) -> [Json; FIELDS.len()] {
                [$(self.$name.to_json()),*]
            }

            /// Sets every field whose row names `flag` from the flag's text.
            fn set(&mut self, flag: &str, text: &str) -> Result<(), String> {
                $(if flag == $flag {
                    self.$name = $parse(flag, text)?;
                })*
                Ok(())
            }
        }
    };
}

fields! {
    // field                 flag                      parse       always  scope
    seed:                    "--seed",                 number,     true,   ANY;
    scale:                   "--scale",                number,     true,   ANY;
    sites:                   "--sites",                number,     true,   ANY;
    crawl_sites:             "--crawl-sites",          number,     true,   ANY;
    days:                    "--days",                 number,     true,   ANY;
    event_budget:            "--event-budget",         number,     true,   ANY;
    jitter_us:               "--jitter-us",            number,     true,   EXTENSIONS;
    fleet_clients:           "--fleet-clients",        number,     true,   FLEET;
    fleet_aps:               "--fleet-aps",            number,     true,   FLEET;
    fleet_jobs:              "--fleet-jobs",           number,     true,   EXTENSIONS;
    fleet_days:              "--fleet-days",           number,     false,  FLEET;
    fleet_churn:             "--fleet-churn",          fraction,   false,  EXTENSIONS;
    fleet_hetero:            "--fleet-hetero",         switch,     false,  FLEET;
    fleet_visit_prob:        "--fleet-visit-prob",     fraction,   false,  FLEET;
    global_event_budget:     "--global-event-budget",  number,     false,  ANY;
    surface_trials:          "--surface-trials",       number,     false,  SURFACE;
    surface_delay_start_us:  "--surface-delays",       axis_start, false,  SURFACE;
    surface_delay_end_us:    "--surface-delays",       axis_end,   false,  SURFACE;
    surface_delay_steps:     "--surface-delays",       axis_steps, false,  SURFACE;
    surface_adoption_steps:  "--surface-adoption",     number,     false,  SURFACE;
    surface_wan_start_us:    "--surface-wan",          axis_start, false,  SURFACE;
    surface_wan_end_us:      "--surface-wan",          axis_end,   false,  SURFACE;
    surface_wan_steps:       "--surface-wan",          axis_steps, false,  SURFACE;
    surface_vectors:         "--surface-vectors",      vectors,    false,  SURFACE;
}

fn field(key: &str) -> Option<&'static Field> {
    FIELDS.iter().find(|field| field.key == key)
}

impl ToJson for RunConfig {
    /// Fields whose row is not `always` are emitted only when they differ
    /// from the default, so a report that uses no extension keeps its exact
    /// JSON form ([`RunConfig::from_json`] defaults the absent keys).
    fn to_json(&self) -> Json {
        let defaults = RunConfig::default().values();
        let pairs = FIELDS.iter().zip(self.values()).zip(defaults);
        Json::obj(
            pairs
                .filter(|((field, value), default)| field.always || value != default)
                .map(|((field, value), _)| (field.key, value)),
        )
    }
}

/// A non-negative integer flag value that fits `T`; an error names `flag`.
pub fn number<T: TryFrom<u64>>(flag: &str, text: &str) -> Result<T, String> {
    let value = text
        .parse::<u64>()
        .map_err(|_| format!("{flag}: expected a non-negative integer, got {text:?}"))?;
    T::try_from(value).map_err(|_| format!("{flag}: {value} is out of range"))
}

fn fraction(flag: &str, text: &str) -> Result<f64, String> {
    text.parse().map_err(|_| format!("{flag}: expected a number, got {text:?}"))
}

/// A flag that stands alone sets its field by being given.
fn switch(_flag: &str, _text: &str) -> Result<bool, String> {
    Ok(true)
}

/// A comma-separated list of attack-vector names, as a bitmask.
fn vectors(flag: &str, text: &str) -> Result<u8, String> {
    SurfaceVector::parse_mask(text).map_err(|error| format!("{flag}: {error}"))
}

/// A `<start:end:steps>` sweep axis; each of its three fields takes its part.
fn axis(flag: &str, text: &str) -> Result<(u64, u64, usize), String> {
    let parts: Vec<&str> = text.split(':').collect();
    let [start, end, steps] = parts.as_slice() else {
        return Err(format!("{flag}: expected <start:end:steps>, got {text:?}"));
    };
    Ok((number(flag, start)?, number(flag, end)?, number(flag, steps)?))
}

fn axis_start(flag: &str, text: &str) -> Result<u64, String> {
    Ok(axis(flag, text)?.0)
}

fn axis_end(flag: &str, text: &str) -> Result<u64, String> {
    Ok(axis(flag, text)?.1)
}

fn axis_steps(flag: &str, text: &str) -> Result<usize, String> {
    Ok(axis(flag, text)?.2)
}

/// A [`RunConfig`] read from command-line flags: each flag sets the fields
/// whose rows name it. Flags that set no field (`--only`, `--jobs`, ...) are
/// the caller's to handle before passing the rest here.
#[derive(Debug, Default)]
pub struct ConfigFlags {
    config: RunConfig,
    /// The row of each flag given, in order.
    given: Vec<&'static Field>,
}

impl ConfigFlags {
    /// Applies one flag. `value` yields the text that follows it and is
    /// called only when the flag takes one. A flag that sets no field is an
    /// unknown argument.
    pub fn parse<'a>(
        &mut self,
        flag: &str,
        value: impl FnOnce() -> Result<&'a str, String>,
    ) -> Result<(), String> {
        let Some(field) = FIELDS.iter().find(|field| field.flag == flag) else {
            return Err(format!("unknown argument {flag:?}"));
        };
        let text = if field.switch { "" } else { value()? };
        self.config.set(flag, text)?;
        self.given.push(field);
        Ok(())
    }

    /// The config, unless a flag given configures only experiments that
    /// `ids` leaves out: silently ignoring it would mask typos and misread
    /// sweeps. Validation is the caller's, because it depends on the mode of
    /// the run.
    pub fn finish(self, ids: &[ExperimentId]) -> Result<RunConfig, String> {
        // Campaign-only flags are reported first, then the shared ones, then
        // the surface ones: the lexicographic order of their scopes, as
        // campaign_fleet sorts before attack_surface.
        let inert = self.given.iter().filter(|field| {
            !field.scope.is_empty() && !field.scope.iter().any(|id| ids.contains(id))
        });
        let Some(field) = inert.min_by_key(|field| field.scope) else {
            return Ok(self.config);
        };
        let flag = field.flag;
        Err(match field.scope {
            [id] => format!(
                "{flag} configures the {id} experiment, which is not selected; add --only {id}"
            ),
            ids => format!(
                "{flag} configures the {} experiments, none of which is selected; add them to \
                 --only",
                ids.iter().map(ExperimentId::as_str).collect::<Vec<_>>().join(" / ")
            ),
        })
    }
}

impl ConfigError {
    /// The flag that sets the rejected field; `--only` selects the
    /// experiment.
    pub fn flag(&self) -> &'static str {
        field(self.field).map_or("--only", |field| field.flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The config that `flag` followed by `text` gives, with every
    /// experiment selected so that no flag is inert.
    fn from_flag(flag: &str, text: &str) -> Result<RunConfig, String> {
        let mut flags = ConfigFlags::default();
        flags.parse(flag, || Ok(text))?;
        flags.finish(&ExperimentId::EXTENDED)
    }

    /// The text of row `index`'s flag that sets its field to `value` and
    /// leaves the other fields of an axis flag at their defaults.
    fn flag_text(index: usize, value: &str) -> String {
        let mut parts = RunConfig::default().values().map(|default| default.to_string());
        parts[index] = value.to_string();
        let flag = FIELDS[index].flag;
        let siblings = FIELDS.iter().zip(parts).filter(|(field, _)| field.flag == flag);
        siblings.map(|(_, part)| part).collect::<Vec<_>>().join(":")
    }

    #[test]
    fn every_row_sets_its_field_round_trips_and_names_its_flag() {
        let defaults = RunConfig::default();
        let mut unfailable = Vec::new();
        for (index, field) in FIELDS.iter().enumerate() {
            let set = |value: &str| from_flag(field.flag, &flag_text(index, value));
            // One more than an integer default; a vector name for the mask.
            let next = defaults.values()[index].as_u64().map_or(0, |n| n + 1).to_string();
            let config = set(&next)
                .or_else(|_| set("race_vs_csp"))
                .unwrap_or_else(|error| panic!("{}: {error}", field.key));
            let changed: Vec<&str> = FIELDS
                .iter()
                .zip(config.values().into_iter().zip(defaults.values()))
                .filter(|(_, (value, default))| value != default)
                .map(|(field, _)| field.key)
                .collect();
            assert_eq!(changed, [field.key], "{} changes exactly its field", field.flag);

            let echo = Json::parse(&config.to_json().to_string()).expect("well-formed JSON");
            assert_eq!(RunConfig::from_json(&echo), Ok(config), "{} round-trips", field.key);

            let error = ["0", "9007199254740992"]
                .into_iter()
                .find_map(|bad| set(bad).ok()?.validate().err());
            match error {
                Some(error) => assert_eq!(error.flag(), field.flag, "{error}"),
                None => unfailable.push(field.key),
            }
        }
        // Neither a switch nor a list of known vector names can be wrong.
        assert_eq!(unfailable, ["fleet_hetero", "surface_vectors"]);
    }

    #[test]
    fn flags_are_checked_against_the_selected_experiments() {
        let parse = |args: &[&str], ids: &[ExperimentId]| {
            let mut flags = ConfigFlags::default();
            let mut args = args.iter();
            while let Some(flag) = args.next() {
                flags.parse(flag, || args.next().copied().ok_or_else(|| "no value".to_string()))?;
            }
            flags.finish(ids)
        };
        // A flag that sets no field is unknown.
        let unknown = parse(&["--fleet-shards", "4"], &[]);
        assert_eq!(unknown, Err("unknown argument \"--fleet-shards\"".to_string()));
        // A switch takes no value: the next argument is the next flag.
        let config = parse(&["--fleet-hetero", "--seed", "7"], &[ExperimentId::CampaignFleet]);
        assert_eq!(config.map(|c| (c.fleet_hetero, c.seed)), Ok((true, 7)));
        // Campaign-only flags are reported before shared ones and shared ones
        // before surface ones, whatever their order; a paper flag is never
        // inert.
        let flags =
            ["--seed", "3", "--surface-trials", "5", "--jitter-us", "5", "--fleet-aps", "2"];
        let error = parse(&flags, &[]).unwrap_err();
        assert!(error.starts_with("--fleet-aps configures the campaign_fleet "), "{error}");
        let error = parse(&flags[..6], &[ExperimentId::Fig1]).unwrap_err();
        assert!(error.starts_with("--jitter-us configures the campaign_fleet / "), "{error}");
        assert!(parse(&["--jitter-us", "5"], &[ExperimentId::AttackSurface]).is_ok());
    }
}
