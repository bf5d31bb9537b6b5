//! Object churn model.
//!
//! Figure 3 of the paper tracks, over 100 daily crawls of the 15K-top Alexa
//! pages, what fraction of sites still carry at least one JavaScript object
//! that has kept its *name* (and, separately, its *content hash*) since day
//! zero. The reproduction replaces the live crawl with a generative model:
//! every object belongs to a stability class that determines its daily
//! probability of being renamed and of having its content change. The class
//! mix is calibrated so the generated curves match the published end points
//! (≈87.5 % name-persistent at a 5-day window, ≈75.3 % at 100 days).

use rand::Rng;

/// How stable one object is over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StabilityClass {
    /// Never renamed during the study horizon; content changes occasionally.
    /// These are the "perfect targets" the attacker selects (§VI-A).
    Permanent,
    /// Renamed rarely (slow release cadence).
    SlowChurn,
    /// Renamed often (content-hashed bundle names, daily deploys).
    FastChurn,
}

impl StabilityClass {
    /// Daily probability that the object is renamed (which changes its cache
    /// key and breaks any parasite attached to it).
    pub fn daily_rename_probability(self) -> f64 {
        match self {
            StabilityClass::Permanent => 0.0,
            StabilityClass::SlowChurn => 0.02,
            StabilityClass::FastChurn => 0.25,
        }
    }

    /// Daily probability that the object's content changes while keeping its
    /// name (which flips the hash-persistency curve but not the name curve).
    pub fn daily_content_change_probability(self) -> f64 {
        match self {
            StabilityClass::Permanent => 0.003,
            StabilityClass::SlowChurn => 0.03,
            StabilityClass::FastChurn => 0.30,
        }
    }

    /// Probability that the object survives `days` days without a rename.
    #[cfg(test)]
    fn name_survival(self, days: u32) -> f64 {
        (1.0 - self.daily_rename_probability()).powi(days as i32)
    }

    /// Probability that the object survives `days` days without any change
    /// (neither rename nor content change).
    #[cfg(test)]
    fn hash_survival(self, days: u32) -> f64 {
        let p_keep = (1.0 - self.daily_rename_probability())
            * (1.0 - self.daily_content_change_probability());
        p_keep.powi(days as i32)
    }
}

/// The state of one object on one crawl day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectObservation {
    /// Path (name) of the object on this day.
    pub path: String,
    /// Content-hash of the object on this day.
    pub content_hash: u64,
}

/// A churning object: its identity plus the mutable state the crawler sees.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurningObject {
    /// Original path on day zero.
    pub original_path: String,
    /// Stability class.
    pub class: StabilityClass,
    /// Current path.
    pub current_path: String,
    /// Current content hash.
    pub current_hash: u64,
    /// How many times the object has been renamed.
    pub renames: u32,
    /// How many times the content has changed.
    pub content_changes: u32,
    /// Days simulated so far.
    pub day: u32,
    /// If set, the object is renamed on exactly this day (a planned release),
    /// in addition to the class's daily rename probability. The population
    /// generator uses this to reproduce the gradual decline of Figure 3's
    /// name-persistency curve between the 5-day and 100-day marks.
    pub scheduled_rename_day: Option<u32>,
}

impl ChurningObject {
    /// Creates an object in its day-zero state.
    pub fn new(path: impl Into<String>, class: StabilityClass, initial_hash: u64) -> Self {
        let path = path.into();
        ChurningObject {
            original_path: path.clone(),
            current_path: path,
            class,
            current_hash: initial_hash,
            renames: 0,
            content_changes: 0,
            day: 0,
            scheduled_rename_day: None,
        }
    }

    /// Schedules a one-time rename on `day` (builder style).
    pub fn with_scheduled_rename(mut self, day: u32) -> Self {
        self.scheduled_rename_day = Some(day);
        self
    }

    fn mutate_content(&mut self) {
        self.content_changes += 1;
        self.current_hash = self.current_hash.wrapping_mul(6364136223846793005).wrapping_add(1);
    }

    fn rename(&mut self) {
        self.renames += 1;
        self.current_path = format!("{}.v{}", self.original_path, self.renames);
        // A rename in practice ships new content too.
        self.mutate_content();
    }

    /// Advances the object by one day, possibly renaming it or changing its
    /// content, using `rng` for the daily draws.
    pub fn advance_day<R: Rng>(&mut self, rng: &mut R) {
        self.day += 1;
        if self.scheduled_rename_day == Some(self.day) {
            self.rename();
            return;
        }
        if rng.gen_bool(self.class.daily_rename_probability()) {
            self.rename();
        } else if rng.gen_bool(self.class.daily_content_change_probability()) {
            self.mutate_content();
        }
    }

    /// Returns `true` if the object still has its day-zero name.
    pub fn name_persistent(&self) -> bool {
        self.current_path == self.original_path
    }

    /// Returns `true` if the object still has its day-zero content hash.
    pub fn hash_persistent(&self, original_hash: u64) -> bool {
        self.current_hash == original_hash
    }

    /// What the crawler records for this object today.
    pub fn observe(&self) -> ObjectObservation {
        ObjectObservation {
            path: self.current_path.clone(),
            content_hash: self.current_hash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn permanent_objects_never_rename() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut object = ChurningObject::new("/static/app.js", StabilityClass::Permanent, 42);
        for _ in 0..365 {
            object.advance_day(&mut rng);
        }
        assert!(object.name_persistent());
        assert_eq!(object.renames, 0);
    }

    #[test]
    fn fast_churn_objects_rename_quickly() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut object = ChurningObject::new("/bundle.js", StabilityClass::FastChurn, 42);
        for _ in 0..30 {
            object.advance_day(&mut rng);
        }
        assert!(!object.name_persistent());
        assert!(object.renames > 0);
    }

    #[test]
    fn survival_probabilities_are_monotone_in_time() {
        for class in [StabilityClass::Permanent, StabilityClass::SlowChurn, StabilityClass::FastChurn] {
            assert!(class.name_survival(5) >= class.name_survival(100));
            assert!(class.hash_survival(5) >= class.hash_survival(100));
            // Hash persistence is always at most name persistence.
            assert!(class.hash_survival(50) <= class.name_survival(50) + 1e-12);
        }
        assert!((StabilityClass::Permanent.name_survival(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn content_changes_break_hash_persistence_but_not_name_persistence() {
        let mut rng = StdRng::seed_from_u64(3);
        let original_hash = 42;
        let mut object = ChurningObject::new("/app.js", StabilityClass::Permanent, original_hash);
        for _ in 0..2000 {
            object.advance_day(&mut rng);
        }
        assert!(object.name_persistent());
        assert!(!object.hash_persistent(original_hash), "content should change eventually");
    }

    #[test]
    fn observation_reflects_current_state() {
        let object = ChurningObject::new("/x.js", StabilityClass::SlowChurn, 7);
        let obs = object.observe();
        assert_eq!(obs.path, "/x.js");
        assert_eq!(obs.content_hash, 7);
    }
}
