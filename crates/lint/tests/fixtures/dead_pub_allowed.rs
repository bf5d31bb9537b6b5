// Fixture: the same unused items, each kept with a reason and an allow.

// Kept as the fixture's suppressed case. mp-lint: allow(dead-pub)
pub fn unused_helper() {}

// Kept as the fixture's suppressed case. mp-lint: allow(dead-pub)
pub struct OnlyTested;

// Kept as the fixture's suppressed case. mp-lint: allow(dead-pub)
pub const ONLY_IN_PROSE: &str = "ONLY_IN_PROSE";

// Kept as the fixture's suppressed case. mp-lint: allow(dead-pub)
pub mod orphan {}

// Kept as the fixture's suppressed case. mp-lint: allow(dead-pub)
pub static mut COUNTER: u32 = 0;
