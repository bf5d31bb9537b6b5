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

// Not flagged: another type's field names it, and a trait impl names the
// trait.
pub trait Observer {
    fn observe(&mut self, byte: u8);
}

pub struct Recorder {
    log: Vec<u8>,
}

impl Observer for Recorder {
    fn observe(&mut self, byte: u8) {
        self.log.push(byte);
    }
}

// Kept as the fixture's suppressed case. mp-lint: allow(dead-pub)
pub struct Station {
    recorder: Recorder,
}
