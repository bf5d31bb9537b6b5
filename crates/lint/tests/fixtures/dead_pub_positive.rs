// Fixture: bare-`pub` library items that no other file names and that this
// file names only in its tests.

pub fn unused_helper() {}

pub struct OnlyTested;

// ONLY_IN_PROSE is named in this comment and in a string: neither is a use.
pub const ONLY_IN_PROSE: &str = "ONLY_IN_PROSE";

pub mod orphan {}

pub static mut COUNTER: u32 = 0;

// A type named only by its own `impl` blocks: the inherent one, a trait impl
// and `Self` constructors are no use. The trait is used by its impl.
pub trait Observer {
    fn observe(&mut self, byte: u8);
}

pub struct Sniffer {
    log: Vec<u8>,
}

impl Sniffer {
    pub fn new() -> Self {
        Self { log: Vec::new() }
    }
}

impl Observer for Sniffer {
    fn observe(&mut self, byte: u8) {
        self.log.push(byte);
    }
}

// Not flagged: used in code here (a format capture counts), or not API.
pub const GREETING: &str = "hi";
pub(crate) fn restricted() -> String {
    format!("{GREETING}!")
}

#[cfg(test)]
mod tests {
    pub fn inside_tests() {
        let _ = super::OnlyTested;
    }
}
