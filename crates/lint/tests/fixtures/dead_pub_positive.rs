// Fixture: bare-`pub` library items that no other file names and that this
// file names only in its tests.

pub fn unused_helper() {}

pub struct OnlyTested;

// ONLY_IN_PROSE is named in this comment and in a string: neither is a use.
pub const ONLY_IN_PROSE: &str = "ONLY_IN_PROSE";

pub mod orphan {}

pub static mut COUNTER: u32 = 0;

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
