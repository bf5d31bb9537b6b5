//! TCP sequence-number arithmetic.
//!
//! Sequence numbers live in a 32-bit space that wraps around, so ordinary
//! integer comparison is wrong once a connection has transferred enough data.
//! [`SeqNum`] implements RFC 793 modular comparison, which both the genuine
//! TCP endpoints and the attacker's injector use to decide whether a segment
//! falls inside the receive window.

use std::fmt;
use std::ops::{Add, Sub};

/// A 32-bit TCP sequence number with wrapping (modular) arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(u32);

impl SeqNum {
    /// Creates a sequence number from its raw value.
    pub const fn new(value: u32) -> Self {
        SeqNum(value)
    }

    /// Returns the raw 32-bit value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Modular "less than": `self` precedes `other` in sequence space.
    ///
    /// Two sequence numbers are comparable as long as they are within
    /// 2^31 of each other, which always holds for live connections.
    pub fn precedes(self, other: SeqNum) -> bool {
        (other.0.wrapping_sub(self.0) as i32) > 0
    }

    /// Modular "less than or equal".
    pub fn precedes_or_eq(self, other: SeqNum) -> bool {
        self == other || self.precedes(other)
    }

    /// Returns the number of bytes from `self` to `other` walking forward in
    /// sequence space (modular subtraction).
    pub fn distance_to(self, other: SeqNum) -> u32 {
        other.0.wrapping_sub(self.0)
    }

    /// Returns `true` if `self` lies in the half-open window
    /// `[start, start + len)` in modular arithmetic.
    pub fn in_window(self, start: SeqNum, len: u32) -> bool {
        start.distance_to(self) < len
    }
}

impl Add<u32> for SeqNum {
    type Output = SeqNum;
    fn add(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(rhs))
    }
}

impl Sub<u32> for SeqNum {
    type Output = SeqNum;
    fn sub(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_sub(rhs))
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for SeqNum {
    fn from(value: u32) -> Self {
        SeqNum(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ordering_without_wraparound() {
        assert!(SeqNum::new(10).precedes(SeqNum::new(20)));
        assert!(!SeqNum::new(20).precedes(SeqNum::new(10)));
        assert!(!SeqNum::new(10).precedes(SeqNum::new(10)));
        assert!(SeqNum::new(10).precedes_or_eq(SeqNum::new(10)));
    }

    #[test]
    fn ordering_across_wraparound() {
        let near_max = SeqNum::new(u32::MAX - 5);
        let wrapped = near_max + 10;
        assert_eq!(wrapped.value(), 4);
        assert!(near_max.precedes(wrapped));
        assert!(!wrapped.precedes(near_max));
        assert_eq!(near_max.distance_to(wrapped), 10);
    }

    #[test]
    fn window_membership() {
        let start = SeqNum::new(1000);
        assert!(SeqNum::new(1000).in_window(start, 100));
        assert!(SeqNum::new(1099).in_window(start, 100));
        assert!(!SeqNum::new(1100).in_window(start, 100));
        assert!(!SeqNum::new(999).in_window(start, 100));
    }

    #[test]
    fn window_membership_across_wraparound() {
        let start = SeqNum::new(u32::MAX - 10);
        assert!(SeqNum::new(u32::MAX).in_window(start, 64_000));
        assert!(SeqNum::new(5).in_window(start, 64_000));
        assert!(!SeqNum::new(64_000).in_window(start, 64_000));
    }

    proptest! {
        /// Adding then measuring distance recovers the addend for any offset
        /// representable in the window (< 2^31).
        #[test]
        fn distance_inverts_addition(base in any::<u32>(), delta in 0u32..i32::MAX as u32) {
            let start = SeqNum::new(base);
            let end = start + delta;
            prop_assert_eq!(start.distance_to(end), delta);
            if delta > 0 {
                prop_assert!(start.precedes(end));
            }
        }

        /// `precedes` is asymmetric for distinct comparable numbers.
        #[test]
        fn precedes_is_asymmetric(base in any::<u32>(), delta in 1u32..i32::MAX as u32) {
            let a = SeqNum::new(base);
            let b = a + delta;
            prop_assert!(a.precedes(b));
            prop_assert!(!b.precedes(a));
        }
    }
}
