//! Network addressing: IPv4 addresses, ports and socket addresses.

use std::fmt;
use std::str::FromStr;

/// An IPv4 address.
///
/// The simulator only needs enough of an address to identify endpoints and to
/// let the attacker spoof the server's source address, so a thin wrapper over
/// the four octets is sufficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IpAddr([u8; 4]);

impl IpAddr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: IpAddr = IpAddr([0, 0, 0, 0]);

    /// Creates an address from its four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        IpAddr([a, b, c, d])
    }

    /// Returns the four octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0
    }

    /// Returns the address as a single big-endian `u32`.
    pub const fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Creates an address from a big-endian `u32`.
    pub const fn from_u32(value: u32) -> Self {
        IpAddr(value.to_be_bytes())
    }

    /// Returns `true` if the address lies in the RFC 1918 private ranges.
    #[cfg(test)]
    fn is_private(self) -> bool {
        let [a, b, _, _] = self.0;
        a == 10 || (a == 172 && (16..=31).contains(&b)) || (a == 192 && b == 168)
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.0;
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Error returned when parsing an [`IpAddr`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIpError(String);

impl fmt::Display for ParseIpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 address syntax: {}", self.0)
    }
}

impl std::error::Error for ParseIpError {}

impl FromStr for IpAddr {
    type Err = ParseIpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for octet in &mut octets {
            let part = parts.next().ok_or_else(|| ParseIpError(s.to_string()))?;
            *octet = part.parse().map_err(|_| ParseIpError(s.to_string()))?;
        }
        if parts.next().is_some() {
            return Err(ParseIpError(s.to_string()));
        }
        Ok(IpAddr(octets))
    }
}

impl From<[u8; 4]> for IpAddr {
    fn from(octets: [u8; 4]) -> Self {
        IpAddr(octets)
    }
}

/// A transport-layer endpoint: IPv4 address plus TCP port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketAddr {
    /// The IPv4 address.
    pub ip: IpAddr,
    /// The TCP port.
    pub port: u16,
}

impl SocketAddr {
    /// Creates a socket address.
    pub const fn new(ip: IpAddr, port: u16) -> Self {
        SocketAddr { ip, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// The four-tuple that identifies a TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FourTuple {
    /// Source (client) endpoint.
    pub src: SocketAddr,
    /// Destination (server) endpoint.
    pub dst: SocketAddr,
}

impl FourTuple {
    /// Creates a four-tuple.
    pub const fn new(src: SocketAddr, dst: SocketAddr) -> Self {
        FourTuple { src, dst }
    }

    /// Returns the tuple with source and destination swapped, i.e. the tuple
    /// that identifies traffic flowing in the opposite direction.
    #[cfg(test)]
    const fn reversed(self) -> Self {
        FourTuple {
            src: self.dst,
            dst: self.src,
        }
    }
}

impl fmt::Display for FourTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        let addr = IpAddr::new(192, 168, 1, 42);
        assert_eq!(addr.to_string(), "192.168.1.42");
        assert_eq!("192.168.1.42".parse::<IpAddr>().unwrap(), addr);
    }

    #[test]
    fn parse_rejects_malformed_addresses() {
        assert!("1.2.3".parse::<IpAddr>().is_err());
        assert!("1.2.3.4.5".parse::<IpAddr>().is_err());
        assert!("1.2.3.256".parse::<IpAddr>().is_err());
        assert!("a.b.c.d".parse::<IpAddr>().is_err());
    }

    #[test]
    fn u32_round_trip() {
        let addr = IpAddr::new(93, 184, 216, 34);
        assert_eq!(IpAddr::from_u32(addr.to_u32()), addr);
    }

    #[test]
    fn private_range_detection() {
        assert!(IpAddr::new(10, 1, 2, 3).is_private());
        assert!(IpAddr::new(172, 16, 0, 1).is_private());
        assert!(IpAddr::new(172, 31, 255, 1).is_private());
        assert!(IpAddr::new(192, 168, 0, 1).is_private());
        assert!(!IpAddr::new(172, 32, 0, 1).is_private());
        assert!(!IpAddr::new(8, 8, 8, 8).is_private());
    }

    #[test]
    fn four_tuple_reversal_is_involutive() {
        let tuple = FourTuple::new(
            SocketAddr::new(IpAddr::new(10, 0, 0, 2), 51000),
            SocketAddr::new(IpAddr::new(93, 184, 216, 34), 80),
        );
        assert_eq!(tuple.reversed().reversed(), tuple);
        assert_eq!(tuple.reversed().src.port, 80);
    }
}
