//! # mp-webcache
//!
//! The network-cache taxonomy of the *Master and Parasite Attack* paper
//! (Table IV) and a shared-cache model that demonstrates cross-victim
//! infection through caches that many clients share.
//!
//! * [`taxonomy`] — every row of Table IV (browser caches, transparent
//!   proxies, web filters, firewalls, transport-link caches, reverse
//!   proxies/CDNs, WAFs, ISP and mobile-network caches) with its HTTP/HTTPS
//!   caching support classification,
//! * [`shared`] — [`shared::SharedCache`], an
//!   [`mp_httpsim::transport::Exchange`] middlebox that stores responses in a
//!   store shared by all clients behind it, so one poisoned response infects
//!   every later client.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shared;
pub mod taxonomy;

pub use shared::{SharedCache, SharedCacheStats};
pub use taxonomy::{table4_entries, CacheClass, CacheInstance, CacheLocation, CachingSupport};
