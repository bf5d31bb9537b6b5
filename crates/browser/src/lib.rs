//! # mp-browser
//!
//! A browser simulator for the *Master and Parasite Attack* reproduction.
//!
//! The crate models the pieces of a web browser that the attack interacts
//! with:
//!
//! * [`profile`] — per-browser parameters from the paper's Tables I–III
//!   (cache sizes, inter-domain eviction, Cache API support, OS coverage),
//! * [`cache`] — the size-bounded HTTP cache with LRU eviction, per-domain
//!   accounting, optional partitioning and the IE unbounded-growth failure
//!   mode,
//! * [`cache_api`] — script-controlled storage that survives cache clearing
//!   (Table III),
//! * [`storage`] — per-origin `localStorage`,
//! * [`dom`] — a minimal DOM with forms, submit-event logging and
//!   script-inserted element attribution,
//! * [`page`] — HTML subresource extraction and the [`page::Page`] model,
//! * [`browser`] — the [`browser::Browser`] tying everything together behind
//!   a fetch pipeline over an [`mp_httpsim::transport::Exchange`].
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod browser;
pub mod cache;
pub mod cache_api;
pub mod dom;
pub mod page;
pub mod profile;
pub mod storage;

pub use browser::{Browser, FetchRecord, FetchResult, FetchSource, PageLoad};
pub use cache::{CacheEntry, CacheLookup, HttpCache};
pub use cache_api::CacheApiStorage;
pub use dom::{Dom, Element, ElementId, FormSubmission};
pub use page::{LoadedScript, Page, SubresourceKind, SubresourceRef};
pub use profile::{BrowserKind, BrowserProfile, EvictionBehaviour, OperatingSystem};
