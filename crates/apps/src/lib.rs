//! # mp-apps
//!
//! Simulated victim applications for the *Master and Parasite Attack*
//! reproduction — the targets of the Table V application attacks.
//!
//! Each application exposes two surfaces:
//!
//! * an HTTP surface ([`mp_httpsim::transport::Exchange`]) serving its pages
//!   and a long-lived, cacheable application script — the object the parasite
//!   infects, and
//! * a DOM-level state machine ([`mp_browser::dom::Dom`] builders plus
//!   server-side handlers) modelling what the victim sees and does: login
//!   forms, account/balance views, transfer and withdrawal forms, OTP
//!   confirmation, inboxes and chats.
//!
//! * [`banking`] — online banking with OTP 2FA and the out-of-band
//!   confirmation defence (§VIII),
//! * [`webmail`] — web mail with inbox text, contacts and send capability,
//! * [`SocialApp`] — social network / chat with harvestable contacts,
//! * [`exchange`] — crypto exchange with withdrawal-address flow.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banking;
pub mod exchange;
mod social;
pub mod webmail;

pub use banking::{Account, BankingApp, ExecutedTransfer, PendingTransfer, TransferOutcome};
pub use exchange::{CryptoExchangeApp, Withdrawal};
pub use social::{ChatMessage, SocialApp};
pub use webmail::{Email, Mailbox, WebMailApp};
