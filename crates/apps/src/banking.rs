//! Simulated online-banking application.
//!
//! Target of the Table V attacks "Steal Login Data", "Circumvent Two Factor
//! Authentication" and "Transaction Manipulation". The application exposes
//! both an HTTP surface (login page, account page, a persistent banking
//! script — the object the parasite infects) and the DOM-level state machine
//! the victim interacts with: login form → account view with balance →
//! transfer form → one-time-password (OTP) confirmation.
//!
//! The 2FA weakness the paper exploits is modelled explicitly: the OTP
//! confirms *that* a transaction happens, but unless out-of-band transaction
//! detail confirmation is enabled (the §VIII defence), it does not bind the
//! *details* the user believes they are confirming to the details the server
//! executes — so a parasite that rewrites the DOM gets a manipulated transfer
//! approved with a genuine OTP.

use mp_browser::dom::{Dom, ElementId, FormSubmission};
use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::message::{Request, Response};
use mp_httpsim::transport::Exchange;
use mp_httpsim::url::{Scheme, Url};
use std::collections::HashMap;

/// A customer account.
#[derive(Debug, Clone, PartialEq)]
pub struct Account {
    /// Login name.
    pub username: String,
    /// Password (plaintext — it is a simulation of the victim, not of the bank).
    pub password: String,
    /// Balance in cents.
    pub balance_cents: i64,
    /// IBAN of the account.
    pub iban: String,
}

/// A money transfer the bank has executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutedTransfer {
    /// Sending customer.
    pub from: String,
    /// Beneficiary IBAN as executed by the server.
    pub beneficiary_iban: String,
    /// Amount in cents.
    pub amount_cents: i64,
    /// Whether the user confirmed details out-of-band before execution.
    pub confirmed_out_of_band: bool,
}

/// A transfer awaiting OTP confirmation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingTransfer {
    /// Session that initiated it.
    pub session: String,
    /// Beneficiary IBAN as received by the server.
    pub beneficiary_iban: String,
    /// Amount in cents.
    pub amount_cents: i64,
    /// The OTP the (simulated) second factor shows the user.
    pub otp: String,
}

/// Outcome of submitting the transfer form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferOutcome {
    /// The transfer needs an OTP; the pending transfer id is returned.
    OtpRequired {
        /// Index of the pending transfer.
        pending_id: usize,
    },
    /// Executed immediately (OTP disabled).
    Executed,
    /// Rejected (bad session, malformed fields, insufficient funds).
    Rejected {
        /// Why.
        reason: String,
    },
}

/// The banking application.
#[derive(Debug, Clone, PartialEq)]
pub struct BankingApp {
    /// Host name the bank is served from.
    pub host: String,
    accounts: HashMap<String, Account>,
    /// session token -> username
    sessions: HashMap<String, String>,
    pending: Vec<PendingTransfer>,
    executed: Vec<ExecutedTransfer>,
    next_session: u64,
    /// Whether transfers require an OTP (on by default).
    pub otp_required: bool,
    /// §VIII defence: the user must confirm the *details* (beneficiary and
    /// amount) on a second device before the OTP is accepted.
    pub out_of_band_confirmation: bool,
}

impl Default for BankingApp {
    fn default() -> Self {
        Self::new("bank.example")
    }
}

impl BankingApp {
    /// Creates the bank with one demo customer (`alice` / `correct-horse`).
    pub fn new(host: impl Into<String>) -> Self {
        let mut accounts = HashMap::new();
        accounts.insert(
            "alice".to_string(),
            Account {
                username: "alice".into(),
                password: "correct-horse".into(),
                balance_cents: 1_234_567,
                iban: "DE89 3704 0044 0532 0130 00".into(),
            },
        );
        BankingApp {
            host: host.into(),
            accounts,
            sessions: HashMap::new(),
            pending: Vec::new(),
            executed: Vec::new(),
            next_session: 1,
            otp_required: true,
            out_of_band_confirmation: false,
        }
    }

    /// Enables the out-of-band transaction-detail confirmation defence.
    pub fn with_out_of_band_confirmation(mut self) -> Self {
        self.out_of_band_confirmation = true;
        self
    }

    /// URL of the login page.
    pub fn login_url(&self) -> Url {
        Url::from_parts(Scheme::Https, self.host.clone(), "/login")
    }

    /// URL of the persistent banking script — the parasite's infection target.
    #[cfg(test)]
    fn script_url(&self) -> Url {
        Url::from_parts(Scheme::Https, self.host.clone(), "/static/banking.js")
    }

    /// Builds the login page DOM.
    pub fn login_dom(&self) -> (Dom, ElementId) {
        let mut dom = Dom::new(self.login_url());
        let form = dom.add_markup_element("form", &[("action", "/do-login"), ("id", "login-form")], "");
        dom.add_input(form, "username", "text", "");
        dom.add_input(form, "password", "password", "");
        (dom, form)
    }

    /// Processes a login form submission, returning a session token on success.
    pub fn login(&mut self, submission: &FormSubmission) -> Option<String> {
        let username = submission.fields.get("username")?;
        let password = submission.fields.get("password")?;
        let account = self.accounts.get(username)?;
        if &account.password != password {
            return None;
        }
        let token = format!("bank-session-{}", self.next_session);
        self.next_session += 1;
        self.sessions.insert(token.clone(), username.clone());
        Some(token)
    }

    /// Builds the logged-in account page DOM: balance, IBAN and the transfer
    /// form.
    pub fn account_dom(&self, session: &str) -> Option<(Dom, ElementId)> {
        let username = self.sessions.get(session)?;
        let account = self.accounts.get(username)?;
        let mut dom = Dom::new(Url::from_parts(Scheme::Https, self.host.clone(), "/account"));
        dom.add_markup_element(
            "div",
            &[("id", "balance")],
            &format!("Balance: {}.{:02} EUR", account.balance_cents / 100, account.balance_cents % 100),
        );
        dom.add_markup_element("div", &[("id", "own-iban")], &account.iban);
        let form = dom.add_markup_element("form", &[("action", "/transfer"), ("id", "transfer-form")], "");
        dom.add_input(form, "beneficiary_iban", "text", "");
        dom.add_input(form, "amount_eur", "text", "");
        Some((dom, form))
    }

    /// Submits the transfer form.
    pub fn submit_transfer(&mut self, session: &str, submission: &FormSubmission) -> TransferOutcome {
        let Some(username) = self.sessions.get(session).cloned() else {
            return TransferOutcome::Rejected {
                reason: "invalid session".into(),
            };
        };
        let Some(iban) = submission.fields.get("beneficiary_iban").cloned() else {
            return TransferOutcome::Rejected {
                reason: "missing beneficiary".into(),
            };
        };
        let amount_cents = submission
            .fields
            .get("amount_eur")
            .and_then(|a| a.parse::<f64>().ok())
            .map(|eur| (eur * 100.0).round() as i64)
            .unwrap_or(-1);
        if amount_cents <= 0 {
            return TransferOutcome::Rejected {
                reason: "invalid amount".into(),
            };
        }
        let Some(account) = self.accounts.get(&username) else {
            return TransferOutcome::Rejected {
                reason: "unknown account".into(),
            };
        };
        if account.balance_cents < amount_cents {
            return TransferOutcome::Rejected {
                reason: "insufficient funds".into(),
            };
        }

        if self.otp_required {
            let otp = format!("{:06}", (self.pending.len() as u32 + 1) * 73_421 % 1_000_000);
            self.pending.push(PendingTransfer {
                session: session.to_string(),
                beneficiary_iban: iban,
                amount_cents,
                otp,
            });
            TransferOutcome::OtpRequired {
                pending_id: self.pending.len() - 1,
            }
        } else {
            self.execute(&username, &iban, amount_cents, false);
            TransferOutcome::Executed
        }
    }

    /// The OTP the user's second factor displays for a pending transfer.
    /// With out-of-band confirmation enabled, the second factor also shows the
    /// beneficiary and amount, which is what defeats the DOM manipulation.
    pub fn second_factor_display(&self, pending_id: usize) -> Option<String> {
        let pending = self.pending.get(pending_id)?;
        if self.out_of_band_confirmation {
            Some(format!(
                "OTP {} for transfer of {}.{:02} EUR to {}",
                pending.otp,
                pending.amount_cents / 100,
                pending.amount_cents % 100,
                pending.beneficiary_iban
            ))
        } else {
            Some(format!("OTP {}", pending.otp))
        }
    }

    /// Confirms a pending transfer with an OTP.
    ///
    /// `user_expected_iban` is what the *user believes* they are approving
    /// (what the DOM showed them). When out-of-band confirmation is enabled
    /// the user compares this against the second-factor display and aborts on
    /// a mismatch.
    pub fn confirm_otp(
        &mut self,
        pending_id: usize,
        otp: &str,
        user_expected_iban: &str,
    ) -> TransferOutcome {
        let Some(pending) = self.pending.get(pending_id).cloned() else {
            return TransferOutcome::Rejected {
                reason: "unknown pending transfer".into(),
            };
        };
        if pending.otp != otp {
            return TransferOutcome::Rejected {
                reason: "wrong otp".into(),
            };
        }
        if self.out_of_band_confirmation && pending.beneficiary_iban != user_expected_iban {
            // The user sees the real beneficiary on the second device and refuses.
            self.pending.remove(pending_id);
            return TransferOutcome::Rejected {
                reason: "user aborted: out-of-band details mismatch".into(),
            };
        }
        let Some(username) = self.sessions.get(&pending.session).cloned() else {
            return TransferOutcome::Rejected {
                reason: "session expired".into(),
            };
        };
        self.pending.remove(pending_id);
        self.execute(&username, &pending.beneficiary_iban, pending.amount_cents, self.out_of_band_confirmation);
        TransferOutcome::Executed
    }

    fn execute(&mut self, username: &str, iban: &str, amount_cents: i64, confirmed: bool) {
        if let Some(account) = self.accounts.get_mut(username) {
            account.balance_cents -= amount_cents;
        }
        self.executed.push(ExecutedTransfer {
            from: username.to_string(),
            beneficiary_iban: iban.to_string(),
            amount_cents,
            confirmed_out_of_band: confirmed,
        });
    }

    /// Transfers the bank has executed.
    pub fn executed_transfers(&self) -> &[ExecutedTransfer] {
        &self.executed
    }

    /// The demo account, for assertions in experiments.
    pub fn account(&self, username: &str) -> Option<&Account> {
        self.accounts.get(username)
    }
}

impl Exchange for BankingApp {
    fn exchange(&mut self, request: &Request) -> Response {
        if !request.url.host.eq_ignore_ascii_case(&self.host) {
            return Response::not_found();
        }
        match request.url.path.as_str() {
            "/login" | "/account" | "/" => Response::ok(Body::text(
                ResourceKind::Html,
                format!(
                    r#"<html><head><script src="/static/banking.js"></script></head>
                       <body><h1>{} online banking</h1></body></html>"#,
                    self.host
                ),
            ))
            .with_cache_control("no-store"),
            "/static/banking.js" => Response::ok(Body::text(
                ResourceKind::JavaScript,
                "function initBanking(){/* genuine banking code */}",
            ))
            .with_cache_control("public, max-age=604800")
            .with_etag("\"banking-v17\""),
            _ => Response::not_found(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn login_session(bank: &mut BankingApp) -> String {
        let (mut dom, form) = bank.login_dom();
        let user = dom.by_name("username").unwrap().id;
        let pass = dom.by_name("password").unwrap().id;
        dom.set_attr(user, "value", "alice");
        dom.set_attr(pass, "value", "correct-horse");
        let submission = dom.submit_form(form).unwrap();
        bank.login(&submission).expect("valid credentials")
    }

    #[test]
    fn login_succeeds_with_correct_credentials_only() {
        let mut bank = BankingApp::default();
        let session = login_session(&mut bank);
        assert!(bank.account_dom(&session).is_some());

        let (mut dom, form) = bank.login_dom();
        let user = dom.by_name("username").unwrap().id;
        let pass = dom.by_name("password").unwrap().id;
        dom.set_attr(user, "value", "alice");
        dom.set_attr(pass, "value", "wrong");
        let bad = dom.submit_form(form).unwrap();
        assert!(bank.login(&bad).is_none());
    }

    #[test]
    fn transfer_with_otp_executes_what_the_server_received() {
        let mut bank = BankingApp::default();
        let session = login_session(&mut bank);
        let (mut dom, form) = bank.account_dom(&session).unwrap();
        let iban = dom.by_name("beneficiary_iban").unwrap().id;
        let amount = dom.by_name("amount_eur").unwrap().id;
        dom.set_attr(iban, "value", "FR76 3000 6000 0112 3456 7890 189");
        dom.set_attr(amount, "value", "250.00");
        let submission = dom.submit_form(form).unwrap();

        let outcome = bank.submit_transfer(&session, &submission);
        let TransferOutcome::OtpRequired { pending_id } = outcome else {
            panic!("expected OTP flow, got {outcome:?}");
        };
        let otp_display = bank.second_factor_display(pending_id).unwrap();
        let otp = otp_display.split_whitespace().nth(1).unwrap().to_string();
        let confirmed = bank.confirm_otp(pending_id, &otp, "FR76 3000 6000 0112 3456 7890 189");
        assert_eq!(confirmed, TransferOutcome::Executed);
        assert_eq!(bank.executed_transfers().len(), 1);
        assert_eq!(bank.account("alice").unwrap().balance_cents, 1_234_567 - 25_000);
    }

    #[test]
    fn wrong_otp_and_bad_session_are_rejected() {
        let mut bank = BankingApp::default();
        let session = login_session(&mut bank);
        let (mut dom, form) = bank.account_dom(&session).unwrap();
        let iban = dom.by_name("beneficiary_iban").unwrap().id;
        let amount = dom.by_name("amount_eur").unwrap().id;
        dom.set_attr(iban, "value", "FR76 3000 6000 0112 3456 7890 189");
        dom.set_attr(amount, "value", "10");
        let submission = dom.submit_form(form).unwrap();
        let TransferOutcome::OtpRequired { pending_id } = bank.submit_transfer(&session, &submission) else {
            panic!()
        };
        assert!(matches!(
            bank.confirm_otp(pending_id, "000000", "FR76 ..."),
            TransferOutcome::Rejected { .. }
        ));
        assert!(matches!(
            bank.submit_transfer("no-such-session", &submission),
            TransferOutcome::Rejected { .. }
        ));
    }

    #[test]
    fn insufficient_funds_and_bad_amounts_are_rejected() {
        let mut bank = BankingApp::default();
        let session = login_session(&mut bank);
        let (mut dom, form) = bank.account_dom(&session).unwrap();
        let iban = dom.by_name("beneficiary_iban").unwrap().id;
        let amount = dom.by_name("amount_eur").unwrap().id;
        dom.set_attr(iban, "value", "FR76 ...");
        dom.set_attr(amount, "value", "999999999");
        let too_much = dom.submit_form(form).unwrap();
        assert!(matches!(
            bank.submit_transfer(&session, &too_much),
            TransferOutcome::Rejected { .. }
        ));
        dom.set_attr(amount, "value", "not-a-number");
        let bad_amount = dom.submit_form(form).unwrap();
        assert!(matches!(
            bank.submit_transfer(&session, &bad_amount),
            TransferOutcome::Rejected { .. }
        ));
    }

    #[test]
    fn out_of_band_confirmation_catches_detail_mismatch() {
        let mut bank = BankingApp::new("bank.example").with_out_of_band_confirmation();
        let session = login_session(&mut bank);
        let (mut dom, form) = bank.account_dom(&session).unwrap();
        let iban = dom.by_name("beneficiary_iban").unwrap().id;
        let amount = dom.by_name("amount_eur").unwrap().id;
        // The parasite silently rewrote the beneficiary before submission.
        dom.set_attr(iban, "value", "GB29 ATTACKER 0000 0000 0000 00");
        dom.set_attr(amount, "value", "250.00");
        let submission = dom.submit_form(form).unwrap();
        let TransferOutcome::OtpRequired { pending_id } = bank.submit_transfer(&session, &submission) else {
            panic!()
        };
        // The user believes they are paying their landlord; the second device
        // shows the attacker IBAN, so they refuse.
        let display = bank.second_factor_display(pending_id).unwrap();
        assert!(display.contains("ATTACKER"));
        let otp = display.split_whitespace().nth(1).unwrap().to_string();
        let outcome = bank.confirm_otp(pending_id, &otp, "FR76 3000 6000 0112 3456 7890 189");
        assert!(matches!(outcome, TransferOutcome::Rejected { .. }));
        assert!(bank.executed_transfers().is_empty());
    }

    #[test]
    fn http_surface_serves_page_and_persistent_script() {
        let mut bank = BankingApp::default();
        let page = bank.exchange(&Request::get(bank.login_url()));
        assert!(page.body.as_text().contains("/static/banking.js"));
        let script = bank.exchange(&Request::get(bank.script_url()));
        assert_eq!(script.body.kind, ResourceKind::JavaScript);
        assert!(script.headers.get("cache-control").unwrap().contains("max-age"));
    }
}
