//! Simulated crypto-currency exchange.
//!
//! Target of the Table V rows "Steal Login Data" (crypto-exchanges),
//! "Website Data" (account numbers / balances read from the DOM) and
//! "Transaction Manipulation" (withdrawal-address rewriting).

use mp_browser::dom::{Dom, ElementId, FormSubmission};
use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::message::{Request, Response};
use mp_httpsim::transport::Exchange;
use mp_httpsim::url::{Scheme, Url};
use std::collections::HashMap;

/// An executed withdrawal.
#[derive(Debug, Clone, PartialEq)]
pub struct Withdrawal {
    /// Account that withdrew.
    pub user: String,
    /// Destination wallet address as executed.
    pub destination: String,
    /// Amount in satoshi-like base units.
    pub amount: u64,
}

/// The crypto-exchange application.
#[derive(Debug, Clone, PartialEq)]
pub struct CryptoExchangeApp {
    /// Host the exchange is served from.
    pub host: String,
    passwords: HashMap<String, String>,
    balances: HashMap<String, u64>,
    deposit_addresses: HashMap<String, String>,
    sessions: HashMap<String, String>,
    withdrawals: Vec<Withdrawal>,
    next_session: u64,
}

impl Default for CryptoExchangeApp {
    fn default() -> Self {
        Self::new("exchange.example")
    }
}

impl CryptoExchangeApp {
    /// Creates the exchange with one demo account.
    pub fn new(host: impl Into<String>) -> Self {
        let mut passwords = HashMap::new();
        passwords.insert("alice".to_string(), "to-the-moon".to_string());
        let mut balances = HashMap::new();
        balances.insert("alice".to_string(), 5_000_000);
        let mut deposit_addresses = HashMap::new();
        deposit_addresses.insert("alice".to_string(), "bc1qalice000000000000000000000000000000".to_string());
        CryptoExchangeApp {
            host: host.into(),
            passwords,
            balances,
            deposit_addresses,
            sessions: HashMap::new(),
            withdrawals: Vec::new(),
            next_session: 1,
        }
    }

    /// Login page URL.
    pub fn login_url(&self) -> Url {
        Url::from_parts(Scheme::Https, self.host.clone(), "/login")
    }

    /// URL of the persistent trading script (infection target).
    pub fn script_url(&self) -> Url {
        Url::from_parts(Scheme::Https, self.host.clone(), "/static/trade.js")
    }

    /// Builds the login form DOM.
    pub fn login_dom(&self) -> (Dom, ElementId) {
        let mut dom = Dom::new(self.login_url());
        let form = dom.add_markup_element("form", &[("action", "/do-login"), ("id", "exchange-login")], "");
        dom.add_input(form, "account", "text", "");
        dom.add_input(form, "password", "password", "");
        (dom, form)
    }

    /// Processes a login submission.
    pub fn login(&mut self, submission: &FormSubmission) -> Option<String> {
        let account = submission.fields.get("account")?;
        let password = submission.fields.get("password")?;
        if self.passwords.get(account)? != password {
            return None;
        }
        let token = format!("exchange-session-{}", self.next_session);
        self.next_session += 1;
        self.sessions.insert(token.clone(), account.clone());
        Some(token)
    }

    /// Builds the wallet page DOM: balance, deposit address (readable by the
    /// parasite) and the withdrawal form.
    #[cfg(test)]
    fn wallet_dom(&self, session: &str) -> Option<(Dom, ElementId)> {
        let user = self.sessions.get(session)?;
        let mut dom = Dom::new(Url::from_parts(Scheme::Https, self.host.clone(), "/wallet"));
        dom.add_markup_element(
            "div",
            &[("id", "balance")],
            &format!("Balance: {} sats", self.balances.get(user).copied().unwrap_or(0)),
        );
        dom.add_markup_element(
            "div",
            &[("id", "deposit-address")],
            self.deposit_addresses.get(user).map(String::as_str).unwrap_or(""),
        );
        let form = dom.add_markup_element("form", &[("action", "/withdraw"), ("id", "withdraw-form")], "");
        dom.add_input(form, "destination", "text", "");
        dom.add_input(form, "amount", "text", "");
        Some((dom, form))
    }

    /// Submits the withdrawal form; the server executes whatever destination
    /// address it receives.
    #[cfg(test)]
    fn submit_withdrawal(&mut self, session: &str, submission: &FormSubmission) -> bool {
        let Some(user) = self.sessions.get(session).cloned() else {
            return false;
        };
        let Some(destination) = submission.fields.get("destination").cloned() else {
            return false;
        };
        let amount = submission
            .fields
            .get("amount")
            .and_then(|a| a.parse::<u64>().ok())
            .unwrap_or(0);
        let Some(balance) = self.balances.get_mut(&user) else {
            return false;
        };
        if amount == 0 || amount > *balance {
            return false;
        }
        *balance -= amount;
        self.withdrawals.push(Withdrawal {
            user,
            destination,
            amount,
        });
        true
    }

    /// Withdrawals executed so far.
    pub fn withdrawals(&self) -> &[Withdrawal] {
        &self.withdrawals
    }

    /// Balance of a user.
    #[cfg(test)]
    fn balance(&self, user: &str) -> u64 {
        self.balances.get(user).copied().unwrap_or(0)
    }
}

impl Exchange for CryptoExchangeApp {
    fn exchange(&mut self, request: &Request) -> Response {
        if !request.url.host.eq_ignore_ascii_case(&self.host) {
            return Response::not_found();
        }
        match request.url.path.as_str() {
            "/login" | "/wallet" | "/" => Response::ok(Body::text(
                ResourceKind::Html,
                r#"<html><head><script src="/static/trade.js"></script></head><body>exchange</body></html>"#,
            ))
            .with_cache_control("no-store"),
            "/static/trade.js" => Response::ok(Body::text(
                ResourceKind::JavaScript,
                "function initTrading(){/* genuine trading code */}",
            ))
            .with_cache_control("public, max-age=604800")
            .with_etag("\"trade-v2\""),
            _ => Response::not_found(),
        }
    }

    fn name(&self) -> &str {
        &self.host
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(app: &mut CryptoExchangeApp) -> String {
        let (mut dom, form) = app.login_dom();
        let account = dom.by_name("account").unwrap().id;
        let password = dom.by_name("password").unwrap().id;
        dom.set_attr(account, "value", "alice");
        dom.set_attr(password, "value", "to-the-moon");
        let submission = dom.submit_form(form).unwrap();
        app.login(&submission).unwrap()
    }

    #[test]
    fn wallet_dom_shows_balance_and_deposit_address() {
        let mut app = CryptoExchangeApp::default();
        let token = session(&mut app);
        let (dom, _) = app.wallet_dom(&token).unwrap();
        let text = dom.visible_text();
        assert!(text.contains("5000000 sats"));
        assert!(text.contains("bc1qalice"));
    }

    #[test]
    fn withdrawal_executes_the_submitted_destination() {
        let mut app = CryptoExchangeApp::default();
        let token = session(&mut app);
        let (mut dom, form) = app.wallet_dom(&token).unwrap();
        let destination = dom.by_name("destination").unwrap().id;
        let amount = dom.by_name("amount").unwrap().id;
        dom.set_attr(destination, "value", "bc1qlegitimatefriend00000000000000000");
        dom.set_attr(amount, "value", "100000");
        let submission = dom.submit_form(form).unwrap();
        assert!(app.submit_withdrawal(&token, &submission));
        assert_eq!(app.withdrawals()[0].destination, "bc1qlegitimatefriend00000000000000000");
        assert_eq!(app.balance("alice"), 4_900_000);
    }

    #[test]
    fn invalid_withdrawals_are_rejected() {
        let mut app = CryptoExchangeApp::default();
        let token = session(&mut app);
        let (mut dom, form) = app.wallet_dom(&token).unwrap();
        let destination = dom.by_name("destination").unwrap().id;
        let amount = dom.by_name("amount").unwrap().id;
        dom.set_attr(destination, "value", "bc1qdest");
        dom.set_attr(amount, "value", "999999999999");
        let too_much = dom.submit_form(form).unwrap();
        assert!(!app.submit_withdrawal(&token, &too_much));
        dom.set_attr(amount, "value", "100");
        let ok = dom.submit_form(form).unwrap();
        assert!(!app.submit_withdrawal("bad-session", &ok));
    }

    #[test]
    fn login_requires_correct_password() {
        let mut app = CryptoExchangeApp::default();
        let (mut dom, form) = app.login_dom();
        let account = dom.by_name("account").unwrap().id;
        let password = dom.by_name("password").unwrap().id;
        dom.set_attr(account, "value", "alice");
        dom.set_attr(password, "value", "to-the-sun");
        let submission = dom.submit_form(form).unwrap();
        assert!(app.login(&submission).is_none());
    }

    #[test]
    fn http_surface_serves_persistent_script() {
        let mut app = CryptoExchangeApp::default();
        let script = app.exchange(&Request::get(app.script_url()));
        assert_eq!(script.body.kind, ResourceKind::JavaScript);
        assert!(script.headers.get("cache-control").unwrap().contains("604800"));
    }
}
