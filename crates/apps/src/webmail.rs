//! Simulated web-mail application.
//!
//! Target of the Table V attacks "Steal Login Data" (Gmail-style login),
//! "Website Data" (reading email text from the DOM) and "Send Phishing"
//! (harvesting contacts and sending personalised mail from the victim's own
//! account while a tab is open).

use mp_browser::dom::{Dom, ElementId, FormSubmission};
use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::message::{Request, Response};
use mp_httpsim::transport::Exchange;
use mp_httpsim::url::{Scheme, Url};
use std::collections::HashMap;

/// An email message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Email {
    /// Sender address.
    pub from: String,
    /// Recipient address.
    pub to: String,
    /// Subject line.
    pub subject: String,
    /// Body text.
    pub body: String,
}

/// One user's mailbox.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Mailbox {
    /// Received messages.
    pub inbox: Vec<Email>,
    /// Sent messages.
    pub sent: Vec<Email>,
    /// Address book.
    pub contacts: Vec<String>,
}

/// The web-mail application.
#[derive(Debug, Clone, PartialEq)]
pub struct WebMailApp {
    /// Host the application is served from.
    pub host: String,
    passwords: HashMap<String, String>,
    mailboxes: HashMap<String, Mailbox>,
    sessions: HashMap<String, String>,
    next_session: u64,
}

impl Default for WebMailApp {
    fn default() -> Self {
        Self::new("mail.example")
    }
}

impl WebMailApp {
    /// Creates the application with one demo user (`alice@mail.example`).
    pub fn new(host: impl Into<String>) -> Self {
        let mut passwords = HashMap::new();
        passwords.insert("alice@mail.example".to_string(), "mail-pass-123".to_string());
        let mut mailboxes = HashMap::new();
        mailboxes.insert(
            "alice@mail.example".to_string(),
            Mailbox {
                inbox: vec![
                    Email {
                        from: "bob@corp.example".into(),
                        to: "alice@mail.example".into(),
                        subject: "Q3 invoice".into(),
                        body: "Hi Alice, the invoice total is 18,400 EUR, account FR76 3000 6000 0112 3456 7890 189.".into(),
                    },
                    Email {
                        from: "carol@friends.example".into(),
                        to: "alice@mail.example".into(),
                        subject: "weekend".into(),
                        body: "See you Saturday at the lake!".into(),
                    },
                ],
                sent: Vec::new(),
                contacts: vec![
                    "bob@corp.example".into(),
                    "carol@friends.example".into(),
                    "dave@partners.example".into(),
                ],
            },
        );
        WebMailApp {
            host: host.into(),
            passwords,
            mailboxes,
            sessions: HashMap::new(),
            next_session: 1,
        }
    }

    /// Login page URL.
    pub fn login_url(&self) -> Url {
        Url::from_parts(Scheme::Https, self.host.clone(), "/login")
    }

    /// URL of the persistent mail script (infection target).
    pub fn script_url(&self) -> Url {
        Url::from_parts(Scheme::Https, self.host.clone(), "/static/mail.js")
    }

    /// Builds the login form DOM.
    pub fn login_dom(&self) -> (Dom, ElementId) {
        let mut dom = Dom::new(self.login_url());
        let form = dom.add_markup_element("form", &[("action", "/do-login"), ("id", "mail-login")], "");
        dom.add_input(form, "email", "text", "");
        dom.add_input(form, "password", "password", "");
        (dom, form)
    }

    /// Processes a login submission.
    pub fn login(&mut self, submission: &FormSubmission) -> Option<String> {
        let email = submission.fields.get("email")?;
        let password = submission.fields.get("password")?;
        if self.passwords.get(email)? != password {
            return None;
        }
        let token = format!("mail-session-{}", self.next_session);
        self.next_session += 1;
        self.sessions.insert(token.clone(), email.clone());
        Some(token)
    }

    /// Builds the inbox DOM for a session: the email text is part of the DOM,
    /// which is exactly what the parasite reads.
    pub fn inbox_dom(&self, session: &str) -> Option<Dom> {
        let user = self.sessions.get(session)?;
        let mailbox = self.mailboxes.get(user)?;
        let mut dom = Dom::new(Url::from_parts(Scheme::Https, self.host.clone(), "/inbox"));
        for (i, mail) in mailbox.inbox.iter().enumerate() {
            dom.add_markup_element(
                "div",
                &[("class", "email"), ("id", &format!("mail-{i}"))],
                &format!("From: {} | Subject: {} | {}", mail.from, mail.subject, mail.body),
            );
        }
        for contact in &mailbox.contacts {
            dom.add_markup_element("span", &[("class", "contact")], contact);
        }
        Some(dom)
    }

    /// Sends an email from the logged-in user's account (what the compose
    /// button does — and what the phishing module drives programmatically).
    pub fn send_email(&mut self, session: &str, to: &str, subject: &str, body: &str) -> bool {
        let Some(user) = self.sessions.get(session).cloned() else {
            return false;
        };
        let mail = Email {
            from: user.clone(),
            to: to.to_string(),
            subject: subject.to_string(),
            body: body.to_string(),
        };
        if let Some(mailbox) = self.mailboxes.get_mut(&user) {
            mailbox.sent.push(mail.clone());
        }
        // Deliver locally if the recipient is hosted here.
        if let Some(inbox) = self.mailboxes.get_mut(to) {
            inbox.inbox.push(mail);
        }
        true
    }

    /// The mailbox of a user (for experiment assertions).
    pub fn mailbox(&self, user: &str) -> Option<&Mailbox> {
        self.mailboxes.get(user)
    }

    /// Contacts of the logged-in user.
    pub fn contacts(&self, session: &str) -> Vec<String> {
        self.sessions
            .get(session)
            .and_then(|u| self.mailboxes.get(u))
            .map(|m| m.contacts.clone())
            .unwrap_or_default()
    }
}

impl Exchange for WebMailApp {
    fn exchange(&mut self, request: &Request) -> Response {
        if !request.url.host.eq_ignore_ascii_case(&self.host) {
            return Response::not_found();
        }
        match request.url.path.as_str() {
            "/login" | "/inbox" | "/" => Response::ok(Body::text(
                ResourceKind::Html,
                r#"<html><head><script src="/static/mail.js"></script></head><body>webmail</body></html>"#,
            ))
            .with_cache_control("no-store"),
            "/static/mail.js" => Response::ok(Body::text(
                ResourceKind::JavaScript,
                "function initMail(){/* genuine mail code */}",
            ))
            .with_cache_control("public, max-age=604800")
            .with_etag("\"mail-v4\""),
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

    fn session(app: &mut WebMailApp) -> String {
        let (mut dom, form) = app.login_dom();
        let email = dom.by_name("email").unwrap().id;
        let password = dom.by_name("password").unwrap().id;
        dom.set_attr(email, "value", "alice@mail.example");
        dom.set_attr(password, "value", "mail-pass-123");
        let submission = dom.submit_form(form).unwrap();
        app.login(&submission).unwrap()
    }

    #[test]
    fn login_and_read_inbox_from_dom() {
        let mut app = WebMailApp::default();
        let session = session(&mut app);
        let dom = app.inbox_dom(&session).unwrap();
        let text = dom.visible_text();
        assert!(text.contains("Q3 invoice"));
        assert!(text.contains("FR76 3000 6000 0112 3456 7890 189"));
        assert!(text.contains("dave@partners.example"));
        assert!(app.inbox_dom("bad-session").is_none());
    }

    #[test]
    fn wrong_password_is_rejected() {
        let mut app = WebMailApp::default();
        let (mut dom, form) = app.login_dom();
        let email = dom.by_name("email").unwrap().id;
        let password = dom.by_name("password").unwrap().id;
        dom.set_attr(email, "value", "alice@mail.example");
        dom.set_attr(password, "value", "guess");
        let submission = dom.submit_form(form).unwrap();
        assert!(app.login(&submission).is_none());
    }

    #[test]
    fn sending_email_records_it_in_sent_folder() {
        let mut app = WebMailApp::default();
        let token = session(&mut app);
        assert!(app.send_email(&token, "bob@corp.example", "hello", "hi bob"));
        let mailbox = app.mailbox("alice@mail.example").unwrap();
        assert_eq!(mailbox.sent.len(), 1);
        assert_eq!(mailbox.sent[0].to, "bob@corp.example");
        assert!(!app.send_email("invalid", "x@y", "s", "b"));
    }

    #[test]
    fn contacts_are_listed_for_valid_sessions_only() {
        let mut app = WebMailApp::default();
        let token = session(&mut app);
        assert_eq!(app.contacts(&token).len(), 3);
        assert!(app.contacts("nope").is_empty());
    }

    #[test]
    fn http_surface_serves_persistent_script() {
        let mut app = WebMailApp::default();
        let script = app.exchange(&Request::get(app.script_url()));
        assert_eq!(script.body.kind, ResourceKind::JavaScript);
        assert!(script.headers.get("etag").is_some());
    }
}
