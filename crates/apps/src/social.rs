//! Simulated social-network / chat application.
//!
//! Target of the Table V "Send Phishing" row (WhatsApp-Web-style chat with
//! harvestable contacts and message history) and of the login-theft module.

use mp_browser::dom::{Dom, ElementId, FormSubmission};
use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::message::{Request, Response};
use mp_httpsim::transport::Exchange;
use mp_httpsim::url::{Scheme, Url};
use std::collections::HashMap;

/// A chat message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChatMessage {
    /// Sender handle.
    pub from: String,
    /// Recipient handle.
    pub to: String,
    /// Message text.
    pub text: String,
}

/// The social/chat application.
#[derive(Debug, Clone, PartialEq)]
pub struct SocialApp {
    /// Host the application is served from.
    pub host: String,
    passwords: HashMap<String, String>,
    friends: HashMap<String, Vec<String>>,
    messages: Vec<ChatMessage>,
    sessions: HashMap<String, String>,
    next_session: u64,
}

impl Default for SocialApp {
    fn default() -> Self {
        Self::new("social.example")
    }
}

impl SocialApp {
    /// Creates the application with a demo user `alice` and her friends.
    pub fn new(host: impl Into<String>) -> Self {
        let mut passwords = HashMap::new();
        passwords.insert("alice".to_string(), "social-pass".to_string());
        let mut friends = HashMap::new();
        friends.insert(
            "alice".to_string(),
            vec!["bob".to_string(), "carol".to_string(), "dave".to_string()],
        );
        SocialApp {
            host: host.into(),
            passwords,
            friends,
            messages: vec![ChatMessage {
                from: "bob".into(),
                to: "alice".into(),
                text: "did you transfer the rent yet?".into(),
            }],
            sessions: HashMap::new(),
            next_session: 1,
        }
    }

    /// Login page URL.
    pub fn login_url(&self) -> Url {
        Url::from_parts(Scheme::Https, self.host.clone(), "/login")
    }

    /// URL of the persistent application script (infection target).
    pub fn script_url(&self) -> Url {
        Url::from_parts(Scheme::Https, self.host.clone(), "/static/social.js")
    }

    /// Builds the login form DOM.
    pub fn login_dom(&self) -> (Dom, ElementId) {
        let mut dom = Dom::new(self.login_url());
        let form = dom.add_markup_element("form", &[("action", "/do-login"), ("id", "social-login")], "");
        dom.add_input(form, "handle", "text", "");
        dom.add_input(form, "password", "password", "");
        (dom, form)
    }

    /// Processes a login submission.
    pub fn login(&mut self, submission: &FormSubmission) -> Option<String> {
        let handle = submission.fields.get("handle")?;
        let password = submission.fields.get("password")?;
        if self.passwords.get(handle)? != password {
            return None;
        }
        let token = format!("social-session-{}", self.next_session);
        self.next_session += 1;
        self.sessions.insert(token.clone(), handle.clone());
        Some(token)
    }

    /// Builds the chat page DOM: visible message history plus the contact list.
    #[cfg(test)]
    fn chat_dom(&self, session: &str) -> Option<Dom> {
        let user = self.sessions.get(session)?;
        let mut dom = Dom::new(Url::from_parts(Scheme::Https, self.host.clone(), "/chat"));
        for message in self.messages.iter().filter(|m| &m.to == user || &m.from == user) {
            dom.add_markup_element(
                "div",
                &[("class", "message")],
                &format!("{} -> {}: {}", message.from, message.to, message.text),
            );
        }
        for friend in self.friends.get(user).cloned().unwrap_or_default() {
            dom.add_markup_element("span", &[("class", "contact")], &friend);
        }
        Some(dom)
    }

    /// Sends a chat message from the logged-in user.
    #[cfg(test)]
    fn send_message(&mut self, session: &str, to: &str, text: &str) -> bool {
        let Some(from) = self.sessions.get(session).cloned() else {
            return false;
        };
        self.messages.push(ChatMessage {
            from,
            to: to.to_string(),
            text: text.to_string(),
        });
        true
    }

    /// Friends of the logged-in user.
    #[cfg(test)]
    fn friends_of(&self, session: &str) -> Vec<String> {
        self.sessions
            .get(session)
            .and_then(|u| self.friends.get(u))
            .cloned()
            .unwrap_or_default()
    }

    /// All messages (for experiment assertions).
    pub fn messages(&self) -> &[ChatMessage] {
        &self.messages
    }
}

impl Exchange for SocialApp {
    fn exchange(&mut self, request: &Request) -> Response {
        if !request.url.host.eq_ignore_ascii_case(&self.host) {
            return Response::not_found();
        }
        match request.url.path.as_str() {
            "/login" | "/chat" | "/" => Response::ok(Body::text(
                ResourceKind::Html,
                r#"<html><head><script src="/static/social.js"></script></head><body>social</body></html>"#,
            ))
            .with_cache_control("no-store"),
            "/static/social.js" => Response::ok(Body::text(
                ResourceKind::JavaScript,
                "function initSocial(){/* genuine social code */}",
            ))
            .with_cache_control("public, max-age=604800")
            .with_etag("\"social-v9\""),
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

    fn session(app: &mut SocialApp) -> String {
        let (mut dom, form) = app.login_dom();
        let handle = dom.by_name("handle").unwrap().id;
        let password = dom.by_name("password").unwrap().id;
        dom.set_attr(handle, "value", "alice");
        dom.set_attr(password, "value", "social-pass");
        let submission = dom.submit_form(form).unwrap();
        app.login(&submission).unwrap()
    }

    #[test]
    fn chat_dom_exposes_history_and_contacts() {
        let mut app = SocialApp::default();
        let token = session(&mut app);
        let dom = app.chat_dom(&token).unwrap();
        let text = dom.visible_text();
        assert!(text.contains("rent"));
        assert!(text.contains("carol"));
        assert!(app.chat_dom("nope").is_none());
    }

    #[test]
    fn sending_messages_requires_a_session() {
        let mut app = SocialApp::default();
        let token = session(&mut app);
        assert!(app.send_message(&token, "bob", "hey bob"));
        assert!(!app.send_message("invalid", "bob", "hey"));
        assert_eq!(app.messages().len(), 2);
        assert_eq!(app.messages().last().unwrap().from, "alice");
    }

    #[test]
    fn friends_list_is_harvestable() {
        let mut app = SocialApp::default();
        let token = session(&mut app);
        assert_eq!(app.friends_of(&token), vec!["bob", "carol", "dave"]);
    }

    #[test]
    fn bad_credentials_rejected() {
        let mut app = SocialApp::default();
        let (mut dom, form) = app.login_dom();
        let handle = dom.by_name("handle").unwrap().id;
        dom.set_attr(handle, "value", "alice");
        let submission = dom.submit_form(form).unwrap();
        assert!(app.login(&submission).is_none());
    }

    #[test]
    fn http_surface_serves_persistent_script() {
        let mut app = SocialApp::default();
        let script = app.exchange(&Request::get(app.script_url()));
        assert_eq!(script.body.kind, ResourceKind::JavaScript);
    }
}
