//! Pages and HTML subresource extraction.
//!
//! The browser does not need a full HTML parser: the attack only cares about
//! which subresources a page pulls in (`<script src>`, `<img src>`,
//! `<iframe src>`, stylesheets), what inline scripts it carries (the
//! attacker's cache-eviction payload is one), and any `integrity` attributes
//! (the SRI countermeasure). A small scanner extracts exactly that.

use crate::dom::Dom;
use mp_httpsim::sri::IntegrityDigest;
use mp_httpsim::url::Url;

/// A reference from a document to a subresource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubresourceRef {
    /// Absolute URL of the subresource.
    pub url: Url,
    /// What kind of element referenced it.
    pub kind: SubresourceKind,
    /// Integrity metadata, if the referencing tag carried any.
    pub integrity: Option<IntegrityDigest>,
}

/// The referencing element kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubresourceKind {
    /// `<script src=...>`.
    Script,
    /// `<img src=...>`.
    Image,
    /// `<iframe src=...>`.
    Frame,
    /// `<link rel="stylesheet" href=...>`.
    Stylesheet,
}

/// A script that ended up executing in the page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedScript {
    /// Source URL (`None` for inline scripts).
    pub url: Option<Url>,
    /// The script body text.
    pub body: String,
    /// Whether the body was served from the browser cache.
    pub from_cache: bool,
}

#[cfg(test)]
impl LoadedScript {
    /// Returns `true` if the script body contains `marker`.
    fn contains_marker(&self, marker: &str) -> bool {
        self.body.contains(marker)
    }
}

/// The result of loading one document and its subresources.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// Document URL (after any HSTS upgrade).
    pub url: Url,
    /// The document's DOM (populated by the application layer).
    pub dom: Dom,
    /// Raw HTML of the main document.
    pub html: String,
    /// Scripts that executed, in order.
    pub scripts: Vec<LoadedScript>,
    /// Frames loaded into the page (one level deep).
    pub frames: Vec<Url>,
}

impl Page {
    /// Creates an empty page for `url`.
    pub fn new(url: Url) -> Self {
        Page {
            dom: Dom::new(url.clone()),
            url,
            html: String::new(),
            scripts: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Returns `true` if any executed script contains `marker`.
    #[cfg(test)]
    fn executed_marker(&self, marker: &str) -> bool {
        self.scripts.iter().any(|s| s.contains_marker(marker))
    }
}

/// Resolves a possibly relative reference against a base document URL.
pub fn resolve(base: &Url, reference: &str) -> Option<Url> {
    let reference = reference.trim();
    if reference.is_empty() {
        return None;
    }
    if reference.starts_with("http://") || reference.starts_with("https://") {
        return Url::parse(reference).ok();
    }
    if let Some(rest) = reference.strip_prefix("//") {
        return Url::parse(&format!("{}://{}", base.scheme.as_str(), rest)).ok();
    }
    let path = if reference.starts_with('/') {
        reference.to_string()
    } else {
        // Resolve relative to the base path's directory.
        let dir = match base.path.rfind('/') {
            Some(idx) => &base.path[..=idx],
            None => "/",
        };
        format!("{dir}{reference}")
    };
    let mut url = base.clone();
    match path.split_once('?') {
        Some((p, q)) => {
            url.path = p.to_string();
            url.query = Some(q.to_string());
        }
        None => {
            url.path = path;
            url.query = None;
        }
    }
    Some(url)
}

/// Extracts subresource references from an HTML document.
pub fn extract_subresources(html: &str, base: &Url) -> Vec<SubresourceRef> {
    let mut refs = Vec::new();
    for (tag, kind, attr) in [
        ("script", SubresourceKind::Script, "src"),
        ("img", SubresourceKind::Image, "src"),
        ("iframe", SubresourceKind::Frame, "src"),
        ("link", SubresourceKind::Stylesheet, "href"),
    ] {
        for tag_text in find_tags(html, tag) {
            if tag == "link" && !tag_text.to_ascii_lowercase().contains("stylesheet") {
                continue;
            }
            let Some(reference) = attr_value(&tag_text, attr) else {
                continue;
            };
            let Some(url) = resolve(base, &reference) else {
                continue;
            };
            let integrity = attr_value(&tag_text, "integrity").and_then(|v| IntegrityDigest::parse(&v));
            refs.push(SubresourceRef { url, kind, integrity });
        }
    }
    refs
}

/// Extracts the bodies of inline `<script>` elements (those without `src`).
pub fn extract_inline_scripts(html: &str) -> Vec<String> {
    let mut scripts = Vec::new();
    let lower = html.to_ascii_lowercase();
    let mut cursor = 0;
    while let Some(start) = lower[cursor..].find("<script") {
        let tag_start = cursor + start;
        let Some(tag_end_rel) = lower[tag_start..].find('>') else { break };
        let tag_end = tag_start + tag_end_rel + 1;
        let tag_text = &html[tag_start..tag_end];
        let Some(close_rel) = lower[tag_end..].find("</script>") else { break };
        let close = tag_end + close_rel;
        if attr_value(tag_text, "src").is_none() {
            let body = html[tag_end..close].trim();
            if !body.is_empty() {
                scripts.push(body.to_string());
            }
        }
        cursor = close + "</script>".len();
    }
    scripts
}

/// Finds the full text of each `<tag ...>` opening tag.
fn find_tags(html: &str, tag: &str) -> Vec<String> {
    let lower = html.to_ascii_lowercase();
    let needle = format!("<{tag}");
    let mut found = Vec::new();
    let mut cursor = 0;
    while let Some(pos) = lower[cursor..].find(&needle) {
        let start = cursor + pos;
        // Must be followed by whitespace or '>' so `<script>` does not match `<scripted>`.
        let after = lower.as_bytes().get(start + needle.len()).copied();
        if !matches!(after, Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'>') | Some(b'/')) {
            cursor = start + needle.len();
            continue;
        }
        match lower[start..].find('>') {
            Some(end_rel) => {
                found.push(html[start..start + end_rel + 1].to_string());
                cursor = start + end_rel + 1;
            }
            None => break,
        }
    }
    found
}

/// Extracts an attribute value from an opening-tag string.
fn attr_value(tag_text: &str, attr: &str) -> Option<String> {
    let lower = tag_text.to_ascii_lowercase();
    let needle = format!("{attr}=");
    let mut search_from = 0;
    loop {
        let pos = lower[search_from..].find(&needle)? + search_from;
        // Ensure we matched a whole attribute name (preceded by whitespace or quote).
        if pos > 0 {
            let before = lower.as_bytes()[pos - 1];
            if !(before as char).is_ascii_whitespace() {
                search_from = pos + needle.len();
                continue;
            }
        }
        let value_start = pos + needle.len();
        let rest = &tag_text[value_start..];
        let value = if let Some(stripped) = rest.strip_prefix('"') {
            stripped.split('"').next().unwrap_or("")
        } else if let Some(stripped) = rest.strip_prefix('\'') {
            stripped.split('\'').next().unwrap_or("")
        } else {
            rest.split(|c: char| c.is_ascii_whitespace() || c == '>').next().unwrap_or("")
        };
        return Some(value.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Url {
        Url::parse("http://somesite.com/news/index.html").unwrap()
    }

    #[test]
    fn extracts_scripts_images_iframes_and_stylesheets() {
        let html = r#"<html><head>
            <link rel="stylesheet" href="/style.css">
            <script src="/my.js"></script>
            <script src="https://analytics.example/ga.js"></script>
        </head><body>
            <img src="logo.png">
            <iframe src="https://ads.example/frame.html"></iframe>
        </body></html>"#;
        let refs = extract_subresources(html, &base());
        assert_eq!(refs.len(), 5);
        let scripts: Vec<_> = refs.iter().filter(|r| r.kind == SubresourceKind::Script).collect();
        assert_eq!(scripts.len(), 2);
        assert_eq!(scripts[0].url.to_string(), "http://somesite.com/my.js");
        assert_eq!(scripts[1].url.to_string(), "https://analytics.example/ga.js");
        let image = refs.iter().find(|r| r.kind == SubresourceKind::Image).unwrap();
        assert_eq!(image.url.to_string(), "http://somesite.com/news/logo.png");
        let frame = refs.iter().find(|r| r.kind == SubresourceKind::Frame).unwrap();
        assert_eq!(frame.url.host, "ads.example");
    }

    #[test]
    fn integrity_attributes_are_parsed() {
        let digest = IntegrityDigest::of_bytes(b"function init(){}");
        let html = format!(r#"<script src="/app.js" integrity="{digest}"></script>"#);
        let refs = extract_subresources(&html, &base());
        assert_eq!(refs[0].integrity, Some(digest));
        // Unknown formats are ignored rather than failing the load model.
        let html = r#"<script src="/app.js" integrity="sha384-zzz"></script>"#;
        assert_eq!(extract_subresources(html, &base())[0].integrity, None);
    }

    #[test]
    fn inline_scripts_are_extracted_but_external_ones_are_not() {
        let html = r#"
            <script>var junk = loadJunkImages(64);</script>
            <script src="/real.js"></script>
            <script type="text/javascript">trackPageview();</script>
        "#;
        let inline = extract_inline_scripts(html);
        assert_eq!(inline.len(), 2);
        assert!(inline[0].contains("loadJunkImages"));
        assert!(inline[1].contains("trackPageview"));
    }

    #[test]
    fn relative_reference_resolution() {
        let b = base();
        assert_eq!(resolve(&b, "/app.js").unwrap().to_string(), "http://somesite.com/app.js");
        assert_eq!(resolve(&b, "lib/util.js").unwrap().to_string(), "http://somesite.com/news/lib/util.js");
        assert_eq!(resolve(&b, "//cdn.example/x.js").unwrap().to_string(), "http://cdn.example/x.js");
        assert_eq!(resolve(&b, "https://x.example/y.js").unwrap().scheme, mp_httpsim::url::Scheme::Https);
        assert_eq!(resolve(&b, "app.js?v=2").unwrap().query.as_deref(), Some("v=2"));
        assert!(resolve(&b, "").is_none());
    }

    #[test]
    fn unquoted_and_single_quoted_attributes_work() {
        let html = "<img src=pixel.png><script src='/a.js'></script>";
        let refs = extract_subresources(html, &base());
        assert_eq!(refs.len(), 2);
        assert!(refs.iter().any(|r| r.url.path.ends_with("pixel.png")));
        assert!(refs.iter().any(|r| r.url.path == "/a.js"));
    }

    #[test]
    fn non_stylesheet_links_are_ignored() {
        let html = r#"<link rel="icon" href="/favicon.ico"><link rel="stylesheet" href="/s.css">"#;
        let refs = extract_subresources(html, &base());
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].url.path, "/s.css");
    }

    #[test]
    fn page_marker_detection() {
        let mut page = Page::new(base());
        page.scripts.push(LoadedScript {
            url: Some(Url::parse("http://somesite.com/my.js").unwrap()),
            body: "original();/*PARASITE*/connectCnc();".into(),
            from_cache: true,
        });
        assert!(page.executed_marker("PARASITE"));
        assert!(!page.executed_marker("NOT_THERE"));
    }
}
