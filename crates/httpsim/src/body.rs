//! Resource kinds and message bodies.

use std::fmt;

/// The kind of web resource a response carries.
///
/// The parasite only infects HTML and JavaScript (paper §VI-A); images —
/// especially SVG — matter because the C&C downstream channel encodes data in
/// image dimensions (§VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResourceKind {
    /// An HTML document.
    Html,
    /// A JavaScript file.
    JavaScript,
    /// A CSS stylesheet.
    Css,
    /// A raster image (PNG/JPEG/GIF).
    Image,
    /// An SVG image — its intrinsic width/height carry C&C payload bits.
    Svg,
    /// Anything else (fonts, JSON, binary downloads, ...).
    #[default]
    Other,
}

impl ResourceKind {
    /// Returns the kind implied by a `Content-Type` value.
    pub fn from_content_type(value: &str) -> Self {
        let value = value.to_ascii_lowercase();
        let mime = value.split(';').next().unwrap_or("").trim();
        match mime {
            "text/html" | "application/xhtml+xml" => ResourceKind::Html,
            "text/javascript" | "application/javascript" | "application/x-javascript" => {
                ResourceKind::JavaScript
            }
            "text/css" => ResourceKind::Css,
            "image/svg+xml" => ResourceKind::Svg,
            m if m.starts_with("image/") => ResourceKind::Image,
            _ => ResourceKind::Other,
        }
    }

    /// Canonical `Content-Type` value for this kind.
    pub fn content_type(self) -> &'static str {
        match self {
            ResourceKind::Html => "text/html",
            ResourceKind::JavaScript => "text/javascript",
            ResourceKind::Css => "text/css",
            ResourceKind::Image => "image/png",
            ResourceKind::Svg => "image/svg+xml",
            ResourceKind::Other => "application/octet-stream",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ResourceKind::Html => "html",
            ResourceKind::JavaScript => "javascript",
            ResourceKind::Css => "css",
            ResourceKind::Image => "image",
            ResourceKind::Svg => "svg",
            ResourceKind::Other => "other",
        };
        f.write_str(name)
    }
}

/// A message body: raw bytes plus the resource kind they represent.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Body {
    /// The payload bytes.
    pub bytes: Vec<u8>,
    /// What the payload is.
    pub kind: ResourceKind,
}

impl Body {
    /// Creates an empty body.
    pub fn empty() -> Self {
        Body {
            bytes: Vec::new(),
            kind: ResourceKind::Other,
        }
    }

    /// Creates a body from text content of a given kind.
    pub fn text(kind: ResourceKind, content: impl Into<String>) -> Self {
        Body {
            bytes: content.into().into_bytes(),
            kind,
        }
    }

    /// Creates a binary body.
    pub fn binary(kind: ResourceKind, bytes: impl Into<Vec<u8>>) -> Self {
        Body {
            bytes: bytes.into(),
            kind,
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` if the body has no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Returns the body as UTF-8 text (lossy).
    pub fn as_text(&self) -> String {
        String::from_utf8_lossy(&self.bytes).into_owned()
    }

    /// A cheap, stable content digest used for the persistency measurement
    /// (Figure 3 tracks objects by content hash) and for Subresource
    /// Integrity checks. FNV-1a, 64 bit.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.bytes)
    }
}

/// FNV-1a 64-bit hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_type_detection() {
        assert_eq!(
            ResourceKind::from_content_type("text/javascript; charset=utf-8"),
            ResourceKind::JavaScript
        );
        assert_eq!(ResourceKind::from_content_type("TEXT/HTML"), ResourceKind::Html);
        assert_eq!(ResourceKind::from_content_type("image/svg+xml"), ResourceKind::Svg);
        assert_eq!(ResourceKind::from_content_type("image/png"), ResourceKind::Image);
        assert_eq!(ResourceKind::from_content_type("font/woff2"), ResourceKind::Other);
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = Body::text(ResourceKind::JavaScript, "var x = 1;");
        let b = Body::text(ResourceKind::JavaScript, "var x = 1;");
        let c = Body::text(ResourceKind::JavaScript, "var x = 2;");
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn text_round_trip() {
        let body = Body::text(ResourceKind::Html, "<html></html>");
        assert_eq!(body.as_text(), "<html></html>");
        assert_eq!(body.len(), 13);
        assert!(!body.is_empty());
        assert!(Body::empty().is_empty());
    }
}
