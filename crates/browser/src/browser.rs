//! The browser: fetch pipeline, page loads and user-visible actions.
//!
//! [`Browser`] wires the cache, Cache API, cookie jar, HSTS store and local
//! storage behind a fetch pipeline that talks to an [`Exchange`] transport.
//! Swapping the transport models the victim moving between networks (the
//! public WiFi where the infection happens, then the home network where the
//! parasite keeps operating), which is one of the persistence claims of the
//! paper.

use crate::cache::{CacheLookup, HttpCache};
use crate::cache_api::CacheApiStorage;
use crate::page::{self, LoadedScript, Page, SubresourceKind};
use crate::profile::BrowserProfile;
use crate::storage::OriginStorage;
use mp_httpsim::body::ResourceKind;
use mp_httpsim::caching::CachePolicy;
use mp_httpsim::cookies::CookieJar;
use mp_httpsim::csp::{ContentSecurityPolicy, Directive};
use mp_httpsim::headers::names;
use mp_httpsim::hsts::{HstsPolicy, HstsStore};
use mp_httpsim::message::{Request, Response, StatusCode};
use mp_httpsim::sri::{self, SriOutcome};
use mp_httpsim::transport::Exchange;
use mp_httpsim::url::{Scheme, Url};

/// Where the bytes of a fetch came from (or why it was blocked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchSource {
    /// Served fresh from the HTTP cache without any network traffic.
    HttpCache,
    /// Served from the script-controlled Cache API storage.
    CacheApi,
    /// A conditional request was answered `304 Not Modified`; the cached copy
    /// was reused.
    Revalidated,
    /// Full download from the network.
    Network,
    /// Blocked by the page's Content Security Policy.
    BlockedByCsp,
    /// Blocked because Subresource Integrity verification failed.
    BlockedBySri,
}

impl FetchSource {
    /// Returns `true` if the fetch generated a request on the network
    /// (which is when the eavesdropping master gets an injection opportunity).
    pub fn touched_network(self) -> bool {
        matches!(self, FetchSource::Network | FetchSource::Revalidated)
    }
}

/// One entry of the browser's fetch log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchRecord {
    /// The URL that was requested (after HSTS upgrading).
    pub url: Url,
    /// Where the response came from.
    pub source: FetchSource,
    /// Status of the response that was ultimately used.
    pub status: StatusCode,
}

/// Result of a single resource fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResult {
    /// The response the page sees.
    pub response: Response,
    /// Where it came from.
    pub source: FetchSource,
    /// The URL actually used (scheme may have been upgraded by HSTS).
    pub final_url: Url,
}

/// Result of a full page load.
#[derive(Debug, Clone, PartialEq)]
pub struct PageLoad {
    /// The loaded page.
    pub page: Page,
    /// Per-resource fetch records, in fetch order (main document first).
    pub records: Vec<FetchRecord>,
    /// The content security policy delivered with the main document, if any.
    pub csp: Option<ContentSecurityPolicy>,
}

impl PageLoad {
    /// Returns the fetch record for `url`, if the page requested it.
    pub fn record_for(&self, url: &Url) -> Option<&FetchRecord> {
        self.records.iter().find(|r| &r.url == url)
    }
}

/// A simulated browser instance.
pub struct Browser {
    profile: BrowserProfile,
    cache: HttpCache,
    cache_api: CacheApiStorage,
    cookies: CookieJar,
    hsts: HstsStore,
    storage: OriginStorage,
    transport: Box<dyn Exchange>,
    now_secs: u64,
    fetch_log: Vec<FetchRecord>,
}

impl std::fmt::Debug for Browser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Browser")
            .field("profile", &self.profile.kind)
            .field("now_secs", &self.now_secs)
            .field("cached_entries", &self.cache.len())
            .field("cookies", &self.cookies.len())
            .finish()
    }
}

impl Browser {
    /// Creates a browser with the given profile, talking to `transport`.
    pub fn new(profile: BrowserProfile, transport: Box<dyn Exchange>) -> Self {
        let cache_api_supported = profile.cache_api_supported;
        Browser {
            cache: HttpCache::new(profile.clone()),
            cache_api: CacheApiStorage::new(cache_api_supported),
            cookies: CookieJar::new(),
            hsts: HstsStore::new(),
            storage: OriginStorage::new(),
            transport,
            now_secs: 0,
            fetch_log: Vec::new(),
            profile,
        }
    }

    /// Creates a browser with an HSTS preload list.
    pub fn with_preload(
        profile: BrowserProfile,
        transport: Box<dyn Exchange>,
        preload: impl IntoIterator<Item = String>,
    ) -> Self {
        let mut browser = Self::new(profile, transport);
        browser.hsts = HstsStore::with_preload(preload);
        browser
    }

    /// The browser's profile.
    pub fn profile(&self) -> &BrowserProfile {
        &self.profile
    }

    /// Current browser clock in seconds.
    pub fn now(&self) -> u64 {
        self.now_secs
    }

    /// Advances the browser clock (time passing between visits).
    pub fn advance_time(&mut self, secs: u64) {
        self.now_secs += secs;
    }

    /// Read access to the HTTP cache.
    pub fn cache(&self) -> &HttpCache {
        &self.cache
    }

    /// Mutable access to the HTTP cache (used by infection code that models a
    /// response having been delivered into the cache).
    pub fn cache_mut(&mut self) -> &mut HttpCache {
        &mut self.cache
    }

    /// Read access to the Cache API storage.
    pub fn cache_api(&self) -> &CacheApiStorage {
        &self.cache_api
    }

    /// Mutable access to the Cache API storage (scripts use this).
    pub fn cache_api_mut(&mut self) -> &mut CacheApiStorage {
        &mut self.cache_api
    }

    /// Read access to the cookie jar.
    pub fn cookies(&self) -> &CookieJar {
        &self.cookies
    }

    /// Mutable access to the cookie jar.
    pub fn cookies_mut(&mut self) -> &mut CookieJar {
        &mut self.cookies
    }

    /// Read access to local storage.
    pub fn storage(&self) -> &OriginStorage {
        &self.storage
    }

    /// Mutable access to local storage.
    pub fn storage_mut(&mut self) -> &mut OriginStorage {
        &mut self.storage
    }

    /// Read access to the HSTS store.
    pub fn hsts(&self) -> &HstsStore {
        &self.hsts
    }

    /// The log of every fetch the browser has performed.
    pub fn fetch_log(&self) -> &[FetchRecord] {
        &self.fetch_log
    }

    /// Replaces the transport — the victim switching from the attacker's WiFi
    /// to a different (clean) network.
    pub fn change_network(&mut self, transport: Box<dyn Exchange>) {
        self.transport = transport;
    }

    /// Applies the HSTS upgrade rule to a URL.
    fn apply_hsts(&self, url: &Url) -> Url {
        if url.scheme == Scheme::Http && self.hsts.must_upgrade(&url.host, self.now_secs) {
            let mut upgraded = url.clone();
            upgraded.scheme = Scheme::Https;
            upgraded.port = Scheme::Https.default_port();
            upgraded
        } else {
            url.clone()
        }
    }

    fn build_request(&self, url: &Url) -> Request {
        let mut request = Request::get(url.clone());
        if let Some(cookie_header) = self.cookies.header_for(url, self.now_secs) {
            request.headers.set(names::COOKIE, cookie_header);
        }
        request
    }

    fn absorb_response_metadata(&mut self, url: &Url, response: &Response) {
        for set_cookie in response.headers.get_all(names::SET_COOKIE) {
            let value = set_cookie.to_string();
            self.cookies.set_from_header(&value, url, self.now_secs);
        }
        if let Some(policy) = HstsPolicy::from_headers(&response.headers) {
            self.hsts
                .observe(&url.host, policy, self.now_secs, url.scheme == Scheme::Https);
        }
    }

    /// Fetches a single resource through the full pipeline.
    pub fn fetch(&mut self, url: &Url, top_level_site: &str) -> FetchResult {
        self.fetch_inner(url, top_level_site, false)
    }

    fn fetch_inner(&mut self, url: &Url, top_level_site: &str, bypass_http_cache: bool) -> FetchResult {
        let url = self.apply_hsts(url);
        let origin = url.origin().to_string();

        // The Cache API acts like a service-worker cache: if a script stored a
        // response for this URL it is served from there, surviving ordinary
        // cache clearing (Table III).
        if let Some(stored) = self.cache_api.get(&origin, &url) {
            let result = FetchResult {
                response: stored.clone(),
                source: FetchSource::CacheApi,
                final_url: url.clone(),
            };
            self.log(&url, FetchSource::CacheApi, result.response.status);
            return result;
        }

        if !bypass_http_cache {
            match self.cache.lookup(&url, top_level_site, self.now_secs) {
                CacheLookup::Fresh(response) => {
                    self.log(&url, FetchSource::HttpCache, response.status);
                    return FetchResult {
                        response,
                        source: FetchSource::HttpCache,
                        final_url: url,
                    };
                }
                CacheLookup::Stale(stored) => {
                    return self.revalidate(&url, top_level_site, stored);
                }
                CacheLookup::Miss => {}
            }
        }

        let request = self.build_request(&url);
        let response = self.transport.exchange(&request);
        self.absorb_response_metadata(&url, &response);
        self.cache.store(&url, top_level_site, response.clone(), self.now_secs);
        self.log(&url, FetchSource::Network, response.status);
        FetchResult {
            response,
            source: FetchSource::Network,
            final_url: url,
        }
    }

    fn revalidate(&mut self, url: &Url, top_level_site: &str, stored: Response) -> FetchResult {
        let policy = CachePolicy::private_cache();
        let base_request = self.build_request(url);
        let request = policy.revalidation_request(&base_request, &stored);
        let response = self.transport.exchange(&request);
        self.absorb_response_metadata(url, &response);
        if response.status == StatusCode::NOT_MODIFIED {
            // Refresh the stored entry's age by re-storing it now.
            self.cache.store(url, top_level_site, stored.clone(), self.now_secs);
            self.log(url, FetchSource::Revalidated, StatusCode::NOT_MODIFIED);
            FetchResult {
                response: stored,
                source: FetchSource::Revalidated,
                final_url: url.clone(),
            }
        } else {
            self.cache.store(url, top_level_site, response.clone(), self.now_secs);
            self.log(url, FetchSource::Network, response.status);
            FetchResult {
                response,
                source: FetchSource::Network,
                final_url: url.clone(),
            }
        }
    }

    fn log(&mut self, url: &Url, source: FetchSource, status: StatusCode) {
        self.fetch_log.push(FetchRecord {
            url: url.clone(),
            source,
            status,
        });
    }

    /// Loads a page: the main document, its inline scripts, and its
    /// subresources (scripts, images, stylesheets, and frames one level deep).
    pub fn visit(&mut self, url: &Url) -> PageLoad {
        self.load_page(url, false)
    }

    /// Reloads a page with Ctrl-F5 semantics: the HTTP cache is bypassed for
    /// every request, the Cache API is not.
    pub fn hard_reload(&mut self, url: &Url) -> PageLoad {
        self.load_page(url, true)
    }

    fn load_page(&mut self, url: &Url, bypass_http_cache: bool) -> PageLoad {
        let mut records = Vec::new();
        let main = self.fetch_inner(url, &url.origin().site(), bypass_http_cache);
        let top_level_site = main.final_url.origin().site();
        records.push(FetchRecord {
            url: main.final_url.clone(),
            source: main.source,
            status: main.response.status,
        });

        let mut page = Page::new(main.final_url.clone());
        page.html = main.response.body.as_text();
        let csp = ContentSecurityPolicy::from_headers(&main.response.headers);

        // Inline scripts always execute with the document.
        for body in page::extract_inline_scripts(&page.html) {
            page.scripts.push(LoadedScript {
                url: None,
                body,
                from_cache: main.source == FetchSource::HttpCache || main.source == FetchSource::CacheApi,
            });
        }

        let refs = page::extract_subresources(&page.html, &main.final_url);
        for subresource in refs {
            let directive = match subresource.kind {
                SubresourceKind::Script => Directive::ScriptSrc,
                SubresourceKind::Image => Directive::ImgSrc,
                SubresourceKind::Frame => Directive::FrameSrc,
                SubresourceKind::Stylesheet => Directive::StyleSrc,
            };
            if let Some(policy) = &csp {
                if !policy.allows(directive, &main.final_url, &subresource.url) {
                    records.push(FetchRecord {
                        url: subresource.url.clone(),
                        source: FetchSource::BlockedByCsp,
                        status: StatusCode(0),
                    });
                    continue;
                }
            }

            let result = self.fetch_inner(&subresource.url, &top_level_site, bypass_http_cache);
            match subresource.kind {
                SubresourceKind::Script => {
                    let outcome = sri::check(subresource.integrity.as_ref(), &result.response.body);
                    if outcome == SriOutcome::Blocked {
                        records.push(FetchRecord {
                            url: result.final_url.clone(),
                            source: FetchSource::BlockedBySri,
                            status: result.response.status,
                        });
                        continue;
                    }
                    if result.response.status.is_success() {
                        page.scripts.push(LoadedScript {
                            url: Some(result.final_url.clone()),
                            body: result.response.body.as_text(),
                            from_cache: !result.source.touched_network(),
                        });
                    }
                    records.push(FetchRecord {
                        url: result.final_url.clone(),
                        source: result.source,
                        status: result.response.status,
                    });
                }
                SubresourceKind::Frame => {
                    records.push(FetchRecord {
                        url: result.final_url.clone(),
                        source: result.source,
                        status: result.response.status,
                    });
                    page.frames.push(result.final_url.clone());
                    // Load the framed document's subresources one level deep:
                    // this is the iframe propagation vector (§VI-B1).
                    if result.response.body.kind == ResourceKind::Html
                        || result.response.status.is_success()
                    {
                        let frame_html = result.response.body.as_text();
                        let frame_refs = page::extract_subresources(&frame_html, &result.final_url);
                        let frame_site = result.final_url.origin().site();
                        for frame_ref in frame_refs {
                            let sub = self.fetch_inner(&frame_ref.url, &frame_site, bypass_http_cache);
                            if frame_ref.kind == SubresourceKind::Script && sub.response.status.is_success() {
                                page.scripts.push(LoadedScript {
                                    url: Some(sub.final_url.clone()),
                                    body: sub.response.body.as_text(),
                                    from_cache: !sub.source.touched_network(),
                                });
                            }
                            records.push(FetchRecord {
                                url: sub.final_url.clone(),
                                source: sub.source,
                                status: sub.response.status,
                            });
                        }
                    }
                }
                SubresourceKind::Image | SubresourceKind::Stylesheet => {
                    records.push(FetchRecord {
                        url: result.final_url.clone(),
                        source: result.source,
                        status: result.response.status,
                    });
                }
            }
        }

        PageLoad { page, records, csp }
    }

    /// The "clear cache" browser action: empties the HTTP cache but, as
    /// Table III shows, leaves Cache API storage (and therefore the parasite's
    /// second persistence layer) untouched.
    pub fn clear_http_cache(&mut self) {
        self.cache.clear();
    }

    /// The "clear cookies / site data" action: removes cookies, Cache API
    /// storage and local storage — the only action in Table III that actually
    /// removes Cache-API-persisted parasites.
    pub fn clear_cookies_and_site_data(&mut self) {
        self.cookies.clear();
        self.cache_api.clear_all();
        self.storage.clear_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_httpsim::body::Body;
    use mp_httpsim::transport::{Internet, StaticOrigin};

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn small_site() -> Internet {
        let mut origin = StaticOrigin::new("somesite.com");
        origin.put_text(
            "/index.html",
            ResourceKind::Html,
            r#"<html><head><script src="/my.js"></script></head>
               <body><img src="/logo.png"></body></html>"#,
            "max-age=60",
        );
        origin.put_text("/my.js", ResourceKind::JavaScript, "function genuine(){}", "max-age=86400");
        origin.put_text("/logo.png", ResourceKind::Image, "PNGDATA", "max-age=86400");
        let mut net = Internet::new();
        net.register_origin(origin);
        net
    }

    fn browser() -> Browser {
        Browser::new(BrowserProfile::chrome(), Box::new(small_site()))
    }

    #[test]
    fn visit_fetches_document_and_subresources() {
        let mut b = browser();
        let load = b.visit(&url("http://somesite.com/index.html"));
        assert_eq!(load.records.len(), 3);
        assert!(load.records.iter().all(|r| r.source == FetchSource::Network));
        assert_eq!(load.page.scripts.len(), 1);
        assert!(load.page.scripts[0].body.contains("genuine"));
    }

    #[test]
    fn second_visit_is_served_from_cache() {
        let mut b = browser();
        b.visit(&url("http://somesite.com/index.html"));
        let second = b.visit(&url("http://somesite.com/index.html"));
        assert!(second.records.iter().all(|r| r.source == FetchSource::HttpCache));
        assert!(second.page.scripts[0].from_cache);
    }

    #[test]
    fn stale_entries_are_revalidated_with_304() {
        let mut origin = StaticOrigin::new("top1.com");
        let response = Response::ok(Body::text(ResourceKind::JavaScript, "persistent()"))
            .with_cache_control("max-age=10")
            .with_etag("\"v1\"");
        origin.put("/persistent.js", response);
        let mut net = Internet::new();
        net.register_origin(origin);
        let mut b = Browser::new(BrowserProfile::chrome(), Box::new(net));

        let target = url("http://top1.com/persistent.js");
        assert_eq!(b.fetch(&target, "top1.com").source, FetchSource::Network);
        b.advance_time(5);
        assert_eq!(b.fetch(&target, "top1.com").source, FetchSource::HttpCache);
        b.advance_time(100);
        let third = b.fetch(&target, "top1.com");
        assert_eq!(third.source, FetchSource::Revalidated);
        assert_eq!(third.response.body.as_text(), "persistent()");
    }

    #[test]
    fn cache_api_overrides_the_network_and_survives_cache_clearing() {
        let mut b = browser();
        let target = url("http://somesite.com/my.js");
        // A script stored an infected copy via the Cache API.
        let infected = Response::ok(Body::text(ResourceKind::JavaScript, "genuine();PARASITE();"));
        b.cache_api_mut()
            .put(&target.origin().to_string(), "parasite", &target, infected);

        let fetched = b.fetch(&target, "somesite.com");
        assert_eq!(fetched.source, FetchSource::CacheApi);
        assert!(fetched.response.body.as_text().contains("PARASITE"));

        // Ctrl-F5 and clear-cache do not help (Table III)...
        b.clear_http_cache();
        let again = b.hard_reload(&target);
        assert_eq!(again.records[0].source, FetchSource::CacheApi);

        // ...only clearing cookies / site data removes it.
        b.clear_cookies_and_site_data();
        let clean = b.fetch(&target, "somesite.com");
        assert_eq!(clean.source, FetchSource::Network);
        assert!(!clean.response.body.as_text().contains("PARASITE"));
    }

    #[test]
    fn hsts_upgrades_subsequent_http_requests() {
        let mut origin = StaticOrigin::new("secure.example");
        origin.put(
            "/app.js",
            Response::ok(Body::text(ResourceKind::JavaScript, "x"))
                .with_cache_control("no-store")
                .with_header(names::STRICT_TRANSPORT_SECURITY, "max-age=31536000"),
        );
        let mut net = Internet::new();
        net.register_origin(origin);
        let mut b = Browser::new(BrowserProfile::chrome(), Box::new(net));

        // First request over HTTPS plants the HSTS entry.
        let https = url("https://secure.example/app.js");
        b.fetch(&https, "secure.example");
        // A later plain-HTTP URL is upgraded before it leaves the browser.
        let result = b.fetch(&url("http://secure.example/app.js"), "secure.example");
        assert_eq!(result.final_url.scheme, Scheme::Https);
    }

    #[test]
    fn hsts_from_http_responses_is_ignored() {
        let mut origin = StaticOrigin::new("plain.example");
        origin.put(
            "/app.js",
            Response::ok(Body::text(ResourceKind::JavaScript, "x"))
                .with_cache_control("no-store")
                .with_header(names::STRICT_TRANSPORT_SECURITY, "max-age=31536000"),
        );
        let mut net = Internet::new();
        net.register_origin(origin);
        let mut b = Browser::new(BrowserProfile::chrome(), Box::new(net));
        b.fetch(&url("http://plain.example/app.js"), "plain.example");
        let again = b.fetch(&url("http://plain.example/app.js"), "plain.example");
        assert_eq!(again.final_url.scheme, Scheme::Http);
    }

    #[test]
    fn csp_blocks_cross_origin_frames_but_not_same_origin_scripts() {
        let mut origin = StaticOrigin::new("protected.example");
        origin.put(
            "/index.html",
            Response::ok(Body::text(
                ResourceKind::Html,
                r#"<script src="/app.js"></script><iframe src="http://bank.example/"></iframe>"#,
            ))
            .with_cache_control("no-store")
            .with_header(names::CONTENT_SECURITY_POLICY, "default-src 'self'"),
        );
        origin.put_text("/app.js", ResourceKind::JavaScript, "ok()", "no-store");
        let mut net = Internet::new();
        net.register_origin(origin);
        let mut b = Browser::new(BrowserProfile::chrome(), Box::new(net));

        let load = b.visit(&url("http://protected.example/index.html"));
        assert!(load.csp.is_some());
        let frame_record = load
            .records
            .iter()
            .find(|r| r.url.host == "bank.example")
            .unwrap();
        assert_eq!(frame_record.source, FetchSource::BlockedByCsp);
        assert_eq!(load.page.scripts.len(), 1);
        assert!(load.page.frames.is_empty());
    }

    #[test]
    fn sri_blocks_tampered_scripts() {
        use mp_httpsim::sri::IntegrityDigest;
        let clean_digest = IntegrityDigest::of_bytes(b"function genuine(){}");
        let mut origin = StaticOrigin::new("sri.example");
        origin.put(
            "/index.html",
            Response::ok(Body::text(
                ResourceKind::Html,
                format!(r#"<script src="/app.js" integrity="{clean_digest}"></script>"#),
            ))
            .with_cache_control("no-store"),
        );
        // The served script does not match the pinned digest (it has been infected).
        origin.put_text("/app.js", ResourceKind::JavaScript, "function genuine(){};PARASITE();", "no-store");
        let mut net = Internet::new();
        net.register_origin(origin);
        let mut b = Browser::new(BrowserProfile::chrome(), Box::new(net));

        let load = b.visit(&url("http://sri.example/index.html"));
        assert!(load.page.scripts.is_empty());
        assert!(load
            .records
            .iter()
            .any(|r| r.source == FetchSource::BlockedBySri));
    }

    #[test]
    fn frames_load_their_subresources_one_level_deep() {
        let mut top = StaticOrigin::new("portal.example");
        top.put_text(
            "/index.html",
            ResourceKind::Html,
            r#"<iframe src="http://bank.example/home.html"></iframe>"#,
            "no-store",
        );
        let mut bank = StaticOrigin::new("bank.example");
        bank.put_text(
            "/home.html",
            ResourceKind::Html,
            r#"<script src="/banking.js"></script>"#,
            "no-store",
        );
        bank.put_text("/banking.js", ResourceKind::JavaScript, "bankCode()", "max-age=3600");
        let mut net = Internet::new();
        net.register_origin(top);
        net.register_origin(bank);
        let mut b = Browser::new(BrowserProfile::chrome(), Box::new(net));

        let load = b.visit(&url("http://portal.example/index.html"));
        assert_eq!(load.page.frames.len(), 1);
        assert!(load.page.scripts.iter().any(|s| s.body.contains("bankCode")));
        // The framed site's script is now in the victim's cache.
        assert!(b.cache().contains_any_partition(&url("http://bank.example/banking.js")));
    }

    #[test]
    fn cookies_are_attached_to_subsequent_requests() {
        struct CookieEcho;
        impl Exchange for CookieEcho {
            fn exchange(&mut self, request: &Request) -> Response {
                let cookie = request.headers.get(names::COOKIE).unwrap_or("").to_string();
                Response::ok(Body::text(ResourceKind::Html, cookie))
                    .with_cache_control("no-store")
                    .with_header(names::SET_COOKIE, "sid=s3cr3t")
            }
        }
        let mut b = Browser::new(BrowserProfile::chrome(), Box::new(CookieEcho));
        let target = url("http://echo.example/");
        let first = b.fetch(&target, "echo.example");
        assert_eq!(first.response.body.as_text(), "");
        let second = b.fetch(&target, "echo.example");
        assert_eq!(second.response.body.as_text(), "sid=s3cr3t");
    }

    #[test]
    fn change_network_swaps_the_transport() {
        let mut b = browser();
        let target = url("http://somesite.com/my.js");
        b.fetch(&target, "somesite.com");
        // Move to a network where somesite.com is unreachable.
        b.change_network(Box::new(Internet::new()));
        // Cached copy still serves.
        assert_eq!(b.fetch(&target, "somesite.com").source, FetchSource::HttpCache);
        // But an uncached resource now 404s.
        let missing = b.fetch(&url("http://somesite.com/new.js"), "somesite.com");
        assert_eq!(missing.response.status, StatusCode::NOT_FOUND);
    }
}
