//! The browser-side compilation cache: scripts and iframe documents.
//!
//! One [`CompileCache`] is shared (via `Arc`) across every page load of a
//! survey — all sites, rounds, browser profiles, and worker threads. It
//! bundles two content-addressed maps:
//!
//! - the script compilation cache ([`bfu_script::ScriptCache`]): source
//!   bytes → parsed `Arc<Program>` (or a cached parse error), and
//! - a frame-document cache: iframe body bytes → the extracted list of
//!   script resources. Ad iframes are served from a small set of templates,
//!   so identical frame bodies recur across thousands of pages; extracting
//!   their `<script>` tags once replaces a full `html::parse` per visit.
//!
//! Both lookups are pure functions of content, and both confirm every hit
//! against the stored content rather than trusting the 64-bit key, so
//! sharing them cannot change any measurement — see the determinism notes
//! on [`bfu_script::cache`].

use bfu_dom::html;
use bfu_script::cache::CacheStats;
use bfu_script::ScriptCache;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// One script resource extracted from a frame document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameScript {
    /// `<script src="...">` — the unresolved target attribute.
    External(String),
    /// `<script>...</script>` — the inline source text.
    Inline(String),
}

/// Extract the script resources of a frame document, in document order.
/// This is the pure function the frame cache memoizes.
pub fn extract_frame_scripts(frame_body: &str) -> Vec<FrameScript> {
    let subdoc = html::parse(frame_body);
    let mut scripts = Vec::new();
    for node in subdoc.elements() {
        if subdoc.tag(node) == Some("script") {
            match subdoc.attr(node, "src") {
                Some(src) => scripts.push(FrameScript::External(src.to_owned())),
                None => scripts.push(FrameScript::Inline(subdoc.text_content(node))),
            }
        }
    }
    scripts
}

/// Survey-wide compilation cache: parsed scripts plus frame-script lists.
///
/// # Examples
///
/// ```
/// use bfu_browser::cache::CompileCache;
/// let cache = CompileCache::new();
/// let body = "<html><script>var x = 1;</script></html>";
/// let a = cache.frame_scripts(body);
/// let b = cache.frame_scripts(body);
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// ```
#[derive(Debug, Default)]
pub struct CompileCache {
    scripts: ScriptCache,
    frames: Mutex<HashMap<u64, FrameBodies>>,
}

/// Every distinct frame body under one content hash (one, barring a
/// collision), each with its extracted scripts.
type FrameBodies = Vec<(Box<str>, Arc<Vec<FrameScript>>)>;

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// The script compilation cache.
    pub fn scripts(&self) -> &ScriptCache {
        &self.scripts
    }

    /// Script-cache totals (hits/misses/negative hits/unique sources).
    pub fn script_stats(&self) -> CacheStats {
        self.scripts.stats()
    }

    /// The extracted script list for a frame body, parsed at most once per
    /// distinct body content.
    pub fn frame_scripts(&self, frame_body: &str) -> Arc<Vec<FrameScript>> {
        self.frame_scripts_keyed(ScriptCache::content_hash(frame_body), frame_body)
    }

    /// [`CompileCache::frame_scripts`] under a given key. A hit must match
    /// the stored body, so bodies sharing a key keep their own lists.
    fn frame_scripts_keyed(&self, key: u64, frame_body: &str) -> Arc<Vec<FrameScript>> {
        let mut frames = self.lock_frames();
        let bodies = frames.entry(key).or_default();
        if let Some((_, cached)) = bodies.iter().find(|(body, _)| **body == *frame_body) {
            return Arc::clone(cached);
        }
        let extracted = Arc::new(extract_frame_scripts(frame_body));
        bodies.push((frame_body.into(), Arc::clone(&extracted)));
        extracted
    }

    /// Distinct frame bodies resident.
    pub fn unique_frames(&self) -> usize {
        self.lock_frames().values().map(Vec::len).sum()
    }

    fn lock_frames(&self) -> MutexGuard<'_, HashMap<u64, FrameBodies>> {
        match self.frames.lock() {
            Ok(f) => f,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_extraction_matches_fresh_parse() {
        let body = r#"<html><body>
            <script src="https://ads.example/a.js"></script>
            <p>copy</p>
            <script>var inline = 1;</script>
        </body></html>"#;
        let cache = CompileCache::new();
        let cached = cache.frame_scripts(body);
        assert_eq!(*cached, extract_frame_scripts(body));
        assert_eq!(
            *cached,
            vec![
                FrameScript::External("https://ads.example/a.js".to_owned()),
                FrameScript::Inline("var inline = 1;".to_owned()),
            ]
        );
    }

    #[test]
    fn identical_bodies_share_one_entry() {
        let cache = CompileCache::new();
        let a = cache.frame_scripts("<html><script>f();</script></html>");
        let b = cache.frame_scripts("<html><script>f();</script></html>");
        let c = cache.frame_scripts("<html><script>g();</script></html>");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.unique_frames(), 2);
    }

    #[test]
    fn colliding_frame_bodies_keep_their_own_scripts() {
        let cache = CompileCache::new();
        let (f, g) = (
            "<html><script>f();</script></html>",
            "<html><script>g();</script></html>",
        );
        let a = cache.frame_scripts_keyed(7, f);
        let b = cache.frame_scripts_keyed(7, g);
        assert_eq!(*a, extract_frame_scripts(f));
        assert_eq!(*b, extract_frame_scripts(g));
        assert!(Arc::ptr_eq(&cache.frame_scripts_keyed(7, g), &b));
        assert!(Arc::ptr_eq(&cache.frame_scripts_keyed(7, f), &a));
        assert_eq!(cache.unique_frames(), 2);
    }

    #[test]
    fn script_cache_reachable_through_bundle() {
        let cache = CompileCache::new();
        cache.scripts().lookup_or_parse("var ok = 1;").unwrap();
        cache.scripts().lookup_or_parse("var ok = 1;").unwrap();
        let stats = cache.script_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
