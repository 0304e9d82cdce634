//! In-memory span recorder for the traced run.
//!
//! Each thread appends spans (name, start, end, parent) to its own buffer;
//! a span's parent is whichever span was open on that thread when it began.
//! Buffers are handed back with [`take`] when a worker finishes, merged by
//! the caller and written out once the run ends. A thread records nothing
//! until [`enable`] is called on it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the process-wide epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same thread's buffer.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Recorder {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Start recording on the current thread.
pub fn enable() {
    REC.with(|r| r.borrow_mut().on = true);
}

/// Stop recording on the current thread and return its closed spans.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// An open span; it closes when dropped.
pub struct Guard(Option<usize>);

/// Open a span named `name` on the current thread.
pub fn enter(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let ix = r.spans.len();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
        });
        r.open.push(ix);
        Guard(Some(ix))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(ix) = self.0 else { return };
        let end = now_ns();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            if let Some(span) = r.spans.get_mut(ix) {
                span.end_ns = end;
            }
            if r.open.last() == Some(&ix) {
                r.open.pop();
            }
        });
    }
}

/// Per-name totals over a set of span buffers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

/// Each span's self time: its duration minus its direct children's.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, children)| s.dur_ns().saturating_sub(children))
        .collect()
}

/// Fold the spans of each thread's buffer into per-name totals.
pub fn totals(buffers: &[Vec<Span>]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for spans in buffers {
        for (s, own) in spans.iter().zip(self_ns(spans)) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += own;
        }
    }
    out
}

/// Render every buffer as tab-separated lines:
/// `thread  index  parent  name  start_ns  end_ns  self_ns`.
pub fn render(buffers: &[Vec<Span>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("thread\tindex\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    for (t, spans) in buffers.iter().enumerate() {
        for (i, (s, own)) in spans.iter().zip(self_ns(spans)).enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{own}",
                s.name, s.start_ns, s.end_ns
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        enable();
        {
            let _outer = enter("outer");
            let _inner = enter("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let t = totals(&[spans]);
        assert!(t["outer"].self_ns < t["inner"].total_ns);
        assert_eq!(enter("off").0, None, "take() stops recording");
    }
}
