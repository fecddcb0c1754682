//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around its calls into each layer's
//! public functions; nothing inside the program under test is traced. Each
//! thread records into its own buffer (name, start, end, parent, batch id)
//! and hands it over with [`take`] once its outermost span has closed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// One closed span. `parent` indexes the same buffer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub batch: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Buffer {
    spans: Vec<Span>,
    open: Vec<usize>,
    batch: u64,
}

thread_local! {
    static BUF: RefCell<Buffer> = RefCell::new(Buffer::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds on the shared trace clock.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Label this thread's subsequent spans with a batch id.
pub fn set_batch(batch: u64) {
    BUF.with(|b| b.borrow_mut().batch = batch);
}

/// Open a span; it closes when the guard drops (also during unwinding).
pub fn span(name: &'static str) -> Guard {
    let start_ns = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let idx = b.spans.len();
        let parent = b.open.last().copied();
        let batch = b.batch;
        b.spans.push(Span { name, start_ns, end_ns: start_ns, parent, batch });
        b.open.push(idx);
    });
    Guard { _private: () }
}

pub struct Guard {
    _private: (),
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            if let Some(idx) = b.open.pop() {
                b.spans[idx].end_ns = end;
            }
        });
    }
}

/// Time `f` under a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Take this thread's closed spans. Must be called with no span open, so
/// parent indices stay valid within the returned buffer.
pub fn take() -> Vec<Span> {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        assert!(b.open.is_empty(), "trace::take called inside an open span");
        std::mem::take(&mut b.spans)
    })
}

/// Per-name totals folded from span buffers.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// name -> (summed self ns, summed total ns)
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl Profile {
    /// Fold one thread's buffer: self time is a span's duration minus the
    /// part of it its child spans cover.
    pub fn fold(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, &c) in spans.iter().zip(&child_ns) {
            let e = self.by_name.entry(s.name).or_default();
            e.0 += s.dur_ns().saturating_sub(c);
            e.1 += s.dur_ns();
        }
    }

    /// Summed self time of one span name, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.0 as f64 * 1e-6)
    }

    /// Summed total (inclusive) time of one span name, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.1 as f64 * 1e-6)
    }

    /// Summed self time of every span whose layer (the name up to the
    /// first '.') is `layer`, in ms.
    pub fn layer_self_ms(&self, layer: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(name, _)| layer_of(name) == layer)
            .map(|(_, v)| v.0 as f64 * 1e-6)
            .sum::<f64>()
            + 0.0 // an empty float sum is -0.0
    }

    /// Summed self time over all spans, in ms.
    pub fn all_self_ms(&self) -> f64 {
        self.by_name.values().map(|v| v.0 as f64 * 1e-6).sum()
    }
}

/// The layer a span name belongs to: `matcher.kernel` -> `matcher`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "pipeline.batch", start_ns: 0, end_ns: 100, parent: None, batch: 0 },
            Span { name: "graph.ingest", start_ns: 10, end_ns: 30, parent: Some(0), batch: 0 },
            Span { name: "engine.match", start_ns: 30, end_ns: 90, parent: Some(0), batch: 0 },
            Span { name: "matcher.kernel", start_ns: 40, end_ns: 80, parent: Some(2), batch: 0 },
        ];
        let mut p = Profile::default();
        p.fold(&spans);
        assert_eq!(p.by_name["pipeline.batch"].0, 20);
        assert_eq!(p.by_name["engine.match"].0, 20);
        assert_eq!(p.by_name["matcher.kernel"].0, 40);
        assert_eq!(p.all_self_ms(), 100.0 * 1e-6);
        assert_eq!(p.layer_self_ms("graph"), 20.0 * 1e-6);
    }

    #[test]
    fn guards_nest_and_take_drains() {
        set_batch(7);
        {
            let _a = span("pipeline.batch");
            let _b = span("graph.seal");
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.batch == 7 && s.end_ns >= s.start_ns));
        assert!(take().is_empty());
    }
}
