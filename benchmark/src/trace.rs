//! The wall-clock span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer, through the three seams the public API offers: the
//! block-source closure, the `StoreBackend` trait object
//! ([`crate::traced_backend::TracedBackend`]) and the per-rank
//! `run_iteration` call. They are kept in memory and written out when
//! the run ends. Recording is off unless [`enable`] was called, and the
//! end-to-end run never calls it: a disabled [`span`] is one relaxed
//! atomic load.
//!
//! This recorder is wall-clock only. Virtual seconds never enter it —
//! they are exact counts and are reported as such.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One recorded interval. `parent` is the enclosing span on the same
/// thread, or the current op's span for the outermost span of another
/// thread; 0 means none. Spans of one op share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
/// Id of the op in progress, and the id of its span.
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);
static CURRENT_OP_SPAN: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording. Idempotent.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    // SeqCst: the flag publishes nothing but itself, yet rank threads
    // must see it before the first traced op is dispatched to them.
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording (spans already open still close and are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped. Inert when recording was
/// off at the time it was opened.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    open: Option<(u64, u64, &'static str, u64, bool)>,
}

/// Open a span named `name` on the calling thread.
pub fn span(name: &'static str) -> SpanGuard {
    open(name, false)
}

/// Open the span of one op (one timed operation of the workload) on the
/// driver thread. Spans opened on other threads until it closes take it
/// as their parent.
pub fn op(name: &'static str) -> SpanGuard {
    open(name, true)
}

fn open(name: &'static str, is_op: bool) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| CURRENT_OP_SPAN.load(Ordering::SeqCst));
        s.push(id);
        parent
    });
    if is_op {
        // SeqCst pairs with the loads above on the rank threads: the op
        // is published before `Session::run` hands them the job.
        CURRENT_OP.fetch_add(1, Ordering::SeqCst);
        CURRENT_OP_SPAN.store(id, Ordering::SeqCst);
    }
    SpanGuard {
        open: Some((id, parent, name, now_ns(), is_op)),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns, is_op)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let span = Span {
            id,
            parent,
            op: CURRENT_OP.load(Ordering::SeqCst),
            name,
            thread: THREAD_ID.with(|t| *t),
            start_ns,
            end_ns,
        };
        if is_op {
            CURRENT_OP_SPAN.store(0, Ordering::SeqCst);
        }
        SPANS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Self time of every span, in nanoseconds, indexed like `spans`: the
/// span's duration minus the part of its interval that its child spans
/// cover. Children may overlap one another (rank threads run in
/// parallel under one op span), so the covered part is the union of the
/// child intervals, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    use std::collections::BTreeMap;
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of durations and of self times, in seconds, of the spans whose
/// name starts with `prefix`, plus how many there are.
pub fn totals(spans: &[Span], self_ns: &[u64], prefix: &str) -> (f64, f64, usize) {
    let mut dur = 0u64;
    let mut own = 0u64;
    let mut n = 0usize;
    for (s, own_ns) in spans.iter().zip(self_ns) {
        if s.name.starts_with(prefix) {
            dur += s.duration_ns();
            own += own_ns;
            n += 1;
        }
    }
    (dur as f64 * 1e-9, own as f64 * 1e-9, n)
}

/// Serialize spans as a JSON array of `{name, start, end, parent, op,
/// thread}` objects (times in nanoseconds since the recorder started).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        out.push_str(&format!(
            "{{\"id\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \
             \"op\": {}, \"thread\": {}}}{comma}\n",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.op, s.thread
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            thread: id,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; children 10..40 and 30..70 overlap on 30..40,
        // a third 90..130 runs past the parent's end.
        let spans = vec![
            s(1, 0, 0, 100),
            s(2, 1, 10, 40),
            s(3, 1, 30, 70),
            s(4, 1, 90, 130),
            s(5, 3, 35, 45),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - (60 + 10), "union 10..70 plus clipped 90..100");
        assert_eq!(own[1], 30, "a leaf keeps its whole duration");
        assert_eq!(own[2], 40 - 10, "grandchild counts against its own parent");
        assert_eq!(own[3], 40);
        assert_eq!(own[4], 10);
    }

    #[test]
    fn self_time_of_fully_covered_and_childless_spans() {
        let spans = vec![s(1, 0, 0, 50), s(2, 1, 0, 50), s(3, 1, 0, 50)];
        assert_eq!(self_times_ns(&spans), vec![0, 50, 50]);
        assert_eq!(self_times_ns(&[s(9, 0, 5, 8)]), vec![3]);
        let own = self_times_ns(&spans);
        let (dur, own_s, n) = totals(&spans, &own, "t");
        assert_eq!(n, 3);
        assert!((dur - 150e-9).abs() < 1e-15 && (own_s - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn json_lists_every_span_field() {
        let text = to_json(&[s(7, 3, 11, 19)]);
        for field in [
            "\"id\": 7",
            "\"name\": \"t\"",
            "\"start\": 11",
            "\"end\": 19",
            "\"parent\": 3",
            "\"op\": 1",
            "\"thread\": 7",
        ] {
            assert!(text.contains(field), "{field} missing from {text}");
        }
    }
}
