//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`; its layer is its
//! name up to the last `.` (`online.fault.link_down` belongs to
//! `online.fault`, `serve.plan` to `serve`). Spans are recorded only
//! while tracing is enabled, kept in memory, and written out when the
//! benchmark ends. A disabled tracer costs one thread-local flag read
//! per call.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called (`layer.operation`).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The request, event or use case the span served.
    pub req: u64,
}

impl Span {
    /// Wall time covered by the span.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static EPOCH: Instant = Instant::now();
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Nanoseconds since this thread's tracer epoch: the clock spans are
/// stamped with.
#[must_use]
pub fn now_ns() -> u64 {
    EPOCH.with(|e| e.elapsed().as_nanos() as u64)
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Runs `f` inside a span named `name` for request `req`.
pub fn span<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start_ns = now_ns();
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().copied().unwrap_or(ROOT);
        let id = t.spans.len() as u32;
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        t.stack.push(id);
        id
    });
    let out = f();
    let end_ns = now_ns();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.spans[id as usize].end_ns = end_ns;
        t.stack.pop();
    });
    out
}

/// Records a finished leaf span, stamped by the caller from [`now_ns`],
/// under the innermost open span: for loops that read the clock anyway
/// and would pay for it twice through [`span`].
pub fn record(name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().copied().unwrap_or(ROOT);
        t.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
    });
}

/// Number of spans recorded so far; spans from this index on belong to
/// whatever runs next.
#[must_use]
pub fn mark() -> usize {
    TRACER.with(|t| t.borrow().spans.len())
}

/// Runs `g` over the spans recorded since `mark`.
pub fn with_spans_since<T>(mark: usize, g: impl FnOnce(&[Span], usize) -> T) -> T {
    TRACER.with(|t| g(&t.borrow().spans[mark..], mark))
}

/// The layer a span name belongs to: everything before the last `.`.
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Self time of every span in `spans` (indices local to the slice,
/// parents global, offset by `base`): its duration minus the part of it
/// that its direct children cover. Children of one span never overlap
/// (one thread), so that part is the sum of their durations.
#[must_use]
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent == ROOT || (s.parent as usize) < base {
            continue;
        }
        let p = s.parent as usize - base;
        own[p] = own[p].saturating_sub(s.duration_ns());
    }
    own
}

/// Writes every recorded span to `path` as CSV
/// (`name,start_ns,end_ns,parent,req`; parent `-1` for roots), after a
/// `#`-prefixed header line, and returns how many were written.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_csv(path: &std::path::Path, header: &str) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# {header}")?;
    writeln!(w, "name,start_ns,end_ns,parent,req")?;
    let n = TRACER.with(|t| -> std::io::Result<usize> {
        let t = t.borrow();
        for s in &t.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        Ok(t.spans.len())
    })?;
    w.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            s("bench.round", 0, 100, ROOT),
            s("online.submit", 10, 40, 0),
            s("alloc.admit", 20, 30, 1),
            s("serve.plan", 50, 60, 0),
        ];
        assert_eq!(self_times(&spans, 0), vec![60, 20, 10, 10]);
        // Self times partition the root's wall time.
        assert_eq!(self_times(&spans, 0).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_with_offset_slice_ignores_parents_before_it() {
        // A slice starting at global index 5 whose first span's parent
        // (index 2) lies outside it.
        let spans = [s("serve.plan", 0, 10, 2), s("online.x", 2, 6, 5)];
        assert_eq!(self_times(&spans, 5), vec![6, 4]);
    }

    #[test]
    fn layer_is_the_name_up_to_the_last_dot() {
        assert_eq!(layer_of("online.fault.link_down"), "online.fault");
        assert_eq!(layer_of("serve.plan"), "serve");
        assert_eq!(layer_of("bench"), "bench");
    }

    #[test]
    fn nested_spans_record_parents() {
        set_enabled(true);
        let m = mark();
        span("bench.outer", 7, || {
            span("serve.inner", 8, || ());
            let t = now_ns();
            record("serve.leaf", 9, t, t + 5);
        });
        set_enabled(false);
        span("serve.untraced", 9, || ());
        with_spans_since(m, |spans, base| {
            assert_eq!(spans.len(), 3);
            assert_eq!(spans[0].parent, ROOT);
            assert_eq!(spans[1].parent as usize, base);
            assert_eq!(spans[1].req, 8);
            assert_eq!(spans[2].parent as usize, base);
            assert_eq!(spans[2].duration_ns(), 5);
            assert!(spans[0].start_ns <= spans[1].start_ns);
            assert!(spans[1].end_ns <= spans[0].end_ns);
        });
    }
}
