//! In-memory spans for the traced run, and the allocation counter that
//! the traced build installs as its global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed call: name, start and end (ns since the tracer's origin),
/// and the index of the enclosing span (`NO_PARENT` at top level).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        crate::util::ratio(self.total_ns as f64 / 1e3, self.calls as f64)
    }

    pub fn self_us(&self) -> f64 {
        self.self_ns as f64 / 1e3
    }
}

/// Records spans in memory. A disabled tracer records nothing, so the
/// same replay code runs traced and untraced and the difference is the
/// tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(index);
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(index) = self.stack.pop() {
            self.spans[index as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Per-name call counts, total time, and self time (duration minus
    /// the time covered by direct children).
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Writes every span of every tracer as `phase name start_ns end_ns
/// parent` lines (parent is an index into the same phase's spans, or -1).
pub fn write_spans(path: &Path, tracers: &[(&str, &Tracer)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "phase\tname\tstart_ns\tend_ns\tparent")?;
    for (phase, tracer) in tracers {
        for span in tracer.spans() {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "{phase}\t{}\t{}\t{}\t{parent}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
    }
    out.flush()
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations made so far by a program whose global allocator is
/// [`CountingAlloc`] (always 0 in the untraced build).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The system allocator plus a count of allocation calls (`alloc`,
/// `alloc_zeroed`, `realloc`).
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// relaxed atomic that publishes no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
