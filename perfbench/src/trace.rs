//! Benchmark-side spans.
//!
//! Every call the benchmark makes into a crate's public API can be
//! wrapped in [`span`]. When recording is off (the default, and always
//! in the runs that measure end-to-end metrics) a span costs one
//! thread-local flag check. When it is on, spans are kept in memory per
//! thread and written once, at exit, as Chrome trace-event JSON — the
//! format program-side spans are planned to use, so both can later
//! share one file.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    pub op: u64,
    pub customer: usize,
    /// Counts attached to a root span with [`count`].
    pub args: Vec<(&'static str, f64)>,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    customer: usize,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            customer: self.customer,
            args: Vec::new(),
        });
        self.open.push(index);
        Some(index)
    }

    fn close(&mut self, index: usize) {
        self.spans[index].end_ns = now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans close in LIFO order");
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-wide time origin of every span (set on first use, which
/// `main` makes the first thing it does).
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Starts recording spans on this thread, attributed to `customer`.
pub fn start(customer: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.customer = customer;
    });
}

/// Stops recording on this thread and hands back its spans.
pub fn finish() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        std::mem::take(&mut r.spans)
    })
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let slot = REC.with(|r| r.borrow_mut().open(name));
    let out = f();
    if let Some(index) = slot {
        REC.with(|r| r.borrow_mut().close(index));
    }
    out
}

/// Runs `f` as the root span `name` of op `op`; spans opened inside it
/// carry the op id.
pub fn root<T>(op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
    REC.with(|r| r.borrow_mut().op = op);
    span(name, f)
}

/// Adds `value` to the count `key` of the outermost open span, the
/// op's root (no-op when not recording).
pub fn count(key: &'static str, value: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(&root) = r.open.first() else {
            return;
        };
        let args = &mut r.spans[root].args;
        match args.iter_mut().find(|(k, _)| *k == key) {
            Some((_, total)) => *total += value,
            None => args.push((key, value)),
        }
    });
}

/// Renders spans (one list per recording thread) plus run-level
/// counters as a Chrome trace-event document. Span ids are unique
/// across threads; `parent` is `-1` for roots.
pub fn chrome_json(threads: &[Vec<Span>], counters: &[(&str, f64)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut base = 0usize;
    let mut last_ns = 0u64;
    for spans in threads {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| (base + p) as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{parent},\
                 \"op\":{},\"customer\":{}",
                s.name,
                s.customer,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                base + i,
                s.op,
                s.customer,
            );
            for (key, value) in &s.args {
                let _ = write!(out, ",\"{key}\":{value}");
            }
            out.push_str("}},\n");
            last_ns = last_ns.max(s.end_ns);
        }
        base += spans.len();
    }
    let _ = write!(
        out,
        "{{\"name\":\"run\",\"cat\":\"bench\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"args\":{{",
        last_ns as f64 / 1e3
    );
    for (i, (key, value)) in counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{key}\":{value}");
    }
    out.push_str("}}\n]}\n");
    out
}
