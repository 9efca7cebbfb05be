//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out at the end as Chrome trace events (the format
//! `GPROB_TRACE` emits, loadable in Perfetto) plus a self-time table.
//!
//! Recording is off unless [`set_enabled`] turned it on, and an inert span
//! costs one atomic load and one clock read, so the untraced runs that
//! produce the end-to-end metrics pay nothing measurable.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. `parent` is 0 for a root; spans of one request or
/// one fit share `group`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub group: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub tid: u64,
}

struct Recorder {
    anchor: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        anchor: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    recorder();
    ON.store(on, Ordering::SeqCst);
}

/// A fresh identifier for a span group (one request or one fit).
pub fn new_group() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records a span with explicit bounds; returns its id (0 when off).
pub fn record(name: &'static str, group: u64, parent: u64, start: Instant, end: Instant) -> u64 {
    if !ON.load(Ordering::Relaxed) {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let rec = SpanRec {
        id,
        parent,
        group,
        name,
        start,
        end: end.max(start),
        tid: TID.with(|t| *t),
    };
    recorder()
        .spans
        .lock()
        .expect("span list lock poisoned by a panicking recorder")
        .push(rec);
    id
}

/// An open span; recorded when dropped.
pub struct Span {
    name: &'static str,
    group: u64,
    parent: u64,
    id: u64,
    start: Instant,
}

impl Span {
    /// Opens a span (inert when recording is off).
    pub fn enter(name: &'static str, group: u64, parent: u64) -> Span {
        let id = if ON.load(Ordering::Relaxed) {
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Span {
            name,
            group,
            parent,
            id,
            start: Instant::now(),
        }
    }

    /// This span's id, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            group: self.group,
            name: self.name,
            start: self.start,
            end: Instant::now(),
            tid: TID.with(|t| *t),
        };
        if let Ok(mut spans) = recorder().spans.lock() {
            spans.push(rec);
        }
    }
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<SpanRec> {
    recorder()
        .spans
        .lock()
        .expect("span list lock poisoned by a panicking recorder")
        .clone()
}

/// Writes spans as a Chrome trace-event JSON array (`ph: "X"` complete
/// events, microsecond `ts`/`dur`, the group and parent in `args`).
pub fn write_chrome(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let anchor = recorder().anchor;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let ts = s.start.saturating_duration_since(anchor).as_secs_f64() * 1e6;
        let dur = s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6;
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"group\":{}}}}}{sep}",
            s.name, s.tid, s.id, s.parent, s.group
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the parent), so overlapping children — chains on
/// parallel threads — count once.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per span name: count, total duration, and self time (duration minus
/// the part of it that its child spans cover), largest self time first.
pub fn self_times(spans: &[SpanRec]) -> Vec<SelfTime> {
    let anchor = spans.iter().map(|s| s.start).min();
    let Some(anchor) = anchor else {
        return Vec::new();
    };
    let ns = |t: Instant| t.saturating_duration_since(anchor).as_nanos() as u64;
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((ns(s.start), ns(s.end)));
    }
    let mut rows: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let (start, end) = (ns(s.start), ns(s.end));
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let row = rows.entry(s.name).or_insert(SelfTime {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += end - start;
        row.self_ns += (end - start) - covered_ns(start, end, kids);
    }
    let mut rows: Vec<SelfTime> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// The self-time table as text.
pub fn render_self_times(rows: &[SelfTime]) -> String {
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12.3}\n",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two chains on parallel threads overlap in [20, 60).
        assert_eq!(covered_ns(0, 100, &[(10, 60), (20, 80)]), 70);
        // Nested and duplicate children add nothing.
        assert_eq!(covered_ns(0, 100, &[(10, 60), (20, 30), (10, 60)]), 50);
        // Children are clipped to the parent.
        assert_eq!(covered_ns(50, 100, &[(0, 60), (90, 150)]), 20);
        // Disjoint children sum.
        assert_eq!(covered_ns(0, 100, &[(0, 10), (50, 55)]), 15);
        assert_eq!(covered_ns(0, 100, &[]), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let span = |id, parent, name, s, e| SpanRec {
            id,
            parent,
            group: 1,
            name,
            start: at(s),
            end: at(e),
            tid: 1,
        };
        let spans = vec![
            span(1, 0, "fit", 0, 100),
            span(2, 1, "chain", 10, 60),
            span(3, 1, "chain", 20, 80),
            span(4, 2, "grad", 15, 25),
        ];
        let rows = self_times(&spans);
        let get = |name| rows.iter().find(|r| r.name == name).expect("row").clone();
        assert_eq!(get("fit").self_ns, 30);
        assert_eq!(get("fit").total_ns, 100);
        let chain = get("chain");
        assert_eq!((chain.count, chain.total_ns, chain.self_ns), (2, 110, 100));
        assert_eq!(get("grad").self_ns, 10);
        // Parallel children make self times add up past the root's wall.
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>(), 140);
    }
}
