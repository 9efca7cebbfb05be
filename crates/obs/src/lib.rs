//! `obs` — zero-dependency, lock-light process telemetry.
//!
//! Every performance-critical layer of the workspace (resolver/DProg
//! lowering, the x86_64 JIT, NUTS, the serve tier) reports into
//! one process-wide [`Registry`] of named metrics, and anything holding a
//! [`Snapshot`] — a test, `Fit::profile()`, or a `stats` frame served over
//! the wire — can read a consistent view of where time went.
//!
//! # Metric model
//!
//! Three metric kinds, all safe to update concurrently without locks:
//!
//! * [`Counter`] — a monotone `u64` (`AtomicU64` with relaxed ordering).
//!   Request counts, cache hits, decline reasons, leapfrog totals.
//! * [`Gauge`] — a point-in-time `f64` (stored as bits in an `AtomicU64`).
//!   Pool depth, idle workspaces, the last adapted step size.
//! * [`Histogram`] — a fixed 64-bucket power-of-2 (log₂) histogram of
//!   `u64` samples, plus exact `count`/`sum`/`max`. Bucket 0 holds the
//!   value 0; bucket *i* (1 ≤ i ≤ 62) holds `[2^(i-1), 2^i)`; bucket 63
//!   holds everything from `2^62` up. Quantiles (p50/p90/p99) interpolate
//!   linearly inside the bucket containing the target rank, so the
//!   estimate is never off by more than the width of that bucket (a
//!   factor of 2). Latency histograms record **nanoseconds**; their names
//!   end in `_ns` by convention.
//!
//! Metrics are created on first use by name ([`Registry::counter`] /
//! [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram)); the
//! returned `Arc` handle is lock-free to update, so hot call sites cache
//! it in a `OnceLock` and never touch the registry map again. Names must
//! not contain whitespace (the snapshot format is line/space delimited);
//! the registry replaces any whitespace with `_` on registration.
//!
//! # Timing spans
//!
//! [`Span::enter("jit_emit")`](Span::enter) starts an RAII timer; when the
//! span drops, the elapsed time lands in the histogram named
//! `<name>_ns` in the global registry, and — when tracing is on — a
//! Chrome trace event is appended. Spans instrument *phases* (parse,
//! resolve, DProg lower, JIT emit, ADVI steps, serve requests), never the
//! per-evaluation gradient path: the overhead contract below.
//!
//! # Snapshot format
//!
//! [`Registry::snapshot`] captures every metric into a [`Snapshot`];
//! [`Snapshot::to_text`] renders a stable, line-oriented text form that
//! [`Snapshot::parse`] round-trips (this is the payload of the serve
//! tier's `stats` response frame):
//!
//! ```text
//! counter <name> <u64>
//! gauge <name> <f64>
//! hist <name> count <u64> sum <u64> max <u64> buckets <idx>:<count> ...
//! ```
//!
//! One metric per line, kinds grouped in the order above, names sorted
//! within each kind, empty buckets omitted. Snapshots merge bucket-wise
//! ([`Snapshot::merge`], associative) and subtract
//! ([`Snapshot::delta`]) so a load generator can report per-level
//! server-side breakdowns from before/after polls.
//!
//! # Trace-event dump
//!
//! Setting `GPROB_TRACE=<path>` makes every span append one Chrome
//! trace-event object to `<path>`:
//!
//! ```json
//! {"name":"jit_emit","ph":"X","ts":1234.5,"dur":87.2,"pid":1,"tid":3}
//! ```
//!
//! `ts`/`dur` are microseconds; `ts` is relative to the first event.
//! The file opens with `[` and each event ends with `,\n`; the Chrome
//! trace format explicitly tolerates the missing closing bracket, so the
//! file is loadable in `chrome://tracing` / Perfetto at any point, even
//! after a crash. Events are appended under a mutex — tracing is an
//! offline-inspection mode, not a production path.
//!
//! # Overhead contract
//!
//! * The gradient evaluation path carries **no** instrumentation — not
//!   even a counter. Inference loops accumulate locally (plain integers)
//!   and flush once per chain/fit.
//! * Counters and gauges are single relaxed atomic ops and are always
//!   live: the back-compat accessors (`deepstan::compile_count`,
//!   `gprob::bind_count`, serve cache stats) depend on them.
//! * Everything that calls `Instant::now` — spans and the step/request
//!   timing histograms — is gated by [`enabled`], which reads one relaxed
//!   `AtomicBool`. Set `GPROB_OBS=0` (or `off`) to disable timing before
//!   the process starts, or call [`set_enabled`] at runtime (the
//!   bench-smoke overhead guard flips it mid-process to compare).
//!
//! # Quickstart
//!
//! ```
//! // Time a phase into the histogram "demo.phase_ns":
//! {
//!     let _span = obs::Span::enter("demo.phase");
//!     // ... work ...
//! }
//! // Count an event and read everything back:
//! obs::counter("demo.events").inc();
//! let snap = obs::global().snapshot();
//! assert!(snap.counter("demo.events").unwrap_or(0) >= 1);
//! let text = snap.to_text();
//! let parsed = obs::Snapshot::parse(&text).unwrap();
//! assert_eq!(parsed.to_text(), text);
//! ```
//!
//! In-process inference users read the same registry through
//! `deepstan::Fit::profile()`; remote users poll the serve tier's `stats`
//! frame (`serve::Client::stats`), which ships `to_text()` over the wire.

mod metrics;
mod registry;
mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{global, Registry, Snapshot};
pub use span::{Span, StepTimer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: OnceLock<AtomicBool> = OnceLock::new();

fn enabled_flag() -> &'static AtomicBool {
    ENABLED.get_or_init(|| {
        let on = match std::env::var("GPROB_OBS") {
            Ok(v) => {
                let v = v.trim().to_ascii_lowercase();
                !(v == "0" || v == "off" || v == "false")
            }
            Err(_) => true,
        };
        AtomicBool::new(on)
    })
}

/// Whether timing instrumentation (spans, step/request histograms — i.e.
/// everything that calls `Instant::now`) is live. Counters and gauges are
/// *not* gated: they are single relaxed atomics and back-compat surfaces
/// depend on them. Defaults to `true`; `GPROB_OBS=0|off|false` disables.
#[inline]
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Runtime override of the `GPROB_OBS` gate — the bench-smoke overhead
/// guard flips this to compare timed vs. untimed runs in one process.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// Shorthand for [`global()`]`.counter(name)`.
pub fn counter(name: &str) -> std::sync::Arc<Counter> {
    global().counter(name)
}

/// Shorthand for [`global()`]`.gauge(name)`.
pub fn gauge(name: &str) -> std::sync::Arc<Gauge> {
    global().gauge(name)
}

/// Shorthand for [`global()`]`.histogram(name)`.
pub fn histogram(name: &str) -> std::sync::Arc<Histogram> {
    global().histogram(name)
}
