//! The TCP inference server: accept loop, per-connection framing, and the
//! request execution path over the compiled-model cache and worker pool.
//!
//! One connection carries one request at a time (pipelining concurrency =
//! open connections). The connection thread parses a request frame and
//! submits the run as one job to the [`WorkerPool`]; the job binds a
//! [`deepstan::Session`] against the cached model — **zero** compile,
//! resolve, or DProg-lower work on a cache hit — and streams response
//! frames back through a channel the connection thread drains to the
//! socket. Per-chain draws flush as chains finish (a request's NUTS
//! chains run back to back on its worker and report in index order while
//! later chains still sample), so a client sees its first chain before
//! the request completes. When the
//! worker queue is full the connection answers `busy <retry_after_ms>`
//! immediately — see the backpressure contract in [`crate::pool`].
//!
//! # Deadlines and drain
//!
//! Each request runs under a [`CancelToken`] that is a child of the
//! server-wide drain token: [`ServeConfig::request_timeout`] arms the
//! child's deadline, and [`Server::shutdown`] cancels the parent. The
//! token is polled cooperatively in the inference outer loops (once per
//! draw / step, never inside a gradient evaluation), so cancellation
//! keeps the bitwise draw-prefix contract; a cancelled request streams
//! whatever chains completed and ends with a `deadline_exceeded` frame
//! instead of `done`, freeing the worker. See the failure-modes section
//! in the [crate docs](crate) for the full contract, including panic
//! isolation and the fault-injection schedule grammar.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deepstan::{ImportanceSettings, Method, NutsSettings};
use gprob::value::Value;
use inference::advi::AdviConfig;
use inference::CancelToken;

use crate::cache::ModelCache;
use crate::faults::{FaultPlan, Faults};
use crate::pool::WorkerPool;
use crate::protocol::{write_frame, MethodSpec, Request, RequestFrame, Response, MAX_FRAME};

/// Stable label for per-method metric names
/// (`serve.requests.<label>`, `serve.request_ns.<label>`, ...).
fn method_label(method: &MethodSpec) -> &'static str {
    match method {
        MethodSpec::Nuts { .. } => "nuts",
        MethodSpec::Advi { .. } => "advi",
        MethodSpec::Importance { .. } => "importance",
    }
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded queue depth; submits beyond this bounce with `busy`.
    pub queue_capacity: usize,
    /// Upper bound on a request's `chains`. Chains run back to back on the
    /// request's one worker, so this bounds how long one request can hold
    /// that worker (its run length), not how many threads it uses.
    pub max_chains: usize,
    /// Maximum bound models kept in the cache (`None` = unbounded). Beyond
    /// this the least-recently-used model is evicted; compiled programs
    /// stay cached regardless (see [`ModelCache`]).
    pub model_cache_capacity: Option<usize>,
    /// Wall-clock budget per request, measured from job start (queue wait
    /// excluded). A request over budget is cancelled cooperatively at the
    /// next draw/step boundary and answered with `deadline_exceeded`
    /// after streaming the chains that completed. `None` (the default)
    /// never times out.
    pub request_timeout: Option<Duration>,
    /// How long [`Server::shutdown`] waits for in-flight requests to
    /// finish on their own before cancelling them (the drain phase).
    pub drain_timeout: Duration,
    /// Per-read socket timeout applied *inside* a frame: once a frame's
    /// first byte arrives, every subsequent read must make progress
    /// within this window or the connection is dropped (a stalled client
    /// holding a half-written length prefix frees its thread). Waiting
    /// *between* frames blocks indefinitely, so idle keep-alive
    /// connections are unaffected.
    pub io_timeout: Duration,
    /// Deterministic fault-injection plan (chaos testing). Defaults to
    /// the `GPROB_FAULTS` environment schedule — empty unless set. See
    /// [`crate::faults`] for the grammar.
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        ServeConfig {
            workers,
            queue_capacity: workers * 4,
            max_chains: 16,
            model_cache_capacity: None,
            request_timeout: None,
            drain_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            faults: FaultPlan::from_env(),
        }
    }
}

/// State shared by the accept loop, connection threads, and worker jobs.
struct Shared {
    cache: Arc<ModelCache>,
    pool: Arc<WorkerPool>,
    max_chains: usize,
    request_timeout: Option<Duration>,
    io_timeout: Duration,
    /// Parent of every per-request token; cancelled by drain.
    drain: CancelToken,
    /// Requests submitted to the pool and not yet finished.
    in_flight: AtomicUsize,
    faults: Faults,
}

/// A running server: owns the accept thread, the worker pool, and the
/// compiled-model cache. Dropping (or [`Server::shutdown`]) stops
/// accepting connections, drains in-flight requests (cancelling
/// stragglers past the drain timeout), and joins the workers.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    drain_timeout: Duration,
    drained: bool,
}

impl Server {
    /// Binds `127.0.0.1:0` (an ephemeral port; read it back from
    /// [`Server::addr`]) and starts accepting connections.
    ///
    /// # Errors
    /// Socket bind failures.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let cache = Arc::new(match config.model_cache_capacity {
            Some(cap) => ModelCache::with_model_capacity(cap),
            None => ModelCache::new(),
        });
        let pool = Arc::new(WorkerPool::new(config.workers, config.queue_capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            cache,
            pool,
            max_chains: config.max_chains.max(1),
            request_timeout: config.request_timeout,
            io_timeout: config.io_timeout,
            drain: CancelToken::new(),
            in_flight: AtomicUsize::new(0),
            faults: Faults::new(config.faults),
        });
        let accept_thread = {
            let (shared, stop) = (shared.clone(), stop.clone());
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Response frames are small and latency-sensitive;
                    // without this, Nagle + delayed ACK floors every
                    // request at ~40ms regardless of compute.
                    let _ = stream.set_nodelay(true);
                    let shared = shared.clone();
                    std::thread::spawn(move || {
                        // A dropped client mid-stream is normal churn, not a
                        // server error; a panicking connection thread must
                        // not take the process down either.
                        let result =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                                let _ = serve_connection(stream, &shared);
                            }));
                        if result.is_err() {
                            obs::counter("serve.worker_panics").inc();
                        }
                    });
                }
            })
        };
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            shared,
            drain_timeout: config.drain_timeout,
            drained: false,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's compiled-model cache (tests read its counters).
    pub fn cache(&self) -> &Arc<ModelCache> {
        &self.shared.cache
    }

    /// Requests submitted to the pool and not yet finished (tests poll
    /// this to observe the drain phase).
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// The server's fault injector (chaos tests read its counts).
    pub fn faults(&self) -> &Faults {
        &self.shared.faults
    }

    /// Gracefully stops the server: stop accepting connections, let
    /// in-flight requests finish under [`ServeConfig::drain_timeout`],
    /// then cancel stragglers through the drain token and wait for them
    /// to unwind cooperatively. The drain duration lands in the
    /// `serve.drain_ns` histogram.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        if self.drained {
            return;
        }
        self.drained = true;
        let start = Instant::now();
        self.stop_accepting();
        // Phase 1: wait for in-flight requests to finish on their own.
        let polite = start + self.drain_timeout;
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < polite {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Phase 2: cancel stragglers; they unwind at the next draw/step
        // boundary. Bounded by one more drain window as a backstop — the
        // pool join below still runs regardless.
        if self.shared.in_flight.load(Ordering::SeqCst) > 0 {
            self.shared.drain.cancel();
            let forced = Instant::now() + self.drain_timeout;
            while self.shared.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < forced {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs::histogram("serve.drain_ns").record(ns);
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Decrements the in-flight gauge when the job finishes — on success, on
/// panic (the closure's captures drop during unwind), and when a rejected
/// submit drops the closure unrun.
struct InFlightGuard(Arc<Shared>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Reads one request frame with the two-phase socket timeout: block
/// indefinitely for the frame's first byte (idle keep-alive connections
/// are fine), then require every subsequent read to make progress within
/// `io_timeout` — a client stalling mid-frame (e.g. a half-written length
/// prefix) errors out instead of pinning the connection thread.
///
/// `Ok(None)` on clean EOF at a frame boundary.
fn read_request_frame(stream: &mut TcpStream, io_timeout: Duration) -> io::Result<Option<String>> {
    stream.set_read_timeout(None)?;
    let mut first = [0u8; 1];
    match stream.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    stream.set_read_timeout(Some(io_timeout))?;
    let mut rest = [0u8; 3];
    stream.read_exact(&mut rest)?;
    let len = u32::from_be_bytes([first[0], rest[0], rest[1], rest[2]]);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    // A peer that stops reading cannot pin this thread on a write either.
    stream.set_write_timeout(Some(shared.io_timeout))?;
    while let Some(payload) = read_request_frame(&mut stream, shared.io_timeout)? {
        let request = match RequestFrame::parse(&payload) {
            Ok(RequestFrame::Run(request)) => request,
            Ok(RequestFrame::Stats) => {
                // Answered on the connection thread, never queued: stats
                // must stay readable while the pool is saturated. Live
                // gauges are sampled here so a snapshot is current.
                obs::gauge("serve.pool.depth").set(shared.pool.pending() as f64);
                obs::gauge("serve.cache.models").set(shared.cache.n_models() as f64);
                let text = obs::global().snapshot().to_text();
                write_frame(&mut stream, &Response::Stats { text }.encode())?;
                continue;
            }
            Err(message) => {
                write_frame(&mut stream, &Response::Error { message }.encode())?;
                continue;
            }
        };
        let label = method_label(&request.method);
        obs::counter(&format!("serve.requests.{label}")).inc();
        // Gated timing: e2e on the connection thread, queue wait measured
        // at job start. `submitted` doubles as the gate for both.
        let submitted = obs::enabled().then(Instant::now);
        let (tx, rx) = mpsc::channel::<String>();
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let guard = InFlightGuard(shared.clone());
        let job = {
            let shared = shared.clone();
            move || {
                let _guard = guard;
                if let Some(at) = submitted {
                    let ns = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    obs::histogram(&format!("serve.queue_ns.{label}")).record(ns);
                }
                if let Some(delay) = shared.faults.job_delay() {
                    std::thread::sleep(delay);
                }
                if shared.faults.should_panic_job() {
                    panic!("injected fault: panic");
                }
                run_request(&shared, request, &tx);
            }
        };
        match shared.pool.submit(job) {
            Ok(()) => {
                // Drain until the job drops its sender (request finished);
                // the per-chain frames land here as chains complete.
                let mut terminated = false;
                for frame in rx {
                    if let Some(e) = shared.faults.write_error() {
                        return Err(e);
                    }
                    terminated = frame.starts_with("done ")
                        || frame.starts_with("deadline_exceeded ")
                        || frame.starts_with("error");
                    write_frame(&mut stream, &frame)?;
                }
                // A job that panicked dropped its sender mid-stream; the
                // client still gets a terminal frame instead of a hang.
                if !terminated {
                    write_frame(
                        &mut stream,
                        &Response::Error {
                            message: "request aborted: worker panicked".to_string(),
                        }
                        .encode(),
                    )?;
                }
                if let Some(at) = submitted {
                    let ns = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    obs::histogram(&format!("serve.request_ns.{label}")).record(ns);
                }
            }
            Err(busy) => {
                obs::counter("serve.pool.rejected").inc();
                write_frame(
                    &mut stream,
                    &Response::Busy {
                        retry_after_ms: busy.retry_after_ms,
                    }
                    .encode(),
                )?;
            }
        }
    }
    stream.flush()
}

/// Records elapsed time into a histogram when dropped; covers every exit
/// path of [`run_request`] (early `fail` returns included).
struct RecordOnDrop {
    histogram: Option<std::sync::Arc<obs::Histogram>>,
    start: Instant,
}

impl Drop for RecordOnDrop {
    fn drop(&mut self) {
        if let Some(histogram) = &self.histogram {
            let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            histogram.record(ns);
        }
    }
}

/// Executes one request against the cache, streaming frames to `send`.
/// Send failures (client hung up) abort silently — the fit computation
/// finishes but nothing is kept.
fn run_request(shared: &Shared, request: Request, send: &mpsc::Sender<String>) {
    let start = Instant::now();
    // Deadline armed at job start, so queue wait doesn't eat the budget;
    // the child observes the drain token through its parent chain.
    let cancel = match shared.request_timeout {
        Some(timeout) => shared.drain.child_with_timeout(timeout),
        None => shared.drain.child(),
    };
    // Worker-side time (bind + fit + gq), excluding queue wait and socket
    // drain; recorded on every exit path, success or error.
    let run_hist = obs::enabled()
        .then(|| obs::histogram(&format!("serve.run_ns.{}", method_label(&request.method))));
    let _run_guard = RecordOnDrop {
        histogram: run_hist,
        start,
    };
    let fail = |message: String| {
        let _ = send.send(Response::Error { message }.encode());
    };
    let cached = match shared
        .cache
        .get_or_bind(&request.source, request.scheme, &request.data)
    {
        Ok(cached) => cached,
        Err(message) => return fail(message),
    };
    let program = match shared.cache.get_or_compile(&request.source) {
        Ok(program) => program,
        Err(message) => return fail(message),
    };
    let _ = send.send(
        Response::Names {
            names: cached.model.component_names(),
        }
        .encode(),
    );
    let refs: Vec<(&str, Value<f64>)> = request
        .data
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    let session = match program.session(&refs) {
        Ok(session) => session,
        Err(e) => return fail(e.to_string()),
    };
    let mut session = session
        .with_bound_model(cached.scheme, cached.model.clone())
        .workspace_pool(cached.pool.clone())
        .chains(request.chains.clamp(1, shared.max_chains))
        // The pool already keeps one worker per core: a request's chains
        // run back to back on its worker instead of spawning more threads.
        .threads(1)
        .seed(request.seed)
        .cancel(cancel.clone());
    let method = match request.method {
        MethodSpec::Nuts { warmup, samples } => Method::Nuts(NutsSettings {
            warmup,
            samples,
            ..Default::default()
        }),
        MethodSpec::Advi { steps } => Method::Advi(AdviConfig {
            steps,
            ..Default::default()
        }),
        MethodSpec::Importance { particles } => {
            Method::Importance(ImportanceSettings { particles })
        }
    };
    let mut fit = {
        let mut on_chain = |index: usize, chain: &deepstan::ChainResult| {
            let _ = send.send(
                Response::Chain {
                    index,
                    divergences: chain.divergences,
                    wall_time: chain.wall_time,
                    n_grad_evals: chain.n_grad_evals,
                    draws: chain.draws.clone(),
                }
                .encode(),
            );
        };
        match session.run_with_observer(method, &mut on_chain) {
            Ok(fit) => fit,
            Err(e) => return fail(e.to_string()),
        }
    };
    if fit.cancelled {
        // Partial result: the chains streamed above are each a bitwise
        // prefix of the uncancelled run. GQ is skipped — it would only
        // cover the partial draws the client already knows are partial.
        obs::counter("serve.cancelled").inc();
        if cancel.remaining().is_some_and(|left| left.is_zero()) {
            obs::counter("serve.deadline_exceeded").inc();
        }
        let _ = send.send(
            Response::DeadlineExceeded {
                wall_time: start.elapsed().as_secs_f64(),
            }
            .encode(),
        );
        return;
    }
    if request.gq {
        if let Err(e) = session.generated_quantities(&mut fit) {
            return fail(e.to_string());
        }
        let gq = fit.gq.as_ref().expect("attached above");
        let _ = send.send(
            Response::GqNames {
                names: gq.names.clone(),
            }
            .encode(),
        );
        for (index, rows) in gq.chains.iter().enumerate() {
            let _ = send.send(
                Response::GqChain {
                    index,
                    rows: rows.clone(),
                }
                .encode(),
            );
        }
    }
    let _ = send.send(
        Response::Done {
            wall_time: start.elapsed().as_secs_f64(),
        }
        .encode(),
    );
}
