//! `serve_hot` and `serve_cold`: open-loop multi-tenant traffic against a
//! `serve::Server` the benchmark starts in its own process.
//!
//! Requests arrive as a seeded Poisson stream at two fixed offered rates,
//! `nominal` and `high` (fractions of the capacity measured at the parent
//! commit; `perfbench/README.md` says how they were chosen), and each is
//! timed from when it was due.
//! Load comes from at most two client threads, each with one connection,
//! so when both are busy a due request waits in the client-side backlog
//! and that wait is part of its latency.
//!
//! * `serve_hot`: the cache is warmed during set-up, so every timed
//!   request is a cache hit and compile/bind cost nothing. What is timed is
//!   queueing, per-request sampler work on small models, generated
//!   quantities, and frame encode/write.
//! * `serve_cold`: every request misses. Half carry fresh seeded data for
//!   a source the server already compiled (a bind); half carry a
//!   tenant-unique source variant (parse, compile and bind). Methods are
//!   cheap (importance, short single-chain NUTS) and the bound-model cache
//!   is small so LRU eviction runs. Parse, compile and bind are still only
//!   about 6% of the worker time (`serve.compile_bind_share`): requests
//!   small enough to raise it to a third made the p99s measure machine
//!   stalls (`perfbench/README.md`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use deepstan::{DeepStan, ImportanceSettings, Method, NutsSettings};
use inference::advi::AdviConfig;
use serve::client::{Client, ClientError, ServedFit};
use serve::protocol::{MethodSpec, Request, Response};
use serve::server::{ServeConfig, Server};
use stan2gprob::Scheme;

use crate::layers::{self, refs, ProbeModel};
use crate::oracle;
use crate::report::{peak_rss_mb, Metric, Outcome};
use crate::stats::{geomean, median, ms, quantile, tail, Timing};
use crate::trace;
use crate::{mix, uniform, Args, DATA_SEED, LOAD_SEED};

/// Which serving workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
}

/// Client threads and connections, and server workers (`nproc` is 2 on
/// the machine the rates were fixed on).
const CONNECTIONS: usize = 2;
/// Set-up repetitions before the timed segments, and after the timed
/// server has shut down; `setup_s` is the median of all of them. Rounds
/// taken only at the start sampled the machine for a third of a second,
/// and their median spread by a quarter from run to run. No round runs
/// beside the timed server, whose memory would add to theirs in
/// `peak_rss_mb`: with rounds between segments it read 19-29 MiB on
/// `serve_hot`, against 20-21 MiB without.
const SETUP_REPS: usize = 10;
const SETUP_REPS_AFTER: usize = 12;
/// Responses per request kind and segment whose ESS and wire bytes are
/// measured after timing; in the first segment the first
/// [`SPOT_PER_KIND`] of them also get the served-equals-direct check.
const KEEP_PER_KIND: usize = 15;
const SPOT_PER_KIND: usize = 2;
/// Attempts per request when the server answers `busy`.
const MAX_ATTEMPTS: usize = 5;
/// A run is invalid when the generator's own lateness (p99) passes this:
/// it could not hold the schedule, so the offered rate was not offered.
const LATE_LIMIT_MS: f64 = 25.0;
/// Share of the run the nominal rate gets; the high rate gets the rest.
const NOMINAL_SHARE: f64 = 0.5;
/// Segments per run; each runs the nominal rate, then the high rate.
const SEGMENTS: usize = 5;
/// Cold requests' importance particles, and their NUTS warmup and draws.
/// With 20 particles and 10 + 10 draws parse, compile and bind were a
/// third of the worker time, but requests served in under a millisecond
/// and the p99s spread by up to 1.3 of their median from seed to seed; at
/// these sizes they are 6% and the p99s spread by 0.13-0.21.
const COLD_PARTICLES: usize = 200;
const COLD_NUTS: usize = 100;

/// The fixed parameters of one serving workload.
struct Profile {
    /// Offered rates, requests per second.
    nominal_rps: f64,
    high_rps: f64,
    /// `goodput_rps` counts correct responses within this latency.
    goodput_limit_ms: f64,
    /// Bound on cached bound models (`None`: unbounded).
    model_cache: Option<usize>,
    kinds: Vec<KindSpec>,
}

/// One request kind of the mix.
struct KindSpec {
    model: &'static str,
    method: MethodSpec,
    chains: usize,
    gq: bool,
    scheme: Scheme,
    /// Cold only: whether fresh data makes this kind miss (its data
    /// generator has enough entropy that seeded data sets never repeat).
    fresh_data: bool,
}

fn kind(
    model: &'static str,
    method: MethodSpec,
    chains: usize,
    gq: bool,
    scheme: Scheme,
) -> KindSpec {
    KindSpec {
        model,
        method,
        chains,
        gq,
        scheme,
        fresh_data: false,
    }
}

fn profile(k: Kind) -> Profile {
    let nuts = |warmup, samples| MethodSpec::Nuts { warmup, samples };
    match k {
        Kind::Hot => Profile {
            nominal_rps: 100.0,
            high_rps: 120.0,
            goodput_limit_ms: 250.0,
            model_cache: None,
            kinds: vec![
                kind("coin", nuts(100, 100), 2, true, Scheme::Mixed),
                kind(
                    "eight_schools_noncentered",
                    nuts(100, 100),
                    2,
                    true,
                    Scheme::Mixed,
                ),
                kind("seeds_binomial", nuts(100, 100), 2, true, Scheme::Mixed),
                kind("kidscore_momhs", nuts(100, 100), 2, false, Scheme::Mixed),
                kind(
                    "coin",
                    MethodSpec::Importance { particles: 500 },
                    1,
                    false,
                    Scheme::Generative,
                ),
                kind(
                    "kidscore_momiq",
                    MethodSpec::Advi { steps: 200 },
                    1,
                    false,
                    Scheme::Mixed,
                ),
            ],
        },
        Kind::Cold => {
            let fresh = |mut k: KindSpec| {
                k.fresh_data = true;
                k
            };
            Profile {
                nominal_rps: 120.0,
                high_rps: 200.0,
                goodput_limit_ms: 150.0,
                model_cache: Some(16),
                kinds: vec![
                    kind(
                        "coin",
                        MethodSpec::Importance {
                            particles: COLD_PARTICLES,
                        },
                        1,
                        false,
                        Scheme::Generative,
                    ),
                    kind("coin", nuts(COLD_NUTS, COLD_NUTS), 1, false, Scheme::Mixed),
                    fresh(kind(
                        "kidscore_momiq",
                        nuts(COLD_NUTS, COLD_NUTS),
                        1,
                        false,
                        Scheme::Mixed,
                    )),
                    fresh(kind(
                        "kidscore_mom_work",
                        MethodSpec::Importance {
                            particles: COLD_PARTICLES,
                        },
                        1,
                        false,
                        Scheme::Generative,
                    )),
                    fresh(kind(
                        "seeds_binomial",
                        nuts(COLD_NUTS, COLD_NUTS),
                        1,
                        false,
                        Scheme::Mixed,
                    )),
                ],
            }
        }
    }
}

/// The request kinds' base requests: base source, the fixed data set, no
/// per-request seed yet.
fn base_requests(p: &Profile) -> Result<Vec<Request>, String> {
    p.kinds
        .iter()
        .map(|k| {
            let entry = model_zoo::find(k.model).ok_or_else(|| format!("no model {}", k.model))?;
            Ok(Request {
                name: k.model.to_string(),
                scheme: k.scheme,
                method: k.method.clone(),
                chains: k.chains,
                seed: 0,
                gq: k.gq,
                data: entry.dataset(DATA_SEED),
                source: entry.source.to_string(),
            })
        })
        .collect()
}

/// Request `i` of a phase and its kind (on cold, fresh-data kinds count
/// from `kinds.len()`). The kind and, on cold, the kind of miss come from
/// the fixed [`LOAD_SEED`] and `pattern_stream`; the chain seed, fresh
/// data and tenant id from the workload seed and `stream`.
fn make_request(
    k: Kind,
    p: &Profile,
    base: &[Request],
    seed: u64,
    pattern_stream: u64,
    stream: u64,
    i: usize,
) -> (usize, Request) {
    let mut pattern = mix(LOAD_SEED, pattern_stream.wrapping_add(i as u64));
    let state = mix(seed, stream.wrapping_add(i as u64));
    let pick = |state: &mut u64, n: usize| ((uniform(state) * n as f64) as usize).min(n - 1);
    let mut kind = pick(&mut pattern, p.kinds.len());
    let mut request = base[kind].clone();
    request.seed = mix(state, 7);
    if k == Kind::Cold {
        let fresh: Vec<usize> = (0..p.kinds.len())
            .filter(|&j| p.kinds[j].fresh_data)
            .collect();
        if uniform(&mut pattern) < 0.5 {
            // A bind miss: fresh data for a source the server compiled.
            kind = fresh[pick(&mut pattern, fresh.len())];
            request = base[kind].clone();
            request.seed = mix(state, 7);
            let entry = model_zoo::find(p.kinds[kind].model).expect("checked in base_requests");
            request.data = entry.dataset(mix(state, 11));
            kind += p.kinds.len();
        } else {
            // A compile miss: a source no other tenant sends.
            request.source = format!("// tenant {:016x}\n{}", mix(state, 13), request.source);
        }
    }
    (kind, request)
}

/// What one served request produced.
struct Served {
    kind: usize,
    ok: bool,
    wall_s: f64,
    retries: usize,
    chain_walls: Vec<f64>,
    /// Min bulk ESS and wire bytes, for the first responses of each kind.
    ess: Option<f64>,
    bytes: Option<usize>,
    /// The request and response, kept for the served-equals-direct check.
    spot: Option<(Request, ServedFit)>,
}

/// Response checks: no error, no partial result, every chain present with
/// the requested number of draws, generated quantities when asked.
fn check_response(r: &Request, fit: &ServedFit) -> Result<(), String> {
    if fit.deadline_exceeded {
        return Err("deadline exceeded".into());
    }
    let draws = match r.method {
        MethodSpec::Nuts { samples, .. } => samples,
        MethodSpec::Advi { .. } => AdviConfig::default().output_samples,
        MethodSpec::Importance { particles } => particles,
    };
    if fit.chains.len() != r.chains || fit.chains.iter().any(|c| c.draws.len() != draws) {
        return Err(format!("expected {} chains of {draws} draws", r.chains));
    }
    if r.gq && (fit.gq_chains.len() != r.chains || fit.gq_names.is_none()) {
        return Err("generated quantities missing".into());
    }
    Ok(())
}

/// Sends one request, retrying `busy` answers after the server's hint.
fn send(
    client: &mut Client,
    request: &Request,
    first_chain: &mut Option<Instant>,
) -> (Result<ServedFit, String>, usize) {
    let mut retries = 0;
    loop {
        let result = client.request_streaming(request, &mut |frame| {
            if matches!(frame, Response::Chain { .. }) && first_chain.is_none() {
                *first_chain = Some(Instant::now());
            }
        });
        match result {
            Ok(fit) => return (Ok(fit), retries),
            Err(ClientError::Busy { retry_after_ms }) if retries + 1 < MAX_ATTEMPTS => {
                retries += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
            }
            Err(e) => return (Err(e.to_string()), retries),
        }
    }
}

/// Runs an open loop: request `i` is due at `start + due[i]`; each state
/// (one per client thread) takes the next request as soon as it is free,
/// and calls `finished` with the phase start, the request's timing and its
/// result before it takes the next one. Returns every request's timing
/// (offsets from the phase start) and result, in request order.
pub fn open_loop<S: Send, R: Send>(
    due: &[Duration],
    states: &mut [S],
    serve: &(dyn Fn(&mut S, usize, &mut Option<Instant>) -> R + Sync),
    finished: &(dyn Fn(Instant, &Timing, &R) + Sync),
) -> Vec<(Timing, R)> {
    let start = Instant::now() + Duration::from_millis(2);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(Timing, R)>>> =
        Mutex::new((0..due.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for state in states.iter_mut() {
            let (next, results) = (&next, &results);
            s.spawn(move || loop {
                let free = Instant::now();
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= due.len() {
                    break;
                }
                let due_at = start + due[i];
                let now = Instant::now();
                if now < due_at {
                    std::thread::sleep(due_at - now);
                }
                let sent = Instant::now();
                let mut first_chain = None;
                let r = serve(state, i, &mut first_chain);
                let done = Instant::now();
                let at = |t: Instant| t.saturating_duration_since(start);
                let timing = Timing {
                    due: due[i],
                    ready: at(free.max(due_at)),
                    sent: at(sent),
                    first_chain: first_chain.map(at),
                    done: at(done),
                };
                finished(start, &timing, &r);
                results.lock().expect("results lock poisoned")[i] = Some((timing, r));
            });
        }
    });
    results
        .into_inner()
        .expect("results lock poisoned")
        .into_iter()
        .map(|r| r.expect("every request ran"))
        .collect()
}

/// Seeded Poisson arrival offsets at `rps` for `seconds`.
fn schedule(seed: u64, rps: f64, seconds: f64) -> Vec<Duration> {
    let mut state = seed;
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        t += -(1.0 - uniform(&mut state)).ln() / rps;
        if t >= seconds {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Requests still unsent when the last one came due: near zero when the
/// offered rate is sustainable, growing with the phase when it is not.
fn residual_backlog(timings: &[Timing]) -> usize {
    let last_due = timings.iter().map(|t| t.due).max().unwrap_or_default();
    timings.iter().filter(|t| t.sent > last_due).count()
}

struct Phase {
    results: Vec<(Timing, Served)>,
    duration_s: f64,
    stats: obs::Snapshot,
    /// Whether requests were still queued, past a small allowance, when
    /// the last one of a segment came due.
    backlog_grew: bool,
}

impl Phase {
    /// Appends a later segment run at the same rate.
    fn absorb(&mut self, other: Phase) {
        self.results.extend(other.results);
        self.duration_s += other.duration_s;
        self.stats.merge(&other.stats);
        self.backlog_grew |= other.backlog_grew;
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.results.iter().map(|(t, _)| ms(t.latency())).collect()
    }
}

struct Bench {
    kind: Kind,
    profile: Profile,
    base: Vec<Request>,
    seed: u64,
}

impl Bench {
    /// Starts a server and warms it: one request per kind, so every base
    /// program is compiled and, on hot, every timed request hits.
    fn set_up(&self) -> Result<(Server, Vec<Client>), String> {
        let server = Server::start(ServeConfig {
            workers: CONNECTIONS,
            queue_capacity: CONNECTIONS * 4,
            model_cache_capacity: self.profile.model_cache,
            ..Default::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let mut clients = (0..CONNECTIONS)
            .map(|_| Client::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        for (i, request) in self.base.iter().enumerate() {
            let mut r = request.clone();
            r.seed = mix(self.seed, 500 + i as u64);
            let fit = clients[i % CONNECTIONS]
                .request(&r)
                .map_err(|e| format!("warm-up {}: {e}", r.name))?;
            check_response(&r, &fit).map_err(|e| format!("warm-up {}: {e}", r.name))?;
        }
        Ok((server, clients))
    }

    /// One phase: arrivals and request kinds from stream `arrivals`, the
    /// requests' seeds, data and tenant ids from `stream`.
    /// With `traced`, each request's spans are recorded as it completes,
    /// inside the timed loop.
    #[allow(clippy::too_many_arguments)]
    fn phase(
        &self,
        clients: &mut [Client],
        arrivals: u64,
        stream: u64,
        rps: f64,
        seconds: f64,
        traced: bool,
        keep: bool,
    ) -> Result<Phase, String> {
        let due = schedule(mix(LOAD_SEED, arrivals), rps, seconds);
        let requests: Vec<(usize, Request)> = (0..due.len())
            .map(|i| {
                make_request(
                    self.kind,
                    &self.profile,
                    &self.base,
                    self.seed,
                    arrivals << 32,
                    stream << 32,
                    i,
                )
            })
            .collect();
        // The first KEEP_PER_KIND responses of every kind are measured
        // after timing; with `keep`, the first SPOT_PER_KIND are kept to
        // re-run in process.
        let mut seen = vec![0usize; 2 * self.profile.kinds.len()];
        let order: Vec<usize> = requests
            .iter()
            .map(|(k, _)| {
                seen[*k] += 1;
                seen[*k]
            })
            .collect();
        let before = clients[0].stats().map_err(|e| format!("stats: {e}"))?;
        trace::set_enabled(traced);
        let t = Instant::now();
        let serve = |client: &mut Client, i, first_chain: &mut Option<Instant>| {
            let (kind, request) = &requests[i];
            let (fit, retries) = send(client, request, first_chain);
            let mut served = Served {
                kind: *kind,
                ok: false,
                wall_s: f64::NAN,
                retries,
                chain_walls: Vec::new(),
                ess: None,
                bytes: None,
                spot: None,
            };
            let Ok(fit) = fit else {
                return (served, None);
            };
            served.ok = check_response(request, &fit).is_ok();
            served.wall_s = fit.wall_time;
            served.chain_walls = fit.chains.iter().map(|c| c.wall_time).collect();
            // Only responses measured after timing are held until then, and
            // only the spot-checked ones with their generated quantities.
            let mut fit = Some(fit).filter(|_| order[i] <= KEEP_PER_KIND);
            if let Some(f) = fit
                .as_mut()
                .filter(|_| !(keep && order[i] <= SPOT_PER_KIND))
            {
                f.gq_chains = Vec::new();
            }
            (served, fit)
        };
        let finished = |start, timing: &Timing, (served, _): &(Served, Option<ServedFit>)| {
            if traced {
                record_spans(start, timing, served.wall_s);
            }
        };
        let raw = open_loop(&due, clients, &serve, &finished);
        let duration_s = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        let results: Vec<(Timing, Served)> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (timing, (mut served, fit)))| {
                if let Some(fit) = fit {
                    served.ess = Some(min_bulk_ess(&fit));
                    if keep && order[i] <= SPOT_PER_KIND {
                        served.bytes = Some(response_bytes(&fit));
                        served.spot = Some((requests[i].1.clone(), fit));
                    }
                }
                (timing, served)
            })
            .collect();
        let after = clients[0].stats().map_err(|e| format!("stats: {e}"))?;
        let timings: Vec<Timing> = results.iter().map(|(t, _)| *t).collect();
        Ok(Phase {
            backlog_grew: residual_backlog(&timings) > (results.len() / 20).max(50),
            results,
            duration_s,
            stats: after.delta(&before),
        })
    }
}

/// The spans of one finished request, from its timing: the request from
/// due to done, its backlog wait and generator lateness, the exchange on
/// the connection, and inside that the server's reported run (`wall_s`).
fn record_spans(start: Instant, t: &Timing, wall_s: f64) {
    let at = |d: Duration| start + d;
    let group = trace::new_group();
    let root = trace::record("serve.request", group, 0, at(t.due), at(t.done));
    trace::record("loadgen.backlog", group, root, at(t.due), at(t.ready));
    trace::record("loadgen.late", group, root, at(t.ready), at(t.sent));
    let exchange = trace::record("client.exchange", group, root, at(t.sent), at(t.done));
    if wall_s.is_finite() {
        let run = Duration::from_secs_f64(wall_s).min(t.done - t.sent);
        trace::record("serve.run", group, exchange, at(t.done - run), at(t.done));
    }
}

/// Bytes on the wire of a response: its frames re-encoded, each with its
/// four-byte length prefix.
fn response_bytes(fit: &ServedFit) -> usize {
    let mut frames = vec![Response::Names {
        names: fit.names.clone(),
    }];
    frames.extend(fit.chains.iter().map(|c| Response::Chain {
        index: c.index,
        divergences: c.divergences,
        wall_time: c.wall_time,
        n_grad_evals: c.n_grad_evals,
        draws: c.draws.clone(),
    }));
    if let Some(names) = &fit.gq_names {
        frames.push(Response::GqNames {
            names: names.clone(),
        });
    }
    frames.extend(fit.gq_chains.iter().map(|(index, rows)| Response::GqChain {
        index: *index,
        rows: rows.clone(),
    }));
    frames.push(Response::Done {
        wall_time: fit.wall_time,
    });
    frames.iter().map(|f| f.encode().len() + 4).sum()
}

/// The in-process method a request's method spec runs, with the settings
/// the server uses.
fn method_of(spec: &MethodSpec) -> Method {
    match *spec {
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
    }
}

/// Re-runs a kept request in process and compares the draws bitwise.
fn served_equals_direct(request: &Request, served: &ServedFit) -> Result<(), String> {
    let program = DeepStan::compile(&request.source).map_err(|e| e.to_string())?;
    let data = refs(&request.data);
    let method = method_of(&request.method);
    let mut session = program
        .session(&data)
        .map_err(|e| e.to_string())?
        .scheme(request.scheme)
        .chains(request.chains)
        .seed(request.seed);
    let mut direct = session.run(method).map_err(|e| e.to_string())?;
    if request.gq {
        session
            .generated_quantities(&mut direct)
            .map_err(|e| e.to_string())?;
    }
    let same = |a: &[Vec<f64>], b: &[Vec<f64>]| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            })
    };
    if served.chains.len() != direct.chains.len()
        || !served
            .chains
            .iter()
            .zip(&direct.chains)
            .all(|(s, d)| same(&s.draws, &d.draws))
    {
        return Err("served draws differ from the direct run".into());
    }
    if let Some(gq) = &direct.gq {
        let rows: Vec<&Vec<Vec<f64>>> = served.gq_chains.iter().map(|(_, r)| r).collect();
        if rows.len() != gq.chains.len() || !rows.iter().zip(&gq.chains).all(|(s, d)| same(s, d)) {
            return Err("served generated quantities differ from the direct run".into());
        }
    }
    Ok(())
}

pub fn run(args: &Args, k: Kind) -> Result<Outcome, String> {
    let profile = profile(k);
    let base = base_requests(&profile)?;
    let bench = Bench {
        kind: k,
        profile,
        base,
        seed: args.seed,
    };
    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..SETUP_REPS {
        // The previous round's server shuts down first, outside the clock.
        drop(running.take());
        let t = Instant::now();
        running = Some(bench.set_up()?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (server, mut clients) = running.expect("SETUP_REPS > 0");
    let evictions_before = server.cache().evictions();
    let p = &bench.profile;
    let nominal_s = NOMINAL_SHARE * args.seconds / SEGMENTS as f64;
    let high_s = args.seconds / SEGMENTS as f64 - nominal_s;
    // Segments alternate the two rates so both see the same machine
    // conditions. The traced run splits each nominal segment into an
    // untraced and a traced half with the same arrival times and request
    // kinds (seeds, data and tenant ids differ, so that on cold every
    // request still misses), for the tracing overhead.
    let mut phases: Vec<Phase> = Vec::new();
    for seg in 0..SEGMENTS as u64 {
        let first = seg == 0;
        let (nominal, high) = (10 + seg, 30 + seg);
        let mut segment = Vec::new();
        if args.trace {
            let half = nominal_s / 2.0;
            for (stream, traced) in [(nominal, false), (20 + seg, true)] {
                segment.push(bench.phase(
                    &mut clients,
                    nominal,
                    stream,
                    p.nominal_rps,
                    half,
                    traced,
                    first,
                )?);
            }
        } else {
            segment.push(bench.phase(
                &mut clients,
                nominal,
                nominal,
                p.nominal_rps,
                nominal_s,
                false,
                first,
            )?);
        }
        segment.push(bench.phase(
            &mut clients,
            high,
            high,
            p.high_rps,
            high_s,
            args.trace,
            first,
        )?);
        if phases.is_empty() {
            phases = segment;
        } else {
            for (acc, ph) in phases.iter_mut().zip(segment) {
                acc.absorb(ph);
            }
        }
    }
    let evictions = server.cache().evictions() - evictions_before;
    drop(clients);
    server.shutdown();
    // Each round's server shuts down, outside the clock, before the next
    // one starts.
    for _ in 0..SETUP_REPS_AFTER {
        let t = Instant::now();
        let (spare, spare_clients) = bench.set_up()?;
        setups.push(t.elapsed().as_secs_f64());
        drop(spare_clients);
        spare.shutdown();
    }

    let mut outcome = Outcome::default();
    let all = || phases.iter().flat_map(|ph| ph.results.iter());
    for (_, s) in all() {
        outcome.check(s.ok, || {
            format!("kind {}: failed or incomplete response", s.kind)
        });
    }
    for (_, s) in all() {
        if let Some((request, fit)) = &s.spot {
            let verdict = served_equals_direct(request, fit);
            outcome.check(verdict.is_ok(), || {
                format!("{}: {}", request.name, verdict.unwrap_err())
            });
        }
    }
    let timings: Vec<Timing> = all().map(|(t, _)| *t).collect();
    let late_p99 = quantile(
        &timings.iter().map(|t| ms(t.late())).collect::<Vec<_>>(),
        0.99,
    );
    let nominal = &phases[0];
    if late_p99 > LATE_LIMIT_MS || nominal.backlog_grew {
        return Err(format!(
            "invalid run: the generator could not hold the offered rate \
             (lateness p99 {late_p99:.2} ms, nominal backlog grew: {})",
            nominal.backlog_grew
        ));
    }
    let high = phases.last().expect("high phase");
    if args.trace {
        per_layer(&bench, &phases, evictions, late_p99, &mut outcome)?;
    } else {
        end_to_end(&bench, &setups, nominal, high, &mut outcome);
    }
    Ok(outcome)
}

/// Smallest bulk ESS over a served fit's components.
fn min_bulk_ess(fit: &ServedFit) -> f64 {
    oracle::min_bulk_ess(
        |j| {
            fit.chains
                .iter()
                .map(|c| c.draws.iter().map(|r| r[j]).collect())
                .collect()
        },
        fit.names.len(),
    )
}

/// Per kind: the median over measured responses of min bulk ESS / served
/// wall.
fn ess_per_s(results: &[(Timing, Served)], kinds: usize) -> Vec<f64> {
    (0..kinds)
        .filter_map(|k| {
            let xs: Vec<f64> = results
                .iter()
                .filter(|(_, s)| s.kind == k)
                .filter_map(|(_, s)| s.ess.map(|ess| ess / s.wall_s))
                .collect();
            (!xs.is_empty()).then(|| median(&xs))
        })
        .collect()
}

fn end_to_end(bench: &Bench, setups: &[f64], nominal: &Phase, high: &Phase, outcome: &mut Outcome) {
    let p = &bench.profile;
    let kinds = 2 * p.kinds.len();
    let walls: Vec<(usize, f64)> = (0..kinds)
        .filter_map(|k| {
            let xs: Vec<f64> = nominal
                .results
                .iter()
                .filter(|(_, s)| s.kind == k && s.ok)
                .map(|(_, s)| s.wall_s)
                .collect();
            (!xs.is_empty()).then(|| (k, median(&xs)))
        })
        .collect();
    for &(k, w) in &walls {
        let spec = &p.kinds[k % p.kinds.len()];
        let miss = if k < p.kinds.len() {
            ""
        } else {
            ", fresh data"
        };
        eprintln!(
            "  kind {} {:?}{miss}: served wall median {:.3} ms",
            spec.model,
            spec.method,
            w * 1e3
        );
    }
    let walls: Vec<f64> = walls.into_iter().map(|(_, w)| w).collect();
    let lat = nominal.latencies_ms();
    let backlog: Vec<f64> = nominal
        .results
        .iter()
        .map(|(t, _)| ms(t.backlog_wait()))
        .collect();
    let ttfc: Vec<f64> = nominal
        .results
        .iter()
        .filter_map(|(t, _)| t.ttfc().map(ms))
        .collect();
    let high_lat = high.latencies_ms();
    // Every phase holds well over a thousand requests: p99 throughout.
    let (lat_tail, high_tail) = (tail(&lat, 99.0), tail(&high_lat, 99.0));
    let good = high
        .results
        .iter()
        .filter(|(t, s)| s.ok && ms(t.latency()) <= p.goodput_limit_ms)
        .count();
    let n = |xs: &[f64]| format!("n={}", xs.len());
    let per = format!(
        "{} request kinds, served wall_time medians at nominal",
        walls.len()
    );
    eprintln!(
        "  high phase: {} requests in {:.2} s = {:.1} rps completed",
        high.results.len(),
        high.duration_s,
        high.results.len() as f64 / high.duration_s
    );
    for m in [
        Metric::new("setup_s", median(setups), "s").note(format!(
            "median of {} server start + warm-up rounds",
            setups.len()
        )),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new("fit_s_geomean", geomean(&walls), "s").note(&per),
        Metric::new("fit_s_total", walls.iter().sum(), "s").note(&per),
        Metric::new(
            "ess_per_s_geomean",
            geomean(&ess_per_s(&nominal.results, kinds)),
            "1/s",
        )
        .note(format!(
            "up to {KEEP_PER_KIND} responses per kind and segment"
        )),
        Metric::new("p50_ms", median(&lat), "ms").note(format!(
            "{}; {} rps offered",
            n(&lat),
            p.nominal_rps
        )),
        Metric::new("p99_ms", lat_tail.0, "ms").note(format!(
            "{}; client backlog wait p99 {:.3} ms",
            lat_tail.1,
            quantile(&backlog, 0.99)
        )),
        Metric::new("ttfc_p50_ms", median(&ttfc), "ms").note(n(&ttfc)),
        Metric::new("p99_ms_high", high_tail.0, "ms")
            .note(format!("{}; {} rps offered", high_tail.1, p.high_rps)),
        Metric::new("goodput_rps", good as f64 / high.duration_s, "1/s").note(format!(
            "{good} of {} correct within {} ms",
            high_lat.len(),
            p.goodput_limit_ms
        )),
    ] {
        outcome.push(m);
    }
}

/// Merged quantile (ms) of the server's per-method histograms `prefix.*`.
fn server_ms(stats: &obs::Snapshot, prefix: &str, q: f64) -> f64 {
    let mut merged = obs::HistogramSnapshot::empty();
    for (_, h) in stats
        .histograms
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
    {
        merged.merge(h);
    }
    merged.quantile(q) / 1e6
}

fn per_layer(
    bench: &Bench,
    phases: &[Phase],
    evictions: u64,
    late_p99: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let p = &bench.profile;
    let (untraced, traced) = (&phases[0], &phases[1]);
    let counters = |name: &str| -> f64 {
        phases
            .iter()
            .map(|ph| ph.stats.counter(name).unwrap_or(0) as f64)
            .sum()
    };
    let ratio = |hits: &str, misses: &str| {
        let (h, m) = (counters(hits), counters(misses));
        h / (h + m)
    };
    let all = || phases.iter().flat_map(|ph| ph.results.iter());
    let outside: Vec<f64> = untraced
        .results
        .iter()
        .filter(|(_, s)| s.wall_s.is_finite())
        .map(|(t, s)| ms(t.done - t.sent) - s.wall_s * 1e3)
        .collect();
    let bytes: Vec<f64> = all()
        .filter_map(|(_, s)| s.bytes)
        .map(|b| b as f64)
        .collect();
    let imbalance: Vec<f64> = all()
        .filter(|(_, s)| s.chain_walls.len() > 1)
        .map(|(_, s)| {
            let w = &s.chain_walls;
            w.iter().copied().fold(0.0, f64::max) / (w.iter().sum::<f64>() / w.len() as f64)
        })
        .collect();
    let grew = phases.iter().any(|ph| ph.backlog_grew);
    // The server's own span histograms: worker time in parse, typecheck,
    // translate and the bind phases, against all worker time.
    let sum_ns = |keep: &dyn Fn(&str) -> bool| -> f64 {
        phases
            .iter()
            .flat_map(|ph| ph.stats.histograms.iter())
            .filter(|(name, _)| keep(name))
            .map(|(_, h)| h.sum as f64)
            .sum()
    };
    let compile_bind_ns =
        sum_ns(&|n| (n.starts_with("compile.") || n.starts_with("bind.")) && n.ends_with("_ns"));
    let run_ns = sum_ns(&|n| n.starts_with("serve.run_ns."));
    for m in [
        Metric::new(
            "serve.queue_ms_p50",
            server_ms(&untraced.stats, "serve.queue_ns.", 0.5),
            "ms",
        )
        .note("stats-frame delta, nominal"),
        Metric::new(
            "serve.queue_ms_p99",
            server_ms(&untraced.stats, "serve.queue_ns.", 0.99),
            "ms",
        ),
        Metric::new(
            "serve.run_ms_p50",
            server_ms(&untraced.stats, "serve.run_ns.", 0.5),
            "ms",
        ),
        Metric::new(
            "serve.run_ms_p99",
            server_ms(&untraced.stats, "serve.run_ns.", 0.99),
            "ms",
        ),
        Metric::new("serve.outside_run_ms_p50", median(&outside), "ms")
            .note("client exchange minus served wall_time, nominal"),
        Metric::new("serve.compile_bind_share", compile_bind_ns / run_ns, "frac").note(format!(
            "compile.* and bind.* span sums {:.1} ms over serve.run {:.1} ms; \
             bind work outside its resolve/lower/emit spans not counted",
            compile_bind_ns / 1e6,
            run_ns / 1e6
        )),
        Metric::new(
            "serve.response_bytes",
            bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
            "bytes",
        )
        .note(format!(
            "mean over {} responses, frames re-encoded",
            bytes.len()
        )),
        Metric::new(
            "serve.cache_program_hit_ratio",
            ratio("serve.cache.program_hits", "serve.cache.program_misses"),
            "frac",
        ),
        Metric::new(
            "serve.cache_model_hit_ratio",
            ratio("serve.cache.model_hits", "serve.cache.model_misses"),
            "frac",
        ),
        Metric::new("serve.cache_evictions", evictions as f64, "count"),
        Metric::new(
            "serve.pool_rejected",
            counters("serve.pool.rejected"),
            "count",
        ),
        Metric::new(
            "serve.retries",
            all().map(|(_, s)| s.retries).sum::<usize>() as f64,
            "count",
        ),
        Metric::new("loadgen.late_ms_p99", late_p99, "ms"),
        Metric::new("loadgen.sent", all().count() as f64, "count"),
        Metric::new("loadgen.backlog_grew", f64::from(u8::from(grew)), "bool")
            .note("residual backlog at the end of any phase"),
        Metric::new(
            "obs.trace_overhead_frac",
            median(&traced.latencies_ms()) / median(&untraced.latencies_ms()) - 1.0,
            "frac",
        )
        .note("nominal p50, traced half over untraced half (same arrivals, spans recorded live)"),
        Metric::new("deepstan.chain_wall_imbalance", median(&imbalance), "ratio")
            .note("served chains, max/mean"),
    ] {
        outcome.push(m);
    }

    trace::set_enabled(true);
    let mut probes: Vec<ProbeModel> = Vec::new();
    for (i, k) in p.kinds.iter().enumerate() {
        let nuts = match k.method {
            MethodSpec::Nuts { warmup, samples } => Some((warmup, samples)),
            _ => None,
        };
        match probes.iter_mut().find(|m| m.label == k.model) {
            Some(m) => m.nuts = m.nuts.or(nuts),
            None => probes.push(ProbeModel {
                label: k.model.to_string(),
                source: bench.base[i].source.clone(),
                data: bench.base[i].data.clone(),
                nuts,
            }),
        }
    }
    for m in layers::probe(&probes)? {
        outcome.push(m);
    }
    // Direct runs of each kind's base request: session wall and the
    // per-step / per-particle cost of the non-NUTS methods.
    let mut session_ms = Vec::new();
    for (i, k) in p.kinds.iter().enumerate() {
        let r = &bench.base[i];
        let program = DeepStan::compile(&r.source).map_err(|e| e.to_string())?;
        let data = refs(&r.data);
        let mut session = program
            .session(&data)
            .map_err(|e| e.to_string())?
            .scheme(r.scheme)
            .chains(r.chains)
            .seed(bench.seed);
        let per = match k.method {
            MethodSpec::Nuts { .. } => None,
            MethodSpec::Advi { steps } => Some((steps, "inference.advi_step_us")),
            MethodSpec::Importance { particles } => {
                Some((particles, "inference.importance_us_per_particle"))
            }
        };
        let method = method_of(&k.method);
        let t = Instant::now();
        session
            .run(method)
            .map_err(|e| format!("{}: {e}", k.model))?;
        let s = t.elapsed().as_secs_f64();
        session_ms.push(s * 1e3);
        if let Some((n, name)) = per {
            if !outcome.metrics.iter().any(|m| m.name == name) {
                outcome.push(Metric::new(name, s * 1e6 / n as f64, "us").note(k.model));
            }
        }
    }
    trace::set_enabled(false);
    outcome.push(
        Metric::new("deepstan.session_run_ms", median(&session_ms), "ms")
            .note("direct runs of each kind's base request"),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // One thread, a request due every millisecond, each taking 10 ms:
        // request k cannot be sent before 10k ms, so its latency from the
        // due time is at least 10(k+1) - k ms although each service is 10.
        let due: Vec<Duration> = (0..5).map(Duration::from_millis).collect();
        let mut states = [()];
        let finished = AtomicUsize::new(0);
        let results = open_loop(
            &due,
            &mut states,
            &|_, _, first: &mut Option<Instant>| {
                std::thread::sleep(Duration::from_millis(5));
                *first = Some(Instant::now());
                std::thread::sleep(Duration::from_millis(5));
            },
            &|_, _, _| {
                finished.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(finished.into_inner(), 5);
        for (k, (t, ())) in results.iter().enumerate() {
            let k = k as u64;
            assert!(
                t.latency() >= Duration::from_millis(10 * (k + 1) - k),
                "{k}: {t:?}"
            );
            assert!(
                t.backlog_wait() >= Duration::from_millis(9 * k),
                "{k}: {t:?}"
            );
            assert!(t.done - t.sent >= Duration::from_millis(10));
            assert!(t.ttfc().expect("first chain") >= Duration::from_millis(5));
            assert_eq!(t.latency(), (t.done - t.sent) + t.backlog_wait() + t.late());
        }
        let timings: Vec<Timing> = results.iter().map(|(t, _)| *t).collect();
        // Four requests were still waiting when the last came due.
        assert_eq!(residual_backlog(&timings), 4);
    }

    #[test]
    fn schedule_is_seeded_poisson() {
        let a = schedule(7, 1000.0, 2.0);
        assert_eq!(a, schedule(7, 1000.0, 2.0));
        assert_ne!(a, schedule(8, 1000.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 2000 arrivals expected; Poisson sd is about 45.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
    }
}
