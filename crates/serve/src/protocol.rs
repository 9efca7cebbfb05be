//! The wire protocol: length-prefixed UTF-8 frames over TCP.
//!
//! # Frame format
//!
//! Every message in either direction is one *frame*: a 4-byte big-endian
//! unsigned length followed by that many bytes of UTF-8 text. Frames are
//! self-delimiting, so multi-line payloads (model source, draw matrices)
//! need no in-band escaping; a reader either gets a complete message or an
//! error. Frames larger than [`MAX_FRAME`] bytes are rejected before
//! allocation.
//!
//! Floating-point values are encoded with Rust's shortest-round-trip
//! `Display` and decoded with `str::parse::<f64>`, which reproduces the
//! original bits exactly — the differential tests assert served draws are
//! *bitwise* equal to an in-process `Session::run`.
//!
//! # Request frame
//!
//! A request is one frame of header lines followed by the model source:
//!
//! ```text
//! run <name>
//! scheme <mixed|comprehensive|generative>
//! method <nuts <warmup> <samples> | advi <steps> | importance <particles>>
//! chains <n>
//! seed <n>
//! gq <0|1>
//! data <k>
//! <k data lines>
//! source
//! <model source, verbatim, to end of frame>
//! ```
//!
//! Data lines carry one named value each: `int n 5`, `real x 1.5`,
//! `ints x 1 0 1`, `reals y 0.3 0.7`, and row-major 2-D blocks
//! `rows m <nrows> <ncols> <values...>` / `introws m <nrows> <ncols>
//! <values...>`.
//!
//! Besides `run`, a client may send the single-line frame `stats`, which
//! the server answers immediately (on the connection thread, never
//! queued) with one `stats` response frame carrying the full telemetry
//! registry snapshot in [`obs::Snapshot::to_text`] form. Frames whose
//! first line is neither `run ...` nor `stats` get an `error` frame; the
//! connection stays usable.
//!
//! # Response frames
//!
//! The server streams one `names` frame, then one `chain` frame *per chain
//! as that chain finishes sampling* (for thread-per-chain NUTS this is
//! completion order, while other chains are still running), optionally
//! `gqnames`/`gqchain` frames when the request set `gq 1`, and finally a
//! `done` frame. A request rejected by backpressure gets a single `busy
//! <retry_after_ms>` frame; failures get a single `error <message>` frame.
//!
//! A request cancelled by the server's deadline (or by drain) ends with a
//! `deadline_exceeded <wall_time>` frame instead of `done`: every `chain`
//! frame streamed before it is complete and valid — the draws each chain
//! finished before cancellation, a bitwise prefix of the same-seed
//! uncancelled run — so the client keeps the partial result.

use std::io::{self, Read, Write};

use gprob::value::Value;

/// Upper bound on a frame's payload size (64 MiB).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME`].
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
/// Propagates I/O errors; rejects oversized or non-UTF-8 frames and EOF
/// inside a frame.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The inference method of a request, with its per-method settings.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodSpec {
    /// NUTS with the given warmup/sampling iteration counts.
    Nuts {
        /// Warmup iterations.
        warmup: usize,
        /// Retained sampling iterations.
        samples: usize,
    },
    /// Mean-field ADVI with the given optimization step count.
    Advi {
        /// Optimization steps.
        steps: usize,
    },
    /// Likelihood-weighting importance sampling.
    Importance {
        /// Prior proposals to draw and weight.
        particles: usize,
    },
}

/// One parsed inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Model name (cache display / logging only; the cache key is the
    /// source hash, so two tenants with the same name never collide).
    pub name: String,
    /// Compilation scheme.
    pub scheme: stan2gprob::Scheme,
    /// Method and settings.
    pub method: MethodSpec,
    /// Number of chains.
    pub chains: usize,
    /// Master seed (chain `c` derives `seed + c`).
    pub seed: u64,
    /// Whether to stream generated quantities after the fit.
    pub gq: bool,
    /// Named data bindings.
    pub data: Vec<(String, Value<f64>)>,
    /// Stan source text.
    pub source: String,
}

/// One request frame, dispatched on its first line: `run ...` frames
/// carry a full [`Request`]; the bare line `stats` asks for a telemetry
/// snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFrame {
    /// An inference request (`run <name>` header).
    Run(Request),
    /// A telemetry snapshot request (the single line `stats`).
    Stats,
}

impl RequestFrame {
    /// Encodes the frame as one payload.
    ///
    /// # Errors
    /// Unrepresentable data values in a `Run` request.
    pub fn encode(&self) -> Result<String, String> {
        match self {
            RequestFrame::Run(req) => req.encode(),
            RequestFrame::Stats => Ok("stats".to_string()),
        }
    }

    /// Parses a request frame payload, dispatching on the first line.
    ///
    /// # Errors
    /// Malformed `run` frames; frames whose first line is neither
    /// `run ...` nor `stats`.
    pub fn parse(payload: &str) -> Result<RequestFrame, String> {
        let first = payload.lines().next().unwrap_or("");
        if first == "stats" {
            return Ok(RequestFrame::Stats);
        }
        if first == "run" || first.starts_with("run ") {
            return Request::parse(payload).map(RequestFrame::Run);
        }
        Err(format!("unknown request frame `{first}`"))
    }
}

fn scheme_name(scheme: stan2gprob::Scheme) -> &'static str {
    match scheme {
        stan2gprob::Scheme::Comprehensive => "comprehensive",
        stan2gprob::Scheme::Mixed => "mixed",
        stan2gprob::Scheme::Generative => "generative",
    }
}

fn parse_scheme(s: &str) -> Result<stan2gprob::Scheme, String> {
    match s {
        "comprehensive" => Ok(stan2gprob::Scheme::Comprehensive),
        "mixed" => Ok(stan2gprob::Scheme::Mixed),
        "generative" => Ok(stan2gprob::Scheme::Generative),
        other => Err(format!("unknown scheme `{other}`")),
    }
}

fn encode_f64s(out: &mut String, xs: &[f64]) {
    for x in xs {
        out.push(' ');
        out.push_str(&x.to_string());
    }
}

fn parse_usize(s: Option<&str>, what: &str) -> Result<usize, String> {
    s.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what}"))
}

fn parse_f64(s: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("bad real `{s}`"))
}

/// Encodes one named data value as a data line.
///
/// # Errors
/// Values deeper than 2-D (or ragged/unit) are not representable.
pub fn encode_data_line(name: &str, value: &Value<f64>) -> Result<String, String> {
    match value {
        Value::Int(k) => Ok(format!("int {name} {k}")),
        Value::Real(x) => Ok(format!("real {name} {x}")),
        Value::IntArray(ks) => {
            let mut line = format!("ints {name}");
            for k in ks {
                line.push(' ');
                line.push_str(&k.to_string());
            }
            Ok(line)
        }
        Value::Vector(xs) => {
            let mut line = format!("reals {name}");
            encode_f64s(&mut line, xs);
            Ok(line)
        }
        Value::Array(rows) => {
            let ncols = |row: &Value<f64>| match row {
                Value::Vector(xs) => Some(xs.len()),
                Value::IntArray(ks) => Some(ks.len()),
                _ => None,
            };
            let Some(first) = rows.first() else {
                return Ok(format!("rows {name} 0 0"));
            };
            let cols = ncols(first)
                .ok_or_else(|| format!("data `{name}`: only 2-D arrays are representable"))?;
            let int_rows = matches!(first, Value::IntArray(_));
            let mut line = format!(
                "{} {name} {} {cols}",
                if int_rows { "introws" } else { "rows" },
                rows.len()
            );
            for row in rows {
                if ncols(row) != Some(cols) || matches!(row, Value::IntArray(_)) != int_rows {
                    return Err(format!("data `{name}`: ragged or mixed rows"));
                }
                match row {
                    Value::Vector(xs) => encode_f64s(&mut line, xs),
                    Value::IntArray(ks) => {
                        for k in ks {
                            line.push(' ');
                            line.push_str(&k.to_string());
                        }
                    }
                    _ => unreachable!("checked above"),
                }
            }
            Ok(line)
        }
        Value::Unit => Err(format!("data `{name}`: unit is not representable")),
    }
}

/// Parses one data line back into a named value.
///
/// # Errors
/// Malformed lines.
pub fn parse_data_line(line: &str) -> Result<(String, Value<f64>), String> {
    let mut parts = line.split_ascii_whitespace();
    let tag = parts.next().ok_or("empty data line")?;
    let name = parts.next().ok_or("data line missing name")?.to_string();
    let value = match tag {
        "int" => Value::Int(
            parts
                .next()
                .ok_or("int line missing value")?
                .parse()
                .map_err(|_| "bad int")?,
        ),
        "real" => Value::Real(parse_f64(parts.next().ok_or("real line missing value")?)?),
        "ints" => Value::IntArray(
            parts
                .map(|s| s.parse().map_err(|_| format!("bad int `{s}`")))
                .collect::<Result<_, _>>()?,
        ),
        "reals" => Value::Vector(parts.map(parse_f64).collect::<Result<_, _>>()?),
        "rows" | "introws" => {
            let nrows = parse_usize(parts.next(), "row count")?;
            let ncols = parse_usize(parts.next(), "column count")?;
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                if tag == "rows" {
                    let mut xs = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        xs.push(parse_f64(parts.next().ok_or("short rows line")?)?);
                    }
                    rows.push(Value::Vector(xs));
                } else {
                    let mut ks = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        ks.push(
                            parts
                                .next()
                                .ok_or("short introws line")?
                                .parse()
                                .map_err(|_| "bad int")?,
                        );
                    }
                    rows.push(Value::IntArray(ks));
                }
            }
            Value::Array(rows)
        }
        other => return Err(format!("unknown data tag `{other}`")),
    };
    Ok((name, value))
}

impl Request {
    /// Encodes the request as one frame payload.
    ///
    /// # Errors
    /// Unrepresentable data values.
    pub fn encode(&self) -> Result<String, String> {
        let mut out = format!("run {}\n", self.name);
        out.push_str(&format!("scheme {}\n", scheme_name(self.scheme)));
        match self.method {
            MethodSpec::Nuts { warmup, samples } => {
                out.push_str(&format!("method nuts {warmup} {samples}\n"));
            }
            MethodSpec::Advi { steps } => out.push_str(&format!("method advi {steps}\n")),
            MethodSpec::Importance { particles } => {
                out.push_str(&format!("method importance {particles}\n"));
            }
        }
        out.push_str(&format!("chains {}\n", self.chains));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("gq {}\n", u8::from(self.gq)));
        out.push_str(&format!("data {}\n", self.data.len()));
        for (name, value) in &self.data {
            out.push_str(&encode_data_line(name, value)?);
            out.push('\n');
        }
        out.push_str("source\n");
        out.push_str(&self.source);
        Ok(out)
    }

    /// Parses a request frame payload.
    ///
    /// # Errors
    /// Malformed frames.
    pub fn parse(payload: &str) -> Result<Request, String> {
        let mut lines = payload.lines();
        let mut field = |tag: &str| -> Result<String, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("missing `{tag}` line"))?;
            line.strip_prefix(tag)
                .and_then(|rest| {
                    rest.strip_prefix(' ')
                        .or(Some(rest).filter(|r| r.is_empty()))
                })
                .map(str::to_string)
                .ok_or_else(|| format!("expected `{tag} ...`, got `{line}`"))
        };
        let name = field("run")?;
        let scheme = parse_scheme(&field("scheme")?)?;
        let method_line = field("method")?;
        let mut m = method_line.split_ascii_whitespace();
        let method = match m.next() {
            Some("nuts") => MethodSpec::Nuts {
                warmup: parse_usize(m.next(), "warmup")?,
                samples: parse_usize(m.next(), "samples")?,
            },
            Some("advi") => MethodSpec::Advi {
                steps: parse_usize(m.next(), "steps")?,
            },
            Some("importance") => MethodSpec::Importance {
                particles: parse_usize(m.next(), "particles")?,
            },
            other => return Err(format!("unknown method `{}`", other.unwrap_or(""))),
        };
        let chains = field("chains")?.parse().map_err(|_| "bad chains")?;
        let seed = field("seed")?.parse().map_err(|_| "bad seed")?;
        let gq = field("gq")? == "1";
        let n_data: usize = field("data")?.parse().map_err(|_| "bad data count")?;
        let mut data = Vec::with_capacity(n_data);
        for _ in 0..n_data {
            data.push(parse_data_line(lines.next().ok_or("missing data line")?)?);
        }
        match lines.next() {
            Some("source") => {}
            other => return Err(format!("expected `source`, got `{other:?}`")),
        }
        let source = lines.collect::<Vec<_>>().join("\n");
        Ok(Request {
            name,
            scheme,
            method,
            chains,
            seed,
            gq,
            data,
            source,
        })
    }
}

/// One streamed response frame, as the client sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Flat component names, sent once before any chain.
    Names {
        /// Component names (`mu`, `theta[1]`, ...).
        names: Vec<String>,
    },
    /// One finished chain's constrained draws and sampler accounting.
    Chain {
        /// Chain index.
        index: usize,
        /// Divergent transitions after warmup.
        divergences: usize,
        /// Wall-clock seconds the chain ran for.
        wall_time: f64,
        /// Gradient evaluations the chain performed.
        n_grad_evals: usize,
        /// Constrained draws, one row per draw.
        draws: Vec<Vec<f64>>,
    },
    /// Generated-quantities column names (when the request set `gq 1`).
    GqNames {
        /// GQ column names.
        names: Vec<String>,
    },
    /// One chain's generated-quantities rows.
    GqChain {
        /// Chain index.
        index: usize,
        /// GQ rows, parallel to the chain's draws.
        rows: Vec<Vec<f64>>,
    },
    /// Terminal frame of a successful request.
    Done {
        /// Total request wall-clock seconds on the server.
        wall_time: f64,
    },
    /// Terminal frame of a request cancelled by the server's deadline or
    /// drain. Chain frames streamed before this one carry the partial
    /// result (each a bitwise prefix of the uncancelled run).
    DeadlineExceeded {
        /// Total request wall-clock seconds on the server.
        wall_time: f64,
    },
    /// The server's telemetry registry snapshot, answering a `stats`
    /// request frame.
    Stats {
        /// Snapshot in [`obs::Snapshot::to_text`] form (possibly empty).
        text: String,
    },
    /// Backpressure rejection: the worker queue is full; retry after the
    /// given delay.
    Busy {
        /// Suggested client retry delay in milliseconds.
        retry_after_ms: u64,
    },
    /// Terminal frame of a failed request.
    Error {
        /// Error message.
        message: String,
    },
}

fn encode_rows(header: String, rows: &[Vec<f64>]) -> String {
    let mut out = header;
    for row in rows {
        out.push('\n');
        let mut first = true;
        for x in row {
            if !first {
                out.push(' ');
            }
            first = false;
            push_f64(&mut out, *x);
        }
    }
    out
}

/// Appends `x` spelled exactly as `x.to_string()` spells it. An integral
/// finite value below 2^53 in magnitude (a generated-quantity int column,
/// say) prints through `i64`, which gives the same digits without float
/// formatting; `-0.0` stays on the float path, which prints it as `-0`.
fn push_f64(out: &mut String, x: f64) {
    use std::fmt::Write as _;
    let written =
        if x.fract() == 0.0 && x.abs() < (1u64 << 53) as f64 && !(x == 0.0 && x.is_sign_negative())
        {
            write!(out, "{}", x as i64)
        } else {
            write!(out, "{x}")
        };
    written.expect("writing to a String cannot fail");
}

fn parse_rows<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Vec<Vec<f64>>, String> {
    lines
        .map(|line| {
            line.split_ascii_whitespace()
                .map(parse_f64)
                .collect::<Result<Vec<f64>, _>>()
        })
        .collect()
}

impl Response {
    /// Encodes the response as one frame payload.
    pub fn encode(&self) -> String {
        match self {
            Response::Names { names } => format!("names {}", names.join(" ")),
            Response::Chain {
                index,
                divergences,
                wall_time,
                n_grad_evals,
                draws,
            } => encode_rows(
                format!("chain {index} {divergences} {wall_time} {n_grad_evals}"),
                draws,
            ),
            Response::GqNames { names } => format!("gqnames {}", names.join(" ")),
            Response::GqChain { index, rows } => encode_rows(format!("gqchain {index}"), rows),
            Response::Done { wall_time } => format!("done {wall_time}"),
            Response::DeadlineExceeded { wall_time } => format!("deadline_exceeded {wall_time}"),
            Response::Stats { text } => {
                let mut out = "stats".to_string();
                if !text.is_empty() {
                    out.push('\n');
                    out.push_str(text);
                }
                out
            }
            Response::Busy { retry_after_ms } => format!("busy {retry_after_ms}"),
            Response::Error { message } => format!("error {message}"),
        }
    }

    /// Parses a response frame payload.
    ///
    /// # Errors
    /// Malformed frames.
    pub fn parse(payload: &str) -> Result<Response, String> {
        let mut lines = payload.lines();
        let head = lines.next().ok_or("empty response frame")?;
        let (tag, rest) = head.split_once(' ').unwrap_or((head, ""));
        match tag {
            "names" => Ok(Response::Names {
                names: rest.split_ascii_whitespace().map(str::to_string).collect(),
            }),
            "chain" => {
                let mut h = rest.split_ascii_whitespace();
                Ok(Response::Chain {
                    index: parse_usize(h.next(), "chain index")?,
                    divergences: parse_usize(h.next(), "divergences")?,
                    wall_time: parse_f64(h.next().ok_or("missing wall time")?)?,
                    n_grad_evals: parse_usize(h.next(), "grad evals")?,
                    draws: parse_rows(lines)?,
                })
            }
            "gqnames" => Ok(Response::GqNames {
                names: rest.split_ascii_whitespace().map(str::to_string).collect(),
            }),
            "gqchain" => {
                let mut h = rest.split_ascii_whitespace();
                Ok(Response::GqChain {
                    index: parse_usize(h.next(), "chain index")?,
                    rows: parse_rows(lines)?,
                })
            }
            "done" => Ok(Response::Done {
                wall_time: parse_f64(rest)?,
            }),
            "deadline_exceeded" => Ok(Response::DeadlineExceeded {
                wall_time: parse_f64(rest)?,
            }),
            "stats" => Ok(Response::Stats {
                text: payload
                    .split_once('\n')
                    .map(|(_, body)| body.to_string())
                    .unwrap_or_default(),
            }),
            "busy" => Ok(Response::Busy {
                retry_after_ms: rest.parse().map_err(|_| "bad retry_after_ms")?,
            }),
            "error" => Ok(Response::Error {
                message: if lines.next().is_some() {
                    // Multi-line messages keep everything after the tag.
                    payload["error ".len().min(payload.len())..].to_string()
                } else {
                    rest.to_string()
                },
            }),
            other => Err(format!("unknown response tag `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello\nworld").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello\nworld"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn row_numbers_encode_exactly_as_to_string() {
        let two53 = (1u64 << 53) as f64;
        let xs = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            two53,
            -two53,
            two53 - 1.0,
            -(two53 - 1.0),
            two53 + 2.0,
            1e15,
            -123_456_789.0,
            0.5,
            -2.5,
            1e-300,
            f64::MIN_POSITIVE / 2.0,
            -f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            f64::MIN,
        ];
        for x in xs {
            let mut out = String::new();
            push_f64(&mut out, x);
            assert_eq!(out, x.to_string(), "{x:e}");
        }
        let rows = vec![xs.to_vec(), vec![3.0, -0.0, 7.25]];
        let want: Vec<String> = rows
            .iter()
            .map(|r| r.iter().map(f64::to_string).collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(
            encode_rows("draws".to_string(), &rows),
            format!("draws\n{}", want.join("\n"))
        );
    }

    #[test]
    fn requests_round_trip_with_mixed_data() {
        let req = Request {
            name: "coin".to_string(),
            scheme: stan2gprob::Scheme::Mixed,
            method: MethodSpec::Nuts {
                warmup: 100,
                samples: 200,
            },
            chains: 4,
            seed: 7,
            gq: true,
            data: vec![
                ("N".to_string(), Value::Int(3)),
                ("x".to_string(), Value::IntArray(vec![1, 0, 1])),
                ("y".to_string(), Value::Vector(vec![0.25, -1.5e-8])),
                (
                    "m".to_string(),
                    Value::Array(vec![
                        Value::Vector(vec![1.0, 2.0]),
                        Value::Vector(vec![3.0, 4.0]),
                    ]),
                ),
            ],
            source: "parameters { real z; }\nmodel { z ~ normal(0, 1); }".to_string(),
        };
        let parsed = Request::parse(&req.encode().unwrap()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn responses_round_trip_bitwise() {
        // Adversarial f64s: shortest-Display round-trips must preserve bits.
        let draws = vec![
            vec![0.1 + 0.2, -0.0, 1.0 / 3.0],
            vec![f64::MIN_POSITIVE, f64::MAX, 5e-324],
        ];
        let resp = Response::Chain {
            index: 2,
            divergences: 1,
            wall_time: 0.125,
            n_grad_evals: 4096,
            draws: draws.clone(),
        };
        let parsed = Response::parse(&resp.encode()).unwrap();
        let Response::Chain { draws: back, .. } = parsed else {
            panic!("wrong variant");
        };
        for (a, b) in draws.iter().flatten().zip(back.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for resp in [
            Response::Names {
                names: vec!["mu".to_string(), "theta[1]".to_string()],
            },
            Response::Done { wall_time: 1.5 },
            Response::DeadlineExceeded { wall_time: 0.25 },
            Response::Busy { retry_after_ms: 40 },
            Response::Error {
                message: "no such model".to_string(),
            },
            Response::Stats {
                text: String::new(),
            },
            Response::Stats {
                text: "counter serve.requests.nuts 3\ngauge serve.pool.depth 1\n\
                       hist serve.run_ns.nuts count 3 sum 96 max 64 buckets 6:3"
                    .to_string(),
            },
        ] {
            assert_eq!(Response::parse(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn request_frames_dispatch_on_first_line() {
        assert_eq!(RequestFrame::parse("stats").unwrap(), RequestFrame::Stats);
        assert_eq!(RequestFrame::Stats.encode().unwrap(), "stats".to_string());
        let req = Request {
            name: "coin".to_string(),
            scheme: stan2gprob::Scheme::Mixed,
            method: MethodSpec::Advi { steps: 50 },
            chains: 1,
            seed: 1,
            gq: false,
            data: Vec::new(),
            source: "parameters { real z; }\nmodel { z ~ normal(0, 1); }".to_string(),
        };
        let frame = RequestFrame::Run(req.clone());
        assert_eq!(
            RequestFrame::parse(&frame.encode().unwrap()).unwrap(),
            frame
        );
        // `statsx` and other unknown first lines are rejected, with the
        // offending line echoed for the error frame.
        let err = RequestFrame::parse("statsx\nmore").unwrap_err();
        assert!(err.contains("unknown request frame `statsx`"), "{err}");
        let err = RequestFrame::parse("").unwrap_err();
        assert!(err.contains("unknown request frame"), "{err}");
    }
}
