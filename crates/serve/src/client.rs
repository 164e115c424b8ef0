//! Drive a request script over a connection and collect the replies.
//!
//! The client is transport-agnostic — anything `Read + Write` works:
//! a Unix socket (`healers serve send`), an in-process duplex pipe
//! (`healers serve exec`, tests, bench). It enforces the protocol's
//! one-response-per-request batching invariant and hands back both the
//! decoded responses and the **exact reply bytes**, which is what the
//! CI determinism job diffs across `--workers` values.

use std::fmt;
use std::io::{Read, Write};

use crate::frame::{encode_frame, read_frame, write_frame, FrameError, Limits, DIR_RESPONSE};
use crate::proto::{Response, StatsReply, ValidateVerdict, WireError};
use crate::script::Script;

/// A failed script replay.
#[derive(Debug)]
pub enum ClientError {
    /// Frame-level failure (transport, framing, hostile header).
    Frame(FrameError),
    /// A response message that does not decode.
    Wire(WireError),
    /// A structurally valid reply that breaks the batching contract.
    BadReply(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "client: {e}"),
            ClientError::Wire(e) => write!(f, "client: {e}"),
            ClientError::BadReply(m) => write!(f, "client: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// Everything a script replay produced.
#[derive(Debug)]
pub struct ScriptReplies {
    /// The exact reply-stream bytes, frame after frame — the unit the
    /// determinism contract is stated (and diffed) in.
    pub raw: Vec<u8>,
    /// The decoded responses, one inner vec per request frame.
    pub frames: Vec<Vec<Response>>,
}

/// Replay `script` over `conn`: write each request frame, read its
/// response frame, stop after the frame that answers a `Shutdown`.
///
/// # Errors
///
/// Transport failures, undecodable replies, or contract violations
/// (wrong direction, wrong batch size).
pub fn run_script(
    conn: &mut (impl Read + Write),
    script: &Script,
    limits: &Limits,
) -> Result<ScriptReplies, ClientError> {
    let mut raw = Vec::new();
    let mut frames = Vec::new();
    for requests in &script.frames {
        let mut messages = Vec::with_capacity(requests.len());
        for req in requests {
            let mut buf = Vec::new();
            req.encode(&mut buf);
            messages.push(buf);
        }
        write_frame(conn, crate::frame::DIR_REQUEST, &messages)?;

        let reply = read_frame(conn, limits)?;
        if reply.direction != DIR_RESPONSE {
            return Err(ClientError::BadReply("expected a response frame".into()));
        }
        if reply.messages.len() != requests.len() {
            return Err(ClientError::BadReply(format!(
                "sent {} request(s), got {} response(s)",
                requests.len(),
                reply.messages.len()
            )));
        }
        // The codec has a unique encoding, so re-encoding the parsed
        // frame reproduces the bytes that came off the wire.
        raw.extend_from_slice(&encode_frame(reply.direction, &reply.messages));
        let mut decoded = Vec::with_capacity(reply.messages.len());
        for msg in &reply.messages {
            decoded.push(Response::decode(msg)?);
        }
        let saw_shutdown = decoded.iter().any(|r| matches!(r, Response::Bye));
        frames.push(decoded);
        if saw_shutdown {
            break;
        }
    }
    Ok(ScriptReplies { raw, frames })
}

/// Render decoded responses as stable, line-oriented text — the output
/// of `healers serve exec` and `healers serve send`.
pub fn render(frames: &[Vec<Response>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, frame) in frames.iter().enumerate() {
        let _ = writeln!(out, "frame {i}:");
        for rsp in frame {
            match rsp {
                Response::Pong => out.push_str("  pong\n"),
                Response::Validated(v) => match v {
                    ValidateVerdict::Admit => out.push_str("  validated: admit\n"),
                    ValidateVerdict::AdmitUnchecked => {
                        out.push_str("  validated: admit (unchecked)\n");
                    }
                    ValidateVerdict::Reject { arg, check } => {
                        let _ = writeln!(out, "  validated: reject arg {arg} check {check}");
                    }
                    ValidateVerdict::WouldRepair { arg, check } => {
                        let _ = writeln!(out, "  validated: would-repair arg {arg} check {check}");
                    }
                    ValidateVerdict::UnknownFunction => {
                        out.push_str("  validated: unknown function\n");
                    }
                },
                Response::Explained { info: None } => out.push_str("  explained: unknown\n"),
                Response::Explained {
                    info: Some((proto, args)),
                } => {
                    let _ = writeln!(out, "  explained: {proto}");
                    for (j, a) in args.iter().enumerate() {
                        let _ = writeln!(out, "    arg {j}: robust {} check {}", a.robust, a.check);
                    }
                }
                Response::Reported { counters } => {
                    out.push_str("  reported:\n");
                    for (name, value) in counters {
                        let _ = writeln!(out, "    {name} {value}");
                    }
                }
                Response::Bye => out.push_str("  bye\n"),
                Response::Error { message } => {
                    let _ = writeln!(out, "  error: {message}");
                }
                // Script transcripts are byte-diffed across worker
                // counts, so render only the deterministic subset of a
                // stats reply; `healers serve stats` shows the rest.
                Response::Stats(s) => {
                    out.push_str("  stats:\n");
                    for (name, value) in &s.totals {
                        let _ = writeln!(out, "    {name} {value}");
                    }
                    for f in &s.functions {
                        let _ = writeln!(
                            out,
                            "    fn {} admitted {} rejected {} unchecked {}",
                            f.function, f.admitted, f.rejected, f.unchecked
                        );
                    }
                }
            }
        }
    }
    out
}

/// Render a full stats reply — the default view of `healers serve
/// stats`. Unlike script transcripts this includes the live,
/// scheduling-dependent sections (per-worker counters, queue
/// high-water, shed, timings), which is why it is a separate view.
pub fn render_stats(s: &StatsReply) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("totals:\n");
    for (name, value) in &s.totals {
        let _ = writeln!(out, "  {name} {value}");
    }
    out.push_str("functions:\n");
    for f in &s.functions {
        let _ = writeln!(
            out,
            "  {} admitted {} rejected {} unchecked {}",
            f.function, f.admitted, f.rejected, f.unchecked
        );
    }
    out.push_str("workers:\n");
    for w in &s.workers {
        let _ = writeln!(
            out,
            "  worker {}: frames {} requests {}",
            w.worker, w.frames, w.requests
        );
    }
    let _ = writeln!(out, "queue highwater: {}", s.queue_highwater);
    let _ = writeln!(out, "shed: {}", s.shed);
    if !s.timings.is_empty() {
        out.push_str("timings:\n");
        for t in &s.timings {
            let _ = writeln!(
                out,
                "  {} count {} p50 {}ns p99 {}ns",
                t.name, t.count, t.p50, t.p99
            );
        }
    }
    out
}

/// Render only the deterministic subset of a stats reply — byte-stable
/// for any `--workers` value given the same sequential client traffic.
/// The CI stats-smoke job diffs this view across worker counts.
pub fn render_stats_deterministic(s: &StatsReply) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, value) in &s.totals {
        let _ = writeln!(out, "{name} {value}");
    }
    for f in &s.functions {
        let _ = writeln!(
            out,
            "fn {} admitted {} rejected {} unchecked {}",
            f.function, f.admitted, f.rejected, f.unchecked
        );
    }
    out
}

/// Render a stats reply in the Prometheus text exposition format —
/// `healers serve stats --prom`. Totals and per-function outcomes
/// become labelled counters, queue high-water a gauge, and timings
/// (when present) summary quantiles.
pub fn render_stats_prometheus(s: &StatsReply) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, value) in &s.totals {
        let name = prom_name(&format!("healers_serve_{name}"));
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
    }
    if !s.functions.is_empty() {
        out.push_str("# TYPE healers_serve_validate_outcomes_total counter\n");
        for f in &s.functions {
            for (outcome, value) in [
                ("admitted", f.admitted),
                ("rejected", f.rejected),
                ("unchecked", f.unchecked),
            ] {
                let _ = writeln!(
                    out,
                    "healers_serve_validate_outcomes_total{{function=\"{}\",outcome=\"{outcome}\"}} {value}",
                    f.function
                );
            }
        }
    }
    if !s.workers.is_empty() {
        out.push_str("# TYPE healers_serve_worker_frames_total counter\n");
        for w in &s.workers {
            let _ = writeln!(
                out,
                "healers_serve_worker_frames_total{{worker=\"{}\"}} {}",
                w.worker, w.frames
            );
        }
        out.push_str("# TYPE healers_serve_worker_requests_total counter\n");
        for w in &s.workers {
            let _ = writeln!(
                out,
                "healers_serve_worker_requests_total{{worker=\"{}\"}} {}",
                w.worker, w.requests
            );
        }
    }
    let _ = writeln!(
        out,
        "# TYPE healers_serve_queue_highwater gauge\nhealers_serve_queue_highwater {}",
        s.queue_highwater
    );
    let _ = writeln!(
        out,
        "# TYPE healers_serve_shed_total counter\nhealers_serve_shed_total {}",
        s.shed
    );
    for t in &s.timings {
        let name = prom_name(&format!("healers_serve_{}", t.name));
        let _ = writeln!(out, "# TYPE {name} summary");
        let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", t.p50);
        let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", t.p99);
        let _ = writeln!(out, "{name}_count {}", t.count);
    }
    out
}

/// Sanitise a metric name for the Prometheus exposition format:
/// every character outside `[a-zA-Z0-9_:]` becomes `_`, and a leading
/// digit is prefixed with `_`.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ExplainArg;

    #[test]
    fn stats_render_omits_the_nondeterministic_sections() {
        use crate::proto::{FnOutcome, StatsReply, WorkerStat};
        let frames = vec![vec![Response::Stats(StatsReply {
            totals: vec![("frames".into(), 2)],
            functions: vec![FnOutcome {
                function: "strlen".into(),
                admitted: 1,
                rejected: 0,
                unchecked: 0,
            }],
            workers: vec![WorkerStat {
                worker: 0,
                frames: 2,
                requests: 3,
            }],
            queue_highwater: 5,
            shed: 1,
            timings: Vec::new(),
        })]];
        let text = render(&frames);
        assert_eq!(
            text,
            "frame 0:\n  stats:\n    frames 2\n\
             \x20   fn strlen admitted 1 rejected 0 unchecked 0\n"
        );
    }

    fn sample_reply() -> StatsReply {
        use crate::proto::{FnOutcome, TimingStat, WorkerStat};
        StatsReply {
            totals: vec![("requests".into(), 3), ("validates".into(), 2)],
            functions: vec![FnOutcome {
                function: "strlen".into(),
                admitted: 1,
                rejected: 1,
                unchecked: 0,
            }],
            workers: vec![WorkerStat {
                worker: 0,
                frames: 2,
                requests: 3,
            }],
            queue_highwater: 4,
            shed: 1,
            timings: vec![TimingStat {
                name: "validate".into(),
                count: 2,
                p50: 512,
                p99: 1024,
            }],
        }
    }

    #[test]
    fn full_stats_view_includes_the_live_sections() {
        let text = render_stats(&sample_reply());
        assert!(text.contains("totals:\n  requests 3\n  validates 2\n"));
        assert!(text.contains("  strlen admitted 1 rejected 1 unchecked 0\n"));
        assert!(text.contains("  worker 0: frames 2 requests 3\n"));
        assert!(text.contains("queue highwater: 4\nshed: 1\n"));
        assert!(text.contains("  validate count 2 p50 512ns p99 1024ns\n"));
    }

    #[test]
    fn deterministic_stats_view_is_totals_and_functions_only() {
        let text = render_stats_deterministic(&sample_reply());
        assert_eq!(
            text,
            "requests 3\nvalidates 2\nfn strlen admitted 1 rejected 1 unchecked 0\n"
        );
    }

    #[test]
    fn prom_name_sanitises_to_the_exposition_alphabet() {
        assert_eq!(
            prom_name("healers_serve_queue depth!"),
            "healers_serve_queue_depth_"
        );
        assert_eq!(prom_name("a:b_1"), "a:b_1");
        assert_eq!(prom_name("9lives"), "_9lives");
    }

    #[test]
    fn prometheus_stats_view_is_well_formed_exposition_text() {
        let text = render_stats_prometheus(&sample_reply());
        assert!(text.contains("# TYPE healers_serve_requests counter\nhealers_serve_requests 3\n"));
        assert!(text.contains(
            "healers_serve_validate_outcomes_total{function=\"strlen\",outcome=\"rejected\"} 1\n"
        ));
        assert!(text.contains("healers_serve_worker_frames_total{worker=\"0\"} 2\n"));
        assert!(text.contains("# TYPE healers_serve_queue_highwater gauge\n"));
        assert!(text.contains("healers_serve_validate{quantile=\"0.99\"} 1024\n"));
        assert!(text.contains("healers_serve_validate_count 2\n"));
        // Every non-comment line is `name{labels}? value` — the shape a
        // Prometheus scraper accepts.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (metric, value) = line.rsplit_once(' ').expect("metric and value");
            assert!(!metric.is_empty(), "{line}");
            assert!(value.parse::<u64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn render_is_stable_text() {
        let frames = vec![
            vec![
                Response::Pong,
                Response::Validated(ValidateVerdict::Reject {
                    arg: 1,
                    check: "RNTS".into(),
                }),
            ],
            vec![
                Response::Explained {
                    info: Some((
                        "extern int abs(int j);".into(),
                        vec![ExplainArg {
                            robust: "-".into(),
                            check: "-".into(),
                        }],
                    )),
                },
                Response::Reported {
                    counters: vec![("requests".into(), 4)],
                },
                Response::Bye,
            ],
        ];
        let text = render(&frames);
        assert_eq!(
            text,
            "frame 0:\n  pong\n  validated: reject arg 1 check RNTS\n\
             frame 1:\n  explained: extern int abs(int j);\n    arg 0: robust - check -\n\
             \x20 reported:\n    requests 4\n  bye\n"
        );
    }
}
