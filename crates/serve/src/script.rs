//! The request-script DSL.
//!
//! `healers serve exec`, `healers serve send`, and the serve goldens
//! (`tests/serve_goldens.rs`) all replay the same fixed scripts; the DSL exists so those
//! scripts can live in the repo as readable text while still producing
//! **byte-identical** request streams everywhere.
//!
//! Grammar, line-oriented:
//!
//! * `#` starts a comment (whole line);
//! * a blank line ends the current frame — consecutive request lines
//!   batch into one frame;
//! * request lines:
//!   * `ping`
//!   * `validate <function> [<value>...]`
//!   * `explain <function>`
//!   * `report`
//!   * `stats` / `stats timings` — the daemon-wide live snapshot
//!     (transcripts render only its deterministic subset)
//!   * `shutdown`
//! * values:
//!   * `int:<n>` — a signed 64-bit integer;
//!   * `double:<x>` — a 64-bit float;
//!   * `void` — no value;
//!   * `ptr:null` — the null pointer;
//!   * `ptr:0x<hex>` / `ptr:<n>` — a raw simulated address;
//!   * `ptr:str` — the canonical scratch string
//!     ([`crate::plans::SCRATCH_TEXT`]);
//!   * `ptr:buf` / `ptr:buf+<n>` — the canonical scratch buffer,
//!     optionally offset.
//!
//! The symbolic `ptr:str` / `ptr:buf` tokens resolve through
//! [`crate::plans::scratch_addrs`], which recomputes the daemon's
//! deterministic world client-side — no round trip needed to name
//! memory the daemon can actually probe.

use std::fmt;

use healers_simproc::SimValue;

use crate::plans::scratch_addrs;
use crate::proto::Request;

/// A parse failure: the offending line and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "script line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

/// A parsed script: request frames in replay order.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Each frame's requests, batched as written.
    pub frames: Vec<Vec<Request>>,
}

impl Script {
    /// Parse the DSL.
    ///
    /// # Errors
    ///
    /// The first malformed line, with its number.
    pub fn parse(text: &str) -> Result<Script, ScriptError> {
        let (scratch_str, scratch_buf) = scratch_addrs();
        let err = |line: usize, message: String| ScriptError { line, message };

        let mut frames = Vec::new();
        let mut current: Vec<Request> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                if !raw.trim_start().starts_with('#') && !current.is_empty() {
                    frames.push(std::mem::take(&mut current));
                }
                continue;
            }
            let mut words = line.split_whitespace();
            let verb = words.next().unwrap();
            let req = match verb {
                "ping" => Request::Ping,
                "report" => Request::Report,
                "shutdown" => Request::Shutdown,
                "stats" => {
                    let timings = match words.next() {
                        None => false,
                        Some("timings") => true,
                        Some(other) => {
                            return Err(err(lineno, format!("unknown stats option `{other}`")))
                        }
                    };
                    Request::Stats { timings }
                }
                "explain" => {
                    let function = words
                        .next()
                        .ok_or_else(|| err(lineno, "explain needs a function name".into()))?;
                    Request::Explain {
                        function: function.to_string(),
                    }
                }
                "validate" => {
                    let function = words
                        .next()
                        .ok_or_else(|| err(lineno, "validate needs a function name".into()))?;
                    let mut args = Vec::new();
                    for token in words.by_ref() {
                        args.push(
                            parse_value(token, scratch_str, scratch_buf)
                                .map_err(|m| err(lineno, m))?,
                        );
                    }
                    Request::Validate {
                        function: function.to_string(),
                        args,
                    }
                }
                other => return Err(err(lineno, format!("unknown request `{other}`"))),
            };
            if words.next().is_some() {
                return Err(err(lineno, format!("trailing words after `{verb}`")));
            }
            current.push(req);
        }
        if !current.is_empty() {
            frames.push(current);
        }
        Ok(Script { frames })
    }

    /// Total requests across all frames.
    pub fn request_count(&self) -> usize {
        self.frames.iter().map(Vec::len).sum()
    }
}

fn parse_value(token: &str, scratch_str: u32, scratch_buf: u32) -> Result<SimValue, String> {
    if token == "void" {
        return Ok(SimValue::Void);
    }
    let (kind, rest) = token
        .split_once(':')
        .ok_or_else(|| format!("bad value `{token}` (expected kind:value or void)"))?;
    match kind {
        "int" => rest
            .parse::<i64>()
            .map(SimValue::Int)
            .map_err(|_| format!("bad integer `{rest}`")),
        "double" => rest
            .parse::<f64>()
            .map(SimValue::Double)
            .map_err(|_| format!("bad double `{rest}`")),
        "ptr" => {
            if rest == "null" {
                return Ok(SimValue::NULL);
            }
            if rest == "str" {
                return Ok(SimValue::Ptr(scratch_str));
            }
            if let Some(off) = rest.strip_prefix("buf") {
                let delta = match off.strip_prefix('+') {
                    None if off.is_empty() => 0,
                    Some(n) => n
                        .parse::<u32>()
                        .map_err(|_| format!("bad offset `{off}`"))?,
                    None => return Err(format!("bad pointer `{rest}`")),
                };
                return scratch_buf
                    .checked_add(delta)
                    .map(SimValue::Ptr)
                    .ok_or_else(|| format!("offset `{off}` overflows the address space"));
            }
            let addr = if let Some(hex) = rest.strip_prefix("0x") {
                u32::from_str_radix(hex, 16)
            } else {
                rest.parse::<u32>()
            };
            addr.map(SimValue::Ptr)
                .map_err(|_| format!("bad pointer `{rest}`"))
        }
        other => Err(format!("unknown value kind `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_on_blank_lines_and_comments_vanish() {
        let script = Script::parse(
            "# a comment\n\
             ping\n\
             validate strlen ptr:str  # inline comment\n\
             \n\
             report\n\
             shutdown\n",
        )
        .unwrap();
        assert_eq!(script.frames.len(), 2);
        assert_eq!(script.frames[0].len(), 2);
        assert_eq!(script.frames[1], vec![Request::Report, Request::Shutdown]);
        assert_eq!(script.request_count(), 4);
    }

    #[test]
    fn value_tokens_resolve() {
        let (s, b) = scratch_addrs();
        let script = Script::parse(
            "validate memcpy ptr:buf+8 ptr:str int:-3 double:2.5 void ptr:null ptr:0x1000 ptr:64\n",
        )
        .unwrap();
        let Request::Validate { args, .. } = &script.frames[0][0] else {
            panic!("expected validate");
        };
        assert_eq!(
            args,
            &vec![
                SimValue::Ptr(b + 8),
                SimValue::Ptr(s),
                SimValue::Int(-3),
                SimValue::Double(2.5),
                SimValue::Void,
                SimValue::NULL,
                SimValue::Ptr(0x1000),
                SimValue::Ptr(64),
            ]
        );
    }

    #[test]
    fn stats_verb_parses_with_and_without_timings() {
        let script = Script::parse("stats\nstats timings\n").unwrap();
        assert_eq!(
            script.frames[0],
            vec![
                Request::Stats { timings: false },
                Request::Stats { timings: true },
            ]
        );
    }

    #[test]
    fn malformed_lines_name_their_line() {
        for (text, line) in [
            ("frobnicate\n", 1),
            ("ping\nvalidate\n", 2),
            ("validate f qux:1\n", 1),
            ("validate f int:x\n", 1),
            ("validate f ptr:buf-1\n", 1),
            ("explain\n", 1),
            ("ping extra\n", 1),
            ("stats nope\n", 1),
            ("stats timings extra\n", 1),
        ] {
            let e = Script::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?} -> {e}");
        }
    }
}
