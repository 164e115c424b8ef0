//! Serve transcripts and reply bytes pinned against committed goldens
//! under `tests/golden/`, at `--workers 1` and `4`.
//!
//! | Golden | Command |
//! |---|---|
//! | `serve.smoke.txt`, `serve.smoke.bin` | `healers serve exec --script tests/serve_scripts/smoke.txt --raw-out F strlen strcpy abs memset` |
//! | `serve.batched.txt`, `serve.batched.bin` | the same with `batched.txt` and `--workers 1` (a `stats` reply carries one row per worker) |
//! | `serve.stats.txt` | `healers serve stats --deterministic` against a `serve daemon` after `serve send --script traffic.txt` |
//!
//! The same daemon run also pins the daemon's exit summary on stderr
//! (`EXIT_SUMMARY`): the counters after `traffic.txt`, the `stats`
//! scrape and `shutdown.txt`.
//!
//! `batched.txt` puts every validate outcome, a `stats`, a `report`
//! and an `explain` in one frame, so its goldens pin per-frame counter
//! publication: the mid-frame `stats` counts every validate before it.
//! A `stats` reply's raw bytes also carry live per-worker rows, and with
//! four workers any of them may serve the one connection; so at
//! `--workers 4` each `stats` message of `serve.batched.bin` is
//! compared on its deterministic subset (totals and per-function
//! outcomes) and every other message byte for byte. On a mismatch the
//! test prints the new text.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use healers::serve::frame::{read_frame, Limits};
use healers::serve::Response;

const WORKERS: [&str; 2] = ["1", "4"];
const FUNCTIONS: [&str; 4] = ["strlen", "strcpy", "abs", "memset"];

fn healers(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_healers"))
        .args(args)
        .output()
        .expect("spawn healers");
    assert!(
        out.status.success(),
        "healers {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn golden(name: &str) -> Vec<u8> {
    let path = repo_path("tests/golden").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("healers-serve-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_text(name: &str, what: &str, got: &[u8]) {
    let got = String::from_utf8_lossy(got);
    let want = golden(name);
    if got.as_bytes() != want.as_slice() {
        panic!("{what} differs from tests/golden/{name}; the new text is:\n{got}");
    }
}

/// Run `serve exec --script tests/serve_scripts/<script>.txt --workers W
/// --raw-out F` over [`FUNCTIONS`]; returns (transcript, raw replies).
fn serve_exec(script: &str, workers: &str, dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let script = repo_path(&format!("tests/serve_scripts/{script}.txt"));
    let raw = dir.join(format!("{workers}.bin"));
    let mut args = vec![
        "serve".to_string(),
        "exec".into(),
        "--script".into(),
        script.display().to_string(),
        "--workers".into(),
        workers.into(),
        "--raw-out".into(),
        raw.display().to_string(),
    ];
    args.extend(FUNCTIONS.iter().map(|f| f.to_string()));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = healers(&args);
    (
        out.stdout,
        std::fs::read(&raw).expect("raw replies written"),
    )
}

/// Every response message of a raw reply stream, frame after frame.
fn messages(raw: &[u8]) -> Vec<Vec<u8>> {
    let mut rest = raw;
    let mut all = Vec::new();
    while !rest.is_empty() {
        let frame = read_frame(&mut rest, &Limits::default()).expect("golden frames parse");
        all.extend(frame.messages);
    }
    all
}

/// `got` equals the golden reply stream, except that `stats` replies
/// are compared on their deterministic subset only.
fn assert_raw_modulo_live_stats(name: &str, got: &[u8]) {
    let want = golden(name);
    let (got, want) = (messages(got), messages(&want));
    assert_eq!(got.len(), want.len(), "{name}: reply count differs");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        match (Response::decode(g), Response::decode(w)) {
            (Ok(Response::Stats(g)), Ok(Response::Stats(w))) => assert_eq!(
                (&g.totals, &g.functions),
                (&w.totals, &w.functions),
                "{name}: stats message {i} differs in its deterministic subset"
            ),
            _ => assert_eq!(g, w, "{name}: message {i} differs"),
        }
    }
}

#[test]
fn serve_smoke_matches_the_golden_at_every_worker_count() {
    let dir = temp_dir("smoke");
    for workers in WORKERS {
        let (text, raw) = serve_exec("smoke", workers, &dir);
        let what = format!("serve exec smoke.txt --workers {workers}");
        assert_text("serve.smoke.txt", &what, &text);
        assert!(
            raw == golden("serve.smoke.bin"),
            "{what}: raw replies differ"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_batched_frame_matches_the_golden_at_every_worker_count() {
    let dir = temp_dir("batched");
    for workers in WORKERS {
        let (text, raw) = serve_exec("batched", workers, &dir);
        let what = format!("serve exec batched.txt --workers {workers}");
        assert_text("serve.batched.txt", &what, &text);
        if workers == "1" {
            assert!(
                raw == golden("serve.batched.bin"),
                "{what}: raw replies differ"
            );
        } else {
            assert_raw_modulo_live_stats("serve.batched.bin", &raw);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The last lines `serve daemon` prints to stderr after the
/// deterministic-stats traffic: three connections (traffic, the stats
/// scrape, shutdown), each one frame; the stats and shutdown requests
/// on top of `serve.stats.txt`'s four.
const EXIT_SUMMARY: &str = "\
  connections      3
  shed             0
  frames           3
  requests         5
  validates        3
  admits           2
  rejects          1
  protocol_errors  0
";

/// Kill the daemon child even when an assertion unwinds the test.
struct DaemonGuard(std::process::Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_deterministic_stats_match_the_golden_at_every_worker_count() {
    let dir = temp_dir("stats");
    for workers in WORKERS {
        let socket = dir.join(format!("w{workers}.sock"));
        let sock = socket.display().to_string();
        let mut args = vec!["serve", "daemon", "--socket", &sock, "--workers", workers];
        args.extend(FUNCTIONS);
        let mut daemon = DaemonGuard(
            Command::new(env!("CARGO_BIN_EXE_healers"))
                .args(&args)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn daemon"),
        );
        // The daemon binds the socket only after the plans are built.
        for _ in 0..400 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        assert!(socket.exists(), "daemon never bound {sock}");
        let script = |name: &str| {
            repo_path(&format!("tests/serve_scripts/{name}.txt"))
                .display()
                .to_string()
        };
        healers(&[
            "serve",
            "send",
            "--socket",
            &sock,
            "--script",
            &script("traffic"),
        ]);
        let stats = healers(&["serve", "stats", "--socket", &sock, "--deterministic"]);
        let what = format!("serve stats --deterministic --workers {workers}");
        assert_text("serve.stats.txt", &what, &stats.stdout);
        healers(&[
            "serve",
            "send",
            "--socket",
            &sock,
            "--script",
            &script("shutdown"),
        ]);
        let status = daemon.0.wait().expect("daemon exits");
        assert!(status.success(), "serve daemon --workers {workers} failed");
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut daemon.0.stderr.take().unwrap(), &mut stderr).unwrap();
        assert!(
            stderr.ends_with(EXIT_SUMMARY),
            "serve daemon --workers {workers}: exit summary differs; stderr is:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
