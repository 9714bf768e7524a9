//! Integration tests for the `mpds-cli` binary.

use std::io::Write;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpds-cli"))
}

fn demo_file() -> tempfile::TempPath {
    // The Fig. 1 example with labels 1..4 (A=1, B=2, C=3, D=4).
    let mut f = tempfile::NamedTempFile::new();
    writeln!(f.file, "# fig1 demo").unwrap();
    writeln!(f.file, "1 2 0.4").unwrap();
    writeln!(f.file, "1 3 0.4").unwrap();
    writeln!(f.file, "2 4 0.7").unwrap();
    f.into_path()
}

/// Minimal replacement for the tempfile crate (not a dependency): a real
/// temp file deleted on drop.
mod tempfile {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct NamedTempFile {
        pub file: std::fs::File,
        path: PathBuf,
    }

    pub struct TempPath(PathBuf);

    impl NamedTempFile {
        pub fn new() -> Self {
            let path = std::env::temp_dir().join(format!(
                "mpds-cli-test-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed),
            ));
            let file = std::fs::File::create(&path).unwrap();
            NamedTempFile { file, path }
        }

        pub fn into_path(self) -> TempPath {
            TempPath(self.path)
        }
    }

    impl TempPath {
        pub fn as_str(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

#[test]
fn stats_command() {
    let path = demo_file();
    let out = cli().args(["stats", path.as_str()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("nodes: 4"));
    assert!(text.contains("edges: 3"));
}

#[test]
fn stats_json_flag() {
    let path = demo_file();
    let out = cli()
        .args(["stats", path.as_str(), "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"nodes\":4"), "{text}");
    assert!(text.contains("\"edges\":3"), "{text}");
}

#[test]
fn mpds_command_finds_bd() {
    let path = demo_file();
    let out = cli()
        .args(["mpds", path.as_str(), "--theta", "3000", "--k", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    // The MPDS is {B, D} = labels {2, 4}.
    assert!(text.contains("{2, 4}"), "{text}");
}

/// A `--json` body without its CLI-only `wall_ms` stats entry.
fn strip_wall(bytes: Vec<u8>) -> String {
    let text = String::from_utf8(bytes).unwrap();
    let i = text
        .find("\"wall_ms\":")
        .unwrap_or_else(|| panic!("stats block must carry wall_ms: {text}"));
    let tail = &text[i + "\"wall_ms\":".len()..];
    let digits = tail.find(|c: char| !c.is_ascii_digit()).unwrap();
    assert!(digits > 0, "wall_ms must be a number: {text}");
    format!("{}{}", &text[..i], &tail[digits..])
}

/// Runs `mpds-cli` with `args` and `--threads threads --json`; returns the
/// body without `wall_ms`.
fn json_run(args: &[&str], threads: &str) -> String {
    let out = cli()
        .args(args)
        .args(["--threads", threads, "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    strip_wall(out.stdout)
}

#[test]
fn mpds_json_flag_is_deterministic() {
    let path = demo_file();
    let args = [
        "mpds",
        path.as_str(),
        "--theta",
        "500",
        "--k",
        "2",
        "--seed",
        "7",
    ];
    // `--json` adds a CLI-only `wall_ms` to the stats block; everything
    // else must be byte-identical across runs with the same seed, on any
    // number of threads.
    let a = json_run(&args, "1");
    assert_eq!(a, json_run(&args, "1"), "same seed, same JSON");
    assert_eq!(a, json_run(&args, "3"), "3 threads, same JSON");
    let text = a;
    assert!(text.contains("\"algo\":\"mpds\""), "{text}");
    assert!(text.contains("\"score\":\"tau_hat\""), "{text}");
    assert!(text.contains("\"stats\":{\"worlds_sampled\":500"), "{text}");
    assert!(text.contains("\"stop_reason\":\"completed\""), "{text}");
    // Results use the file's original labels (2 and 4 are B and D).
    assert!(text.contains("\"nodes\":[2,4]"), "{text}");
}

#[test]
fn stable_stop_ends_early_and_reports_stats() {
    let path = demo_file();
    let out = cli()
        .args([
            "mpds",
            path.as_str(),
            "--theta",
            "3000",
            "--k",
            "1",
            "--seed",
            "7",
            "--stop",
            "stable",
            "--window",
            "64",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    // On the tiny fig1 graph the top-1 set stabilizes long before 3000
    // worlds; the body must echo the policy and report the early stop.
    assert!(text.contains("\"stop\":\"stable\",\"window\":64"), "{text}");
    assert!(text.contains("\"stop_reason\":\"stable\""), "{text}");
    assert!(text.contains("\"converged_at\":"), "{text}");

    // Human output carries the same run summary.
    let out = cli()
        .args([
            "mpds",
            path.as_str(),
            "--theta",
            "3000",
            "--k",
            "1",
            "--seed",
            "7",
            "--stop",
            "stable",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("stop: stable, converged at world"), "{text}");
}

#[test]
fn nds_command_runs() {
    let path = demo_file();
    let out = cli()
        .args([
            "nds",
            path.as_str(),
            "--theta",
            "1000",
            "--k",
            "2",
            "--lm",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("gamma_hat"));
}

#[test]
fn nds_json_flag() {
    let path = demo_file();
    let args = ["nds", path.as_str(), "--theta", "200"];
    let text = json_run(&args, "1");
    assert_eq!(text, json_run(&args, "3"), "3 threads, same JSON");
    assert!(text.contains("\"score\":\"gamma_hat\""), "{text}");
    assert!(text.contains("\"lm\":2"), "{text}");
}

#[test]
fn clique_density_flag() {
    let path = demo_file();
    let out = cli()
        .args([
            "mpds",
            path.as_str(),
            "--density",
            "3clique",
            "--theta",
            "50",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    // The demo graph has no triangle, so no world has an instance.
    assert!(text.contains("no sampled world"), "{text}");
}

#[test]
fn bad_arguments_fail_gracefully() {
    let out = cli().args(["bogus", "/nonexistent"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"));

    let out = cli()
        .args(["mpds", "/nonexistent-file-xyz"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let path = demo_file();
    let out = cli()
        .args(["mpds", path.as_str(), "--density", "tesseract"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn unknown_and_duplicate_flags_fail_with_usage() {
    let path = demo_file();
    let out = cli()
        .args(["mpds", path.as_str(), "--bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown option"), "{err}");
    assert!(err.contains("usage:"), "{err}");

    let out = cli()
        .args(["mpds", path.as_str(), "--theta", "5", "--theta", "6"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("duplicate option"), "{err}");
}

/// A `mpds-cli serve` child process on an ephemeral port; dropping it kills
/// the process.
struct ServeProcess {
    child: std::process::Child,
    addr: std::net::SocketAddr,
}

impl ServeProcess {
    fn spawn(args: &[&str]) -> ServeProcess {
        use std::io::BufRead;
        let mut child = cli()
            .args(["serve", "--bind", "127.0.0.1:0"])
            .args(args)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn mpds-cli serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|line| {
            let rest = line.split("listening on http://").nth(1)?;
            rest.split_whitespace().next()?.parse().ok()
        });
        // Keep draining stdout so the server never blocks on a full pipe.
        std::thread::spawn(move || lines.for_each(drop));
        let mut process = ServeProcess {
            child,
            addr: std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        process.addr = addr.expect("serve printed no listening address");
        process
    }

    /// The generation of dataset `name` (`escaped` in a query string) in
    /// the server's `/datasets` list, once a `/dataset` read loaded it.
    fn generation(&self, name: &str, escaped: &str) -> u64 {
        let get = |path: &str| {
            let e =
                mpds_service::client::http_get(self.addr, path, std::time::Duration::from_secs(30))
                    .expect("GET");
            assert_eq!(e.status, 200, "{path}");
            String::from_utf8(e.body).unwrap()
        };
        get(&format!("/dataset?name={escaped}"));
        let text = get("/datasets");
        let doc = mpds_service::json::JsonValue::parse(&text).unwrap();
        let list = doc.get("datasets").unwrap().unwrap();
        let entry = list
            .as_array("datasets")
            .unwrap()
            .iter()
            .find(|d| d.get("name").unwrap().unwrap().as_str("name").unwrap() == name)
            .unwrap_or_else(|| panic!("no dataset {name:?}: {text}"));
        let generation = entry.get("generation").unwrap().unwrap();
        generation.as_u64("generation").unwrap()
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn update_and_diff_address_dataset_names_that_need_escaping() {
    let graph = demo_file();
    let mut delta = tempfile::NamedTempFile::new();
    writeln!(delta.file, "1 2 0.9").unwrap();
    let delta = delta.into_path();
    let server = ServeProcess::spawn(&[
        "--threads",
        "1",
        "--mutable",
        "--dataset",
        &format!("x={}", graph.as_str()),
        "--dataset",
        &format!("x&y={}", graph.as_str()),
    ]);
    let addr = server.addr.to_string();
    assert_eq!(server.generation("x", "x"), 0);
    assert_eq!(server.generation("x&y", "x%26y"), 0);
    let out = cli()
        .args(["update", "--addr", &addr, "--dataset", "x&y", "--file"])
        .arg(delta.as_str())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(server.generation("x&y", "x%26y"), 1);
    assert_eq!(server.generation("x", "x"), 0);
    // `diff` escapes both names: x&y after its update against x before it.
    let out = cli()
        .args([
            "diff",
            "--addr",
            &addr,
            "--dataset",
            "x&y",
            "--against",
            "x",
        ])
        .args(["--theta", "64", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let doc = mpds_service::json::JsonValue::parse(text.trim()).unwrap();
    let after = doc
        .get("dataset")
        .unwrap()
        .unwrap()
        .as_str("dataset")
        .unwrap();
    let before = doc
        .get("against")
        .unwrap()
        .unwrap()
        .as_str("against")
        .unwrap();
    assert_eq!((after, before), ("x&y", "x"), "{text}");
}
