//! Lifecycle of the `mpds-cli serve` child process under test.

use crate::client::Client;
use crate::workload::SERVER_THREADS;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Longest a server may take to start listening or answer `/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// How a server is started.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Serve `--mutable --data-dir <dir>`; the directory is removed when the
    /// server is dropped.
    pub data_dir: Option<PathBuf>,
    /// Start with `--no-flight` (the flight recorder off).
    pub no_flight: bool,
    /// `--cache-capacity`, when not the server's default.
    pub cache_capacity: Option<usize>,
}

/// A running server. Dropping it kills the process, waits for it, and
/// removes its data directory — on every exit path, failed runs included.
pub struct Server {
    child: Child,
    stdout: Option<std::thread::JoinHandle<()>>,
    data_dir: Option<PathBuf>,
    pub addr: SocketAddr,
}

impl Server {
    pub fn spawn(bin: &Path, opts: &Options) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--bind", "127.0.0.1:0", "--threads"])
            .arg(SERVER_THREADS.to_string());
        if let Some(dir) = &opts.data_dir {
            cmd.arg("--mutable").arg("--data-dir").arg(dir);
        }
        if opts.no_flight {
            cmd.arg("--no-flight");
        }
        if let Some(capacity) = opts.cache_capacity {
            cmd.arg("--cache-capacity").arg(capacity.to_string());
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the listening line, then drains stdout until the process
        // exits so the server never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.split("listening on http://").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.split_whitespace().next().unwrap_or("").to_string());
                    }
                }
            }
        });
        let mut server = Server {
            child,
            stdout: Some(reader),
            data_dir: opts.data_dir.clone(),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "server did not report a listening address".to_string())?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("bad listening address {addr:?}: {e}"))?;
        server.wait_healthy()?;
        Ok(server)
    }

    fn wait_healthy(&self) -> Result<(), String> {
        let started = Instant::now();
        loop {
            match Client::new(self.addr).get("/healthz") {
                Ok(r) if r.status == 200 => return Ok(()),
                _ if started.elapsed() > START_TIMEOUT => {
                    return Err("server never answered /healthz".to_string())
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
