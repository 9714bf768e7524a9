//! A blocking HTTP/1.1 client for the service's own endpoints: one request
//! per connection (`Connection: close`), the full response read into memory.
//!
//! `mpds-cli update|checkpoint|batch|diff` and the integration tests talk to
//! a server through it. It shares nothing with the server beyond the socket,
//! so it drives an in-process [`crate::Server`] and an external `mpds-cli
//! serve` process identically. It sends no `Accept` header: every endpoint
//! has one body format, so a `/metrics` scrape is a plain [`http_get`] that
//! reads Prometheus text.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One HTTP exchange as seen by the client.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// HTTP status code.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Wall-clock latency.
    pub latency: Duration,
    /// The `X-Cache` response header (`HIT` / `MISS` / `COALESCED`), when
    /// the server sent one.
    pub x_cache: Option<String>,
    /// The `X-Trace-Id` response header (16 lowercase hex digits), when the
    /// server sent one.
    pub trace_id: Option<String>,
}

/// Issues one blocking request (the head and optional body are passed
/// pre-serialized) and reads the full response.
fn http_exchange(addr: SocketAddr, request: &[u8], timeout: Duration) -> std::io::Result<Exchange> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let latency = start.elapsed();
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let head = String::from_utf8_lossy(&raw[..header_end]);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let header = |name: &str| {
        head.lines().skip(1).find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case(name)
                .then(|| v.trim().to_string())
        })
    };
    let x_cache = header("x-cache");
    let trace_id = header("x-trace-id");
    Ok(Exchange {
        status,
        body: raw[header_end + 4..].to_vec(),
        latency,
        x_cache,
        trace_id,
    })
}

/// Issues one blocking HTTP/1.1 GET and reads the full response.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<Exchange> {
    let req = format!("GET {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n");
    http_exchange(addr, req.as_bytes(), timeout)
}

/// Issues one blocking HTTP/1.1 POST with `body` and reads the full
/// response (the client half of `POST /update`).
pub fn http_post(
    addr: SocketAddr,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<Exchange> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    http_exchange(addr, &req, timeout)
}

/// Polls `/healthz` until the server answers `200` or `budget` runs out.
pub fn wait_until_healthy(addr: SocketAddr, budget: Duration) -> Result<(), String> {
    let deadline = Instant::now() + budget;
    loop {
        match http_get(addr, "/healthz", Duration::from_secs(2)) {
            Ok(e) if e.status == 200 => return Ok(()),
            _ if Instant::now() >= deadline => {
                return Err(format!("server at {addr} not healthy within {budget:?}"))
            }
            _ => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}
