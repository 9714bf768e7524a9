//! A minimal HTTP/1.1 client that keeps its connection whenever the
//! server's response allows it, and counts the connections it opens.
//!
//! It never asks for `Connection: close`: when the server starts keeping
//! connections alive, the same benchmark measures the gain.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a read may wait for the server.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Largest response body accepted.
const MAX_BODY: usize = 64 << 20;

#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    /// The `X-Cache` header (`HIT`, `MISS`, `COALESCED`), if any.
    pub x_cache: Option<String>,
    pub body: Vec<u8>,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened so far.
    pub connects: u64,
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    pub fn get(&mut self, target: &str) -> std::io::Result<Response> {
        let reused = self.conn.is_some();
        match self.exchange("GET", target, &[]) {
            // A kept connection the server has since closed: a GET is safe
            // to send again on a fresh one.
            Err(_) if reused => self.exchange("GET", target, &[]),
            other => other,
        }
    }

    pub fn post(&mut self, target: &str, body: &[u8]) -> std::io::Result<Response> {
        self.exchange("POST", target, body)
    }

    fn exchange(&mut self, method: &str, target: &str, body: &[u8]) -> std::io::Result<Response> {
        let result = self.exchange_once(method, target, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn exchange_once(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        let mut request = format!("{method} {target} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        if method == "POST" {
            request.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        request.push_str("\r\n");
        let mut bytes = request.into_bytes();
        bytes.extend_from_slice(body);
        conn.get_mut().write_all(&bytes)?;

        let mut line = String::new();
        if conn.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let mut parts = line.split_whitespace();
        let version = parts.next().unwrap_or("").to_string();
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut content_length = None;
        let mut x_cache = None;
        let mut close = version != "HTTP/1.1";
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let n: usize = value
                    .parse()
                    .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?;
                if n > MAX_BODY {
                    return Err(invalid(format!("response body of {n} bytes")));
                }
                content_length = Some(n);
            } else if name.eq_ignore_ascii_case("x-cache") {
                x_cache = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let mut body = Vec::new();
        match content_length {
            Some(n) => {
                body.resize(n, 0);
                conn.read_exact(&mut body)?;
            }
            // Without a length the body runs to the end of the stream.
            None => {
                conn.read_to_end(&mut body)?;
                close = true;
            }
        }
        if close {
            self.conn = None;
        }
        Ok(Response {
            status,
            x_cache,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves `replies` in order, one per request, on as few connections as
    /// the replies allow; returns how many connections it accepted.
    fn serve(replies: Vec<&'static str>) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut accepted = 0;
            let mut replies = replies.into_iter().peekable();
            while replies.peek().is_some() {
                let (stream, _) = listener.accept().unwrap();
                accepted += 1;
                let mut reader = BufReader::new(stream);
                for reply in replies.by_ref() {
                    let mut line = String::new();
                    loop {
                        line.clear();
                        reader.read_line(&mut line).unwrap();
                        if line == "\r\n" {
                            break;
                        }
                        assert!(!line.to_ascii_lowercase().starts_with("connection:"));
                    }
                    reader.get_mut().write_all(reply.as_bytes()).unwrap();
                    if reply.contains("Connection: close") {
                        break;
                    }
                }
            }
            accepted
        });
        (addr, handle)
    }

    #[test]
    fn reuses_kept_connections_and_reconnects_after_close() {
        let keep = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Cache: HIT\r\n\r\nok";
        let close = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nbye";
        let (addr, server) = serve(vec![keep, keep, close, keep]);
        let mut c = Client::new(addr);
        let first = c.get("/a").unwrap();
        assert_eq!((first.status, first.x_cache.as_deref()), (200, Some("HIT")));
        assert_eq!(first.body, b"ok");
        c.get("/b").unwrap();
        assert_eq!(c.connects, 1, "kept connection reused");
        assert_eq!(c.get("/c").unwrap().body, b"bye");
        c.get("/d").unwrap();
        assert_eq!(c.connects, 2, "closed connection replaced");
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn every_close_costs_one_connect() {
        let close = "HTTP/1.1 503 Busy\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        let (addr, server) = serve(vec![close, close, close]);
        let mut c = Client::new(addr);
        for _ in 0..3 {
            assert_eq!(c.get("/x").unwrap().status, 503);
        }
        assert_eq!(c.connects, 3);
        assert_eq!(server.join().unwrap(), 3);
    }
}
