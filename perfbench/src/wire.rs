//! A minimal HTTP/1.1 keep-alive client and a scanner for `/query`
//! responses. Kept apart from the server's own client and JSON code so the
//! measuring side does not change when the measured code does.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a 30 s read deadline.
    ///
    /// # Errors
    /// Propagates the socket error.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            out: Vec::with_capacity(4096),
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// The exact bytes [`request`](Self::request) sends.
    #[must_use]
    pub fn encode(method: &str, path: &str, body: &str) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(&mut out, method, path, body);
        out
    }

    /// Sends one request and reads its response: `(status, body)`.
    ///
    /// # Errors
    /// Transport errors and malformed responses.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        encode_into(&mut self.out, method, path, body);
        self.stream.write_all(&self.out)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let len = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.buf[head_end..head_end + len].to_vec())
            .map_err(|_| bad("non-UTF-8 body"))?;
        Ok((status, body))
    }
}

fn encode_into(out: &mut Vec<u8>, method: &str, path: &str, body: &str) {
    out.clear();
    out.extend_from_slice(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body.as_bytes());
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The parts of a `/query` response the benchmark checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Whether the server answered from its cache.
    pub cached: bool,
    /// Snapshot generation that answered.
    pub generation: u64,
    /// Hit ids, in served order.
    pub ids: Vec<u32>,
}

/// Scans a `/query` response body. `None` when a field is missing or the
/// hit count disagrees with `count`.
#[must_use]
pub fn scan_answer(body: &str) -> Option<Answer> {
    let count = number_after(body, "\"count\":")?;
    let generation = number_after(body, "\"generation\":")?;
    let cached = body.contains("\"cached\":true");
    let hits = &body[body.find("\"hits\":[")?..];
    let mut ids = Vec::new();
    let mut rest = hits;
    while let Some(i) = rest.find("\"id\":") {
        rest = &rest[i + 5..];
        ids.push(u32::try_from(leading_number(rest)?).ok()?);
    }
    (ids.len() as u64 == count).then_some(Answer {
        cached,
        generation,
        ids,
    })
}

/// The integer right after the first `key` in `body`.
#[must_use]
pub fn number_after(body: &str, key: &str) -> Option<u64> {
    leading_number(&body[body.find(key)? + key.len()..])
}

fn leading_number(s: &str) -> Option<u64> {
    let s = s.trim_start();
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_ids_in_order_and_checks_the_count() {
        let body = r#"{"count":2,"cached":false,"generation":7,"query_time_us":12,"hits":[{"id":42,"table":"t","column":"c","size":3,"estimate":0.9},{"id":5,"table":"t","column":"c","size":4,"estimate":null}]}"#;
        let a = scan_answer(body).expect("answer");
        assert_eq!(a.ids, vec![42, 5]);
        assert_eq!(a.generation, 7);
        assert!(!a.cached);
        let short = body.replace("\"count\":2", "\"count\":3");
        assert_eq!(scan_answer(&short), None);
        assert_eq!(scan_answer(r#"{"error":"bad"}"#), None);
    }

    #[test]
    fn encodes_a_complete_request() {
        let bytes = Conn::encode("POST", "/query", "{}");
        let text = String::from_utf8(bytes).expect("utf8");
        assert!(text.starts_with("POST /query HTTP/1.1\r\n"));
        assert!(text.ends_with("Content-Length: 2\r\n\r\n{}"));
    }
}
