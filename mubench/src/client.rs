//! A minimal HTTP/1.1 client for `mube serve`, and the ledger that turns
//! each reply into a completed or failed operation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The body, as text.
    pub body: String,
}

/// The exact bytes of a request, one per connection (`mube serve`
/// answers one request per connection and then closes it).
pub fn encode_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: mubench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    raw
}

/// Sends one encoded request and reads the whole reply.
pub fn send(addr: SocketAddr, raw: &[u8]) -> Result<Reply, String> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket setup: {e}"))?;
    stream.write_all(raw).map_err(|e| format!("write: {e}"))?;
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .map_err(|e| format!("read: {e}"))?;
    parse_reply(&bytes)
}

/// `send` of a freshly encoded request.
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    send(addr, &encode_request(method, path, body))
}

/// Parses a complete `HTTP/1.1` response.
pub fn parse_reply(bytes: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "reply is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("truncated reply ({} bytes)", bytes.len()))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "no status line".to_string())?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Requests issued (or in-process operations run).
    pub attempted: u64,
    /// Those that failed: a connection error, a status other than the
    /// expected one (refusals such as 429 and 503 included), or a reply
    /// whose content failed its check.
    pub failed: u64,
    /// Up to [`Ledger::KEPT_REASONS`] failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Ledger {
    /// Failure reasons kept for the report.
    pub const KEPT_REASONS: usize = 8;

    /// Books one request, `what` naming it in failure reasons: the reply
    /// when it carries `expected`, else the operation counts as failed and
    /// `None` is returned.
    pub fn expect(
        &mut self,
        what: &str,
        result: Result<Reply, String>,
        expected: u16,
    ) -> Option<Reply> {
        self.attempted += 1;
        match result {
            Ok(reply) if reply.status == expected => Some(reply),
            Ok(reply) => {
                let head: String = reply.body.chars().take(200).collect();
                self.fail(format!(
                    "{what}: status {} (expected {expected}): {head}",
                    reply.status
                ));
                None
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Turns an operation already booked as attempted into a failure, e.g.
    /// when its reply had the right status but the wrong content.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < Self::KEPT_REASONS {
            self.reasons.push(reason);
        }
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < Self::KEPT_REASONS {
                self.reasons.push(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves each canned status once, in order, on a loopback port.
    fn canned_server(statuses: Vec<u16>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for status in statuses {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 4096];
                let _ = s.read(&mut buf).unwrap();
                let body = "{}";
                let reply = format!(
                    "HTTP/1.1 {status} X\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                );
                s.write_all(reply.as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn refusals_and_connection_errors_count_as_failures() {
        let (addr, server) = canned_server(vec![200, 429, 503, 201]);
        let mut ledger = Ledger::default();
        assert!(ledger
            .expect("health", call(addr, "GET", "/healthz", ""), 200)
            .is_some());
        assert!(ledger
            .expect("create", call(addr, "POST", "/sessions", "{}"), 201)
            .is_none());
        assert!(ledger
            .expect("upload", call(addr, "POST", "/catalogs", "{}"), 201)
            .is_none());
        // The right status for a different operation is still a failure.
        assert!(ledger
            .expect("solve", call(addr, "POST", "/sessions/0/solve", ""), 200)
            .is_none());
        server.join().unwrap();
        // Nothing listens any more: a connection error.
        assert!(ledger
            .expect("health", call(addr, "GET", "/healthz", ""), 200)
            .is_none());
        assert_eq!((ledger.attempted, ledger.failed), (5, 4));
        assert!(ledger.reasons[0].starts_with("create: status 429"));
        assert!(ledger.reasons[1].starts_with("upload: status 503"));
        assert!(ledger.reasons[3].starts_with("health: connect"));
    }

    #[test]
    fn wrong_content_is_a_failure_of_an_attempted_operation() {
        let mut ledger = Ledger::default();
        let ok = Ok(Reply {
            status: 200,
            body: "{}".into(),
        });
        assert!(ledger.expect("solve", ok, 200).is_some());
        ledger.fail("missing field".into());
        assert_eq!((ledger.attempted, ledger.failed), (1, 1));
    }

    #[test]
    fn request_encoding_round_trips_through_the_server_parser() {
        let raw = encode_request("POST", "/sessions/3/feedback", "{\"actions\":[]}");
        let req = mube_serve::http::read_request(&mut &raw[..], 1 << 20).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions/3/feedback");
        assert_eq!(req.body, b"{\"actions\":[]}");
    }

    #[test]
    fn reply_parsing_rejects_truncation() {
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\ncontent-length: 2").is_err());
        let r = parse_reply(b"HTTP/1.1 201 Created\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!((r.status, r.body.as_str()), (201, "{\"a\":1}"));
    }
}
