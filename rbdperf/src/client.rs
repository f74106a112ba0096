//! A minimal HTTP/1.1 client for `POST /extract`: one request per
//! connection, timed from connect to the last response byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed reply.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The `x-rbd-cache` header, when present.
    pub cache: Option<String>,
    /// The response body.
    pub body: String,
    /// Connect to last byte.
    pub latency: Duration,
}

/// The raw bytes of a `POST /extract` request carrying `html`.
pub fn extract_request(html: &str) -> Vec<u8> {
    let mut raw = format!(
        "POST /extract HTTP/1.1\r\nHost: rbdperf\r\nContent-Length: {}\r\n\r\n",
        html.len()
    )
    .into_bytes();
    raw.extend_from_slice(html.as_bytes());
    raw
}

/// Sends one prepared request and reads the reply to end of stream.
pub fn send(addr: SocketAddr, request: &[u8]) -> io::Result<Reply> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let latency = started.elapsed();
    let mut reply = parse_reply(&raw)?;
    reply.latency = latency;
    Ok(reply)
}

/// Parses a complete `Connection: close` response.
pub fn parse_reply(raw: &[u8]) -> io::Result<Reply> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response head not terminated"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("head not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let cache = lines.find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("x-rbd-cache")
            .then(|| value.trim().to_owned())
    });
    let body =
        String::from_utf8(raw[head_end + 4..].to_vec()).map_err(|_| bad("body not UTF-8"))?;
    Ok(Reply {
        status,
        cache,
        body,
        latency: Duration::ZERO,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_cache_header_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-RBD-Cache: hit\r\n\r\n{\"a\":1}";
        let r = parse_reply(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.cache.as_deref(), Some("hit"));
        assert_eq!(r.body, "{\"a\":1}");
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n").is_err());
    }

    #[test]
    fn request_declares_its_body_length() {
        let raw = extract_request("<p>hi");
        assert!(raw.ends_with(b"\r\n\r\n<p>hi"));
        assert!(std::str::from_utf8(&raw)
            .unwrap()
            .contains("Content-Length: 5\r\n"));
    }
}
