//! Minimal HTTP/1.0 endpoint serving the Prometheus text page.
//!
//! One thread, nonblocking accept polled against the server's shutdown
//! flag. `GET /metrics` answers 200 with the telemetry snapshot (plus
//! the server's own counters injected under the same `mpcbf_`
//! namespace); everything else answers 404. No keep-alive, no chunking
//! — exactly enough HTTP for a scraper.

use crate::server::Shared;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const IDLE_POLL: Duration = Duration::from_millis(50);

pub(crate) fn serve(shared: Arc<Shared>, listener: TcpListener) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => answer(&shared, stream),
            Err(_) => std::thread::sleep(IDLE_POLL),
        }
    }
}

fn answer(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).unwrap_or(0);
    let request = String::from_utf8_lossy(&buf[..n]);
    let metrics_path = request.lines().next().is_some_and(|line| {
        let mut parts = line.split_whitespace();
        parts.next() == Some("GET") && matches!(parts.next(), Some("/metrics") | Some("/metrics/"))
    });
    let (status, body) = if metrics_path {
        ("200 OK", shared.metrics_page())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
}

/// Blocking one-shot HTTP GET returning the response body — the client
/// side of the `/metrics` listener, for tests, benches, and the CLI.
pub fn http_get_text(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: mpcbf\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or(response);
    Ok(body)
}
