//! Prometheus scrape endpoint on a plain `std::net::TcpListener`.
//!
//! One acceptor thread serves `GET /metrics` with a freshly rendered
//! exposition per request and closes the connection (scrapers poll at
//! ~1 Hz, so connection reuse buys nothing and keeping each request
//! self-contained keeps the server trivial). Shutdown sets a flag and
//! self-connects to unblock the blocking `accept`.

use crate::registry::Registry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum request head we are willing to buffer before answering.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection socket timeout; a stalled scraper cannot wedge the
/// acceptor for longer than this.
const CONN_TIMEOUT: Duration = Duration::from_secs(2);

/// A running scrape endpoint. Dropping the server shuts it down.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `registry` on `/metrics`.
    pub fn serve(registry: Registry, addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("obs-metrics".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // Serve inline: requests are tiny, responses are a
                        // single render, and the socket timeout bounds the
                        // damage a slow client can do.
                        let _ = handle_connection(stream, &registry);
                    }
                }
            })?;
        Ok(Self {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// The bound address of the endpoint.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Full scrape URL, for logs and run summaries.
    pub fn url(&self) -> String {
        format!("http://{}/metrics", self.addr)
    }

    /// Stops the acceptor thread and waits for it to exit.
    pub fn shutdown(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop.
            let _ = TcpStream::connect_timeout(&self.addr, CONN_TIMEOUT);
            let _ = join.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(mut stream: TcpStream, registry: &Registry) -> io::Result<()> {
    stream.set_read_timeout(Some(CONN_TIMEOUT))?;
    stream.set_write_timeout(Some(CONN_TIMEOUT))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() >= MAX_REQUEST_BYTES {
            return respond(&mut stream, "400 Bad Request", "request too large\n");
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "only GET is supported\n",
        );
    }
    // Accept query strings (e.g. /metrics?format=text) for scraper
    // compatibility.
    if path == "/metrics" || path.starts_with("/metrics?") {
        let body = registry.render();
        let header = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(header.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()
    } else {
        respond(&mut stream, "404 Not Found", "try /metrics\n")
    }
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) -> io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Blocking one-shot HTTP GET returning the response body. Shared by the
/// monitoring example, `tests/hubs_under_load.rs` and the round-trip
/// tests; only the tiny HTTP/1.1 subset the [`MetricsServer`] speaks is
/// supported.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(io::Error::other(format!("unexpected status: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn serves_metrics_and_404s_elsewhere() {
        let reg = Registry::new();
        reg.counter("selfserv_hits_total", "Hits.", &[]).add(12);
        let server = MetricsServer::serve(reg.clone(), "127.0.0.1:0").unwrap();

        let body = http_get(server.addr(), "/metrics", Duration::from_secs(5)).unwrap();
        assert!(body.contains("selfserv_hits_total 12\n"));

        let err = http_get(server.addr(), "/nope", Duration::from_secs(5)).unwrap_err();
        assert!(err.to_string().contains("404"));
    }

    /// Satellite: the endpoint's output round-trips the text-format
    /// parser — names, labels, HELP/TYPE metadata, and no duplicate
    /// series — across every collector kind the registry supports.
    #[test]
    fn exposition_round_trips_parser() {
        let reg = Registry::new();
        reg.counter("selfserv_rt_total", "Round-trip counter.", &[("hub", "h0")])
            .add(3);
        reg.counter("selfserv_rt_total", "Round-trip counter.", &[("hub", "h1")])
            .add(4);
        reg.gauge("selfserv_rt_depth", "Round-trip gauge.", &[])
            .set(-7);
        reg.gauge_fn("selfserv_rt_pull", "Pulled.", &[("k", "v w")], || 2.25);
        reg.counter_fn("selfserv_rt_fn_total", "Pulled counter.", &[], || 99);
        let h = reg.histogram("selfserv_rt_lat_us", "Latency.", &[("hub", "h0")]);
        for v in 1..=100u64 {
            h.record(v);
        }

        let mut server = MetricsServer::serve(reg, "127.0.0.1:0").unwrap();
        let body = http_get(server.addr(), "/metrics", Duration::from_secs(5)).unwrap();
        let exp = parse::parse(&body).unwrap();
        exp.validate().unwrap();

        assert_eq!(
            exp.types.get("selfserv_rt_total").map(String::as_str),
            Some("counter")
        );
        assert_eq!(
            exp.types.get("selfserv_rt_depth").map(String::as_str),
            Some("gauge")
        );
        assert_eq!(
            exp.types.get("selfserv_rt_lat_us").map(String::as_str),
            Some("summary")
        );
        assert_eq!(
            exp.help.get("selfserv_rt_total").map(String::as_str),
            Some("Round-trip counter.")
        );
        assert_eq!(exp.value("selfserv_rt_total", &[("hub", "h0")]), Some(3.0));
        assert_eq!(exp.value("selfserv_rt_total", &[("hub", "h1")]), Some(4.0));
        assert_eq!(exp.value("selfserv_rt_depth", &[]), Some(-7.0));
        assert_eq!(exp.value("selfserv_rt_pull", &[("k", "v w")]), Some(2.25));
        assert_eq!(exp.value("selfserv_rt_fn_total", &[]), Some(99.0));
        assert_eq!(
            exp.value("selfserv_rt_lat_us_count", &[("hub", "h0")]),
            Some(100.0)
        );
        let p50 = exp
            .value("selfserv_rt_lat_us", &[("hub", "h0"), ("quantile", "0.5")])
            .unwrap();
        assert!((50.0..=57.0).contains(&p50), "p50 {p50}");

        server.shutdown();
        // After shutdown the endpoint is gone.
        assert!(http_get(server.addr(), "/metrics", Duration::from_millis(500)).is_err());
    }
}
