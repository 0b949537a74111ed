//! A minimal single-threaded HTTP/1.0 listener for telemetry scrapes.
//!
//! This is deliberately *not* a web server: one accept loop on its own
//! thread, one request per connection, `Connection: close`, explicit
//! `Content-Length`, GET only. It exists so `curl`, Prometheus, or the
//! CI gate can pull `/metrics` out of a running simulation without any
//! external crates. All simulation work happens on other threads; the
//! listener only ever reads shared telemetry state through the handler
//! closure, so serving cannot perturb guest-visible execution.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A response produced by a route handler.
pub struct Response {
    /// HTTP status code (200, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` plain-text response.
    pub fn text(body: impl Into<String>) -> Self {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> Self {
        Response {
            status: 200,
            content_type: "application/json".into(),
            body: body.into().into_bytes(),
        }
    }

    /// A `404 Not Found` response.
    pub fn not_found() -> Self {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8".into(),
            body: b"not found\n".to_vec(),
        }
    }
}

/// Route handler: maps a request path to a response, or `None` for 404.
pub type Handler = Arc<dyn Fn(&str) -> Option<Response> + Send + Sync>;

/// Handle to a running listener; dropping it does *not* stop the
/// thread — call [`HttpServer::shutdown`].
pub struct HttpServer {
    addr: SocketAddr,
    quit: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    }
}

fn write_response(stream: &mut TcpStream, r: &Response) {
    let head = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        r.status,
        status_text(r.status),
        r.content_type,
        r.body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(&r.body);
    let _ = stream.flush();
}

/// Reads up to the end of the request head and returns `(method, path)`.
fn read_request(stream: &mut TcpStream) -> Option<(String, String)> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(2000)));
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_owned();
    let path = parts.next()?.to_owned();
    Some((method, path))
}

fn handle_conn(stream: &mut TcpStream, handler: &Handler) {
    let Some((method, path)) = read_request(stream) else {
        return;
    };
    if method != "GET" {
        write_response(
            stream,
            &Response {
                status: 405,
                content_type: "text/plain; charset=utf-8".into(),
                body: b"GET only\n".to_vec(),
            },
        );
        return;
    }
    // Strip any query string: routes are path-only.
    let path = path.split('?').next().unwrap_or("");
    let resp = match path {
        "/healthz" => Response::text("ok\n"),
        p => handler(p).unwrap_or_else(Response::not_found),
    };
    write_response(stream, &resp);
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for an
    /// ephemeral port) and starts the accept loop on a new thread.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be parsed or bound.
    pub fn serve(addr: &str, handler: Handler) -> Result<HttpServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let quit = Arc::new(AtomicBool::new(false));
        let quit2 = Arc::clone(&quit);
        let thread = std::thread::Builder::new()
            .name("hulkv-obs-http".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if quit2.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(mut s) = stream {
                        handle_conn(&mut s, &handler);
                    }
                }
            })
            .map_err(|e| format!("spawn listener thread: {e}"))?;
        Ok(HttpServer {
            addr: local,
            quit,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the listener thread.
    pub fn shutdown(mut self) {
        self.quit.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Performs a plain GET against a local endpoint and returns
/// `(status, body)`. Test/CI helper — not a general HTTP client.
///
/// # Errors
///
/// Fails on connection errors or an unparsable response head.
pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let req = format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n");
    s.write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no header terminator in response: {text:?}"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {head:?}"))?;
    Ok((status, body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_handler() -> Handler {
        Arc::new(|path: &str| match path {
            "/metrics" => Some(Response::text("m 1\n")),
            "/snapshot" => Some(Response::json("{\"v\":2}")),
            _ => None,
        })
    }

    #[test]
    fn serves_routes_and_404s_unknown_paths() {
        let srv = HttpServer::serve("127.0.0.1:0", demo_handler()).unwrap();
        let addr = srv.addr();
        let (st, body) = get(addr, "/metrics").unwrap();
        assert_eq!((st, body.as_str()), (200, "m 1\n"));
        let (st, body) = get(addr, "/snapshot").unwrap();
        assert_eq!((st, body.as_str()), (200, "{\"v\":2}"));
        let (st, _) = get(addr, "/nope").unwrap();
        assert_eq!(st, 404);
        let (st, body) = get(addr, "/healthz").unwrap();
        assert_eq!((st, body.as_str()), (200, "ok\n"));
        srv.shutdown();
    }

    #[test]
    fn query_strings_are_ignored_for_routing() {
        let srv = HttpServer::serve("127.0.0.1:0", demo_handler()).unwrap();
        let (st, body) = get(srv.addr(), "/metrics?x=1").unwrap();
        assert_eq!((st, body.as_str()), (200, "m 1\n"));
        srv.shutdown();
    }
}
