//! End-to-end service tests: a real server on an ephemeral port, real
//! TCP clients, and the acceptance properties from the service design —
//! in-flight duplicates simulate once, results are byte-identical to
//! direct library runs, restarts serve from the cache without touching
//! the pool, and `/metrics`/`/healthz` stay well-formed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ndpb_bench::json::Json;
use ndpb_core::config::SystemConfig;
use ndpb_core::design::DesignPoint;
use ndpb_serve::{Server, ServerConfig, State};
use ndpb_workloads::Scale;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ndpb-serve-{tag}-{}", std::process::id()))
}

fn start(cfg: ServerConfig) -> (SocketAddr, Arc<State>, JoinHandle<()>) {
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.addr();
    let state = Arc::clone(server.state());
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, state, handle)
}

/// Minimal HTTP client: one request per connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    call(
        &mut connect(addr),
        method,
        path,
        body,
        "Connection: close\r\n",
    )
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    BufReader::new(stream)
}

/// Sends one request on `conn` and reads its response: `(status, body)`,
/// the body sized by its `Content-Length`.
fn call(
    conn: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
    headers: &str,
) -> (u16, String) {
    write!(
        conn.get_mut(),
        "{method} {path} HTTP/1.1\r\nHost: x\r\n{headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut status_line = String::new();
    conn.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        conn.read_line(&mut h).expect("header");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    conn.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn job_id(run_response: &str) -> u64 {
    Json::parse(run_response)
        .expect("run response JSON")
        .u64_field("id")
        .expect("job id")
}

fn poll_done(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(addr, "GET", &format!("/job/{id}"), "");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"status\":\"done\"") {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        thread::sleep(Duration::from_millis(20));
    }
}

fn shutdown_and_join(addr: SocketAddr, handle: JoinHandle<()>) {
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread exits cleanly");
}

fn server_counter(addr: SocketAddr, name: &str) -> u64 {
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let j = Json::parse(&body).expect("metrics JSON");
    j.get("server")
        .and_then(|s| s.u64_field(name))
        .unwrap_or_else(|| panic!("missing server counter {name} in {body}"))
}

const BODY: &str = "{\"app\":\"ll\",\"design\":\"C\",\"scale\":\"tiny\"}";

fn expected_result_json() -> String {
    // The exact run the service performs for BODY: Table-1 config,
    // default audit level, via the same library entry point.
    ndpb_bench::run_one("ll", DesignPoint::C, SystemConfig::table1(), Scale::Tiny).to_json()
}

#[test]
fn duplicate_requests_dedup_cache_and_restart_roundtrip() {
    let dir = temp_dir("e2e");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        cache_dir: Some(dir.clone()),
        jobs: 2,
        ..ServerConfig::default()
    };
    let (addr, state, handle) = start(cfg.clone());

    // Same request twice, concurrently, against a cold cache.
    let submit = |addr: SocketAddr| {
        thread::spawn(move || {
            let (status, body) = http(addr, "POST", "/run", BODY);
            assert_eq!(status, 200, "{body}");
            job_id(&body)
        })
    };
    let (a, b) = (submit(addr), submit(addr));
    let (a, b) = (a.join().unwrap(), b.join().unwrap());
    assert_ne!(a, b, "each request gets its own job id");

    // Both jobs finish with byte-identical results, equal to the
    // direct library run of the same point.
    let expected = format!("\"results\":[{}]}}", expected_result_json());
    let doc_a = poll_done(addr, a);
    let doc_b = poll_done(addr, b);
    assert!(doc_a.ends_with(&expected), "service != library: {doc_a}");
    assert_eq!(
        doc_a.replace(&format!("\"id\":{a},"), ""),
        doc_b.replace(&format!("\"id\":{b},"), ""),
        "duplicate jobs must carry identical result bytes"
    );

    // Exactly one simulation ran; the other request was deduped (or, if
    // the first finished before the second arrived, cache-served).
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let j = Json::parse(&body).expect("metrics JSON");
    let server = j.get("server").expect("server block");
    assert_eq!(server.u64_field("accepted"), Some(2), "{body}");
    assert_eq!(server.u64_field("rejected"), Some(0));
    assert_eq!(server.u64_field("in_flight"), Some(0));
    let overlapped = server.u64_field("deduped").unwrap() + server.u64_field("cache_hits").unwrap();
    assert_eq!(overlapped, 1, "second request must not simulate: {body}");
    assert_eq!(server.u64_field("completed"), Some(1), "{body}");
    assert_eq!(
        state
            .sweeper()
            .metrics()
            .live_report()
            .final_value("sweep/simulated"),
        Some(1),
        "exactly one pool execution"
    );

    // Healthz is well-formed.
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let h = Json::parse(&body).expect("healthz JSON");
    assert_eq!(h.get("ok").and_then(|v| v.as_bool()), Some(true));

    shutdown_and_join(addr, handle);

    // Restart on the same cache dir: the resubmit is served from disk
    // without touching the pool, byte-identical again.
    let (addr, state, handle) = start(cfg);
    let (status, body) = http(addr, "POST", "/run", BODY);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"status\":\"done\""),
        "cache fast path completes at submit: {body}"
    );
    assert!(body.ends_with(&expected), "cached != live: {body}");
    assert_eq!(server_counter(addr, "cache_hits"), 1);
    assert_eq!(
        state
            .sweeper()
            .metrics()
            .live_report()
            .final_value("sweep/simulated"),
        None,
        "pool never started on the warm path"
    );
    shutdown_and_join(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_keep_alive_connection_serves_several_requests() {
    let (addr, _state, handle) = start(ServerConfig {
        cache_dir: None,
        jobs: 1,
        ..ServerConfig::default()
    });
    let mut conn = connect(addr);
    let (status, body) = call(&mut conn, "GET", "/healthz", "", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\":true"), "{body}");
    let (status, body) = call(&mut conn, "POST", "/run", BODY, "");
    assert_eq!(status, 200, "{body}");
    let id = job_id(&body);
    let (status, body) = call(&mut conn, "GET", &format!("/job/{id}"), "", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(job_id(&body), id, "{body}");
    // Close the connection, so its worker need not wait out the read
    // timeout before the server can drain.
    drop(conn);
    shutdown_and_join(addr, handle);
}

#[test]
fn shutdown_drains_in_flight_work_into_the_cache() {
    let dir = temp_dir("drain");
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, state, handle) = start(ServerConfig {
        cache_dir: Some(dir.clone()),
        jobs: 1,
        ..ServerConfig::default()
    });
    let (status, body) = http(addr, "POST", "/run", BODY);
    assert_eq!(status, 200, "{body}");
    shutdown_and_join(addr, handle);
    assert_eq!(state.in_flight(), 0, "run() returned before draining");
    let entries = std::fs::read_dir(&dir)
        .expect("cache dir exists after drain")
        .count();
    assert_eq!(entries, 1, "drained result landed in the cache");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_body_is_rejected_and_the_server_keeps_serving() {
    let (addr, _state, handle) = start(ServerConfig {
        cache_dir: None,
        jobs: 1,
        ..ServerConfig::default()
    });
    // 100 KB of open brackets: deep enough to overflow an HTTP
    // worker's stack, and abort the process, if nesting were unbounded.
    let body = format!("{{\"app\":{}", "[".repeat(100_000));
    let (status, reply) = http(addr, "POST", "/run", &body);
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("nesting too deep"), "{reply}");
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let h = Json::parse(&body).expect("healthz JSON");
    assert_eq!(h.get("ok").and_then(|v| v.as_bool()), Some(true));
    shutdown_and_join(addr, handle);
}
