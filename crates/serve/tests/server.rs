//! Integration tests driving `ce-serve` over real TCP sockets: routing,
//! error statuses, keep-alive, backpressure shedding, and graceful
//! shutdown draining.

use ce_serve::{start, Json, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Decodes a `transfer-encoding: chunked` payload into the body bytes.
fn dechunk(payload: &str) -> String {
    let mut out = String::new();
    let mut rest = payload;
    loop {
        let (len_line, after) = rest
            .split_once("\r\n")
            .unwrap_or_else(|| panic!("chunk length line missing in {payload:?}"));
        let len = usize::from_str_radix(len_line.trim(), 16).expect("hex chunk length");
        if len == 0 {
            break;
        }
        out.push_str(&after[..len]);
        rest = &after[len + 2..]; // past the chunk's trailing \r\n
    }
    out
}

/// Sends one HTTP/1.1 request with `connection: close` and returns
/// `(status, lowercased headers, body)`. Chunked bodies are decoded.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body = if header(&headers, "transfer-encoding") == Some("chunked") {
        dechunk(body)
    } else {
        body.to_string()
    };
    (status, headers, body)
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Polls a top-level `/stats` gauge until `pred` holds, or fails the test.
fn wait_for_gauge(addr: SocketAddr, gauge: &str, pred: impl Fn(f64) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = f64::NAN;
    while Instant::now() < deadline {
        let (status, _, body) = http(addr, "GET", "/stats", "");
        assert_eq!(status, 200, "/stats must stay available");
        let stats = Json::parse(&body).expect("stats JSON");
        if let Some(v) = stats.get(gauge).and_then(Json::as_f64) {
            last = v;
            if pred(v) {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("gauge `{gauge}` never satisfied predicate (last value {last})");
}

/// An `/explore` body slow enough (4096 battery + CAS evaluations, the
/// widest space the default limits admit) to keep a debug-build worker
/// busy for seconds while the test inspects server state. `variant`
/// perturbs the space so each body is a distinct canonical key.
fn slow_explore_body(variant: usize) -> String {
    format!(
        r#"{{"ba":"PACE","demand_mw":5,"strategy":"renewables_battery_cas",
            "space":{{"solar":[0,100,4],"wind":[0,100,8],"battery":[0,{},128]}}}}"#,
        50 + variant
    )
}

#[test]
fn routing_and_error_statuses() {
    let handle = start(ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    let (status, _, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));

    let (status, _, body) = http(addr, "GET", "/scenarios", "");
    assert_eq!(status, 200);
    assert!(body.contains("renewables_battery_cas"), "{body}");

    let (status, _, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _, _) = http(addr, "POST", "/healthz", "{}");
    assert_eq!(status, 405);
    let (status, _, body) = http(addr, "POST", "/evaluate", "{not json");
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = http(
        addr,
        "POST",
        "/evaluate",
        r#"{"site":"UT","strategy":"fusion_reactors","design":{}}"#,
    );
    assert_eq!(status, 422, "{body}");
    let (status, _, body) = http(
        addr,
        "POST",
        "/evaluate",
        r#"{"site":"ZZ","strategy":"renewables_only","design":{}}"#,
    );
    assert_eq!(status, 404, "{body}");

    handle.shutdown();
}

#[test]
fn manifest_blocks_are_served_and_content_addressable() {
    let handle = start(ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    // A plain evaluate carries no manifest block.
    let plain = r#"{"site":"UT","strategy":"renewables_battery","design":{"solar_mw":100,"battery_mwh":50}}"#;
    let (status, _, body) = http(addr, "POST", "/evaluate", plain);
    assert_eq!(status, 200, "{body}");
    assert!(!body.contains("\"manifest\""), "{body}");

    // Opting in appends the provenance block...
    let flagged = r#"{"site":"UT","strategy":"renewables_battery","design":{"solar_mw":100,"battery_mwh":50},"manifest":true}"#;
    let (status, _, body) = http(addr, "POST", "/evaluate", flagged);
    assert_eq!(status, 200, "{body}");
    let response = Json::parse(&body).expect("response JSON");
    let block = response.get("manifest").expect("manifest block");
    let result_hash = block
        .get("result_hash")
        .and_then(Json::as_str)
        .expect("result hash");
    assert_eq!(result_hash.len(), 64, "SHA-256 hex");
    assert_eq!(block.get("kind").and_then(Json::as_str), Some("evaluate"));
    assert_eq!(block.get("ba").and_then(Json::as_str), Some("PACE"));

    // ...and registers it for content-addressed lookup.
    let (status, _, served) = http(addr, "GET", &format!("/manifest/{result_hash}"), "");
    assert_eq!(status, 200, "{served}");
    let manifest = Json::parse(&served).expect("manifest JSON");
    assert_eq!(
        manifest.get("result_hash").and_then(Json::as_str),
        Some(result_hash)
    );
    assert_eq!(&manifest, block, "lookup returns the embedded block");

    // An unknown hash is a 404, not an error.
    let (status, _, _) = http(addr, "GET", &format!("/manifest/{}", "0".repeat(64)), "");
    assert_eq!(status, 404);

    // The flagged and plain requests are distinct cache keys: replaying
    // each returns its own bytes, now from cache.
    let (_, headers, replay) = http(addr, "POST", "/evaluate", flagged);
    assert_eq!(header(&headers, "x-ce-cache"), Some("hit"));
    assert_eq!(
        replay, body,
        "cached manifest-bearing body is byte-identical"
    );

    handle.shutdown();
}

#[test]
fn streamed_explore_carries_the_manifest_in_its_final_chunks() {
    let config = ServerConfig {
        stream_threshold_points: 1, // force chunked framing even for tiny sweeps
        ..ServerConfig::default()
    };
    let handle = start(config).expect("bind");
    let addr = handle.addr();
    let body = r#"{"ba":"PACE","demand_mw":5,"strategy":"renewables_only",
                   "space":{"solar":[0,100,3],"wind":[0,100,2]},"manifest":true}"#;
    let (status, headers, streamed) = http(addr, "POST", "/explore", body);
    assert_eq!(status, 200, "{streamed}");
    assert_eq!(header(&headers, "transfer-encoding"), Some("chunked"));
    let response = Json::parse(&streamed).expect("dechunked body parses");
    assert_eq!(response.get("count").and_then(Json::as_f64), Some(6.0));
    let block = response.get("manifest").expect("manifest block");
    assert_eq!(block.get("kind").and_then(Json::as_str), Some("explore"));
    let result_hash = block
        .get("result_hash")
        .and_then(Json::as_str)
        .expect("result hash");
    let (status, _, served) = http(addr, "GET", &format!("/manifest/{result_hash}"), "");
    assert_eq!(status, 200, "{served}");
    assert_eq!(
        Json::parse(&served)
            .expect("manifest JSON")
            .get("input_hash"),
        block.get("input_hash")
    );
    handle.shutdown();
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let handle = start(ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let probe = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
    stream.write_all(probe).expect("first request");
    stream.write_all(probe).expect("second request");
    let mut seen = String::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen.matches("{\"status\":\"ok\"}").count() < 2 {
        assert!(Instant::now() < deadline, "responses: {seen}");
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).expect("read");
        assert_ne!(n, 0, "connection closed early: {seen}");
        seen.push_str(&String::from_utf8_lossy(&chunk[..n]));
    }
    assert_eq!(seen.matches("HTTP/1.1 200").count(), 2, "{seen}");
    handle.shutdown();
}

#[test]
fn oversized_bodies_are_rejected_with_413_before_buffering() {
    let config = ServerConfig {
        max_body_bytes: 128,
        ..ServerConfig::default()
    };
    let handle = start(config).expect("bind");
    let (status, headers, body) = http(handle.addr(), "POST", "/evaluate", &"x".repeat(256));
    assert_eq!(status, 413, "{body}");
    assert_eq!(header(&headers, "connection"), Some("close"));

    // The rejection happens at the request head: a declared-oversized body
    // is refused even when none of its bytes ever arrive.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(b"POST /evaluate HTTP/1.1\r\nhost: t\r\ncontent-length: 999999\r\n\r\n")
        .expect("head only");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("response then close");
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 413"), "{text}");
    handle.shutdown();
}

#[test]
fn stalled_mid_request_connections_get_408() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let handle = start(config).expect("bind");

    // A slow-loris peer: opens a request head and then goes silent.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(b"POST /evaluate HTTP/1.1\r\nhost: t\r\ncontent-le")
        .expect("partial head");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("408 then close");
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");

    // A well-behaved request on a fresh connection still succeeds.
    let (status, _, body) = http(handle.addr(), "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
    handle.shutdown();
}

#[test]
fn idle_keep_alive_connections_are_closed_after_idle_timeout() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let handle = start(config).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .expect("EOF when idle-closed");
    assert!(reply.is_empty(), "idle close sends nothing: {reply:?}");
    handle.shutdown();
}

#[test]
fn requests_delivered_one_byte_at_a_time_still_parse() {
    let handle = start(ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let body = r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":100}}"#;
    let request = format!(
        "POST /evaluate HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    for &byte in request.as_bytes() {
        stream.write_all(&[byte]).expect("drip one byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("response");
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.contains("\"strategy\":\"renewables_only\""), "{text}");
    handle.shutdown();
}

#[test]
fn pipelined_requests_split_across_reads_are_answered_in_order() {
    let handle = start(ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let body = r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":100}}"#;
    let post = format!(
        "POST /evaluate HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let wire = post.repeat(3) + "GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n";
    // Deliver the pipelined burst in awkward slices that split heads and
    // bodies across reads.
    let bytes = wire.as_bytes();
    let cuts = [7, 63, post.len() + 5, 2 * post.len() + 11, bytes.len()];
    let mut sent = 0;
    for cut in cuts {
        stream.write_all(&bytes[sent..cut]).expect("slice");
        sent = cut;
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("responses");
    let text = String::from_utf8_lossy(&reply);
    assert_eq!(text.matches("HTTP/1.1 200").count(), 4, "{text}");
    assert!(
        text.trim_end().ends_with("{\"status\":\"ok\"}"),
        "responses out of order: {text}"
    );
    // The three identical evaluates resolve to one computation plus two
    // cache hits, all byte-identical.
    assert_eq!(text.matches("\"strategy\":\"renewables_only\"").count(), 3);
    handle.shutdown();
}

#[test]
fn pipelined_request_behind_a_large_response_is_answered() {
    let handle = start(ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // 45 × 45 = 2025 points: just under the streaming threshold, so the
    // answer is one ~1 MB buffered body, far past the output high-water
    // mark, with a second request already buffered behind it.
    let body = r#"{"site":"UT","strategy":"renewables_only","space":{"solar":[0,400,45],"wind":[0,400,45]}}"#;
    let wire = format!(
        "POST /explore HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}\
         GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(wire.as_bytes())
        .expect("send both requests");

    // Time the second response from the end of the first, so the
    // explore's compute time (long in debug builds) does not count.
    let mut raw = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut first_done = None;
    loop {
        let n = stream
            .read(&mut chunk)
            .expect("responses before the timeout");
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&chunk[..n]);
        if first_done.is_none() {
            let text = String::from_utf8_lossy(&raw);
            if let Some((head, rest)) = text.split_once("\r\n\r\n") {
                let length: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))
                    .and_then(|v| v.trim().parse().ok())
                    .expect("buffered explore response");
                if rest.len() >= length {
                    first_done = Some(Instant::now());
                }
            }
        }
    }
    let gap = first_done.expect("explore response completed").elapsed();
    let text = String::from_utf8(raw).expect("UTF-8 responses");
    assert!(
        text.len() > 512 * 1024,
        "explore body is {} bytes",
        text.len()
    );
    assert_eq!(text.matches("HTTP/1.1 200").count(), 2, "{}", &text[..200]);
    assert!(text.starts_with("HTTP/1.1 200"));
    assert!(
        text.ends_with("{\"status\":\"ok\"}"),
        "healthz must follow the explore: ...{}",
        &text[text.len().saturating_sub(200)..]
    );
    assert!(
        gap < Duration::from_secs(1),
        "healthz answered {gap:?} after the explore"
    );
    handle.shutdown();
}

#[test]
fn full_queue_sheds_with_429_while_healthz_stays_responsive() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let handle = start(config).expect("bind");
    let addr = handle.addr();

    // Job A occupies the only worker...
    let job_a = std::thread::spawn(move || http(addr, "POST", "/explore", &slow_explore_body(0)));
    wait_for_gauge(addr, "busy_workers", |v| v >= 1.0);
    // ...job B fills the only queue slot...
    let job_b = std::thread::spawn(move || http(addr, "POST", "/explore", &slow_explore_body(1)));
    wait_for_gauge(addr, "queue_depth", |v| v >= 1.0);

    // ...so job C must be shed, with a Retry-After hint.
    let (status, headers, body) = http(addr, "POST", "/explore", &slow_explore_body(2));
    assert_eq!(status, 429, "{body}");
    assert_eq!(header(&headers, "retry-after"), Some("1"));

    // Saturated compute never blocks observability.
    let (status, _, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
    let (status, _, body) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let stats = Json::parse(&body).expect("stats JSON");
    let shed = stats
        .get("endpoints")
        .and_then(|e| e.get("explore"))
        .and_then(|e| e.get("shed"))
        .and_then(Json::as_f64);
    assert_eq!(shed, Some(1.0), "{body}");

    // The accepted jobs still complete normally.
    let (status_a, headers_a, _) = job_a.join().expect("job A");
    let (status_b, _, _) = job_b.join().expect("job B");
    assert_eq!((status_a, status_b), (200, 200));
    assert_eq!(header(&headers_a, "x-ce-cache"), Some("miss"));

    // And the shed key was fully retired: retrying job C now succeeds.
    let (status, _, body) = http(addr, "POST", "/explore", &slow_explore_body(2));
    assert_eq!(status, 200, "{body}");

    // Replays of job A are cache hits.
    let (status, headers, _) = http(addr, "POST", "/explore", &slow_explore_body(0));
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-ce-cache"), Some("hit"));

    handle.shutdown();
}

/// Sends `GET path` on a keep-alive connection and returns the body of
/// the `content-length` response.
fn get_keep_alive(stream: &mut TcpStream, path: &str) -> String {
    let request = format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).expect("read response");
        assert_ne!(n, 0, "connection closed early");
        raw.extend_from_slice(&chunk[..n]);
        let text = String::from_utf8_lossy(&raw);
        if let Some((head, body)) = text.split_once("\r\n\r\n") {
            let len: usize = head
                .split("\r\n")
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
                .and_then(|(_, v)| v.trim().parse().ok())
                .expect("content-length");
            if body.len() >= len {
                return body[..len].to_string();
            }
        }
    }
}

/// Shard 0 places the `k`-th connection on shard `k mod N`, so `N·m`
/// open connections sit `m` to a shard, whichever event loop wakes first.
#[test]
fn connections_are_placed_round_robin_in_accept_order() {
    let (shards, per_shard) = (3, 4);
    let handle = start(ServerConfig {
        event_shards: shards,
        workers: shards,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut conns: Vec<TcpStream> = (0..shards * per_shard)
        .map(|_| TcpStream::connect(handle.addr()).expect("connect"))
        .collect();
    // An answer on every connection: each is registered with its shard.
    for conn in &mut conns {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        assert_eq!(get_keep_alive(conn, "/healthz"), "{\"status\":\"ok\"}");
    }
    let stats = Json::parse(&get_keep_alive(&mut conns[0], "/stats")).expect("stats JSON");
    let Some(Json::Arr(items)) = stats.get("shards") else {
        panic!("shards array missing");
    };
    let counts: Vec<f64> = items
        .iter()
        .map(|s| s.get("connections").and_then(Json::as_f64).expect("gauge"))
        .collect();
    assert_eq!(counts, vec![per_shard as f64; shards], "{stats:?}");
    drop(conns);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_work_then_refuses_connections() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    };
    let handle = start(config).expect("bind");
    let addr = handle.addr();

    let in_flight =
        std::thread::spawn(move || http(addr, "POST", "/explore", &slow_explore_body(9)));
    wait_for_gauge(addr, "busy_workers", |v| v >= 1.0);
    handle.shutdown();

    // The request accepted before shutdown was drained, not dropped.
    let (status, _, body) = in_flight.join().expect("drained request");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"results\""), "{body}");

    // The listener is gone: new connections fail (or are reset unserved).
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
            let mut reply = Vec::new();
            let _ = stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .and_then(|()| stream.read_to_end(&mut reply));
            assert!(reply.is_empty(), "served after shutdown: {reply:?}");
        }
    }
}
