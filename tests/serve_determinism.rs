//! The serving layer's determinism contract, end to end: bodies served
//! over HTTP — fresh, from the response cache, coalesced, or from a
//! different server instance — are byte-identical to encoding the direct
//! library result, and every float survives with its exact bits. The
//! provenance hashes of one `/evaluate` working set are pinned here too.

use carbon_explorer::core::{provenance, EvalScratch};
use carbon_explorer::serve::{
    build_explorer, execute_with_manifest, start, ComputeKind, ComputeRequest, Json, Limits,
    ServerConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Sends one HTTP/1.1 request and returns `(status, x-ce-cache, body)`.
fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Option<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let cache_note = head
        .split("\r\n")
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("x-ce-cache"))
        .map(|(_, v)| v.trim().to_string());
    (status, cache_note, body.to_string())
}

/// Sends one HTTP/1.1 request and returns `(status, lowercased headers,
/// undecoded payload)` — the payload keeps its chunk framing, so callers
/// can compare wire bytes as well as decoded bodies.
fn post_raw(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("head/body split");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let headers = head
        .split("\r\n")
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, payload.to_string())
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Decodes a `transfer-encoding: chunked` payload into the body bytes.
fn dechunk(payload: &str) -> String {
    let mut out = String::new();
    let mut rest = payload;
    loop {
        let (len_line, after) = rest.split_once("\r\n").expect("chunk length line");
        let len = usize::from_str_radix(len_line.trim(), 16).expect("hex chunk length");
        if len == 0 {
            break;
        }
        out.push_str(&after[..len]);
        rest = &after[len + 2..];
    }
    out
}

/// Encodes the result of executing `body` directly against the library —
/// the reference bytes every served response must match.
fn direct_bytes(kind: ComputeKind, body: &str) -> String {
    let json = Json::parse(body).expect("request JSON");
    let request = ComputeRequest::parse(kind, &json, &Limits::default()).expect("valid request");
    let explorer = build_explorer(request.context()).expect("explorer");
    let mut scratch = EvalScratch::default();
    execute_with_manifest(&request, &explorer, &mut scratch)
        .0
        .encode()
}

/// Asserts two parsed JSON trees are equal with numbers compared by
/// `f64::to_bits` — stricter than `==` (distinguishes -0.0, tolerates
/// nothing).
fn assert_bitwise_eq(a: &Json, b: &Json, path: &str) {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "float bits differ at {path}");
        }
        (Json::Arr(xs), Json::Arr(ys)) => {
            assert_eq!(xs.len(), ys.len(), "array length differs at {path}");
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                assert_bitwise_eq(x, y, &format!("{path}[{i}]"));
            }
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            assert_eq!(xs.len(), ys.len(), "object size differs at {path}");
            for ((kx, x), (ky, y)) in xs.iter().zip(ys) {
                assert_eq!(kx, ky, "key order differs at {path}");
                assert_bitwise_eq(x, y, &format!("{path}.{kx}"));
            }
        }
        _ => assert_eq!(a, b, "value differs at {path}"),
    }
}

#[test]
fn evaluate_is_bitwise_identical_fresh_cached_and_across_instances() {
    let body = r#"{"site":"UT","strategy":"renewables_battery_cas",
        "design":{"solar_mw":150,"wind_mw":100,"battery_mwh":40,
                  "extra_capacity_fraction":0.5}}"#;
    let reference = direct_bytes(ComputeKind::Evaluate, body);

    let server_a = start(ServerConfig::default()).expect("bind A");
    let (status, note, fresh) = post(server_a.addr(), "/evaluate", body);
    assert_eq!(status, 200, "{fresh}");
    assert_eq!(note.as_deref(), Some("miss"));
    assert_eq!(fresh, reference, "fresh response differs from library");

    let (status, note, cached) = post(server_a.addr(), "/evaluate", body);
    assert_eq!(status, 200);
    assert_eq!(note.as_deref(), Some("hit"));
    assert_eq!(cached, reference, "cache replay differs from library");

    let server_b = start(ServerConfig::default()).expect("bind B");
    let (status, _, other_instance) = post(server_b.addr(), "/evaluate", body);
    assert_eq!(status, 200);
    assert_eq!(other_instance, reference, "second instance differs");

    let served = Json::parse(&fresh).expect("response JSON");
    let expected = Json::parse(&reference).expect("reference JSON");
    assert_bitwise_eq(&served, &expected, "$");
    assert!(served.get("strategy").is_some() && served.get("design").is_some());

    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn coalesced_explores_share_one_computation_and_match_the_library() {
    // The served sweep runs on the serial engine inside one worker; the
    // reference below runs the parallel engine in this process. Byte
    // equality here is the workspace's parallel == serial invariant,
    // observed through the HTTP path.
    let body = r#"{"ba":"PACE","demand_mw":5,"strategy":"renewables_battery",
        "space":{"solar":[0,100,4],"wind":[0,100,4],"battery":[0,50,64]}}"#;
    let reference = direct_bytes(ComputeKind::Explore, body);

    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = start(config).expect("bind");
    let addr = handle.addr();

    let clients: Vec<_> = (0..3)
        .map(|_| std::thread::spawn(move || post(addr, "/explore", body)))
        .collect();
    let mut notes = Vec::new();
    for client in clients {
        let (status, note, served) = client.join().expect("client");
        assert_eq!(status, 200, "{served}");
        assert_eq!(served, reference, "served sweep differs from library");
        notes.push(note.unwrap_or_default());
    }

    // However the three requests interleaved (coalesced onto one in-flight
    // computation or replayed from cache), the worker pool computed the
    // sweep exactly once.
    let (status, _, stats_body) = post(addr, "/stats", "");
    assert_eq!(status, 405, "stats is GET-only: {stats_body}");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .expect("stats request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("stats response");
    let stats = Json::parse(raw.split("\r\n\r\n").nth(1).expect("stats body")).expect("stats JSON");
    let explore = stats
        .get("endpoints")
        .and_then(|e| e.get("explore"))
        .expect("explore stats");
    assert_eq!(explore.get("computed").and_then(Json::as_f64), Some(1.0));
    let attached = explore
        .get("coalesced")
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
        + explore
            .get("cache_hits")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
    assert_eq!(attached, 2.0, "two requests rode the first computation");
    assert!(notes.contains(&"miss".to_string()), "{notes:?}");

    handle.shutdown();
}

#[test]
fn streamed_explore_chunks_concatenate_to_the_buffered_encoding() {
    // 4 × 4 × 128 = 2048 points: exactly the default streaming threshold,
    // so the sweep goes out as `transfer-encoding: chunked`, one fragment
    // per evaluated group. The determinism contract must hold through the
    // streaming path — fresh, coalesced, and replayed from cache — and
    // the cached fragment boundaries must make replays byte-identical on
    // the wire, not just after decoding.
    let body = r#"{"ba":"PACE","demand_mw":5,"strategy":"renewables_battery",
        "space":{"solar":[0,100,4],"wind":[0,100,4],"battery":[0,50,128]}}"#;
    let reference = direct_bytes(ComputeKind::Explore, body);

    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = start(config).expect("bind");
    let addr = handle.addr();

    // Three concurrent clients: one computes, the others coalesce onto the
    // in-flight stream or replay the cached fragments.
    let clients: Vec<_> = (0..3)
        .map(|_| std::thread::spawn(move || post_raw(addr, "/explore", body)))
        .collect();
    let mut wires = Vec::new();
    for client in clients {
        let (status, headers, payload) = client.join().expect("client");
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "transfer-encoding"), Some("chunked"));
        assert_eq!(header(&headers, "content-length"), None);
        assert_eq!(
            dechunk(&payload),
            reference,
            "chunk concatenation differs from the buffered encoding"
        );
        wires.push(payload);
    }
    assert!(
        wires.windows(2).all(|w| w[0] == w[1]),
        "fragment boundaries differ between fresh, coalesced, and cached replays"
    );

    // A later request replays from the response cache — same wire bytes.
    let (status, headers, replay) = post_raw(addr, "/explore", body);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-ce-cache"), Some("hit"));
    assert_eq!(replay, wires[0], "cache replay differs on the wire");

    // However the clients interleaved, the sweep was computed exactly once.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .expect("stats request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("stats response");
    let stats = Json::parse(raw.split("\r\n\r\n").nth(1).expect("stats body")).expect("stats JSON");
    let explore = stats
        .get("endpoints")
        .and_then(|e| e.get("explore"))
        .expect("explore stats");
    assert_eq!(explore.get("computed").and_then(Json::as_f64), Some(1.0));
    let streamed = stats
        .get("shards")
        .and_then(Json::as_array)
        .and_then(|shards| shards.first())
        .and_then(|s| s.get("streamed"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(streamed >= 4.0, "all four responses streamed: {streamed}");

    // Every float in the streamed body survives with its exact bits.
    let served = Json::parse(&dechunk(&wires[0])).expect("served JSON");
    let expected = Json::parse(&reference).expect("reference JSON");
    assert_bitwise_eq(&served, &expected, "$");

    handle.shutdown();
}

#[test]
fn optimal_search_is_bitwise_identical_over_http() {
    // Renewables-only scores every point it does not prune in full; the
    // battery + CAS search also gives up on points mid-dispatch, on the
    // server's one serial lane as on the library's parallel ones.
    let bodies = [
        r#"{"ba":"ERCO","demand_mw":10,"strategy":"renewables_only",
            "space":{"solar":[0,200,6],"wind":[0,200,6]},"refine_rounds":2}"#,
        r#"{"ba":"ERCO","demand_mw":10,"strategy":"renewables_battery_cas",
            "space":{"solar":[0,200,4],"wind":[0,200,4],"battery":[0,120,4],
            "extra_capacity":[0,0.5,3]},"refine_rounds":2}"#,
    ];
    let handle = start(ServerConfig::default()).expect("bind");
    for body in bodies {
        let reference = direct_bytes(ComputeKind::Optimal, body);
        assert!(reference.contains("\"found\":true"), "{reference}");

        let (status, note, fresh) = post(handle.addr(), "/optimal", body);
        assert_eq!(status, 200, "{fresh}");
        assert_eq!(note.as_deref(), Some("miss"));
        assert_eq!(fresh, reference, "optimal search differs from library");

        let (status, note, cached) = post(handle.addr(), "/optimal", body);
        assert_eq!(status, 200);
        assert_eq!(note.as_deref(), Some("hit"));
        assert_eq!(cached, reference);
    }
    handle.shutdown();
}

/// The provenance of a 64-key `/evaluate` working set: one site context,
/// 64 distinct battery designs. Every body is parsed as the server parses
/// it; the input hash covers the newline-joined canonical request keys
/// (the server's cache identities) and the result hash every evaluation in
/// key order. A change that moves any bit of any result, or the spelling
/// of any key, changes the pair.
#[test]
fn evaluate_working_set_provenance_is_pinned() {
    let limits = Limits::default();
    let mut scratch = EvalScratch::default();
    let mut explorer = None;
    let mut keys = Vec::new();
    let mut evaluations = Vec::new();
    for i in 0..64 {
        let body = format!(
            r#"{{"site":"UT","strategy":"renewables_battery","design":{{"solar_mw":{},"wind_mw":{},"battery_mwh":{}}}}}"#,
            100 + 5 * (i % 8),
            50 + 10 * (i / 8),
            25 + i
        );
        let json = Json::parse(&body).expect("request JSON");
        let request =
            ComputeRequest::parse(ComputeKind::Evaluate, &json, &limits).expect("valid request");
        let ComputeRequest::Evaluate {
            strategy, design, ..
        } = &request
        else {
            panic!("{body} is an /evaluate request");
        };
        let explorer =
            explorer.get_or_insert_with(|| build_explorer(request.context()).expect("explorer"));
        evaluations.push(explorer.evaluate_with(*strategy, design, &mut scratch));
        keys.push(request.canonical_key());
    }
    let hashes = provenance::recomputed(&keys.join("\n"), &evaluations);
    assert_eq!(
        hashes.input_hash,
        "55f0ff6b2042ea2698f610ea7275a5024a06dcd1479f94aea4688506dde74d5e"
    );
    assert_eq!(
        hashes.result_hash,
        "315812b314f62fd7e7c7c3bb603313d01043f87f5455f63e0e3ff20d10b01e40"
    );
}
