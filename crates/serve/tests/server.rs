//! In-process server tests: spawn on a free port, drive real sockets
//! through [`wrm_serve::client`], and check endpoint behavior, response
//! stability across cache states and concurrent clients, LRU eviction,
//! and graceful shutdown.

use wrm_serve::client::{self, Client};
use wrm_serve::{spawn, ServerConfig, ServerHandle};

const LCLS_WRM: &str = r#"
workflow lcls on cori-hsw {
  targets { makespan 10min  throughput 6 per 600s }
  task analyze[5] {
    nodes 32
    system_bytes ext 1TB cap 1GB/s
    node_bytes dram 1024GB
  }
  task merge { nodes 1 system_bytes bb 5GB after analyze }
}
"#;

fn server(cache_capacity: usize) -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity,
        quiet: true,
    })
    .expect("server spawns")
}

/// JSON body with the `.wrm` source under `workflow` plus extra
/// pre-encoded fields (e.g. `,"format":"csv"`).
fn source_body(source: &str, extra: &str) -> String {
    let escaped = serde_json::Value::String(source.to_owned()).to_string();
    format!("{{\"workflow\":{escaped}{extra}}}")
}

#[test]
fn healthz_metrics_and_routing() {
    let server = server(4);
    let addr = server.addr().to_string();

    let r = client::request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!((r.status, r.text().as_str()), (200, "ok\n"));

    let r = client::request(&addr, "GET", "/nope", None).expect("404");
    assert_eq!(r.status, 404);
    let r = client::request(&addr, "GET", "/v1/sweep", None).expect("405");
    assert_eq!(r.status, 405);
    assert!(r.text().contains("use POST"), "{}", r.text());

    let r = client::request(&addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(r.status, 200);
    let text = r.text();
    assert!(
        text.contains("wrm_requests_total{endpoint=\"healthz\"} 1"),
        "{text}"
    );
    assert!(text.contains("wrm_cache_entries 0"), "{text}");

    let report = server.shutdown();
    assert_eq!(report.abandoned, 0);
    assert!(report.served >= 4, "served {}", report.served);
}

#[test]
fn sweep_is_byte_stable_across_cache_states_and_clients() {
    let server = server(4);
    let addr = server.addr().to_string();
    let body = source_body(
        LCLS_WRM,
        ",\"resource\":\"ext\",\"factors\":[1.0,0.5],\
         \"policies\":[\"backfill\",\"fifo\"],\"format\":\"csv\"",
    );

    // Cold cache, then warm cache, on one keep-alive connection.
    let mut conn = Client::connect(&addr).expect("connect");
    let cold = conn
        .request("POST", "/v1/sweep", Some(&body))
        .expect("cold");
    let warm = conn
        .request("POST", "/v1/sweep", Some(&body))
        .expect("warm");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.body, warm.body, "cache hit changed the bytes");
    // The 161 nodes of LCLS fit the machine's pool, so the policy never
    // decides anything: the backfill column copies the fifo column's
    // cells, once per sweep.
    let r = client::request(&addr, "GET", "/metrics/json", None).expect("metrics");
    let snapshot: serde_json::Value = serde_json::from_str(&r.text()).expect("json");
    let path = |field: &str| snapshot["sweep_paths"][field].as_u64();
    assert_eq!(
        ["cold", "replayed", "shared", "errors"].map(path),
        [Some(2), Some(2), Some(4), Some(0)],
        "{}",
        r.text()
    );
    let text = cold.text();
    assert!(
        text.starts_with("workflow,machine,resource,factor,node_limit,policy"),
        "{text}"
    );
    // 2 factors x 2 policies, canonical order: fifo before backfill,
    // factors ascending.
    assert_eq!(text.lines().count(), 5, "{text}");
    let rows: Vec<&str> = text.lines().skip(1).collect();
    assert!(rows[0].contains(",0.5,,fifo,"), "{text}");
    assert!(rows[1].contains(",0.5,,backfill,"), "{text}");
    assert!(rows[2].contains(",1,,fifo,"), "{text}");

    // Four concurrent clients see the same bytes.
    let answers: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let body = body.clone();
                scope.spawn(move || {
                    client::request(&addr, "POST", "/v1/sweep", Some(&body))
                        .expect("concurrent sweep")
                        .body
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    for answer in &answers {
        assert_eq!(answer, &cold.body, "concurrent client diverged");
    }

    // json and jsonl agree on content.
    let json_body = source_body(LCLS_WRM, ",\"format\":\"json\"");
    let r = client::request(&addr, "POST", "/v1/sweep", Some(&json_body)).expect("json");
    assert_eq!(r.status, 200);
    assert!(r.text().trim_start().starts_with('['), "{}", r.text());
    let jsonl_body = source_body(LCLS_WRM, ",\"format\":\"jsonl\"");
    let r = client::request(&addr, "POST", "/v1/sweep", Some(&jsonl_body)).expect("jsonl");
    assert_eq!(r.status, 200);
    assert!(r.text().trim_start().starts_with('{'), "{}", r.text());

    // Contention on the swept resource would be overridden by the factor
    // axis, so it is refused before any work.
    let clash = source_body(
        LCLS_WRM,
        ",\"resource\":\"ext\",\"factors\":[0.5],\"contention\":{\"ext\":0.2}",
    );
    let r = client::request(&addr, "POST", "/v1/sweep", Some(&clash)).expect("clash");
    assert_eq!(
        (r.status, r.text().as_str()),
        (
            400,
            "field `contention` names the swept resource `ext`; its factors go in `factors`\n"
        )
    );
    // Factors need the resource they scale; the message names the
    // request's fields, not the CLI's flags.
    let unscaled = source_body(LCLS_WRM, ",\"factors\":[0.5]");
    let r = client::request(&addr, "POST", "/v1/sweep", Some(&unscaled)).expect("no resource");
    assert_eq!(
        (r.status, r.text().as_str()),
        (400, "`factors` needs `resource` (a shared resource id)\n")
    );

    server.shutdown();
}

#[test]
fn simulate_certify_and_lint_endpoints() {
    let server = server(4);
    let addr = server.addr().to_string();

    let r = client::request(
        &addr,
        "POST",
        "/v1/simulate",
        Some(&source_body(LCLS_WRM, "")),
    )
    .expect("simulate");
    assert_eq!(r.status, 200, "{}", r.text());
    let text = r.text();
    assert!(text.contains("makespan"), "{text}");
    assert!(text.contains("time breakdown:"), "{text}");

    let r = client::request(
        &addr,
        "POST",
        "/v1/simulate",
        Some(&source_body(LCLS_WRM, ",\"summary\":true")),
    )
    .expect("summary");
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("critical-path tail"), "{}", r.text());

    let r = client::request(
        &addr,
        "POST",
        "/v1/certify",
        Some(&source_body(LCLS_WRM, "")),
    )
    .expect("certify");
    assert_eq!(r.status, 200, "{}", r.text());
    let cert: serde_json::Value = serde_json::from_str(&r.text()).expect("cert json");
    assert!(
        cert.get("lo").is_some() && cert.get("hi").is_some(),
        "{cert:?}"
    );

    let r = client::request(
        &addr,
        "POST",
        "/v1/lint",
        Some(&source_body(LCLS_WRM, ",\"path\":\"lcls.wrm\"")),
    )
    .expect("lint");
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("lcls.wrm:"), "{}", r.text());

    // Builtins are sweep/certify-only: simulate needs a source DAG.
    let r = client::request(
        &addr,
        "POST",
        "/v1/simulate",
        Some("{\"workflow\":\"bgw\"}"),
    )
    .expect("builtin simulate");
    assert_eq!(r.status, 400);
    assert!(r.text().contains("sweep-only"), "{}", r.text());

    // Malformed request bodies are 400, not a dead connection.
    let r = client::request(&addr, "POST", "/v1/simulate", Some("not json")).expect("bad body");
    assert_eq!(r.status, 400);
    let r = client::request(&addr, "POST", "/v1/simulate", Some("{}")).expect("no workflow");
    assert_eq!(r.status, 400);
    assert!(r.text().contains("workflow"), "{}", r.text());

    // Contention on a resource the machine does not share is refused,
    // not ignored, by the buffered and the streamed endpoints alike.
    let unknown = source_body(LCLS_WRM, ",\"contention\":{\"nope\":0.5}");
    for endpoint in ["/v1/simulate", "/v1/sweep"] {
        let r = client::request(&addr, "POST", endpoint, Some(&unknown)).expect("contention");
        assert_eq!(
            (r.status, r.text().as_str()),
            (
                400,
                "machine `Cori Haswell` has no shared resource `nope`\n"
            ),
            "{endpoint}"
        );
    }

    server.shutdown();
}

#[test]
fn mc_endpoint_is_byte_stable_and_validates_reps() {
    let mc_wrm = r#"
workflow lcls-mc on cori-hsw {
  task analyze[5] {
    nodes 32
    system_bytes ext uniform(0.8TB, 1.2TB) cap 1GB/s
    node_bytes dram lognormal(1024GB, 0.25)
    overhead setup triangular(3s, 5s, 10s)
  }
  task merge { nodes 1 system_bytes bb empirical(4GB 1, 5GB 2, 8GB 1) after analyze }
}
"#;
    let server = server(4);
    let addr = server.addr().to_string();

    // Cold cache, warm cache, then a different worker count: all three
    // must return the same bytes (fan-out order never leaks).
    let one = source_body(mc_wrm, ",\"reps\":32,\"seed\":7,\"threads\":1");
    let mut conn = Client::connect(&addr).expect("connect");
    let cold = conn.request("POST", "/v1/mc", Some(&one)).expect("cold");
    assert_eq!(cold.status, 200, "{}", cold.text());
    let text = cold.text();
    assert!(
        text.contains("32 Monte-Carlo replication(s) (seed 7)"),
        "{text}"
    );
    assert!(text.contains("percentiles"), "{text}");
    assert!(text.contains("certified bracket"), "{text}");
    let warm = conn.request("POST", "/v1/mc", Some(&one)).expect("warm");
    assert_eq!(cold.body, warm.body, "cache hit changed the bytes");
    let two = source_body(mc_wrm, ",\"reps\":32,\"seed\":7,\"threads\":2");
    let r = conn
        .request("POST", "/v1/mc", Some(&two))
        .expect("threads 2");
    assert_eq!(cold.body, r.body, "thread count changed the bytes");

    // A different seed must actually change the answer.
    let reseeded = source_body(mc_wrm, ",\"reps\":32,\"seed\":8,\"threads\":1");
    let r = conn
        .request("POST", "/v1/mc", Some(&reseeded))
        .expect("seed 8");
    assert_ne!(cold.body, r.body, "seed had no effect");

    // percentiles:false drops the table but keeps the header lines.
    let terse = source_body(mc_wrm, ",\"reps\":32,\"seed\":7,\"percentiles\":false");
    let r = conn.request("POST", "/v1/mc", Some(&terse)).expect("terse");
    assert_eq!(r.status, 200);
    assert!(!r.text().contains("percentiles"), "{}", r.text());

    // Replication count is validated, and GET is routed as 405.
    let r = conn
        .request("POST", "/v1/mc", Some(&source_body(mc_wrm, ",\"reps\":0")))
        .expect("reps 0");
    assert_eq!(r.status, 400);
    assert!(r.text().contains("1..=100000"), "{}", r.text());
    let r = conn
        .request(
            "POST",
            "/v1/mc",
            Some(&source_body(mc_wrm, ",\"reps\":100001")),
        )
        .expect("reps too large");
    assert_eq!(r.status, 400);
    let r = client::request(&addr, "GET", "/v1/mc", None).expect("405");
    assert_eq!(r.status, 405);

    server.shutdown();
}

#[test]
fn lru_eviction_recompiles_evicted_specs() {
    // Capacity 1: every distinct workflow evicts the previous one.
    let server = server(1);
    let addr = server.addr().to_string();

    let sweep = |name: &str| {
        let body = format!("{{\"workflow\":\"{name}\",\"format\":\"csv\"}}");
        client::request(&addr, "POST", "/v1/sweep", Some(&body)).expect("sweep")
    };
    let first = sweep("bgw");
    assert_eq!(first.status, 200);
    assert_eq!(sweep("gptune-rci").status, 200);
    assert_eq!(sweep("gptune-spawn").status, 200);

    // The first spec was evicted; it must still answer (recompile), and
    // with the same bytes.
    let again = sweep("bgw");
    assert_eq!(again.status, 200);
    assert_eq!(again.body, first.body, "recompiled answer diverged");

    let r = client::request(&addr, "GET", "/metrics/json", None).expect("metrics");
    let snap: serde_json::Value = serde_json::from_str(&r.text()).expect("snapshot json");
    let cache = snap.get("cache").expect("cache section");
    let evictions = cache.get("evictions").and_then(serde_json::Value::as_u64);
    let entries = cache.get("entries").and_then(serde_json::Value::as_u64);
    assert!(evictions >= Some(3), "evictions {evictions:?}");
    assert_eq!(entries, Some(1), "capacity-1 cache holds one entry");

    server.shutdown();
}

#[test]
fn chunked_request_bodies_get_501_and_a_closed_connection() {
    use std::io::{Read, Write};

    let server = server(2);
    let addr = server.addr();

    // A chunked body is never parsed, so the server must refuse it and
    // close — otherwise the framing bytes would desync the next
    // pipelined request on the connection.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            b"POST /v1/lint HTTP/1.1\r\nHost: wrm\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n0\r\n\r\n\
              GET /healthz HTTP/1.1\r\n\r\n",
        )
        .expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read until close");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 501 "), "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");
    assert!(
        !text.contains("ok\n"),
        "pipelined request after chunked framing must not be served: {text}"
    );

    server.shutdown();
}

#[test]
fn idle_read_timeout_closes_silently_without_a_400() {
    use std::io::Read;

    let server = server(2);
    let addr = server.addr();

    // An idle keep-alive connection should be dropped by the read
    // timeout with no unsolicited response bytes (a 400 here would mean
    // the timeout was misclassified as a malformed request).
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read until close");
    assert!(
        raw.is_empty(),
        "idle connection got unsolicited bytes: {}",
        String::from_utf8_lossy(&raw)
    );

    server.shutdown();
}

#[test]
fn admin_shutdown_drains_the_server() {
    let server = server(2);
    let addr = server.addr().to_string();
    let r = client::request(&addr, "POST", "/admin/shutdown", None).expect("shutdown");
    assert_eq!((r.status, r.text().as_str()), (200, "shutting down\n"));

    // The accept loop observes the flag within its poll interval; new
    // connections are then refused or dropped.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match client::request(&addr, "GET", "/healthz", None) {
            Err(_) => break,
            Ok(_) if std::time::Instant::now() > deadline => {
                panic!("server still accepting after shutdown")
            }
            Ok(_) => std::thread::sleep(std::time::Duration::from_millis(25)),
        }
    }
    let report = server.shutdown();
    assert_eq!(report.abandoned, 0, "connections drained");
}
