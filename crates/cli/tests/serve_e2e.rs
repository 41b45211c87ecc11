//! End-to-end determinism: the same analyses through `wrm <cmd>` and
//! through a real `wrm serve` process must produce byte-identical
//! output — cold cache, warm cache, and under concurrent clients.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStderr, Command, Stdio};
use wrm_serve::client::{self, Client};

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

const MC_WRM: &str = r#"
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

fn wrm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wrm"))
}

/// Runs a CLI command and returns its stdout bytes (asserting success).
fn cli_stdout(args: &[&str]) -> Vec<u8> {
    let out = wrm().args(args).output().expect("wrm runs");
    assert!(
        out.status.success(),
        "wrm {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// A `wrm serve` child process bound to a free port.
struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: String,
}

impl Server {
    fn start() -> Self {
        let mut child = wrm()
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("serve spawns");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut line = String::new();
        stderr.read_line(&mut line).expect("listening line");
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
            .to_owned();
        Server {
            child,
            stderr,
            addr,
        }
    }

    /// Shuts down via the admin endpoint and returns the drain line.
    fn stop(mut self) -> String {
        let r =
            client::request(&self.addr, "POST", "/admin/shutdown", None).expect("shutdown request");
        assert_eq!(r.status, 200);
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "serve exit status {status:?}");
        let mut rest = String::new();
        self.stderr.read_to_string(&mut rest).expect("drain line");
        rest
    }
}

/// JSON body with the `.wrm` source under `workflow` plus extra
/// pre-encoded fields.
fn source_body(source: &str, extra: &str) -> String {
    let escaped = serde_json::Value::String(source.to_owned()).to_string();
    format!("{{\"workflow\":{escaped}{extra}}}")
}

#[test]
fn server_responses_match_cli_output_byte_for_byte() {
    let dir = std::env::temp_dir().join("wrm_serve_e2e");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let wf_path = dir.join("lcls.wrm");
    std::fs::write(&wf_path, LCLS_WRM).expect("write workflow");
    let wf = wf_path.to_str().expect("utf8");

    let sweep_cli = cli_stdout(&[
        "sweep",
        wf,
        "--resource",
        "ext",
        "--factors",
        "1.0,0.5",
        "--policies",
        "backfill,fifo",
        "--format",
        "csv",
        "--quiet",
    ]);
    let sweep_jsonl_cli = cli_stdout(&[
        "sweep", wf, "--nodes", "64,161", "--format", "jsonl", "--quiet",
    ]);
    let simulate_cli = cli_stdout(&["simulate", wf]);
    let summary_cli = cli_stdout(&["simulate", wf, "--summary"]);
    let wf_mc_path = dir.join("lcls_mc.wrm");
    std::fs::write(&wf_mc_path, MC_WRM).expect("write mc workflow");
    let wf_mc = wf_mc_path.to_str().expect("utf8");
    // Thread count must never change the bytes: ask the CLI for 4
    // workers and the server for its single-slot default.
    let mc_cli = cli_stdout(&[
        "simulate",
        wf_mc,
        "--reps",
        "64",
        "--seed",
        "7",
        "--percentiles",
        "--threads",
        "4",
    ]);
    let certify_cli = cli_stdout(&["certify", wf]);
    let lint_cli = cli_stdout(&["lint", wf, "--format", "json"]);

    let server = Server::start();
    let addr = server.addr.clone();
    let sweep_body = source_body(
        LCLS_WRM,
        ",\"resource\":\"ext\",\"factors\":[1.0,0.5],\
         \"policies\":[\"backfill\",\"fifo\"],\"format\":\"csv\"",
    );

    // Cold then warm cache on one keep-alive connection.
    let mut conn = Client::connect(&addr).expect("connect");
    let cold = conn
        .request("POST", "/v1/sweep", Some(&sweep_body))
        .expect("cold sweep");
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.body, sweep_cli, "cold-cache sweep != CLI bytes");
    let warm = conn
        .request("POST", "/v1/sweep", Some(&sweep_body))
        .expect("warm sweep");
    assert_eq!(warm.body, sweep_cli, "warm-cache sweep != CLI bytes");

    // Four concurrent clients all get the CLI bytes.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = &addr;
            let body = &sweep_body;
            let want = &sweep_cli;
            scope.spawn(move || {
                let r = client::request(addr, "POST", "/v1/sweep", Some(body))
                    .expect("concurrent sweep");
                assert_eq!(&r.body, want, "concurrent sweep != CLI bytes");
            });
        }
    });

    // The remaining endpoints, over the still-open connection.
    let r = conn
        .request(
            "POST",
            "/v1/sweep",
            Some(&source_body(
                LCLS_WRM,
                ",\"nodes\":[64,161],\"format\":\"jsonl\"",
            )),
        )
        .expect("jsonl sweep");
    assert_eq!(r.body, sweep_jsonl_cli, "jsonl sweep != CLI bytes");

    let r = conn
        .request("POST", "/v1/simulate", Some(&source_body(LCLS_WRM, "")))
        .expect("simulate");
    assert_eq!(r.body, simulate_cli, "simulate != CLI bytes");

    let r = conn
        .request(
            "POST",
            "/v1/simulate",
            Some(&source_body(LCLS_WRM, ",\"summary\":true")),
        )
        .expect("summary");
    assert_eq!(r.body, summary_cli, "summary != CLI bytes");

    let r = conn
        .request("POST", "/v1/certify", Some(&source_body(LCLS_WRM, "")))
        .expect("certify");
    assert_eq!(r.body, certify_cli, "certify != CLI bytes");

    let mc_body = source_body(MC_WRM, ",\"reps\":64,\"seed\":7");
    let cold = conn
        .request("POST", "/v1/mc", Some(&mc_body))
        .expect("cold mc");
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.body, mc_cli, "mc != CLI bytes");
    let warm = conn
        .request("POST", "/v1/mc", Some(&mc_body))
        .expect("warm mc");
    assert_eq!(warm.body, mc_cli, "warm-cache mc != CLI bytes");

    // A distribution-free workflow degenerates to one replication that
    // reproduces the deterministic run.
    let r = conn
        .request(
            "POST",
            "/v1/mc",
            Some(&source_body(LCLS_WRM, ",\"reps\":16")),
        )
        .expect("degenerate mc");
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("point-mass"), "{}", r.text());

    let lint_body = source_body(LCLS_WRM, &format!(",\"path\":{wf:?},\"format\":\"json\""));
    let r = conn
        .request("POST", "/v1/lint", Some(&lint_body))
        .expect("lint");
    assert_eq!(r.body, lint_cli, "lint != CLI bytes");

    // The other formats, a builtin workflow, and the common
    // `contention` field, which a sweep honours too: (endpoint, request
    // body, CLI arguments).
    let path = format!(",\"path\":{wf:?}");
    let lcls_cori = concat!(env!("CARGO_MANIFEST_DIR"), "/../../workflows/lcls_cori.wrm");
    let lcls_cori_source = std::fs::read_to_string(lcls_cori).expect("read spec");
    let pairs = [
        (
            "/v1/sweep",
            source_body(
                &lcls_cori_source,
                ",\"contention\":{\"ext\":0.2},\"nodes\":[64,161]",
            ),
            vec![
                "sweep",
                lcls_cori,
                "--contention",
                "ext=0.2",
                "--nodes",
                "64,161",
            ],
        ),
        (
            "/v1/sweep",
            source_body(LCLS_WRM, ",\"nodes\":[161,64],\"format\":\"json\""),
            vec!["sweep", wf, "--nodes", "64,161", "--format", "json"],
        ),
        (
            "/v1/sweep",
            "{\"workflow\":\"lcls\",\"resource\":\"ext\",\"factors\":[1.0,0.2]}".to_owned(),
            vec!["sweep", "lcls", "--resource", "ext", "--factors", "0.2,1.0"],
        ),
        ("/v1/lint", source_body(LCLS_WRM, &path), vec!["lint", wf]),
        (
            "/v1/lint",
            source_body(LCLS_WRM, &format!("{path},\"format\":\"sarif\"")),
            vec!["lint", wf, "--format", "sarif"],
        ),
        (
            "/v1/simulate",
            source_body(LCLS_WRM, ",\"contention\":{\"ext\":0.5}"),
            vec!["simulate", wf, "--contention", "ext=0.5"],
        ),
        (
            "/v1/certify",
            source_body(LCLS_WRM, ",\"contention\":{\"ext\":0.5}"),
            vec!["certify", wf, "--contention", "ext=0.5"],
        ),
        (
            "/v1/mc",
            source_body(
                MC_WRM,
                ",\"reps\":64,\"seed\":7,\"contention\":{\"ext\":0.5}",
            ),
            vec![
                "simulate",
                wf_mc,
                "--reps",
                "64",
                "--seed",
                "7",
                "--percentiles",
                "--contention",
                "ext=0.5",
            ],
        ),
    ];
    for (endpoint, body, mut args) in pairs {
        if args[0] == "sweep" {
            args.push("--quiet");
        }
        let r = conn.request("POST", endpoint, Some(&body)).expect(endpoint);
        assert_eq!(r.status, 200, "{endpoint} {body}: {}", r.text());
        assert_eq!(
            r.text(),
            String::from_utf8(cli_stdout(&args)).expect("utf8"),
            "{endpoint} {body} != wrm {args:?}"
        );
    }

    // Every shipped spec, simulated and certified both ways.
    let shipped = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workflows");
    for entry in std::fs::read_dir(&shipped).expect("read workflows/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "wrm") {
            continue;
        }
        let body = source_body(&std::fs::read_to_string(&path).expect("read spec"), "");
        let file = path.to_str().expect("utf8");
        for (endpoint, cmd) in [("/v1/simulate", "simulate"), ("/v1/certify", "certify")] {
            let r = conn.request("POST", endpoint, Some(&body)).expect(endpoint);
            assert_eq!(
                r.body,
                cli_stdout(&[cmd, file]),
                "{endpoint} != CLI on {file}"
            );
        }
    }

    let drain = server.stop();
    assert!(drain.contains("drained"), "no drain report in {drain:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The signal path: a cold then a warm sweep (the second one a cache
/// hit), then `kill -TERM` must drain the server and exit 0.
#[cfg(unix)]
#[test]
fn sigterm_drains_after_cold_and_warm_sweeps() {
    let mut server = Server::start();
    let body = source_body(
        LCLS_WRM,
        ",\"resource\":\"ext\",\"factors\":[1.0,0.5],\"format\":\"csv\"",
    );
    let cold = client::request(&server.addr, "POST", "/v1/sweep", Some(&body)).expect("cold");
    assert_eq!(cold.status, 200, "{}", cold.text());
    let warm = client::request(&server.addr, "POST", "/v1/sweep", Some(&body)).expect("warm");
    assert_eq!(warm.body, cold.body, "warm-cache sweep != cold bytes");
    let metrics = client::request(&server.addr, "GET", "/metrics", None).expect("metrics");
    assert!(
        metrics.text().contains("wrm_cache_hits_total 1\n"),
        "{}",
        metrics.text()
    );

    let kill = Command::new("kill")
        .args(["-TERM", &server.child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success(), "kill -TERM failed");
    let status = server.child.wait().expect("serve exits");
    assert!(status.success(), "serve exit after SIGTERM: {status:?}");
    let mut rest = String::new();
    server.stderr.read_to_string(&mut rest).expect("drain line");
    assert!(rest.contains("drained"), "no drain report in {rest:?}");
}
