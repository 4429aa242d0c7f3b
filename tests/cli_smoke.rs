//! Smoke tests for the `pdip` command-line driver.

use std::process::Command;

fn pdip() -> Command {
    // Use the binary cargo built for this test profile.
    Command::new(env!("CARGO_BIN_EXE_pdip"))
}

#[test]
fn families_lists_all_six() {
    let out = pdip().arg("families").output().expect("run pdip");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "path-outerplanarity",
        "outerplanarity",
        "embedded-planarity",
        "planarity",
        "series-parallel",
        "treewidth-2",
    ] {
        assert!(text.contains(name), "missing {name} in: {text}");
    }
}

#[test]
fn run_accepts_honest_instance() {
    let out = pdip()
        .args(["run", "path-outerplanarity", "--n", "128", "--seed", "3"])
        .output()
        .expect("run pdip");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verdict    : ACCEPT"), "{text}");
    assert!(text.contains("rounds     : 5"));
}

#[test]
fn run_rejects_cheating_prover() {
    let out = pdip()
        .args(["run", "series-parallel", "--n", "64", "--cheat", "0", "--seed", "5"])
        .output()
        .expect("run pdip");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verdict    : REJECT"), "{text}");
}

/// Runs `pdip args…`, asserts it exits through `usage()` (code 2, not a
/// panic), and returns its stderr.
fn usage_error(args: &[&str]) -> String {
    let out = pdip().args(args).output().expect("run pdip");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains("usage:"), "{args:?}: {err}");
    err
}

#[test]
fn run_rejects_out_of_range_cheat_and_zero_repeat() {
    let err = usage_error(&["run", "planarity", "--n", "64", "--cheat", "99"]);
    assert!(err.contains("--cheat must be a cheat index below 3"), "{err}");
    let err = usage_error(&["run", "planarity", "--n", "64", "--repeat", "0"]);
    assert!(err.contains("--repeat must be at least 1"), "{err}");
}

#[test]
fn malformed_numeric_flags_are_usage_errors_naming_the_flag() {
    let numeric = |flag: &str| format!("{flag} takes a non-negative integer");
    for (args, want) in [
        (&["run", "planarity", "--n", "abc"][..], numeric("--n")),
        (&["run", "planarity", "--seed", "-1"], numeric("--seed")),
        (&["sweep", "--trials", "x"], numeric("--trials")),
        (&["serve", "--stdin", "--deadline-ms", "abc"], numeric("--deadline-ms")),
        (&["client", "--port", "notaport", "x"], numeric("--port")),
        (&["exp", "bench-round", "--smoke", "--threads", "two"], numeric("--threads")),
        (&["exp", "e2", "--threads", "x"], numeric("--threads")),
        (&["exp", "e99"], "unknown experiment 'e99'; ids: e1, e2, e3".into()),
        (&["exp", "bench-hotpath", "--threads", "3"], "does not take '--threads'".into()),
        (&["exp", "e12", "--smoke"], "does not take '--smoke'".into()),
        (
            &["run", "path-outerplanarity", "--n", "32", "--sed", "3"],
            "does not take '--sed'".into(),
        ),
        (&["serve", "--smok"], "pdip serve does not take '--smok'".into()),
        (&["client", "--prot", "1"], "pdip client does not take '--prot'".into()),
        (&["run", "planarity", "--n"], "--n needs a value".into()),
        (&["prove", "planarity", "--out", "--quiet"], "--out needs a value".into()),
        (&["run", "planarity", "--n", "5", "--n", "6"], "--n is given twice".into()),
        (&["sweep", "extra"], "pdip sweep: unexpected argument 'extra'".into()),
        (&["verify", "a", "b"], "pdip verify: unexpected argument 'b'".into()),
        (&["serve", "--max-frame-bytes", "5"], "--max-frame-bytes must be in [64, 2^30]".into()),
        (&["size", "planarity", "--from", "64", "--to", "64"], "--from must be at most 24".into()),
        (&["size", "planarity", "--to", "25"], "--to must be at most 24".into()),
        (&["serve", "--stdin", "--port", "5"], "takes --stdin or --port, not both".into()),
        (&["stats", "--json", "--flight"], "takes --json or --flight, not both".into()),
    ] {
        let err = usage_error(args);
        assert!(err.contains(&want), "{args:?}: {err}");
    }
}

/// Every subcommand the usage text lists exits 2 on a flag it does not
/// know before doing any work; `serve` must not bind a port.
#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let text = usage_error(&[]);
    let cmds: Vec<&str> = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("pdip "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(cmds.contains(&"serve") && cmds.len() >= 11, "{cmds:?} from {text}");
    for cmd in cmds {
        let mut child = pdip()
            .args([cmd, "--no-such-flag"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn pdip");
        let started = Instant::now();
        while child.try_wait().expect("poll pdip").is_none() {
            if started.elapsed() > Duration::from_secs(10) {
                let _ = child.kill();
                panic!("pdip {cmd} --no-such-flag still runs after 10 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("pdip exits");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "pdip {cmd}: {err}");
        assert!(err.contains(&format!("pdip {cmd} does not take '--no-such-flag'")), "{err}");
    }
}

#[test]
fn soundness_rejects_zero_trials() {
    let err = usage_error(&["soundness", "planarity", "--trials", "0"]);
    assert!(err.contains("--trials must be at least 1"), "{err}");
}

#[test]
fn prove_rejects_out_of_range_prover() {
    let dir = std::env::temp_dir().join(format!("pdip_cli_prover50_{}", std::process::id()));
    let out = dir.join("cheat.transcript");
    let err =
        usage_error(&["prove", "planarity", "--prover", "50", "--out", out.to_str().unwrap()]);
    assert!(err.contains("--prover must be a cheat index below 3"), "{err}");
    assert!(!out.exists(), "no transcript may be written");
}

#[test]
fn prove_prover_255_does_not_wrap_to_an_honest_transcript() {
    let dir = std::env::temp_dir().join(format!("pdip_cli_prover255_{}", std::process::id()));
    let out = dir.join("cheat.transcript");
    usage_error(&["prove", "planarity", "--prover", "255", "--out", out.to_str().unwrap()]);
    assert!(!out.exists(), "prover 255 must not write a transcript");
}

#[test]
fn sweep_writes_deterministic_outputs() {
    let dir = std::env::temp_dir().join("pdip_sweep_smoke");
    let base = dir.join("sweep");
    let run = |threads: &str, out: &std::path::Path| {
        let st = pdip()
            .args(["sweep", "--families", "series-parallel", "--n-from", "32", "--n-to", "32"])
            .args(["--trials", "2", "--seed", "11", "--threads", threads])
            .arg("--out")
            .arg(out)
            .output()
            .expect("run pdip sweep");
        assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
        String::from_utf8_lossy(&st.stdout).to_string()
    };
    let serial_out = base.with_file_name("serial");
    let parallel_out = base.with_file_name("parallel");
    let text = run("1", &serial_out);
    assert!(text.contains("[engine]"), "{text}");
    run("3", &parallel_out);
    let a = std::fs::read(serial_out.with_extension("json")).expect("serial json");
    let b = std::fs::read(parallel_out.with_extension("json")).expect("parallel json");
    assert_eq!(a, b, "sweep JSON must be byte-identical across thread counts");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bench_graph_smoke_writes_parseable_snapshot() {
    let out_path = std::env::temp_dir().join("pdip_bench_graph_smoke");
    let out = pdip()
        .args(["exp", "bench-graph", "--smoke", "--out"])
        .arg(&out_path)
        .output()
        .expect("run pdip exp bench-graph");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    for name in
        ["edge_between_dense", "is_planar", "biconnected", "spanning_forest", "planarity_round"]
    {
        assert!(text.contains(name), "missing {name} in: {text}");
    }
    let doc =
        std::fs::read_to_string(out_path.with_extension("json")).expect("bench-graph snapshot");
    let entries = pdip_bench::snapshot::Snapshot::parse(&doc, &pdip_bench::snapshot::GRAPH)
        .expect("snapshot parses")
        .entries;
    assert!(entries.len() >= 5, "expected all five benchmarks, got {}", entries.len());
    assert!(doc.contains("\"mode\": \"smoke\""));
    let _ = std::fs::remove_file(out_path.with_extension("json"));
}

#[test]
fn trace_smoke_passes_audit_and_quiet_silences_stdout() {
    let out_path = std::env::temp_dir().join("pdip_trace_smoke");
    let out = pdip()
        .args(["exp", "e10", "--smoke", "--threads", "2", "--quiet", "--out"])
        .arg(&out_path)
        .output()
        .expect("run pdip exp e10");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "--quiet must silence stdout");
    let txt = std::fs::read_to_string(out_path.with_extension("txt")).expect("trace txt");
    assert!(txt.contains("# all-pass=true audit-errors=0"), "{txt}");
    let json = std::fs::read_to_string(out_path.with_extension("json")).expect("trace json");
    assert!(json.contains("\"experiment\": \"e10-trace\""));
    assert!(json.contains("\"all_pass\": true"));
    let _ = std::fs::remove_file(out_path.with_extension("txt"));
    let _ = std::fs::remove_file(out_path.with_extension("json"));
}

#[test]
fn prove_verify_roundtrip_and_exit_codes() {
    let dir = std::env::temp_dir().join("pdip_wire_cli_smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Honest transcript: prove writes it, verify accepts with exit 0.
    let good = dir.join("good.transcript");
    let out = pdip()
        .args(["prove", "outerplanarity", "--n", "24", "--gen-seed", "4", "--seed", "9", "--out"])
        .arg(&good)
        .output()
        .expect("run pdip prove");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v = pdip().arg("verify").arg(&good).output().expect("run pdip verify");
    assert_eq!(v.status.code(), Some(0), "{}", String::from_utf8_lossy(&v.stdout));
    assert!(String::from_utf8_lossy(&v.stdout).contains("ACCEPT"));

    // Cheat transcript: well-formed, verifier rejects → exit 3.
    let cheat = dir.join("cheat.transcript");
    let out = pdip()
        .args(["prove", "series-parallel", "--n", "48", "--prover", "0", "--seed", "3", "--out"])
        .arg(&cheat)
        .output()
        .expect("run pdip prove");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v = pdip().arg("verify").arg(&cheat).output().expect("run pdip verify");
    assert_eq!(v.status.code(), Some(3), "rejected-but-well-formed must exit 3");

    // Corrupted blob: malformed → exit 4, distinct from rejection.
    let mut bytes = std::fs::read(&good).expect("read transcript");
    bytes[20] ^= 0x40;
    let bad = dir.join("bad.transcript");
    std::fs::write(&bad, &bytes).expect("write corrupted transcript");
    let v = pdip().arg("verify").arg(&bad).output().expect("run pdip verify");
    assert_eq!(v.status.code(), Some(4), "malformed must exit 4");
    assert!(String::from_utf8_lossy(&v.stderr).contains("malformed"));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn serve_stdin_answers_ping_and_shutdown_frames() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = pdip()
        .args(["serve", "--stdin"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pdip serve --stdin");
    // Two frames: ping (tag 0x02), shutdown (tag 0x7f).
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(&[1, 0, 0, 0, 0x02, 1, 0, 0, 0, 0x7f])
        .expect("write frames");
    let out = child.wait_with_output().expect("pdip serve exits");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Response frames are len(4) + seq(8) + status(1) + detail-len(4).
    assert_eq!(out.stdout.len(), 2 * 17, "two empty-detail response frames");
    assert_eq!(out.stdout[12], 6, "first response is pong");
    assert_eq!(out.stdout[17 + 12], 5, "second response is shutdown-ack");
}

#[test]
fn serve_tcp_and_client_end_to_end() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join("pdip_serve_client_smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Materialize one honest and one corrupted transcript.
    let good = dir.join("good.transcript");
    let out = pdip()
        .args(["prove", "path-outerplanarity", "--n", "24", "--seed", "6", "--out"])
        .arg(&good)
        .output()
        .expect("run pdip prove");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut bytes = std::fs::read(&good).expect("read transcript");
    bytes[16] ^= 0x20;
    let bad = dir.join("bad.transcript");
    std::fs::write(&bad, &bytes).expect("write corrupted transcript");

    // A concurrent server on an ephemeral port; the listening line
    // carries the port the OS picked.
    let mut server = pdip()
        .args(["serve", "--port", "0", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pdip serve");
    let mut lines = BufReader::new(server.stdout.take().expect("server stdout")).lines();
    let banner = lines.next().expect("listening line").expect("readable stdout");
    let port = banner.rsplit(':').next().expect("port in banner");
    assert!(banner.contains("listening on"), "{banner}");

    // Honest transcript → accept → exit 0.
    let c = pdip().args(["client", "--port", port]).arg(&good).output().expect("run pdip client");
    assert_eq!(c.status.code(), Some(0), "{}", String::from_utf8_lossy(&c.stderr));
    assert!(String::from_utf8_lossy(&c.stdout).contains("accept"));

    // Mixed batch with a corrupted blob → malformed verdict → exit 3,
    // and the final run also drains the server with --shutdown.
    let c = pdip()
        .args(["client", "--port", port, "--shutdown"])
        .arg(&good)
        .arg(&bad)
        .output()
        .expect("run pdip client");
    assert_eq!(c.status.code(), Some(3), "{}", String::from_utf8_lossy(&c.stderr));
    let text = String::from_utf8_lossy(&c.stdout);
    assert!(text.contains("malformed"), "{text}");
    assert!(text.contains("server stats:"), "{text}");

    // The shutdown frame must have drained the server to a clean exit.
    let st = server.wait().expect("server exits after drain");
    assert!(st.success(), "server exit: {st:?}");

    let _ = std::fs::remove_dir_all(dir);
}

/// SIGTERM reaches the serve loop only through the signal watcher's
/// `ShutdownFlag::request`, whose self-connect wakes the blocking
/// accept: the server must drain and exit 0 without any client.
#[cfg(unix)]
#[test]
fn serve_drains_and_exits_zero_on_sigterm() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let mut server = pdip()
        .args(["serve", "--port", "0", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pdip serve");
    let mut lines = BufReader::new(server.stdout.take().expect("server stdout")).lines();
    let banner = lines.next().expect("listening line").expect("readable stdout");
    assert!(banner.contains("listening on"), "{banner}");
    let port: u16 = banner.rsplit(':').next().and_then(|p| p.parse().ok()).expect("port");
    assert_ne!(port, 0, "{banner}");

    let kill =
        Command::new("kill").args(["-TERM", &server.id().to_string()]).status().expect("run kill");
    assert!(kill.success(), "kill -TERM failed: {kill:?}");
    let started = Instant::now();
    let status = loop {
        if let Some(st) = server.try_wait().expect("poll server") {
            break st;
        }
        if started.elapsed() > Duration::from_secs(5) {
            let _ = server.kill();
            panic!("pdip serve did not exit within 5 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status.code(), Some(0), "server exit: {status:?}");
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(rest.iter().any(|l| l.contains("drained")), "no drained line in {rest:?}");
}

#[test]
fn stats_subcommand_and_json_client_read_live_metrics() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join("pdip_stats_cli_smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("good.transcript");
    let out = pdip()
        .args(["prove", "path-outerplanarity", "--n", "24", "--seed", "6", "--out"])
        .arg(&good)
        .output()
        .expect("run pdip prove");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let mut server = pdip()
        .args(["serve", "--port", "0", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pdip serve");
    let mut lines = BufReader::new(server.stdout.take().expect("server stdout")).lines();
    let banner = lines.next().expect("listening line").expect("readable stdout");
    let port = banner.rsplit(':').next().expect("port in banner");

    // Verify one honest transcript so the counters are non-trivial.
    let c = pdip().args(["client", "--port", port]).arg(&good).output().expect("run pdip client");
    assert_eq!(c.status.code(), Some(0), "{}", String::from_utf8_lossy(&c.stderr));

    // Prometheus-style snapshot over the live stats frame.
    let s = pdip().args(["stats", "--port", port]).output().expect("run pdip stats");
    assert!(s.status.success(), "{}", String::from_utf8_lossy(&s.stderr));
    let text = String::from_utf8_lossy(&s.stdout);
    assert!(text.contains("requests_total{status=\"accept\"} 1"), "{text}");
    assert!(text.contains("latency_verify_ns_count 1"), "{text}");
    assert!(text.contains("connections_total"), "{text}");

    // JSON snapshot form of the same registry.
    let s = pdip().args(["stats", "--port", port, "--json"]).output().expect("run pdip stats");
    assert!(s.status.success(), "{}", String::from_utf8_lossy(&s.stderr));
    let text = String::from_utf8_lossy(&s.stdout);
    assert!(text.contains("\"counters\""), "{text}");
    assert!(text.contains("proof_size_bits_total"), "{text}");

    // Flight-recorder event ring as JSONL.
    let s = pdip().args(["stats", "--port", port, "--flight"]).output().expect("run pdip stats");
    assert!(s.status.success(), "{}", String::from_utf8_lossy(&s.stderr));
    let text = String::from_utf8_lossy(&s.stdout);
    assert!(text.contains("\"kind\": \"conn-open\""), "{text}");

    // --shutdown --json: exactly one JSON object on stdout carrying
    // the server's final drained stats.
    let c = pdip()
        .args(["client", "--port", port, "--shutdown", "--json"])
        .arg(&good)
        .output()
        .expect("run pdip client");
    assert_eq!(c.status.code(), Some(0), "{}", String::from_utf8_lossy(&c.stderr));
    let text = String::from_utf8_lossy(&c.stdout);
    let line = text.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "not a single JSON object: {text}");
    assert_eq!(text.lines().count(), 1, "--json must print exactly one line: {text}");
    assert!(line.contains("\"accept\": 2"), "{text}");
    assert!(line.contains("\"drained\": \"ok\""), "{text}");

    let st = server.wait().expect("server exits after drain");
    assert!(st.success(), "server exit: {st:?}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn size_sweep_prints_rows() {
    let out = pdip()
        .args(["size", "treewidth-2", "--from", "6", "--to", "8"])
        .output()
        .expect("run pdip");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().count() >= 4, "{text}");
}
