//! `pdip` — command-line driver for the planarity DIPs.
//!
//! ```text
//! pdip families
//! pdip run <family> [--n N] [--seed S] [--no-instance] [--cheat IDX]
//!                   [--simulated] [--repeat K]
//! pdip size <family> [--from K] [--to K]
//! pdip soundness <family> [--n N] [--trials T]
//! pdip sweep [--families a,b,..] [--n-from N] [--n-to N] [--trials T]
//!            [--threads K] [--seed S] [--honest-only] [--out PATH] [--quiet]
//! pdip exp [<id> [--smoke] [--threads K] [--out PREFIX] [--quiet]]
//! pdip prove <family> [--n N] [--prover honest|IDX] [--no-instance]
//!                     [--gen-seed G] [--seed S] [--simulated] [--out PATH]
//! pdip verify <PATH>
//! pdip serve [--stdin | --port P] [--threads K] [--queue Q]
//!            [--deadline-ms D] [--read-deadline-ms D] [--drain-deadline-ms D]
//!            [--max-frame-bytes B] [--flight-dump PATH]
//! pdip stats [--host H] [--port P] [--json | --flight]
//! pdip client [--host H] [--port P] [--seed S] [--retries R]
//!             [--backoff-ms B] [--shutdown] [--json] FILE...
//! ```
//!
//! Exit codes of `pdip verify`: 0 = replay matched and the verifier
//! accepts, 3 = well-formed but rejected (verifier rejection or replay
//! mismatch), 4 = malformed transcript (decode error). `pdip serve`
//! reports the same distinction per request via response status codes,
//! and `pdip client` folds its responses back into exit codes: 0 all
//! accepted, 3 at least one reject/malformed, 5 busy-retries exhausted,
//! 6 transport failure.
//!
//! `pdip serve --port P` runs the long-lived concurrent front-end:
//! SIGTERM/SIGINT (or a client shutdown frame) triggers a graceful
//! drain that answers every accepted request before exiting. The
//! running server exposes live metrics over the same frame protocol:
//! `pdip stats` fetches a Prometheus-style snapshot (`--json` for the
//! JSON form, `--flight` for the flight-recorder event ring), and
//! `--flight-dump PATH` makes the server write that ring as JSONL on
//! panic and at drain. `pdip exp e14` is the gating audit of the whole
//! observability layer.
//!
//! `pdip exp` lists the experiment registry ([`pdip_bench::exp`]): one
//! entry per committed artifact under `results/`. `pdip exp <id>` runs
//! one entry and writes `{PREFIX}.txt`/`{PREFIX}.json` (default: the
//! committed path), exiting 1 if its audit fails.

use pdip_bench::exp;
use pdip_engine::{no_instance, Family, YesInstance, FAMILIES};

/// Track the allocator high-water so `pdip exp e11` and the
/// `[engine]` summary line can report real heap peaks; see
/// [`pdip_obs::PeakAlloc`]. Library users and plain test binaries run
/// untracked — only this binary pays the (two relaxed atomics) cost.
#[global_allocator]
static ALLOC: pdip_obs::PeakAlloc = pdip_obs::PeakAlloc::new();
use pdip_engine::{Engine, Prover, ProverSpec, Reporter, SeedMode, ServeConfig, SweepSpec};
use pdip_obs::NoopRecorder;
use planarity_dip::dip::{par, DipProtocol};
use planarity_dip::protocols::{Amplified, PopParams, Transport};
use planarity_dip::wire::{Transcript, VerifyOutcome, WireInstance};

fn usage() -> ! {
    eprintln!(
        "usage:\n  pdip families\n  pdip run <family> [--n N] [--seed S] [--no-instance] \
         [--cheat IDX] [--simulated] [--repeat K]\n  pdip size <family> [--from K] [--to K]\n  \
         pdip soundness <family> [--n N] [--trials T]\n  \
         pdip sweep [--families a,b,..] [--n-from N] [--n-to N] [--trials T] [--threads K] \
         [--seed S] [--honest-only] [--out PATH] [--quiet]\n  \
         pdip exp [<id> [--smoke] [--threads K] [--out PREFIX] [--quiet]]\n  \
         pdip prove <family> [--n N] [--prover honest|IDX] [--no-instance] [--gen-seed G] \
         [--seed S] [--simulated] [--out PATH]\n  \
         pdip verify <PATH>   (exit 0 accept / 3 rejected / 4 malformed)\n  \
         pdip serve [--stdin | --port P] [--threads K] [--queue Q] [--deadline-ms D] \
         [--read-deadline-ms D] [--drain-deadline-ms D] [--max-frame-bytes B] \
         [--flight-dump PATH]\n  \
         pdip stats [--host H] [--port P] [--json | --flight]\n  \
         pdip client [--host H] [--port P] [--seed S] [--retries R] [--backoff-ms B] \
         [--shutdown] [--json] FILE...\n\nfamilies: {}",
        FAMILIES.iter().map(|f| f.name()).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2)
}

fn parse_family(s: &str) -> Family {
    FAMILIES.iter().copied().find(|f| f.name() == s).unwrap_or_else(|| {
        eprintln!("unknown family '{s}'");
        usage()
    })
}

/// Parses the cheat-strategy index given to `flag`; anything but an
/// index below `fam`'s cheat count is a usage error.
fn parse_cheat(fam: Family, flag: &str, value: &str) -> usize {
    let count = fam.cheat_count();
    match value.parse::<usize>() {
        Ok(idx) if idx < count => idx,
        _ => {
            eprintln!("{flag} must be a cheat index below {count} for {}", fam.name());
            usage()
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Parses `flag`'s value as a non-negative integer; anything else is a
/// usage error naming the flag.
fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes a non-negative integer, got '{value}'");
        usage()
    })
}

fn flag_num(args: &[String], name: &str, default: usize) -> usize {
    flag_value(args, name).map(|v| parse_num(name, &v)).unwrap_or(default)
}

/// A `--*-ms` flag as a duration, if given.
fn flag_ms(args: &[String], name: &str) -> Option<std::time::Duration> {
    flag_value(args, name).map(|v| std::time::Duration::from_millis(parse_num(name, &v)))
}

/// Writes one output artifact, creating its parent directory first.
fn write_artifact(path: &std::path::Path, contents: impl AsRef<[u8]>) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// `pdip exp`: lists the registry, or runs one entry and writes its
/// artifacts as `{PREFIX}.{ext}`.
fn run_experiment(args: &[String]) {
    let Some(id) = args.first() else {
        let rows: Vec<Vec<String>> = exp::ENTRIES
            .iter()
            .map(|e| {
                let cmp: Vec<&str> =
                    e.artifacts.iter().filter(|a| a.deterministic).map(|a| a.ext).collect();
                let cmp = if cmp.is_empty() { "-".to_string() } else { cmp.join(",") };
                let cells = [e.id, e.committed.name(), e.gate().name(), &cmp, &e.prefix(), e.title];
                cells.iter().map(|s| s.to_string()).collect()
            })
            .collect();
        let headers = ["id", "committed", "gate", "cmp", "artifact", "title"];
        print!("{}", pdip_engine::render_table(&headers, &rows));
        return;
    };
    let entry = exp::find(id).unwrap_or_else(|| {
        let ids: Vec<&str> = exp::ENTRIES.iter().map(|e| e.id).collect();
        eprintln!("unknown experiment '{id}'; ids: {}", ids.join(", "));
        usage()
    });
    let mut opts = exp::Opts::default();
    let mut out = entry.prefix();
    let mut quiet = false;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--smoke" if entry.takes(flag) => opts.smoke = true,
            "--threads" if entry.takes(flag) => opts.threads = Some(parse_num(flag, &value())),
            "--out" => out = value(),
            "--quiet" => quiet = true,
            _ => {
                eprintln!("pdip exp {id} does not take '{flag}'");
                usage()
            }
        }
    }
    let output = (entry.run)(&opts);
    let mut wrote = Vec::new();
    for (artifact, contents) in entry.artifacts.iter().zip(&output.files) {
        if artifact.ext == "txt" && !quiet {
            print!("{contents}");
        }
        let path = std::path::PathBuf::from(format!("{out}.{}", artifact.ext));
        write_artifact(&path, contents);
        wrote.push(path.display().to_string());
    }
    if !quiet {
        for note in &output.notes {
            println!("{note}");
        }
        println!("wrote {}", wrote.join(" and "));
    }
    if !output.passed {
        eprintln!("pdip exp {id}: audit FAILED (see the report above)");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "exp" => run_experiment(&args[1..]),
        "families" => {
            for f in FAMILIES {
                let inst = YesInstance::generate(f, 64, 1);
                inst.with_protocol(PopParams::default(), Transport::Native, |p| {
                    println!(
                        "{:<22} rounds = {}   cheats = [{}]",
                        f.name(),
                        p.rounds(),
                        p.cheat_names().join(", ")
                    );
                });
            }
        }
        "run" => {
            let fam = parse_family(args.get(1).map(String::as_str).unwrap_or_else(|| usage()));
            let n = flag_num(&args, "--n", 1024);
            let seed = flag_num(&args, "--seed", 7) as u64;
            let repeat = flag_num(&args, "--repeat", 1);
            if repeat == 0 {
                eprintln!("--repeat must be at least 1");
                usage()
            }
            let transport = if args.iter().any(|a| a == "--simulated") {
                Transport::Simulated
            } else {
                Transport::Native
            };
            let cheat = flag_value(&args, "--cheat").map(|v| parse_cheat(fam, "--cheat", &v));
            let inst = if args.iter().any(|a| a == "--no-instance") || cheat.is_some() {
                no_instance(fam, n, seed)
            } else {
                YesInstance::generate(fam, n, seed)
            };
            inst.with_protocol(PopParams::default(), transport, |p| {
                let run = |p: &dyn DipProtocol| match cheat {
                    Some(s) => p.run_cheat(s, seed),
                    None => p.run_honest(seed),
                };
                let res = if repeat == 1 { run(p) } else { run(&Amplified::new(p, repeat)) };
                println!("protocol   : {}", p.name());
                println!("instance   : n = {}, yes = {}", p.instance_size(), p.is_yes_instance());
                println!("rounds     : {}", res.stats.rounds);
                println!(
                    "proof size : {} bits (per prover round: {:?})",
                    res.stats.proof_size(),
                    res.stats.per_round_max_bits
                );
                println!("coins      : {} bits total", res.stats.coin_bits);
                println!("verdict    : {}", if res.accepted() { "ACCEPT" } else { "REJECT" });
                for (v, r) in res.rejections.iter().take(5) {
                    println!("  node {v}: {r}");
                }
            });
        }
        "size" => {
            let fam = parse_family(args.get(1).map(String::as_str).unwrap_or_else(|| usage()));
            let from = flag_num(&args, "--from", 8);
            let to = flag_num(&args, "--to", 14);
            println!("{:>10}  {:>10}", "n", "proof bits");
            for k in from..=to {
                let n = 1usize << k;
                let inst = YesInstance::generate(fam, n, 3);
                let size = inst.with_protocol(PopParams::default(), Transport::Native, |p| {
                    p.run_honest(1).stats.proof_size()
                });
                println!("{n:>10}  {size:>10}");
            }
        }
        "soundness" => {
            let fam = parse_family(args.get(1).map(String::as_str).unwrap_or_else(|| usage()));
            let n = flag_num(&args, "--n", 300);
            let trials = flag_num(&args, "--trials", 60) as u64;
            if trials == 0 {
                eprintln!("--trials must be at least 1");
                usage()
            }
            // Trial t runs every cheat on no-instance seed t·101 + 1 with
            // run seed t.
            let spec = SweepSpec {
                families: vec![fam],
                sizes: vec![n],
                provers: vec![ProverSpec::AllCheats],
                trials,
                seeds: SeedMode::Explicit(|c| (c.trial * 101 + 1, c.trial)),
                ..SweepSpec::default()
            };
            let outcome = Engine::default().run(&spec, &NoopRecorder);
            for (s, name) in fam.cheat_names().iter().enumerate() {
                let accepted = outcome
                    .records
                    .iter()
                    .filter(|r| r.prover == Prover::Cheat(s) && r.accepted)
                    .count();
                println!(
                    "{:<28} accepted {accepted}/{trials} ({:.1}%)",
                    name,
                    100.0 * accepted as f64 / trials as f64
                );
            }
            for f in &outcome.failures {
                eprintln!("quarantined: {} trial={}: {}", f.prover.tag(), f.trial, f.payload);
            }
            if !outcome.failures.is_empty() {
                std::process::exit(1);
            }
        }
        "sweep" => {
            let families: Vec<Family> = match flag_value(&args, "--families") {
                Some(list) => list.split(',').map(parse_family).collect(),
                None => FAMILIES.to_vec(),
            };
            let n_from = flag_num(&args, "--n-from", 64);
            let n_to = flag_num(&args, "--n-to", 256);
            if n_from == 0 || n_to < n_from {
                eprintln!("--n-from must be positive and at most --n-to");
                usage()
            }
            // Doubling grid from n-from up to (and including) n-to.
            let mut sizes = Vec::new();
            let mut n = n_from;
            while n < n_to {
                sizes.push(n);
                n *= 2;
            }
            sizes.push(n_to);
            let threads = flag_num(&args, "--threads", par::machine_parallelism());
            let provers = if args.iter().any(|a| a == "--honest-only") {
                vec![ProverSpec::Honest]
            } else {
                vec![ProverSpec::Honest, ProverSpec::AllCheats]
            };
            let spec = SweepSpec {
                families,
                sizes,
                provers,
                trials: flag_num(&args, "--trials", 10) as u64,
                base_seed: flag_num(&args, "--seed", 0xd1b) as u64,
                ..SweepSpec::default()
            };
            let mut rep = Reporter::from_quiet_flag(args.iter().any(|a| a == "--quiet"));
            rep.line(&format!(
                "sweep: {} jobs over {} families x {} sizes, {} threads\n",
                spec.job_count(),
                spec.families.len(),
                spec.sizes.len(),
                threads
            ));
            let outcome = Engine::with_threads(threads).run(&spec, &NoopRecorder);
            rep.table(&pdip_engine::SweepOutcome::aggregate_headers(), &outcome.aggregate_rows());
            if !outcome.failures.is_empty() {
                rep.line("\nquarantined jobs:");
                for f in &outcome.failures {
                    rep.line(&format!(
                        "  #{} {} n={} {} trial={} after {} attempts: {}",
                        f.index,
                        f.family.name(),
                        f.n,
                        f.prover.tag(),
                        f.trial,
                        f.attempts,
                        f.payload
                    ));
                }
            }
            let out = flag_value(&args, "--out").unwrap_or_else(|| "results/sweep".to_string());
            let (json, csv) =
                pdip_engine::sink::write_outputs(std::path::Path::new(&out), &spec, &outcome)
                    .expect("writing sweep outputs");
            rep.line(&format!("\nwrote {} and {}", json.display(), csv.display()));
            rep.summary(&outcome.metrics);
        }
        "prove" => {
            let fam = parse_family(args.get(1).map(String::as_str).unwrap_or_else(|| usage()));
            let n = flag_num(&args, "--n", 64);
            let gen_seed = flag_num(&args, "--gen-seed", 7) as u64;
            let run_seed = flag_num(&args, "--seed", 11) as u64;
            let transport = if args.iter().any(|a| a == "--simulated") {
                Transport::Simulated
            } else {
                Transport::Native
            };
            let prover_arg = flag_value(&args, "--prover").unwrap_or_else(|| "honest".into());
            // The wire's prover byte: 0 is honest, k + 1 is cheat k.
            let prover: u8 = if prover_arg == "honest" {
                0
            } else {
                let idx = parse_cheat(fam, "--prover", &prover_arg);
                idx.checked_add(1).and_then(|b| u8::try_from(b).ok()).unwrap_or_else(|| usage())
            };
            let inst = if args.iter().any(|a| a == "--no-instance") || prover != 0 {
                no_instance(fam, n, gen_seed)
            } else {
                YesInstance::generate(fam, n, gen_seed)
            };
            let t = Transcript::record(
                to_wire(inst),
                PopParams::default(),
                transport,
                prover,
                gen_seed,
                run_seed,
            );
            let bytes = t.encode();
            let out = flag_value(&args, "--out").unwrap_or_else(|| "out.transcript".into());
            let path = std::path::Path::new(&out);
            write_artifact(path, &bytes);
            println!(
                "wrote {} ({} bytes): {} n={} prover={} verdict={}",
                path.display(),
                bytes.len(),
                t.instance.family_name(),
                t.instance.n(),
                prover_arg,
                if t.accepted { "ACCEPT" } else { "REJECT" }
            );
        }
        "verify" => {
            let path = args.get(1).cloned().unwrap_or_else(|| usage());
            let data = std::fs::read(&path).unwrap_or_else(|e| {
                eprintln!("reading {path}: {e}");
                std::process::exit(4)
            });
            let t = match Transcript::decode(&data) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("malformed transcript: {e}");
                    std::process::exit(4)
                }
            };
            println!(
                "transcript : {} n={} prover={} transport={}",
                t.instance.family_name(),
                t.instance.n(),
                match t.cheat() {
                    None => "honest".to_string(),
                    Some(k) => format!("cheat {k}"),
                },
                if t.transport == 0 { "native" } else { "simulated" }
            );
            match t.verify() {
                VerifyOutcome::Accepted(_) => {
                    println!("verdict    : ACCEPT (replay matched)");
                }
                VerifyOutcome::VerifierRejected(res) => {
                    println!("verdict    : REJECT (replay matched; the verifier rejects)");
                    for (v, r) in res.rejections.iter().take(5) {
                        println!("  node {v}: {r}");
                    }
                    std::process::exit(3)
                }
                VerifyOutcome::ReplayMismatch { detail } => {
                    println!("verdict    : REJECT (replay mismatch: {detail})");
                    std::process::exit(3)
                }
            }
        }
        "serve" => {
            if args.iter().any(|a| a == "--smoke") {
                eprintln!("pdip serve takes no --smoke; the E12 smoke audit is `pdip exp e12`");
                usage()
            }
            let max_frame_bytes =
                flag_num(&args, "--max-frame-bytes", pdip_engine::serve::MAX_FRAME);
            // A cap below one response header (13 bytes) or absurdly
            // large is a configuration mistake, not a policy.
            if !(64..=(1usize << 30)).contains(&max_frame_bytes) {
                eprintln!("--max-frame-bytes must be in [64, 2^30], got {max_frame_bytes}");
                std::process::exit(2);
            }
            let cfg = ServeConfig {
                threads: flag_num(&args, "--threads", par::machine_parallelism()),
                queue_cap: flag_num(&args, "--queue", 256),
                deadline: flag_ms(&args, "--deadline-ms"),
                max_frame_bytes,
                read_deadline: flag_ms(&args, "--read-deadline-ms")
                    .or(ServeConfig::default().read_deadline),
                drain_deadline: flag_ms(&args, "--drain-deadline-ms")
                    .unwrap_or(ServeConfig::default().drain_deadline),
                // A shared obs bridge so the flight ring survives the
                // server and can land on disk at drain or panic.
                obs: flag_value(&args, "--flight-dump").map(|path| {
                    std::sync::Arc::new(pdip_engine::ServeObs::with_options(
                        pdip_engine::DEFAULT_FLIGHT_CAP,
                        pdip_engine::DEFAULT_SLOW_THRESHOLD,
                        Some(std::path::PathBuf::from(path)),
                    ))
                }),
                ..ServeConfig::default()
            };
            if args.iter().any(|a| a == "--stdin") {
                let stats = pdip_engine::serve_pipe(
                    &cfg,
                    &mut std::io::stdin().lock(),
                    &mut std::io::stdout().lock(),
                )
                .expect("serving stdin stream");
                eprintln!(
                    "served: accept={} reject={} malformed={} busy={} deadline={} panics={}",
                    stats.accepted,
                    stats.rejected,
                    stats.malformed,
                    stats.busy,
                    stats.deadline,
                    stats.panics
                );
            } else {
                let port = flag_num(&args, "--port", 7437) as u16;
                let mut rep = Reporter::from_quiet_flag(false);
                let shutdown = pdip_engine::ShutdownFlag::new();
                install_signal_drain(&shutdown);
                let stats =
                    pdip_engine::serve_tcp(&cfg, port, &shutdown, &mut rep).expect("serving tcp");
                eprintln!(
                    "served: accept={} reject={} malformed={} busy={} deadline={} panics={} \
                     conn_faults={} connections={}",
                    stats.accepted,
                    stats.rejected,
                    stats.malformed,
                    stats.busy,
                    stats.deadline,
                    stats.panics,
                    stats.conn_faults,
                    stats.connections
                );
            }
        }
        "stats" => {
            let host = flag_value(&args, "--host").unwrap_or_else(|| "127.0.0.1".into());
            let port = flag_num(&args, "--port", 7437) as u16;
            let mode: u8 = if args.iter().any(|a| a == "--flight") {
                2
            } else if args.iter().any(|a| a == "--json") {
                1
            } else {
                0
            };
            match pdip_engine::fetch_stats(&host, port, mode) {
                Ok(body) => print!("{body}"),
                Err(e) => {
                    eprintln!("pdip stats: {e}");
                    std::process::exit(6);
                }
            }
        }
        "client" => {
            let opts = pdip_engine::ClientOpts {
                host: flag_value(&args, "--host").unwrap_or_else(|| "127.0.0.1".into()),
                port: flag_num(&args, "--port", 7437) as u16,
                seed: flag_num(&args, "--seed", 0) as u64,
                retries: flag_num(&args, "--retries", 5) as u32,
                backoff_base_ms: flag_num(&args, "--backoff-ms", 10) as u64,
                send_shutdown: args.iter().any(|a| a == "--shutdown"),
                ..pdip_engine::ClientOpts::default()
            };
            // Positional FILE... arguments: everything that is neither
            // a flag nor a flag's value.
            let flags_with_value = ["--host", "--port", "--seed", "--retries", "--backoff-ms"];
            let mut files: Vec<String> = Vec::new();
            let mut skip = false;
            for a in args.iter().skip(1) {
                if skip {
                    skip = false;
                    continue;
                }
                if flags_with_value.contains(&a.as_str()) {
                    skip = true;
                } else if !a.starts_with("--") {
                    files.push(a.clone());
                }
            }
            if files.is_empty() {
                eprintln!("pdip client: no transcript files given");
                usage()
            }
            let mut items = Vec::with_capacity(files.len());
            for f in &files {
                match std::fs::read(f) {
                    Ok(bytes) => items.push((f.clone(), bytes)),
                    Err(e) => {
                        eprintln!("reading {f}: {e}");
                        std::process::exit(6)
                    }
                }
            }
            let json = args.iter().any(|a| a == "--json");
            // With --json the human-readable per-file lines are
            // suppressed so stdout carries exactly one JSON object.
            let mut rep = Reporter::from_quiet_flag(json);
            let outcome = pdip_engine::run_client(&opts, &items, &mut rep);
            if let Some(e) = &outcome.io_error {
                eprintln!("pdip client: {e}");
            }
            if json {
                let detail = outcome.shutdown_stats.as_deref().unwrap_or("");
                println!("{}", pdip_engine::stats_detail_to_json(detail));
            }
            std::process::exit(outcome.exit_code());
        }
        _ => usage(),
    }
}

/// Wires SIGTERM/SIGINT to a graceful drain: the handler only sets an
/// atomic; a watcher thread forwards it to the serve shutdown flag.
/// Raw `signal(2)` keeps this dependency-free (no libc crate).
#[cfg(unix)]
fn install_signal_drain(shutdown: &pdip_engine::ShutdownFlag) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    let shutdown = shutdown.clone();
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            shutdown.request();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

#[cfg(not(unix))]
fn install_signal_drain(_shutdown: &pdip_engine::ShutdownFlag) {}

/// Maps an engine instance onto its wire-format container.
fn to_wire(inst: YesInstance) -> WireInstance {
    match inst {
        YesInstance::Pop(i) => WireInstance::Pop(i),
        YesInstance::Op(i) => WireInstance::Op(i),
        YesInstance::Emb(i) => WireInstance::Emb(i),
        YesInstance::Pl(i) => WireInstance::Pl(i),
        YesInstance::Spa(i) => WireInstance::Spa(i),
        YesInstance::Tw2(i) => WireInstance::Tw2(i),
    }
}
