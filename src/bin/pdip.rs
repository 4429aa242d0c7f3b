//! `pdip` — command-line driver for the planarity DIPs.
//!
//! [`USAGE`] is the synopsis of every subcommand and the table its argv
//! is parsed against; any usage error prints it and exits 2.
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
use pdip_engine::{no_instance, Family, Instance, FAMILIES};

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
use planarity_dip::wire::{Transcript, VerifyOutcome};

/// One line per subcommand, printed by `usage()` and read by
/// [`Args::parse`]: `[--flag VALUE]` takes a value, `[--flag]` and
/// either side of a `|` are switches, a word from `(` on is a remark,
/// and every other word names a positional, required unless bracketed
/// and repeatable if it ends in `...`.
const USAGE: &str = "\
pdip families
pdip run <family> [--n N] [--seed S] [--no-instance] [--cheat IDX] [--simulated] [--repeat K]
pdip size <family> [--from K] [--to K]
pdip soundness <family> [--n N] [--trials T]
pdip sweep [--families a,b,..] [--n-from N] [--n-to N] [--trials T] [--threads K] [--seed S] \
    [--honest-only] [--out PATH] [--quiet]
pdip exp [<id> [--smoke] [--threads K] [--out PREFIX] [--quiet]]
pdip prove <family> [--n N] [--prover honest|IDX] [--no-instance] [--gen-seed G] [--seed S] \
    [--simulated] [--out PATH]
pdip verify <PATH>   (exit 0 accept / 3 rejected / 4 malformed)
pdip serve [--stdin | --port P] [--threads K] [--queue Q] [--deadline-ms D] \
    [--read-deadline-ms D] [--drain-deadline-ms D] [--max-frame-bytes B] [--flight-dump PATH]
pdip stats [--host H] [--port P] [--json | --flight]
pdip client [--host H] [--port P] [--seed S] [--retries R] [--backoff-ms B] [--shutdown] \
    [--json] FILE...";

fn usage() -> ! {
    let families: Vec<&str> = FAMILIES.iter().map(|f| f.name()).collect();
    eprintln!("usage:\n  {}\n\nfamilies: {}", USAGE.replace('\n', "\n  "), families.join(", "));
    std::process::exit(2)
}

/// Says what is wrong with the command line, then prints the usage.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    usage()
}

fn parse_family(s: &str) -> Family {
    Family::from_name(s).unwrap_or_else(|| usage_error(&format!("unknown family '{s}'")))
}

/// Parses the cheat-strategy index given to `flag`; anything but an
/// index below `fam`'s cheat count is a usage error.
fn parse_cheat(fam: Family, flag: &str, value: &str) -> usize {
    let count = fam.cheat_count();
    match value.parse::<usize>() {
        Ok(idx) if idx < count => idx,
        _ => usage_error(&format!("{flag} must be a cheat index below {count} for {}", fam.name())),
    }
}

/// Parses `flag`'s value as a non-negative integer; anything else is a
/// usage error naming the flag.
fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        usage_error(&format!("{flag} takes a non-negative integer, got '{value}'"))
    })
}

/// One subcommand's argv, parsed against its line of [`USAGE`].
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    /// Parses `argv` against `synopsis`. An unknown or repeated flag, a
    /// value flag without its value, and a missing or extra positional
    /// are usage errors naming the argument.
    fn parse(synopsis: &str, argv: &[String]) -> Args {
        let words: Vec<&str> =
            synopsis.split_whitespace().take_while(|w| !w.starts_with('(')).collect();
        let cmd = words[..2].join(" ");
        // (flag, takes a value) and (positional, required) per word.
        let (mut flags, mut wanted) = (Vec::new(), Vec::new());
        let mut i = 2;
        while i < words.len() {
            let bare = words[i].trim_matches(['[', ']']);
            if bare.starts_with("--") {
                let takes = !words[i].ends_with(']') && words.get(i + 1).is_some_and(|w| *w != "|");
                flags.push((bare, takes));
                i += takes as usize;
            } else if bare != "|" {
                wanted.push((bare, !words[i].starts_with('[')));
            }
            i += 1;
        }
        let variadic = wanted.last().is_some_and(|(w, _)| w.ends_with("..."));
        let mut args = Args { flags: Vec::new(), positional: Vec::new() };
        let mut rest = argv.iter();
        while let Some(a) = rest.next() {
            if !a.starts_with("--") {
                if args.positional.len() == wanted.len() && !variadic {
                    usage_error(&format!("{cmd}: unexpected argument '{a}'"));
                }
                args.positional.push(a.clone());
                continue;
            }
            let Some(&(_, takes)) = flags.iter().find(|(f, _)| f == a) else {
                usage_error(&format!("{cmd} does not take '{a}'"))
            };
            if args.has(a) {
                usage_error(&format!("{a} is given twice"));
            }
            let value = takes.then(|| match rest.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => usage_error(&format!("{a} needs a value")),
            });
            args.flags.push((a.clone(), value));
        }
        if let Some((name, true)) = wanted.get(args.positional.len()) {
            usage_error(&format!("{cmd} needs {name}"));
        }
        args
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.value(flag).map_or(default, |v| parse_num(flag, v))
    }

    /// A `--*-ms` flag as a duration, if given.
    fn ms(&self, flag: &str) -> Option<std::time::Duration> {
        self.value(flag).map(|v| std::time::Duration::from_millis(parse_num(flag, v)))
    }

    /// The instance and transport of `run` and `prove`: a no-instance
    /// with `--no-instance` or a cheating prover, simulated with
    /// `--simulated`.
    fn instance(&self, fam: Family, n: usize, seed: u64, cheat: bool) -> (Instance, Transport) {
        let inst = if cheat || self.has("--no-instance") {
            no_instance(fam, n, seed)
        } else {
            Instance::generate(fam, n, seed)
        };
        (inst, if self.has("--simulated") { Transport::Simulated } else { Transport::Native })
    }
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
fn run_experiment(args: &Args) {
    let Some(id) = args.positional.first() else {
        if let Some((flag, _)) = args.flags.first() {
            usage_error(&format!("pdip exp takes '{flag}' only after an <id>"));
        }
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
        usage_error(&format!("unknown experiment '{id}'; ids: {}", ids.join(", ")))
    });
    if let Some(flag) = ["--smoke", "--threads"].iter().find(|f| args.has(f) && !entry.takes(f)) {
        usage_error(&format!("pdip exp {id} does not take '{flag}'"));
    }
    let opts = exp::Opts {
        smoke: args.has("--smoke"),
        threads: args.value("--threads").map(|v| parse_num("--threads", v)),
    };
    let out = args.value("--out").map_or_else(|| entry.prefix(), str::to_string);
    let quiet = args.has("--quiet");
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let synopsis = USAGE
        .lines()
        .find(|line| line.split_whitespace().nth(1) == Some(cmd.as_str()))
        .unwrap_or_else(|| usage_error(&format!("unknown subcommand '{cmd}'")));
    let args = Args::parse(synopsis, &argv[1..]);
    match cmd.as_str() {
        "exp" => run_experiment(&args),
        "families" => {
            for f in FAMILIES {
                let inst = Instance::generate(f, 64, 1);
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
            let fam = parse_family(&args.positional[0]);
            let n = args.num("--n", 1024);
            let seed = args.num("--seed", 7);
            let repeat = args.num("--repeat", 1);
            if repeat == 0 {
                usage_error("--repeat must be at least 1");
            }
            let cheat = args.value("--cheat").map(|v| parse_cheat(fam, "--cheat", v));
            let (inst, transport) = args.instance(fam, n, seed, cheat.is_some());
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
            let fam = parse_family(&args.positional[0]);
            let from: usize = args.num("--from", 8);
            let to = args.num("--to", 14);
            println!("{:>10}  {:>10}", "n", "proof bits");
            for k in from..=to {
                let n = 1usize << k;
                let inst = Instance::generate(fam, n, 3);
                let size = inst.with_protocol(PopParams::default(), Transport::Native, |p| {
                    p.run_honest(1).stats.proof_size()
                });
                println!("{n:>10}  {size:>10}");
            }
        }
        "soundness" => {
            let fam = parse_family(&args.positional[0]);
            let n = args.num("--n", 300);
            let trials = args.num("--trials", 60);
            if trials == 0 {
                usage_error("--trials must be at least 1");
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
            let families: Vec<Family> = match args.value("--families") {
                Some(list) => list.split(',').map(parse_family).collect(),
                None => FAMILIES.to_vec(),
            };
            let n_from = args.num("--n-from", 64);
            let n_to = args.num("--n-to", 256);
            if n_from == 0 || n_to < n_from {
                usage_error("--n-from must be positive and at most --n-to");
            }
            // Doubling grid from n-from up to (and including) n-to.
            let mut sizes = Vec::new();
            let mut n = n_from;
            while n < n_to {
                sizes.push(n);
                n *= 2;
            }
            sizes.push(n_to);
            let threads = args.num("--threads", par::machine_parallelism());
            let provers = if args.has("--honest-only") {
                vec![ProverSpec::Honest]
            } else {
                vec![ProverSpec::Honest, ProverSpec::AllCheats]
            };
            let spec = SweepSpec {
                families,
                sizes,
                provers,
                trials: args.num("--trials", 10),
                base_seed: args.num("--seed", 0xd1b),
                ..SweepSpec::default()
            };
            let mut rep = Reporter::from_quiet_flag(args.has("--quiet"));
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
            let out = args.value("--out").unwrap_or("results/sweep");
            let (json, csv) =
                pdip_engine::sink::write_outputs(std::path::Path::new(out), &spec, &outcome)
                    .expect("writing sweep outputs");
            rep.line(&format!("\nwrote {} and {}", json.display(), csv.display()));
            rep.summary(&outcome.metrics);
        }
        "prove" => {
            let fam = parse_family(&args.positional[0]);
            let gen_seed = args.num("--gen-seed", 7);
            let prover_arg = args.value("--prover").unwrap_or("honest");
            // The wire's prover byte: 0 is honest, k + 1 is cheat k.
            let prover: u8 = if prover_arg == "honest" {
                0
            } else {
                let idx = parse_cheat(fam, "--prover", prover_arg);
                idx.checked_add(1).and_then(|b| u8::try_from(b).ok()).unwrap_or_else(|| usage())
            };
            let (inst, transport) = args.instance(fam, args.num("--n", 64), gen_seed, prover != 0);
            let t = Transcript::record(
                inst,
                PopParams::default(),
                transport,
                prover,
                gen_seed,
                args.num("--seed", 11),
            );
            let bytes = t.encode();
            let path = std::path::Path::new(args.value("--out").unwrap_or("out.transcript"));
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
            let path = &args.positional[0];
            let data = std::fs::read(path).unwrap_or_else(|e| {
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
            let max_frame = args.num("--max-frame-bytes", pdip_engine::serve::MAX_FRAME);
            // A cap below one response header (13 bytes) or absurdly
            // large is a configuration mistake, not a policy.
            if !(64..=(1usize << 30)).contains(&max_frame) {
                usage_error(&format!("--max-frame-bytes must be in [64, 2^30], got {max_frame}"));
            }
            let defaults = ServeConfig::default();
            let cfg = ServeConfig {
                threads: args.num("--threads", par::machine_parallelism()),
                queue_cap: args.num("--queue", 256),
                deadline: args.ms("--deadline-ms"),
                max_frame_bytes: max_frame,
                read_deadline: args.ms("--read-deadline-ms").or(defaults.read_deadline),
                drain_deadline: args.ms("--drain-deadline-ms").unwrap_or(defaults.drain_deadline),
                // A shared obs bridge so the flight ring survives the
                // server and can land on disk at drain or panic.
                obs: args.value("--flight-dump").map(|path| {
                    std::sync::Arc::new(pdip_engine::ServeObs::with_options(
                        pdip_engine::DEFAULT_FLIGHT_CAP,
                        pdip_engine::DEFAULT_SLOW_THRESHOLD,
                        Some(std::path::PathBuf::from(path)),
                    ))
                }),
                ..defaults
            };
            if args.has("--stdin") {
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
                let port = args.num("--port", 7437);
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
            let host = args.value("--host").unwrap_or("127.0.0.1");
            let mode: u8 = if args.has("--flight") {
                2
            } else if args.has("--json") {
                1
            } else {
                0
            };
            match pdip_engine::fetch_stats(host, args.num("--port", 7437), mode) {
                Ok(body) => print!("{body}"),
                Err(e) => {
                    eprintln!("pdip stats: {e}");
                    std::process::exit(6);
                }
            }
        }
        "client" => {
            let opts = pdip_engine::ClientOpts {
                host: args.value("--host").unwrap_or("127.0.0.1").into(),
                port: args.num("--port", 7437),
                seed: args.num("--seed", 0),
                retries: args.num("--retries", 5),
                backoff_base_ms: args.num("--backoff-ms", 10),
                send_shutdown: args.has("--shutdown"),
                ..pdip_engine::ClientOpts::default()
            };
            let mut items = Vec::with_capacity(args.positional.len());
            for f in &args.positional {
                match std::fs::read(f) {
                    Ok(bytes) => items.push((f.clone(), bytes)),
                    Err(e) => {
                        eprintln!("reading {f}: {e}");
                        std::process::exit(6)
                    }
                }
            }
            let json = args.has("--json");
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
        _ => unreachable!("`{cmd}` has a line in USAGE but no arm here"),
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
