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
//! pdip bench-hotpath [--out PATH]
//! pdip bench-graph [--smoke] [--out PATH]
//! pdip bench-round [--smoke] [--workers K] [--out PATH]
//! pdip chaos [--smoke] [--threads K] [--out PREFIX]
//! pdip trace [--smoke] [--threads K] [--out PREFIX] [--quiet]
//! pdip scale [--smoke] [--threads K] [--out PREFIX]
//! pdip prove <family> [--n N] [--prover honest|IDX] [--no-instance]
//!                     [--gen-seed G] [--seed S] [--simulated] [--out PATH]
//! pdip verify <PATH>
//! pdip serve [--stdin | --port P | --smoke] [--threads K] [--queue Q]
//!            [--deadline-ms D] [--read-deadline-ms D] [--drain-deadline-ms D]
//!            [--max-frame-bytes B] [--flight-dump PATH] [--out PREFIX]
//! pdip serve-chaos [--smoke] [--out PREFIX]
//! pdip obs-audit [--smoke] [--out PREFIX]
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
//! panic and at drain. `pdip obs-audit` is the gating E14 audit of the
//! whole observability layer.

use pdip_bench::snapshot::{self, Snapshot};
use pdip_bench::{no_instance, Family, YesInstance, FAMILIES};

/// Track the allocator high-water so `pdip scale` (E11) and the
/// `[engine]` summary line can report real heap peaks; see
/// [`pdip_obs::PeakAlloc`]. Library users and plain test binaries run
/// untracked — only this binary pays the (two relaxed atomics) cost.
#[global_allocator]
static ALLOC: pdip_obs::PeakAlloc = pdip_obs::PeakAlloc::new();
use pdip_engine::{Engine, ProverSpec, Reporter, ServeConfig, SweepSpec};
use planarity_dip::dip::DipProtocol;
use planarity_dip::protocols::{Amplified, PopParams, Transport};
use planarity_dip::wire::{Transcript, VerifyOutcome, WireInstance};

fn usage() -> ! {
    eprintln!(
        "usage:\n  pdip families\n  pdip run <family> [--n N] [--seed S] [--no-instance] \
         [--cheat IDX] [--simulated] [--repeat K]\n  pdip size <family> [--from K] [--to K]\n  \
         pdip soundness <family> [--n N] [--trials T]\n  \
         pdip sweep [--families a,b,..] [--n-from N] [--n-to N] [--trials T] [--threads K] \
         [--seed S] [--honest-only] [--out PATH] [--quiet]\n  \
         pdip bench-hotpath [--out PATH]\n  \
         pdip bench-graph [--smoke] [--out PATH]\n  \
         pdip bench-round [--smoke] [--workers K] [--out PATH]\n  \
         pdip chaos [--smoke] [--threads K] [--out PREFIX]\n  \
         pdip trace [--smoke] [--threads K] [--out PREFIX] [--quiet]\n  \
         pdip scale [--smoke] [--threads K] [--out PREFIX]\n  \
         pdip prove <family> [--n N] [--prover honest|IDX] [--no-instance] [--gen-seed G] \
         [--seed S] [--simulated] [--out PATH]\n  \
         pdip verify <PATH>   (exit 0 accept / 3 rejected / 4 malformed)\n  \
         pdip serve [--stdin | --port P | --smoke] [--threads K] [--queue Q] [--deadline-ms D] \
         [--read-deadline-ms D] [--drain-deadline-ms D] [--max-frame-bytes B] \
         [--flight-dump PATH] [--out PREFIX]\n  \
         pdip serve-chaos [--smoke] [--out PREFIX]\n  \
         pdip obs-audit [--smoke] [--out PREFIX]\n  \
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

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn flag_num(args: &[String], name: &str, default: usize) -> usize {
    flag_value(args, name).map(|v| v.parse().expect("numeric flag")).unwrap_or(default)
}

/// Writes one output artifact, creating its parent directory first.
fn write_artifact(path: &std::path::Path, contents: impl AsRef<[u8]>) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// Writes an audit report as `{prefix}.txt` and `{prefix}.json` and
/// returns the `wrote … and …` line.
fn write_report(prefix: &str, text: &str, json: &str) -> String {
    let txt_path = std::path::PathBuf::from(format!("{prefix}.txt"));
    let json_path = std::path::PathBuf::from(format!("{prefix}.json"));
    write_artifact(&txt_path, text);
    write_artifact(&json_path, json);
    format!("wrote {} and {}", txt_path.display(), json_path.display())
}

/// Prints a bench snapshot's tables (entries, then stages if any),
/// writes the document to `out` and reports the path.
fn write_bench_snapshot(out: &str, snap: &Snapshot) {
    println!(
        "{:<24} {:>10} {:>14} {:>14} {:>9}",
        "benchmark", "n", "baseline ns", "fast ns", "speedup"
    );
    for e in &snap.entries {
        println!(
            "{:<24} {:>10} {:>14.1} {:>14.1} {:>8.2}x",
            e.name,
            e.n,
            e.baseline_ns,
            e.fast_ns,
            e.speedup()
        );
    }
    if snap.schema.stages {
        println!("\n{:<24} {:>10} {:>14} {:>8}", "stage", "n", "total ns", "share");
        for r in &snap.stages {
            println!("{:<24} {:>10} {:>14.1} {:>7.1}%", r.stage, r.n, r.total_ns, 100.0 * r.share);
        }
    }
    let path = std::path::Path::new(out);
    write_artifact(path, snap.render());
    println!("\nwrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
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
            let transport = if args.iter().any(|a| a == "--simulated") {
                Transport::Simulated
            } else {
                Transport::Native
            };
            let cheat = flag_value(&args, "--cheat").map(|v| v.parse::<usize>().expect("index"));
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
                // Amplification needs ownership; emulate by repeated runs.
                let res = if repeat <= 1 {
                    run(p)
                } else {
                    let wrapper = RepeatRef { inner: p, k: repeat };
                    run(&Amplified::new(wrapper, 1))
                };
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
            let probe = no_instance(fam, n, 0);
            let cheats =
                probe.with_protocol(PopParams::default(), Transport::Native, |p| p.cheat_names());
            for (s, name) in cheats.iter().enumerate() {
                let mut accepted = 0u64;
                for t in 0..trials {
                    let inst = no_instance(fam, n, t * 101 + 1);
                    inst.with_protocol(PopParams::default(), Transport::Native, |p| {
                        if p.run_cheat(s, t).accepted() {
                            accepted += 1;
                        }
                    });
                }
                println!(
                    "{:<28} accepted {accepted}/{trials} ({:.1}%)",
                    name,
                    100.0 * accepted as f64 / trials as f64
                );
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
            let threads = flag_num(&args, "--threads", {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            });
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
            let outcome = Engine::with_threads(threads).run(&spec);
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
        "bench-hotpath" => {
            let out =
                flag_value(&args, "--out").unwrap_or_else(|| "results/bench_hotpath.json".into());
            println!("hot-path microbenchmarks (optimized vs division-based baseline):\n");
            write_bench_snapshot(&out, &pdip_bench::hotpath::run_hotpath());
        }
        "bench-graph" => {
            let out =
                flag_value(&args, "--out").unwrap_or_else(|| "results/bench_graph.json".into());
            let smoke = args.iter().any(|a| a == "--smoke");
            let cfg = if smoke {
                pdip_bench::graphbench::GraphBenchConfig::smoke()
            } else {
                pdip_bench::graphbench::GraphBenchConfig::full()
            };
            let mode = if smoke { "smoke" } else { "full" };
            println!(
                "graph-substrate benchmarks ({mode}; frozen CSR + warm scratch vs legacy shape):\n"
            );
            let entries = pdip_bench::graphbench::run_graphbench(&cfg);
            let stages = Vec::new();
            write_bench_snapshot(
                &out,
                &Snapshot { schema: &snapshot::GRAPH, header: mode.into(), entries, stages },
            );
        }
        "bench-round" => {
            let out =
                flag_value(&args, "--out").unwrap_or_else(|| "results/bench_round.json".into());
            // Intra-job workers for the round's chunked per-node loops.
            // Transcripts are byte-identical at any value (the chunk grid
            // is worker-count independent), so the default follows the
            // machine: available_parallelism, capped at MAX_AUTO_WORKERS.
            // Pass --workers 1 to reproduce single-thread timings.
            match flag_value(&args, "--workers") {
                Some(w) => {
                    let w: usize = w.parse().expect("--workers takes a positive integer");
                    pdip_core::par::set_intra_workers(w.max(1));
                }
                None => pdip_core::par::set_intra_workers_auto(),
            }
            println!("intra-job workers: {}\n", pdip_core::par::intra_workers());
            let smoke = args.iter().any(|a| a == "--smoke");
            let cfg = if smoke {
                pdip_bench::roundbench::RoundBenchConfig::smoke()
            } else {
                pdip_bench::roundbench::RoundBenchConfig::full()
            };
            let mode = if smoke { "smoke" } else { "full" };
            println!(
                "planarity-round profile ({mode}; honest run vs committed pre-optimization baseline):\n"
            );
            let (entries, stages) = pdip_bench::roundbench::run_roundbench(&cfg);
            write_bench_snapshot(
                &out,
                &Snapshot { schema: &snapshot::ROUND, header: mode.into(), entries, stages },
            );
        }
        "chaos" => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let mut spec = if smoke {
                pdip_engine::ChaosSpec::smoke()
            } else {
                pdip_engine::ChaosSpec::full()
            };
            spec.threads = flag_num(&args, "--threads", {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            });
            let out = flag_value(&args, "--out").unwrap_or_else(|| "results/e9_chaos".into());
            println!(
                "chaos sweep ({}): n={} trials-per-cell={} base-seed={:#x} threads={}\n",
                if smoke { "smoke" } else { "full" },
                spec.n,
                spec.trials,
                spec.base_seed,
                spec.threads
            );
            let report = pdip_engine::run_chaos(&spec);
            print!("{}", report.render_text());
            println!("\n{}", write_report(&out, &report.render_text(), &report.render_json()));
            if !report.all_pass {
                eprintln!("chaos audit FAILED (see table above)");
                std::process::exit(1);
            }
        }
        "trace" => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let mut spec = if smoke {
                pdip_engine::TraceSpec::smoke()
            } else {
                pdip_engine::TraceSpec::full()
            };
            spec.threads = flag_num(&args, "--threads", {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            });
            let out = flag_value(&args, "--out").unwrap_or_else(|| "results/e10_trace".into());
            let mut rep = Reporter::from_quiet_flag(args.iter().any(|a| a == "--quiet"));
            rep.line(&format!(
                "trace audit ({}): sizes={:?} trials-per-cell={} base-seed={:#x} threads={}\n",
                if smoke { "smoke" } else { "full" },
                spec.sizes,
                spec.trials,
                spec.base_seed,
                spec.threads
            ));
            let outcome = pdip_engine::run_trace(&spec);
            rep.line(&outcome.report.render_text());
            // Timing breakdown is stdout-only: scheduling-dependent, so
            // it never reaches the committed artifact files.
            rep.line("span timing (wall-clock, not part of the artifact):");
            for l in outcome.timing_lines() {
                rep.line(&format!("  {l}"));
            }
            rep.line(&format!(
                "\n{}",
                write_report(&out, &outcome.report.render_text(), &outcome.report.render_json())
            ));
            rep.summary(&outcome.metrics);
            if !outcome.report.all_pass {
                eprintln!("trace audit FAILED (see table above)");
                std::process::exit(1);
            }
        }
        "scale" => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let mut spec = if smoke {
                pdip_engine::ScaleSpec::smoke()
            } else {
                pdip_engine::ScaleSpec::full()
            };
            spec.threads = flag_num(&args, "--threads", spec.threads);
            let out = flag_value(&args, "--out").unwrap_or_else(|| "results/e11_scale".into());
            println!(
                "scaling audit ({}): sizes={:?} shard-n={} base-seed={:#x} threads={}\n",
                if smoke { "smoke" } else { "full" },
                spec.sizes,
                spec.shard_n,
                spec.base_seed,
                spec.threads
            );
            let start = std::time::Instant::now();
            let report = pdip_engine::run_scale(&spec);
            print!("{}", report.render_text());
            println!("\n{}", write_report(&out, &report.render_text(), &report.render_json()));
            let mut rep = Reporter::from_quiet_flag(false);
            rep.summary(&pdip_engine::scale_metrics(&report, start.elapsed()));
            // This binary installs the tracking allocator, so the
            // bounded-memory gate must have run for real — an untracked
            // run means the gate silently passed vacuously.
            if !report.rss_tracked {
                eprintln!("scale audit FAILED: allocator peak untracked in the pdip binary");
                std::process::exit(1);
            }
            if !report.all_pass {
                eprintln!("scale audit FAILED (see table above)");
                std::process::exit(1);
            }
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
            let prover: u8 = if prover_arg == "honest" {
                0
            } else {
                let idx: u8 = prover_arg.parse().unwrap_or_else(|_| {
                    eprintln!("--prover must be 'honest' or a cheat index");
                    usage()
                });
                idx + 1
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
            let max_frame_bytes =
                flag_num(&args, "--max-frame-bytes", pdip_engine::serve::MAX_FRAME);
            // A cap below one response header (13 bytes) or absurdly
            // large is a configuration mistake, not a policy.
            if !(64..=(1usize << 30)).contains(&max_frame_bytes) {
                eprintln!("--max-frame-bytes must be in [64, 2^30], got {max_frame_bytes}");
                std::process::exit(2);
            }
            let cfg = ServeConfig {
                threads: flag_num(&args, "--threads", {
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
                }),
                queue_cap: flag_num(&args, "--queue", 256),
                deadline: flag_value(&args, "--deadline-ms")
                    .map(|v| std::time::Duration::from_millis(v.parse().expect("milliseconds"))),
                max_frame_bytes,
                read_deadline: flag_value(&args, "--read-deadline-ms")
                    .map(|v| std::time::Duration::from_millis(v.parse().expect("milliseconds")))
                    .or(ServeConfig::default().read_deadline),
                drain_deadline: flag_value(&args, "--drain-deadline-ms")
                    .map(|v| std::time::Duration::from_millis(v.parse().expect("milliseconds")))
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
            if args.iter().any(|a| a == "--smoke") {
                let out = flag_value(&args, "--out").unwrap_or_else(|| "results/e12_serve".into());
                let report = pdip_engine::run_serve_smoke(&[1, 4], pdip_engine::E12_SEED);
                print!("{}", report.render_text());
                println!("\n{}", write_report(&out, &report.render_text(), &report.render_json()));
                if !report.passed {
                    eprintln!("serve smoke FAILED (see failures above)");
                    std::process::exit(1);
                }
            } else if args.iter().any(|a| a == "--stdin") {
                let stats = pdip_engine::serve_pipe(
                    &cfg,
                    &mut std::io::stdin().lock(),
                    &mut std::io::stdout().lock(),
                    &pdip_obs::NoopRecorder,
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
                let stats = pdip_engine::serve_tcp(
                    &cfg,
                    port,
                    &shutdown,
                    &mut rep,
                    &pdip_obs::NoopRecorder,
                )
                .expect("serving tcp");
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
        "serve-chaos" => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let spec = if smoke {
                pdip_engine::ServeChaosSpec::smoke()
            } else {
                pdip_engine::ServeChaosSpec::full()
            };
            let out =
                flag_value(&args, "--out").unwrap_or_else(|| "results/e13_serve_chaos".into());
            println!(
                "serve chaos audit ({}): trials-per-class={} base-seed={:#x}\n",
                if smoke { "smoke" } else { "full" },
                spec.trials,
                pdip_engine::E13_SEED
            );
            let report = pdip_engine::run_serve_chaos(&spec, pdip_engine::E13_SEED);
            print!("{}", report.render_text());
            // Throughput is timing data: stdout only in the text form,
            // one clearly-marked field in the JSON.
            println!("\nsustained throughput: {:.1} requests/sec over localhost TCP", report.rps);
            println!("{}", write_report(&out, &report.render_text(), &report.render_json()));
            if !report.passed {
                eprintln!("serve chaos audit FAILED (see failures above)");
                std::process::exit(1);
            }
        }
        "obs-audit" => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let spec = if smoke {
                pdip_engine::ObsAuditSpec::smoke()
            } else {
                pdip_engine::ObsAuditSpec::full()
            };
            let out = flag_value(&args, "--out").unwrap_or_else(|| "results/e14_obs".into());
            println!(
                "observability audit ({}): fault-trials-per-class={} threads={:?} base-seed={:#x}\n",
                if smoke { "smoke" } else { "full" },
                spec.fault_trials,
                spec.threads,
                pdip_engine::E14_SEED
            );
            let report = pdip_engine::run_obs_audit(&spec, pdip_engine::E14_SEED);
            print!("{}", report.render_text());
            // Throughput and latency are timing data: stdout only in
            // the text form, clearly-marked fields in the JSON.
            println!(
                "\nsustained throughput: {:.1} requests/sec, mean verify latency {} ns",
                report.rps, report.mean_verify_ns
            );
            println!("{}", write_report(&out, &report.render_text(), &report.render_json()));
            if !report.passed {
                eprintln!("observability audit FAILED (see failures above)");
                std::process::exit(1);
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

/// A by-reference repetition shim so `--repeat` can reuse [`Amplified`]
/// over a borrowed protocol.
struct RepeatRef<'a> {
    inner: &'a dyn DipProtocol,
    k: usize,
}

impl DipProtocol for RepeatRef<'_> {
    fn name(&self) -> String {
        format!("{} x{}", self.inner.name(), self.k)
    }
    fn rounds(&self) -> usize {
        self.inner.rounds()
    }
    fn instance_size(&self) -> usize {
        self.inner.instance_size()
    }
    fn is_yes_instance(&self) -> bool {
        self.inner.is_yes_instance()
    }
    fn run_honest(&self, seed: u64) -> planarity_dip::dip::RunResult {
        let mut res = self.inner.run_honest(seed);
        for i in 1..self.k {
            let r = self.inner.run_honest(seed.wrapping_add(i as u64 * 7919));
            res.stats.merge_parallel(&r.stats);
            if !r.accepted() {
                res.verdict = planarity_dip::dip::Verdict::Reject;
                res.rejections.extend(r.rejections);
            }
        }
        res
    }
    fn cheat_names(&self) -> Vec<String> {
        self.inner.cheat_names()
    }
    fn run_cheat(&self, strategy: usize, seed: u64) -> planarity_dip::dip::RunResult {
        let mut res = self.inner.run_cheat(strategy, seed);
        for i in 1..self.k {
            let r = self.inner.run_cheat(strategy, seed.wrapping_add(i as u64 * 7919));
            res.stats.merge_parallel(&r.stats);
            if !r.accepted() {
                res.verdict = planarity_dip::dip::Verdict::Reject;
                res.rejections.extend(r.rejections);
            }
        }
        res
    }
}
