//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hotspot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` loads the workload several times (reporting the median
//! set-up time), warms up, measures `--seconds` of closed-loop clients
//! through the public session API, checks the outcome and prints the
//! end-to-end metrics. `--trace 1` measures an untraced and a traced half
//! of the same length and prints the per-layer metrics. Either way the
//! last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed correctness check prints no numbers and exits non-zero.

mod host;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bamboo_core::{AbortReason, RecoveryReport};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use run::{ClientState, PhaseOut, REASONS};
use stats::us_per;
use trace::{LayerTimes, SpanName, Tracer};
use workloads::{ClientLedger, Kind, Loaded, Target, CLIENTS};

/// Untimed run-in before measuring: caches fill, lazy set-up finishes.
const WARMUP: Duration = Duration::from_secs(1);
/// Rate and latency metrics are medians over windows of the measured
/// time, each holding at least this many transactions, so that each
/// window's p99 rests on at least ten samples beyond it...
const WINDOW_SAMPLES: usize = 1_000;
/// ...and at most this many windows.
const MAX_WINDOWS: usize = 10;
/// Set-up samples per `--trace 0` run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;
/// Each sample is the mean of back-to-back loads timed for at least this
/// long. On a shared 2-vCPU virtual machine single loads fall into fast
/// and slow spells lasting seconds (45% apart for TPC-C), and a median of
/// single loads jumps between the two; a mean over a stretch of loads
/// moves with the mix instead.
const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(400);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    // Run-time files (WAL directories, the span dump) go beside the build.
    let mut scratch = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    )
    .join("perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s < 2 {
                    return Err("--seconds must be at least 2".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scratch" => scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        std::process::exit(2);
    }
    let wal_root = args
        .scratch
        .join(format!("wal-{}-{}", args.kind.name(), std::process::id()));
    let result = bench(&args, &wal_root);
    let _ = std::fs::remove_dir_all(&wal_root);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {} FAILED: {e}", args.kind.name());
            std::process::exit(1);
        }
    }
}

/// One metric as printed: name, value, unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    let name = name.into();
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    Metric { name, value, unit }
}

/// Public database counters the per-layer report takes deltas of.
#[derive(Clone, Copy, Default)]
struct DbCounters {
    log_bytes: u64,
    log_records: u64,
    fsyncs: u64,
    group_acks: u64,
    io_retries: u64,
    io_failures: u64,
    degraded: u64,
}

impl DbCounters {
    /// The bank's file-WAL counters; zero on the in-memory databases,
    /// whose ring WAL is counted per session.
    fn read(target: &Target) -> Self {
        match target {
            Target::Mono(_) => DbCounters::default(),
            Target::Parts(pdb) => DbCounters {
                log_bytes: pdb.log_bytes(),
                log_records: pdb.log_records(),
                fsyncs: pdb.group_fsyncs(),
                group_acks: pdb.group_acks(),
                io_retries: pdb.wal_io_retries(),
                io_failures: pdb.wal_io_failures(),
                degraded: pdb.degraded_partitions(),
            },
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn new_clients(seed: u64) -> Vec<ClientState> {
    (0..CLIENTS)
        .map(|c| ClientState {
            rng: SmallRng::seed_from_u64(seed ^ ((c as u64 + 1) << 56)),
            ledger: ClientLedger::default(),
        })
        .collect()
}

fn ledgers(clients: &[ClientState]) -> Vec<ClientLedger> {
    clients.iter().map(|c| c.ledger.clone()).collect()
}

/// Takes `samples` set-up samples, each the mean set-up time (load plus
/// genesis checkpoint) of loads repeated for [`SETUP_SAMPLE_MIN`], then
/// loads the workload once more for the run. Returns that load and the
/// samples.
fn setup_sampled(
    kind: Kind,
    wal_root: &Path,
    samples: usize,
) -> Result<(Loaded, Vec<f64>), String> {
    let mut times = Vec::with_capacity(samples);
    for s in 0..samples {
        let (mut loads, mut total) = (0u32, 0.0);
        while loads == 0 || total < SETUP_SAMPLE_MIN.as_secs_f64() {
            let dir = wal_root.join(format!("setup-{s}-{loads}"));
            let loaded = workloads::setup(kind, &dir)?;
            total += secs(loaded.load_ns + loaded.checkpoint_ns);
            loads += 1;
            drop(loaded);
            let _ = std::fs::remove_dir_all(&dir);
        }
        times.push(total / f64::from(loads));
    }
    let loaded = workloads::setup(kind, &wal_root.join("run"))?;
    Ok((loaded, times))
}

fn bench(args: &Args, wal_root: &Path) -> Result<String, String> {
    let kind = args.kind;
    println!(
        "run {}",
        host::record(
            kind,
            args.seed,
            CLIENTS,
            args.seconds,
            args.trace,
            &args.scratch
        )
    );
    let epoch = Instant::now();
    let mut main_tracer = Tracer::new(epoch);
    let samples = if args.trace { 0 } else { SETUP_SAMPLES };
    let setup_start = main_tracer.now();
    let (loaded, setup_times) = setup_sampled(kind, wal_root, samples)?;
    // Resident memory of the loaded workload. Rows that transactions
    // insert later grow with throughput, so a peak taken after the run
    // would read a speed-up as a memory regression.
    let setup_rss_mb = host::peak_rss_mb();
    let load_end = setup_start + loaded.load_ns;
    main_tracer.record(0, None, SpanName::SetupLoad, setup_start, load_end, 0);
    if kind.durable() {
        let ckpt_end = load_end + loaded.checkpoint_ns;
        main_tracer.record(0, None, SpanName::SetupCheckpoint, load_end, ckpt_end, 0);
    }

    let mut clients = new_clients(args.seed);
    run::run_phase(&loaded, kind, &mut clients, WARMUP, false, epoch);
    let measure = Duration::from_secs(args.seconds);
    let committed_any = |p: &PhaseOut| {
        if p.committed == 0 {
            Err("no transaction committed in the measured window".to_string())
        } else {
            Ok(())
        }
    };
    let (metrics, attempted, failed) = if !args.trace {
        let before = DbCounters::read(&loaded.target);
        let phase = run::run_phase(&loaded, kind, &mut clients, measure, false, epoch);
        let after = DbCounters::read(&loaded.target);
        committed_any(&phase)?;
        loaded.check(&ledgers(&clients))?;
        if let Some((_, ns)) = loaded.recover_and_check(&ledgers(&clients))? {
            // Not gated: the log grows with throughput (the traced run
            // reports recovery time per replayed write).
            println!("info recover_s {} s", secs(ns));
        }
        let m = end_to_end(
            &phase,
            &setup_times,
            setup_rss_mb,
            after.log_bytes - before.log_bytes,
        );
        (m, phase.submitted, phase.failed)
    } else {
        let half = measure / 2;
        let before = DbCounters::read(&loaded.target);
        let plain = run::run_phase(&loaded, kind, &mut clients, half, false, epoch);
        let after = DbCounters::read(&loaded.target);
        let traced = run::run_phase(&loaded, kind, &mut clients, half, true, epoch);
        let end = DbCounters::read(&loaded.target);
        committed_any(&plain)?;
        committed_any(&traced)?;
        loaded.check(&ledgers(&clients))?;
        let checkpoint_ns = loaded.checkpoint_ns;
        let load_ns = loaded.load_ns;
        let r0 = main_tracer.now();
        let recovered = loaded.recover_and_check(&ledgers(&clients))?;
        if recovered.is_some() {
            main_tracer.record(0, None, SpanName::Recover, r0, main_tracer.now(), 0);
        }
        // Recorder 0 holds set-up and recovery, then one per client.
        let mut dump: Vec<&[trace::Span]> = vec![&main_tracer.spans];
        dump.extend(traced.spans.iter().map(|s| s.as_slice()));
        let path = args.scratch.join(format!("trace-{}.tsv", kind.name()));
        trace::write_spans(&path, &dump).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
        let m = per_layer(&LayerInputs {
            plain: &plain,
            traced: &traced,
            counters: (before, after, end),
            load_ns,
            checkpoint_ns,
            recovered: recovered.as_ref(),
        });
        (
            m,
            plain.submitted + traced.submitted,
            plain.failed + traced.failed,
        )
    };

    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn end_to_end(
    phase: &PhaseOut,
    setup_times: &[f64],
    setup_rss_mb: f64,
    file_log_bytes: u64,
) -> Vec<Metric> {
    let w = stats::windowed(
        &phase.samples,
        phase.elapsed_ns,
        WINDOW_SAMPLES,
        MAX_WINDOWS,
        &[500, 900, 990],
    );
    let mut lat: Vec<u64> = phase.samples.iter().map(|&(_, l)| l).collect();
    lat.sort_unstable();
    println!(
        "samples {} committed in {} windows of ~{} each; {} submitted, {} rolled back",
        lat.len(),
        w.windows,
        lat.len() / w.windows,
        phase.submitted,
        phase.rolled_back,
    );
    println!(
        "info failed_share {} ratio ({} of {} submitted)",
        stats::per_unit(phase.failed as f64, phase.submitted),
        phase.failed,
        phase.submitted
    );
    // Tails are reported but not gated: on a small shared host they
    // measure scheduler and disk stalls more than the program.
    for (name, v) in [
        ("latency_p90_us", w.latency[1]),
        ("latency_p99_us", w.latency[2]),
    ] {
        println!("info {name} {} us (median over windows)", v / 1e3);
    }
    println!(
        "info latency_p999_us {} us over all {} samples ({} beyond it)",
        stats::percentile(&lat, 999) as f64 / 1e3,
        lat.len(),
        stats::beyond(&lat, 999)
    );
    vec![
        metric("throughput_tps", w.rate, "1/s"),
        metric("latency_p50_us", w.latency[0] / 1e3, "us"),
        metric("setup_s", stats::median(setup_times), "s"),
        metric("peak_rss_mb", setup_rss_mb, "MB"),
        metric(
            "log_bytes_per_txn",
            stats::per_unit(
                (phase.ring_log_bytes + file_log_bytes) as f64,
                phase.committed,
            ),
            "B",
        ),
    ]
}

struct LayerInputs<'a> {
    plain: &'a PhaseOut,
    traced: &'a PhaseOut,
    /// Database counters before and after the untraced half, and at the
    /// end of the traced half.
    counters: (DbCounters, DbCounters, DbCounters),
    load_ns: u64,
    checkpoint_ns: u64,
    recovered: Option<&'a (RecoveryReport, u64)>,
}

fn per_layer(inp: &LayerInputs) -> Vec<Metric> {
    let (plain, traced) = (inp.plain, inp.traced);
    let (before, after, end) = inp.counters;
    let mut layers = LayerTimes::default();
    for spans in &traced.spans {
        layers.add(spans);
    }
    let counts = &traced.counts;
    let commits = traced.committed;
    let aborted = counts.aborted_attempts();
    let user = counts.aborts[run::reason_index(AbortReason::User)];
    let tps_plain = plain.committed as f64 / secs(plain.elapsed_ns);
    let tps_traced = traced.committed as f64 / secs(traced.elapsed_ns);

    let mut m = vec![
        metric(
            "workload.generate_us",
            us_per(layers.self_ns(SpanName::Generate), traced.submitted),
            "us",
        ),
        metric("workload.load_s", secs(inp.load_ns), "s"),
        metric(
            "session.begin_us",
            us_per(layers.self_ns(SpanName::Begin), counts.attempts),
            "us",
        ),
        metric(
            "exec.self_us_per_commit",
            us_per(
                layers
                    .self_ns(SpanName::Exec)
                    .saturating_sub(layers.wait_ns(SpanName::Exec)),
                commits,
            ),
            "us",
        ),
        metric(
            "lock.wait_us_per_commit",
            us_per(layers.wait_ns(SpanName::Exec), commits),
            "us",
        ),
        metric(
            "lock.commit_wait_us_per_commit",
            us_per(layers.wait_ns(SpanName::Commit), commits),
            "us",
        ),
        metric(
            "lock.acquisitions_per_commit",
            stats::per_unit(counts.locks as f64, commits),
            "count",
        ),
        metric(
            "protocol.abort_ratio",
            stats::per_unit((aborted - user) as f64, counts.attempts),
            "ratio",
        ),
        metric(
            "protocol.wasted_us_per_commit",
            us_per(counts.wasted_ns, commits),
            "us",
        ),
        metric(
            "protocol.cascade_victims_per_abort",
            stats::per_unit(counts.cascade_victims as f64, aborted),
            "count",
        ),
    ];
    for (r, n) in REASONS.iter().zip(counts.aborts) {
        m.push(metric(format!("protocol.aborts.{r:?}"), n as f64, "count"));
    }
    m.extend([
        metric(
            "protocol.user_rollback_share",
            stats::per_unit(traced.rolled_back as f64, traced.submitted),
            "ratio",
        ),
        metric(
            "retry.backoff_us_per_commit",
            us_per(layers.self_ns(SpanName::Backoff), commits),
            "us",
        ),
        metric(
            "commit.self_us",
            us_per(
                layers
                    .self_ns(SpanName::Commit)
                    .saturating_sub(layers.wait_ns(SpanName::Commit)),
                commits,
            ),
            "us",
        ),
        metric(
            "wal.ack_wait_us",
            us_per(layers.self_ns(SpanName::Ack), layers.count(SpanName::Ack)),
            "us",
        ),
        metric(
            "wal.fsyncs_per_txn",
            stats::per_unit((after.fsyncs - before.fsyncs) as f64, plain.committed),
            "count",
        ),
        metric(
            "wal.mean_batch",
            stats::per_unit(
                (after.group_acks - before.group_acks) as f64,
                after.fsyncs - before.fsyncs,
            ),
            "count",
        ),
        metric(
            "wal.records_per_txn",
            stats::per_unit(
                (plain.ring_log_records + after.log_records - before.log_records) as f64,
                plain.committed,
            ),
            "count",
        ),
        metric(
            "wal.log_bytes",
            (plain.ring_log_bytes + after.log_bytes - before.log_bytes) as f64,
            "B",
        ),
        metric("wal.io_retries", end.io_retries as f64, "count"),
        metric("wal.io_failures", end.io_failures as f64, "count"),
        metric("wal.degraded_partitions", end.degraded as f64, "count"),
        metric(
            "partition.cross_share",
            stats::per_unit(counts.cross_partition_commits as f64, commits),
            "ratio",
        ),
        metric("durability.checkpoint_s", secs(inp.checkpoint_ns), "s"),
    ]);
    let (report, recover_ns) = match inp.recovered {
        Some((r, ns)) => (r.clone(), *ns),
        None => (RecoveryReport::default(), 0),
    };
    m.extend([
        metric("durability.recover_s", secs(recover_ns), "s"),
        metric(
            "durability.recover.replayed_txns",
            report.replayed_txns as f64,
            "count",
        ),
        metric(
            "durability.recover.replayed_writes",
            report.replayed_writes as f64,
            "count",
        ),
        metric(
            "durability.recover.restored_tuples",
            report.restored_tuples as f64,
            "count",
        ),
        metric(
            "durability.recover_us_per_write",
            us_per(recover_ns, report.replayed_writes),
            "us",
        ),
        metric(
            "trace.unattributed_share",
            layers.unattributed_share(),
            "ratio",
        ),
        metric("trace.overhead", tps_traced / tps_plain, "ratio"),
    ]);
    m
}
