//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig4|ingest_tcp|feed_tcp|mixed_inproc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1` it runs the workload
//! traced and untraced, replays a sample of its requests through each layer, and reports the
//! per-layer metrics. It prints a report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and exits non-zero when an output check
//! failed. `METHOD.md` beside this crate explains the workloads and metrics.

mod fig4;
mod gen;
mod layers;
mod record;
mod stats;
mod trace;
mod verify;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use pasoa_obs::{HistogramSnapshot, RegistrySnapshot};

use record::Kind;
use stats::Summary;
use trace::{LedgerPart, Tracer};

/// The end-to-end metrics every workload reports, with their units (see `METHOD.md` for what
/// each means on each workload).
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("record_tput", "1/s"),
    ("record_p50_us", "us"),
    ("record_p99_us", "us"),
    ("read_tput", "1/s"),
    ("read_p50_us", "us"),
    ("read_tail_us", "us"),
];

/// The per-layer metrics of the traced run, with their units.
const PER_LAYER: [(&str, &str); 45] = [
    ("compress.gzip_us", "us"),
    ("compress.ppmz_us", "us"),
    ("bioseq.shuffle_us", "us"),
    ("experiment.measure_us", "us"),
    ("core.sync_record_us", "us"),
    ("core.async_ship_us", "us"),
    ("core.pack_us", "us"),
    ("core.unpack_us", "us"),
    ("wire.xml_roundtrip_us", "us"),
    ("wire.codec_roundtrip_us", "us"),
    ("wire.inproc_call_us", "us"),
    ("wire.xml_bytes_per_assertion", "B"),
    ("wire.bin_bytes_per_assertion", "B"),
    ("net.echo_rtt_us", "us"),
    ("net.frame_roundtrip_us", "us"),
    ("net.client.connects", "count"),
    ("net.client.retries", "count"),
    ("net.client.pool_evictions", "count"),
    ("net.server.bytes_in_per_assertion", "B"),
    ("router.record_call_us", "us"),
    ("router.flush_us", "us"),
    ("router.replicated_flush_us", "us"),
    ("router.gather_us", "us"),
    ("router.flush.batch_size_mean", "count"),
    ("router.flush.batches_per_1k", "count"),
    ("router.flush.merge_skips", "count"),
    ("preserv.record_all_us", "us"),
    ("preserv.index_share", "ratio"),
    ("preserv.keys_per_assertion", "count"),
    ("preserv.dispatch_us", "us"),
    ("kvdb.write_batch_us", "us"),
    ("kvdb.append_p50_us", "us"),
    ("kvdb.append_p99_us", "us"),
    ("kvdb.bytes_per_user_byte", "ratio"),
    ("query.by_session_us", "us"),
    ("query.lineage_us", "us"),
    ("query.page_us", "us"),
    ("feed.poll_us", "us"),
    ("feed.empty_poll_share", "ratio"),
    ("feed.events_per_poll", "count"),
    ("feed.stage_us", "us"),
    ("feed.server_lag_p99_ms", "ms"),
    ("feed.redelivery", "count"),
    ("ledger.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

const WORKLOADS: [&str; 4] = ["fig4", "ingest_tcp", "feed_tcp", "mixed_inproc"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
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
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    /// One line per failed or refused operation and per failed output check.
    misses: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    report: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// A report line for one figure under its per-workload name.
    fn named(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.report
            .push(format!("{name:<22} {value:.3} {unit} (n={n})"));
    }

    fn summary(&mut self, name: &str, summary: Option<Summary>, unit: &str) -> Summary {
        let s = summary.unwrap_or(Summary {
            n: 0,
            p50: 0.0,
            tail_pct: 0.0,
            tail: 0.0,
            mean: 0.0,
        });
        self.report.push(s.line(name, unit));
        s
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let started = Instant::now();
    let mut outcome = if args.trace {
        traced(&args, &work)
    } else {
        end_to_end(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");

    println!("workload      {}", args.workload);
    println!("seed          {}", args.seed);
    println!("trace         {}", u8::from(args.trace));
    println!("parallelism   {}", parallelism());
    println!(
        "git revision  {}",
        command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unavailable".into())
    );
    println!(
        "rustc         {}",
        command_output("rustc", &["--version"]).unwrap_or_else(|| "unavailable".into())
    );
    println!(
        "run length    {:.1} s requested, {:.2} s wall",
        args.seconds,
        started.elapsed().as_secs_f64()
    );
    for line in &outcome.report {
        println!("{line}");
    }
    let declared = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let emitted: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.as_str(), unit.as_str()))
        .collect();
    if !outcome.metrics.is_empty() && emitted != declared {
        outcome
            .misses
            .push("the metrics emitted differ from the declared list".into());
    }
    let failed = outcome.misses.len() as u64;
    let attempted = outcome.attempted.max(1);
    println!(
        "{:<22} {:.6} ({failed} of {attempted})",
        "fail_ratio",
        failed as f64 / attempted as f64
    );
    for miss in outcome.misses.iter().take(20) {
        println!("MISS {miss}");
    }
    let correct = failed == 0;
    let metrics: serde_json::Map = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                serde_json::json!({ "value": value, "unit": unit }),
            )
        })
        .collect();
    println!(
        "{}",
        serde_json::json!({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        })
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn kind_of(workload: &str) -> Option<Kind> {
    match workload {
        "ingest_tcp" => Some(Kind::Ingest),
        "feed_tcp" => Some(Kind::Feed),
        "mixed_inproc" => Some(Kind::Mixed),
        _ => None,
    }
}

fn end_to_end(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    match kind_of(&args.workload) {
        None => {
            let run = fig4::run(args.seed, args.seconds, None);
            let setup_s = stats::median(&run.setup_s);
            out.attempted = run.attempted;
            out.misses = run.misses;
            out.report.push(format!(
                "{:<22} {setup_s:.6} s (median of {} set-ups, one per round)",
                "setup_s",
                run.setup_s.len()
            ));
            for (m, mode) in fig4::MODES.iter().enumerate() {
                let name = format!("fig4_{}_s", fig4::mode_name(*mode));
                out.summary(&name, Summary::of(&run.sweep_s[m]), "s");
            }
            let sweeps = run.sweep_s[2].len();
            let tput = run.assertions[2] as f64 / run.sweep_s[2].iter().sum::<f64>();
            out.report.push(format!(
                "{:<22} {tput:.1} assertions/s ({} over {sweeps} synchronous sweeps)",
                "record_tput", run.assertions[2]
            ));
            out.summary("record_us", Summary::of(&run.record_us), "us");
            let sync = out.summary("record_sync_us", Summary::of(&run.sync_us), "us");
            let p99 = stats_at(&run.sync_us, 99.0);
            let read = out.summary("read_us", Summary::of(&run.read_us), "us");
            let read_tput = run.read_us.len() as f64 / (run.read_us.iter().sum::<f64>() / 1e6);
            out.metric("setup_s", setup_s, "s");
            out.metric("record_tput", tput, "1/s");
            out.metric("record_p50_us", sync.p50, "us");
            out.metric("record_p99_us", p99, "us");
            out.metric("read_tput", read_tput, "1/s");
            out.metric("read_p50_us", read.p50, "us");
            out.metric("read_tail_us", read.tail, "us");
        }
        Some(kind) => {
            let answers = (kind == Kind::Mixed).then(|| record::corpus_answers(args.seed));
            // Fresh deployments, one per window: a window's figures do not depend on how much
            // earlier windows stored.
            let mut setups = Vec::new();
            let mut windows = Vec::new();
            let window_count = record::WINDOWS;
            for k in 0..window_count {
                let dir = work.join(format!("window-{k}"));
                let start = Instant::now();
                let d = match record::deploy(kind, args.seed, &dir) {
                    Ok(d) => d,
                    Err(e) => {
                        out.misses.push(format!("setup: {e}"));
                        return out;
                    }
                };
                setups.push(start.elapsed().as_secs_f64());
                let seconds = args.seconds / window_count as f64;
                windows.push(record::run(
                    kind,
                    &d,
                    args.seed,
                    seconds,
                    answers.as_deref(),
                    None,
                ));
                drop(d);
                release_freed_memory();
                let _ = std::fs::remove_dir_all(work);
                let _ = std::fs::create_dir_all(work);
            }
            let setup_s = stats::median(&setups);
            let mut tputs = Vec::new();
            // Tails are taken per window and their median reported: one window caught in a
            // slow stretch of the machine then moves the figure no more than any other. Each
            // window's read tail is the highest percentile with 10 of its reads beyond it.
            let mut window_p99s = Vec::new();
            let mut window_lag_p99s = Vec::new();
            let mut lags = Vec::new();
            let mut all_latencies = Vec::new();
            let mut reads = Vec::new();
            let mut window_read_tails = Vec::new();
            let mut read_tail_pct = 50.0;
            // Reads completed (feed: events delivered) and the seconds they took.
            let mut read_count = 0;
            let mut read_s = 0.0;
            let mut by_op: [Vec<f64>; 3] = Default::default();
            let mut committed = 0;
            let mut window_s = 0.0;
            for run in &windows {
                out.attempted += run.attempted();
                out.misses.extend(run.failures());
                committed += run.acked();
                window_s += run.window_s;
                tputs.push(run.acked() as f64 / run.window_s);
                let latencies = run.record_latencies();
                window_p99s.push(stats_at(&latencies, 99.0));
                all_latencies.extend(latencies);
                if let Some(sub) = &run.subscriber {
                    window_lag_p99s.push(stats_at(&sub.lags_us, 99.0));
                }
                let window_reads: &[f64] = match kind {
                    Kind::Ingest => {
                        read_count += run.readback_us.len();
                        read_s += run.readback_us.iter().sum::<f64>() / 1e6;
                        &run.readback_us
                    }
                    Kind::Feed => match &run.subscriber {
                        Some(sub) => {
                            lags.extend(sub.lags_us.iter().copied());
                            read_count += sub.delivered.len();
                            read_s += sub.delivery_s;
                            &sub.poll_us
                        }
                        None => &[],
                    },
                    Kind::Mixed => match &run.reader {
                        Some(r) => {
                            read_count += r.latencies_us.len();
                            read_s += run.window_s;
                            for (i, op) in by_op.iter_mut().enumerate() {
                                op.extend(r.by_op_us[i].iter().copied());
                            }
                            &r.latencies_us
                        }
                        None => &[],
                    },
                };
                if let Some(window) = Summary::of(window_reads) {
                    window_read_tails.push(window.tail);
                    read_tail_pct = window.tail_pct;
                }
                reads.extend(window_reads.iter().copied());
            }
            let tput = committed as f64 / window_s;
            out.report.push(format!(
                "{:<22} {}",
                "window_tput",
                tputs
                    .iter()
                    .map(|t| format!("{t:.0}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
            out.report.push(format!(
                "{:<22} {}",
                "window_p99_us",
                window_p99s
                    .iter()
                    .map(|t| format!("{t:.0}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
            out.report.push(format!(
                "{:<22} {setup_s:.6} s (median of {} deployments)",
                "setup_s",
                setups.len()
            ));
            out.report.push(format!(
                "{:<22} {tput:.1} assertions/s ({committed} committed in {window_count} windows, {window_s:.3} s)",
                "record_tput"
            ));
            let rec = out.summary("record_us", Summary::of(&all_latencies), "us");
            let record_p99 = stats::median(&window_p99s);
            out.named("record_p50_us", rec.p50, "us", rec.n);
            out.named(
                "record_p99_us",
                record_p99,
                "us (median of window p99s)",
                rec.n,
            );
            let label = match kind {
                Kind::Ingest => "readback_us",
                Kind::Feed => "feed_poll_us",
                Kind::Mixed => "query_us",
            };
            let read = out.summary(label, Summary::of(&reads), "us");
            let read_tail = stats::median(&window_read_tails);
            out.named(
                "read_tail_us",
                read_tail,
                &format!("us (median of window p{read_tail_pct:.0}s)"),
                read.n,
            );
            let read_tput = read_count as f64 / read_s;
            out.report.push(format!(
                "{:<22} {read_tput:.1} 1/s ({read_count} in {read_s:.3} s)",
                "read_tput"
            ));
            match kind {
                Kind::Ingest => {}
                Kind::Feed => {
                    out.named("feed_tput", read_tput, "events/s", read_count);
                    let lag = out.summary("feed_lag_us", Summary::of(&lags), "us");
                    out.named("feed_lag_p50_ms", lag.p50 / 1e3, "ms", lag.n);
                    let p99 = stats::median(&window_lag_p99s) / 1e3;
                    out.named("feed_lag_p99_ms", p99, "ms (median of window p99s)", lag.n);
                }
                Kind::Mixed => {
                    out.named("query_tput", read_tput, "queries/s", read_count);
                    out.named("query_p50_us", read.p50, "us", read.n);
                    out.named("query_p99_us", stats_at(&reads, 99.0), "us", read.n);
                    for (i, op) in ["query", "lineage", "query-page"].iter().enumerate() {
                        out.summary(&format!("  {op}_us"), Summary::of(&by_op[i]), "us");
                    }
                }
            }
            out.metric("setup_s", setup_s, "s");
            out.metric("record_tput", tput, "1/s");
            out.metric("record_p50_us", rec.p50, "us");
            out.metric("record_p99_us", record_p99, "us");
            out.metric("read_tput", read_tput, "1/s");
            out.metric("read_p50_us", read.p50, "us");
            out.metric("read_tail_us", read_tail, "us");
        }
    }
    out
}

/// Hand the heap memory a dropped deployment freed back to the operating system. Each window's
/// servers run on fresh threads whose allocator arenas keep freed memory for reuse, so without
/// this the process grows by most of a window's store every window.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns free heap pages to the kernel; it has no
        // preconditions and touches no memory the program still uses.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn stats_at(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    stats::percentile(&sorted, pct)
}

/// A histogram with no samples, whose quantiles are not clamped by a min or max.
fn empty_histogram() -> HistogramSnapshot {
    HistogramSnapshot {
        counts: Vec::new(),
        count: 0,
        sum: 0,
        min: 0,
        max: u64::MAX,
    }
}

/// The samples histogram `name` gained between two snapshots.
fn hist_delta(
    after: &RegistrySnapshot,
    before: &RegistrySnapshot,
    name: &str,
) -> HistogramSnapshot {
    let mut delta = empty_histogram();
    let Some(a) = after.histogram(name) else {
        return delta;
    };
    let b = before.histogram(name);
    for &(index, n) in &a.counts {
        let earlier = b
            .and_then(|b| b.counts.iter().find(|(i, _)| *i == index))
            .map_or(0, |(_, n)| *n);
        if n > earlier {
            delta.counts.push((index, n - earlier));
        }
    }
    delta.count = a.count - b.map_or(0, |b| b.count);
    delta.sum = a.sum - b.map_or(0, |b| b.sum);
    delta
}

fn traced(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let half = args.seconds / 2.0;
    let tracer = Tracer::default();
    // Every layer is first measured by its replay, whichever workload runs.
    let mut values = std::collections::BTreeMap::new();
    let experiment = layers::experiment_layers(&tracer, args.seed);
    let record = layers::record_layers(&tracer, args.seed, work);
    let query = layers::query_layers(&tracer, args.seed);
    for metric in experiment.iter().chain(&record).chain(&query) {
        values.insert(metric.name, metric.value);
    }

    match kind_of(&args.workload) {
        None => {
            let plain = fig4::run(args.seed, half, None);
            let traced_run = fig4::run(args.seed, half, Some(&tracer));
            out.attempted = plain.attempted + traced_run.attempted;
            out.misses = plain.misses.clone();
            out.misses.extend(traced_run.misses.iter().cloned());
            let rate = |r: &fig4::Fig4Out| {
                let n: usize = r.sweep_s.iter().map(Vec::len).sum();
                n as f64 / r.sweep_s.iter().flatten().sum::<f64>()
            };
            values.insert(
                "trace.overhead_share",
                1.0 - rate(&traced_run) / rate(&plain),
            );
            let measurements = (fig4::PERMUTATIONS + 1) as f64;
            let none_mean = stats::mean(&traced_run.sweep_s[0]);
            let efficiency = measurements * values["experiment.measure_us"]
                / 1e6
                / (parallelism() as f64 * none_mean);
            out.report.push(format!(
                "{:<36} {efficiency:>14.4} ratio",
                "experiment.sweep_efficiency"
            ));
            // One synchronous sweep: the measurements of the largest script run one after
            // another, each documented by synchronous record calls.
            let (sync_mean, sync_n) = trace::mean_self_us(&tracer.spans(), "sync");
            let per_sweep = traced_run.assertions[2] as f64 / sync_n.max(1) as f64;
            let serial = fig4::PERMUTATIONS as f64 / measurements;
            let parts = vec![
                part("experiment.measure_us", &values, fig4::PERMUTATIONS as f64),
                part("core.sync_record_us", &values, per_sweep * serial),
            ];
            ledger(&mut out, &mut values, "sync sweep", sync_mean, &parts);
        }
        Some(kind) => {
            let answers = (kind == Kind::Mixed).then(|| record::corpus_answers(args.seed));
            // Untraced and traced windows alternate, each on a fresh deployment, so drift in
            // the machine's speed weighs on both sides alike.
            let window_count = record::WINDOWS / 2;
            let seconds = half / window_count as f64;
            let mut plain = Vec::new();
            let mut runs = Vec::new();
            for k in 0..window_count {
                for (traced_window, into) in [(false, &mut plain), (true, &mut runs)] {
                    let dir = work.join(format!("window-{k}-{traced_window}"));
                    let d = match record::deploy(kind, args.seed, &dir) {
                        Ok(d) => d,
                        Err(e) => {
                            out.misses.push(format!("setup: {e}"));
                            return out;
                        }
                    };
                    let tracer = traced_window.then_some(&tracer);
                    into.push(record::run(
                        kind,
                        &d,
                        args.seed,
                        seconds,
                        answers.as_deref(),
                        tracer,
                    ));
                    drop(d);
                    release_freed_memory();
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
            for run in plain.iter().chain(&runs) {
                out.attempted += run.attempted();
                out.misses.extend(run.failures());
            }
            let tput = |runs: &[record::RunOut]| {
                runs.iter().map(|r| r.acked()).sum::<u64>() as f64
                    / runs.iter().map(|r| r.window_s).sum::<f64>()
            };
            values.insert("trace.overhead_share", 1.0 - tput(&runs) / tput(&plain));

            let acked = runs.iter().map(|r| r.acked()).sum::<u64>().max(1) as f64;
            let delta = |name: &str| -> f64 {
                runs.iter()
                    .map(|r| r.after.counter_delta(&r.before, name) as f64)
                    .sum()
            };
            let hist = |name: &str| {
                let mut merged = empty_histogram();
                for r in &runs {
                    merged.merge(&hist_delta(&r.after, &r.before, name));
                }
                merged
            };
            // Layers the workload's own run crosses replace their replayed figures with the
            // run's: the router on every recording workload, net on the TCP ones, kvdb on
            // ingest_tcp and the feed on feed_tcp.
            if kind != Kind::Mixed {
                values.insert("net.client.connects", delta("net.client.connects"));
                values.insert("net.client.retries", delta("net.client.retries"));
                values.insert(
                    "net.client.pool_evictions",
                    delta("net.client.pool_evictions"),
                );
                values.insert(
                    "net.server.bytes_in_per_assertion",
                    runs.iter().map(|r| r.server_bytes_in).sum::<u64>() as f64 / acked,
                );
            }
            let batch = hist("router.flush.batch_size");
            values.insert(
                "router.flush.batch_size_mean",
                batch.sum as f64 / batch.count.max(1) as f64,
            );
            values.insert(
                "router.flush.batches_per_1k",
                delta("router.flush.batches") * 1000.0 / acked,
            );
            values.insert(
                "router.flush.merge_skips",
                delta("router.flush.merge_skips"),
            );
            let append = hist("kvdb.append_nanos");
            if append.count > 0 {
                values.insert("kvdb.append_p50_us", append.quantile(0.5) as f64 / 1e3);
                values.insert("kvdb.append_p99_us", append.quantile(0.99) as f64 / 1e3);
                out.report.push(format!(
                    "{:<36} {:>14} count",
                    "kvdb.fsyncs",
                    hist("kvdb.fsync_nanos").count
                ));
            }
            let kv_bytes: u64 = runs.iter().map(|r| r.kv_bytes).sum();
            if kv_bytes > 0 {
                values.insert(
                    "kvdb.bytes_per_user_byte",
                    kv_bytes as f64 / (acked * gen::PAYLOAD_BYTES as f64),
                );
            }
            let readers: Vec<&record::ReaderOut> =
                runs.iter().filter_map(|r| r.reader.as_ref()).collect();
            if !readers.is_empty() {
                let calls: usize = readers.iter().map(|r| r.latencies_us.len()).sum();
                let per_call =
                    readers.iter().map(|r| r.results).sum::<u64>() as f64 / calls.max(1) as f64;
                out.report.push(format!(
                    "{:<36} {per_call:>14.4} count",
                    "query.results_per_call"
                ));
            }
            let subs: Vec<&record::SubscriberOut> =
                runs.iter().filter_map(|r| r.subscriber.as_ref()).collect();
            if !subs.is_empty() {
                let polls = subs.iter().map(|s| s.polls).sum::<u64>().max(1) as f64;
                let poll_us: Vec<f64> = subs
                    .iter()
                    .flat_map(|s| s.poll_us.iter().copied())
                    .collect();
                let empty: u64 = subs.iter().map(|s| s.empty_polls).sum();
                let delivered: usize = subs.iter().map(|s| s.delivered.len()).sum();
                values.insert("feed.poll_us", stats::mean(&poll_us));
                values.insert("feed.empty_poll_share", empty as f64 / polls);
                values.insert("feed.events_per_poll", delivered as f64 / polls);
                let lag = hist("feed.delivery.lag_nanos");
                values.insert("feed.server_lag_p99_ms", lag.quantile(0.99) as f64 / 1e6);
                values.insert("feed.redelivery", delta("feed.redelivery"));
            }

            let (full, _) = trace::mean_self_us(&tracer.spans(), "record");
            // Record calls per router flush of one shard buffer.
            let batch_share = gen::RECORD_BATCH as f64
                / pasoa_cluster::ClusterConfig::default().batch_size as f64;
            let per = gen::RECORD_BATCH as f64;
            let parts = match kind {
                Kind::Ingest => vec![
                    part("core.pack_us", &values, 1.0),
                    part("wire.codec_roundtrip_us", &values, 1.0),
                    part("net.frame_roundtrip_us", &values, 1.0),
                    part("net.echo_rtt_us", &values, 1.0),
                    part("router.record_call_us", &values, 1.0),
                    part("router.replicated_flush_us", &values, batch_share),
                    part("kvdb.write_batch_us", &values, 2.0),
                ],
                Kind::Feed => vec![
                    part("core.pack_us", &values, 1.0),
                    part("wire.codec_roundtrip_us", &values, 1.0),
                    part("net.frame_roundtrip_us", &values, 1.0),
                    part("net.echo_rtt_us", &values, 1.0),
                    part("router.record_call_us", &values, 1.0),
                    part("router.flush_us", &values, batch_share),
                    part("feed.stage_us", &values, per),
                ],
                Kind::Mixed => vec![
                    LedgerPart {
                        layer: "wire.xml_roundtrip (16 assertions)".into(),
                        mean_us: layers::layer_us(&tracer, "wire.xml_roundtrip16"),
                        per_call: 1.0,
                    },
                    part("core.pack_us", &values, 1.0),
                    part("router.record_call_us", &values, 1.0),
                    part("router.flush_us", &values, batch_share),
                ],
            };
            ledger(&mut out, &mut values, "record call", full, &parts);
        }
    }
    for (name, unit) in PER_LAYER {
        let value = values[name];
        out.report.push(format!("{name:<36} {value:>14.4} {unit}"));
        out.metric(name, value, unit);
    }
    out
}

fn part(name: &str, values: &std::collections::BTreeMap<&str, f64>, per_call: f64) -> LedgerPart {
    LedgerPart {
        layer: name.to_string(),
        mean_us: values[name],
        per_call,
    }
}

fn ledger(
    out: &mut Outcome,
    values: &mut std::collections::BTreeMap<&str, f64>,
    call: &str,
    full_us: f64,
    parts: &[LedgerPart],
) {
    out.report
        .push(format!("ledger: mean traced {call} {full_us:.3} us"));
    for p in parts {
        out.report.push(format!(
            "  {:<34} {:>12.3} us x {:>8.3} = {:>12.3} us",
            p.layer,
            p.mean_us,
            p.per_call,
            p.mean_us * p.per_call
        ));
    }
    values.insert(
        "ledger.unattributed_share",
        trace::unattributed_share(full_us, parts),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units this program prints are exactly those BENCHMARK.json lists.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let field = |value: &serde_json::Value, key: &str| -> serde_json::Value {
            value
                .as_object()
                .and_then(|o| o.get(key))
                .cloned()
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        };
        let text_of = |value: &serde_json::Value, key: &str| -> String {
            field(value, key).as_str().expect("a string").to_string()
        };
        let listed = |key: &str| -> Vec<(String, String)> {
            field(&json, key)
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| (text_of(m, "name"), text_of(m, "unit")))
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        for workload in field(&json, "workloads").as_array().expect("workloads") {
            let name = text_of(workload, "name");
            assert!(
                WORKLOADS.contains(&name.as_str()),
                "BENCHMARK.json lists unknown workload {name}"
            );
        }
    }
}
