//! `hybench` — the HyBP workspace's end-to-end benchmark.
//!
//! ```text
//! hybench --workload <sim_spec|serve_soak|serve_churn|trace_sampled>
//!         --seed <n> --seconds <s> --trace <0|1> [--series <file>]
//! ```
//!
//! One process runs one workload. Set-up builds the inputs from the seed
//! (repeatedly; `setup_s` is the median), then the timed loop runs the
//! workload's kinds of operation round-robin until `--seconds` have passed,
//! checking every operation's output. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and the metrics —
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
//! Every metric is also printed on its own line before it, as
//! `metric <name> <value> <unit>`.
//!
//! Host time on a shared machine moves in phases lasting seconds (see
//! `NOTES.md`), so throughput is not total work over total time: it is
//! taken at a quantile of each kind's per-operation host times that
//! repeats across phases — the fastest operation for single-threaded
//! work, the median for work on the thread pool. `--series` writes every
//! operation's host time, the evidence behind that choice.

// A benchmark's instrument is the host clock; no simulated result here
// depends on it (the workspace bans `Instant` from result paths).
#![allow(clippy::disallowed_types)]

mod serve;
mod sim_spec;
mod spans;
mod stats;
mod trace_sampled;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Tracer;

/// Set-up repetitions before the timed loop; the last one's workload is the
/// one measured.
const SETUP_REPS: usize = 3;

/// Share of the timed loop's host time spent on further set-up repetitions,
/// one after a round whenever set-up is below this share. `setup_s` is the
/// median of all repetitions, so a cheap set-up is sampled across the run's
/// host phases instead of at the one moment before the loop.
const SETUP_SHARE: f64 = 0.025;

/// End-to-end metrics, reported with `--trace 0` by every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("sim_mpki", "mpki"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`. A layer a workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.gen_ns_per_branch", "ns"),
    ("workloads.branches", "count"),
    ("bpu.process_ns_per_branch", "ns"),
    ("bpu.branches", "count"),
    ("bpu.direction_mispredicts", "count"),
    ("bpu.target_mispredicts", "count"),
    ("bpu.btb_l0_hits", "count"),
    ("bpu.btb_l1_hits", "count"),
    ("bpu.btb_l2_hits", "count"),
    ("bpu.btb_misses", "count"),
    ("bpu.predictions_during_refresh", "count"),
    ("keys.switch_us", "us"),
    ("keys.switches", "count"),
    ("keys.refresh_share", "ratio"),
    ("pipeline.self_s", "s"),
    ("pipeline.host_ns_per_cycle", "ns"),
    ("pipeline.sim_cycles", "cycles"),
    ("stages.fetch_idle_cycles", "cycles"),
    ("stages.redirect_stall_cycles", "cycles"),
    ("stages.btb_stall_cycles", "cycles"),
    ("stages.ctx_switch_stall_cycles", "cycles"),
    ("pipeline.sampled_replay_s", "s"),
    ("pipeline.full_replay_s", "s"),
    ("pipeline.replayed_instructions", "count"),
    ("pipeline.sampled_coverage", "ratio"),
    ("trace.encode_records_per_s", "1/s"),
    ("trace.decode_records_per_s", "1/s"),
    ("trace.sample_s", "s"),
    ("trace.windows_total", "count"),
    ("trace.windows_selected", "count"),
    ("trace.peak_buffered_records", "count"),
    ("trace.chunks_skipped", "count"),
    ("serve.route_ns_per_request", "ns"),
    ("serve.shard_busy_s_max", "s"),
    ("serve.shard_busy_s_mean", "s"),
    ("serve.shard_imbalance", "ratio"),
    ("serve.answered", "count"),
    ("serve.shed_overload", "count"),
    ("serve.shed_deadline", "count"),
    ("serve.lost", "count"),
    ("serve.restarts", "count"),
    ("serve.snapshots_written", "count"),
    ("serve.queue_depth_peak", "count"),
    ("serve_p99_cycles", "cycles"),
    ("sampled_mpki_error", "mpki"),
    ("sampled.bound_misses", "count"),
    ("pool.parallel_efficiency", "ratio"),
    ("tracing.overhead_pct", "%"),
];

/// What one timed operation did.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutcome {
    /// Simulated instructions the operation covers.
    pub instructions: u64,
    /// Units of work attempted: requests for serve, 1 otherwise.
    pub attempted: u64,
    /// Units of work that failed: a shed or lost request, or an operation
    /// that returned an error.
    pub failed: u64,
    /// Host seconds of each call the operation made into the program, for
    /// an operation of several calls; empty when the operation is one call.
    pub calls_s: Vec<f64>,
}

/// What a workload reports after the timed loop.
pub struct Finish {
    /// Mispredictions per 1000 simulated instructions (deterministic).
    pub sim_mpki: f64,
    /// Digest of every simulated statistic (deterministic, and identical
    /// between the traced and untraced runs).
    pub digest: u64,
    /// Per-layer metrics by name (traced run; counts in both runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Correctness violations found during or after the loop.
    pub problems: Vec<String>,
    /// Deterministic facts worth a line of output (one per line).
    pub notes: Vec<String>,
}

/// One benchmark workload: a fixed set of operation kinds over inputs
/// built from the seed.
pub trait Workload {
    /// Number of kinds of operation, run round-robin.
    fn kinds(&self) -> usize;
    /// Span around the workload's own call into the program in each
    /// operation; everything else a traced operation does is tracing cost.
    fn primary_span(&self) -> &'static str;
    /// Quantile of each kind's per-operation host times taken as its
    /// steady time (`NOTES.md`, "Choosing the per-run statistic").
    fn steady_quantile(&self) -> f64;
    /// Runs one operation of kind `kind` and checks its output.
    fn run_op(&mut self, kind: usize, tracer: &mut Tracer) -> OpOutcome;
    /// Cross-checks and deterministic statistics after the timed loop,
    /// which completed `rounds` rounds (one operation of every kind each).
    fn finish(&mut self, rounds: u64, tracer: &mut Tracer) -> Finish;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    series: Option<PathBuf>,
}

const USAGE: &str = "usage: hybench --workload <sim_spec|serve_soak|serve_churn|trace_sampled> \
--seed <n> --seconds <s> --trace <0|1> [--series <file>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut series = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--series" => series = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?.max(1),
        trace: trace.ok_or_else(|| missing("--trace"))?,
        series,
    })
}

/// Builds the workload's inputs and engines.
fn setup(
    name: &str,
    seed: u64,
    work_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim_spec" => Box::new(sim_spec::SimSpec::setup(seed)?),
        "serve_soak" => Box::new(serve::Serve::setup(serve::Traffic::Soak, seed)?),
        "serve_churn" => Box::new(serve::Serve::setup(serve::Traffic::Churn, seed)?),
        "trace_sampled" => Box::new(trace_sampled::TraceSampled::setup(seed, work_dir, tracer)?),
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    })
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<String, String> {
    let work_dir = PathBuf::from(".bench_work");
    let run_dir = work_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = measure(args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let (text, tracer) = result?;
    if args.trace {
        let path = work_dir.join(format!("spans-{}.jsonl", args.workload));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(text)
}

fn measure(args: &Args, run_dir: &Path) -> Result<(String, Tracer), String> {
    let mut tracer = Tracer::new(args.trace);

    let mut setup_times = Vec::new();
    let mut timed_setup = |tracer: &mut Tracer| {
        let dir = run_dir.join(format!("setup-{}", setup_times.len()));
        let t0 = Instant::now();
        let w = setup(&args.workload, args.seed, &dir, tracer);
        setup_times.push(t0.elapsed().as_secs_f64());
        w.map(|w| (w, dir))
    };
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        workload = Some(timed_setup(&mut tracer)?.0);
    }
    let mut workload = workload.expect("SETUP_REPS is positive");
    let kinds = workload.kinds();

    let budget = Duration::from_secs(args.seconds);
    // Per kind, per operation: host seconds of each call (or of the whole
    // operation when it is one call).
    let mut host_s: Vec<Vec<Vec<f64>>> = vec![Vec::new(); kinds];
    let mut instructions: Vec<Option<u64>> = vec![None; kinds];
    let mut series = String::new();
    let (mut attempted, mut failed, mut rounds) = (0u64, 0u64, 0u64);
    let mut problems = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut extra_setup_s = 0.0;
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < budget {
        for (kind, times) in host_s.iter_mut().enumerate() {
            let t0 = Instant::now();
            let open = tracer.enter("op");
            let out = workload.run_op(kind, &mut tracer);
            tracer.exit(open);
            let dt = t0.elapsed().as_secs_f64();
            series.push_str(&format!("{:.6} {kind} {dt:.9}", (t0 - start).as_secs_f64()));
            for c in &out.calls_s {
                series.push_str(&format!(" {c:.9}"));
            }
            series.push('\n');
            times.push(if out.calls_s.is_empty() {
                vec![dt]
            } else {
                out.calls_s
            });
            attempted += out.attempted;
            failed += out.failed;
            match instructions[kind] {
                None => instructions[kind] = Some(out.instructions),
                Some(n) if n != out.instructions => problems.push(format!(
                    "kind {kind}: {} simulated instructions, first operation had {n}",
                    out.instructions
                )),
                Some(_) => {}
            }
        }
        rounds += 1;
        if rounds == 1 {
            // Memory of set-up plus one operation of every kind. Later
            // rounds repeat the same work; the process's high-water mark
            // after many of them depends on when the pool's threads exit.
            peak_rss_mb = peak_rss();
        }
        if extra_setup_s < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t0 = Instant::now();
            let (extra, dir) = timed_setup(&mut tracer)?;
            drop(extra);
            let _ = std::fs::remove_dir_all(dir);
            extra_setup_s += t0.elapsed().as_secs_f64();
        }
    }
    let steady_round_s = steady_round_s(&host_s, workload.steady_quantile());
    let round_instructions: u64 = instructions.iter().map(|n| n.unwrap_or(0)).sum();
    let fin = workload.finish(rounds, &mut tracer);
    problems.extend(fin.problems);
    if let Some(path) = &args.series {
        std::fs::write(path, series).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let primary = tracer.total_s(workload.primary_span());
        let ops = tracer.total_s("op");
        let mut layers = fin.layers;
        layers.push(("tracing.overhead_pct", (ops / primary - 1.0) * 100.0));
        for (name, unit) in PER_LAYER {
            let value = layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metrics.push((name, value, unit));
        }
    } else {
        let values = [
            stats::median(&setup_times),
            round_instructions as f64 / steady_round_s / 1e6,
            fin.sim_mpki,
            peak_rss_mb,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }

    let mut text = String::new();
    for p in &problems {
        text.push_str(&format!("problem {p}\n"));
    }
    for n in &fin.notes {
        text.push_str(&format!("note {n}\n"));
    }
    text.push_str(&format!("digest {:016x}\n", fin.digest));
    for (name, value, unit) in &metrics {
        text.push_str(&format!("metric {name} {value} {unit}\n"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    text.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}\n",
        problems.is_empty(),
        attempted.max(1),
        body.join(", ")
    ));
    Ok((text, tracer))
}

/// Steady host time of one round (one operation of every kind): the sum,
/// over kinds and over the calls of an operation, of the `q`-quantile of
/// the host times seen.
fn steady_round_s(host_s: &[Vec<Vec<f64>>], q: f64) -> f64 {
    let mut total = 0.0;
    for ops in host_s {
        let calls = ops.first().map_or(0, Vec::len);
        for call in 0..calls {
            let times: Vec<f64> = ops.iter().filter_map(|op| op.get(call).copied()).collect();
            total += stats::quantile(&times, q);
        }
    }
    total
}

/// Frees one large block at start-up, so that glibc's malloc raises its
/// dynamic mmap threshold to the ceiling (32 MiB) before any work instead
/// of at a point that depends on the order of the workload's frees. Until
/// it moves, buffers of a few MiB are mapped and unmapped; after, they come
/// from the heap. Left to move on its own, the threshold made peak memory
/// of identical work differ by up to 60% between seeds (`trace_sampled`:
/// 9.5–15.4 MiB). The block is never touched, so it is never resident.
fn settle_allocator() {
    let block: Vec<u8> = Vec::with_capacity((32 << 20) - (64 << 10));
    drop(std::hint::black_box(block));
}

/// A finite JSON number (non-finite values, which JSON cannot hold,
/// become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    settle_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hybench: {e}");
            ExitCode::FAILURE
        }
    }
}
