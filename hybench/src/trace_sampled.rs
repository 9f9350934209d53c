//! `trace_sampled`: phase-sampled replay of recorded SPEC traces.
//!
//! Set-up records [`TRACES`] phase-alternating traces from the benchmark
//! seed through the trace store's writer. They have the `bench_sampling`
//! shape (four profiles cycling every eight windows, about 200 windows,
//! two warm-up windows) at 3/40 of its scale, so one operation takes tens
//! of milliseconds and holds a few MiB. Each operation decodes one trace
//! strictly, builds its phase plan and runs the sampled replay.
//!
//! After the timed loop every trace is replayed in full once, and so is the
//! exact trace `bench_sampling --instructions 20000000` records, whose
//! sampled estimate is known to miss its own bound. An estimate further
//! from the full replay than its own reported bound is a defect of the
//! estimator, not a failed operation: it is counted in
//! `sampled.bound_misses` and named on a `note` line.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bench::phased_records;
use bp_pipeline::{
    stream_name, stream_seed, ReplayEstimate, SampledEstimate, SimConfig, Simulation,
};
use bp_trace::{PhasePlan, SamplingSpec, TraceSession, TraceStore, DEFAULT_CHUNK_RECORDS};
use bp_workloads::profile::SpecBenchmark;
use hybp::Mechanism;

use crate::spans::Tracer;
use crate::stats::debug_digest;
use crate::{Finish, OpOutcome, Workload};

/// Seeded traces, one kind of operation each. The cost of a sampled
/// replay depends on which phases its plan picks: one trace's replay took
/// 10.6–23.2 ms across seeds at 3M instructions, so a round sums many
/// traces for its cost to vary little from seed to seed.
const TRACES: u64 = 8;

/// Instructions per seeded trace: 3/40 of the known-defect trace.
const TRACE_INSTRUCTIONS: u64 = 1_500_000;

/// Sampling window of the seeded traces: 3/40 of the default, so a seeded
/// trace has as many windows as the known-defect trace.
const TRACE_WINDOW: u64 = 7_500;

/// Instructions of the known-defect trace: the length at which
/// `bench_sampling` reports an estimate outside its own bound.
const DEFECT_INSTRUCTIONS: u64 = 20_000_000;

/// Master seed `bench_sampling` records and replays under
/// (`SimConfig::default_run().seed`).
const KNOWN_DEFECT_SEED: u64 = 0x5EED;

/// Phases the traces cycle through (as `bench_sampling`).
const PHASES: [SpecBenchmark; 4] = [
    SpecBenchmark::Mcf,
    SpecBenchmark::Xz,
    SpecBenchmark::Lbm,
    SpecBenchmark::Deepsjeng,
];

/// Benchmark the stream is stored under; the phases set its content.
const STREAM_BENCH: SpecBenchmark = SpecBenchmark::Mcf;

/// Sampling spec (as `bench_sampling`): the default with two warm-up
/// windows, over windows of `window` instructions.
fn spec(window: u64) -> SamplingSpec {
    SamplingSpec {
        window,
        warmup: 2,
        ..SamplingSpec::default()
    }
}

/// One recorded trace.
struct Shape {
    dir: PathBuf,
    /// Master seed of the simulated run: names the stream and seeds the BPU.
    cfg: SimConfig,
    spec: SamplingSpec,
    records: u64,
}

impl Shape {
    /// Records a phased trace of `instructions` under master seed `master`
    /// into `dir`.
    fn record(
        dir: PathBuf,
        master: u64,
        instructions: u64,
        window: u64,
        tracer: &mut Tracer,
    ) -> Result<Shape, String> {
        let cfg = SimConfig {
            seed: master,
            ..SimConfig::default_run()
        };
        let session = TraceSession::open(&dir)
            .build()
            .map_err(|e| e.to_string())?;
        let stream_seed = stream_seed(master, 0, 0);
        let records = tracer.time("workloads.gen", || {
            phased_records(stream_seed, &PHASES, window * 8, instructions)
        });
        let written = tracer
            .time("trace.encode", || {
                session.store().save(
                    &stream_name(0, 0, STREAM_BENCH),
                    stream_seed,
                    &records,
                    DEFAULT_CHUNK_RECORDS,
                )
            })
            .map_err(|e| format!("recording trace (seed {master:#x}): {e}"))?;
        Ok(Shape {
            dir,
            cfg,
            spec: spec(window),
            records: written.records,
        })
    }

    fn builder(&self, store: &Arc<TraceStore>) -> bp_pipeline::SimulationBuilder {
        Simulation::builder(Mechanism::hybp_default(), self.cfg)
            .single_thread(STREAM_BENCH)
            .trace_store(Some(Arc::clone(store)))
    }

    /// Decode, plan and sampled replay; also returns the trace's
    /// instructions and each of the three calls' host seconds.
    fn sampled(&self, tracer: &mut Tracer) -> Result<(Reference, u64, Vec<f64>), String> {
        let session = TraceSession::open(&self.dir)
            .build()
            .map_err(|e| e.to_string())?;
        let store = session.store();
        let name = stream_name(0, 0, STREAM_BENCH);
        let mut calls_s = Vec::with_capacity(3);
        let mut t = Instant::now();
        let loaded = tracer
            .time("trace.decode", || {
                store.load(&name, stream_seed(self.cfg.seed, 0, 0))
            })
            .map_err(|e| format!("strict decode: {e}"))?;
        calls_s.push(t.elapsed().as_secs_f64());
        t = Instant::now();
        let (plan, stats) = tracer
            .time("trace.sample", || loaded.sample(&self.spec))
            .map_err(|e| format!("sampling: {e}"))?;
        calls_s.push(t.elapsed().as_secs_f64());
        t = Instant::now();
        let replay = self.builder(store).sampled_replay(plan.clone());
        let estimate = tracer
            .time("pipeline.sampled_replay", || replay.map(|r| r.run()))
            .map_err(|e| format!("sampled replay: {e}"))?
            .map_err(|e| format!("sampled replay: {e}"))?;
        calls_s.push(t.elapsed().as_secs_f64());
        let digest = debug_digest(&(&plan, &estimate));
        Ok((
            Reference {
                digest,
                plan,
                estimate,
                peak_buffered: stats.peak_buffered,
                chunks_skipped: loaded.health().chunks_skipped,
            },
            loaded.instructions(),
            calls_s,
        ))
    }

    /// Full replay of the trace, checked against the sampled estimate `r`:
    /// the full replay's counters and the estimate's error.
    fn check(&self, r: &Reference, tracer: &mut Tracer) -> Result<(ReplayEstimate, f64), String> {
        let session = TraceSession::open(&self.dir)
            .build()
            .map_err(|e| e.to_string())?;
        let replay = self
            .builder(session.store())
            .full_replay()
            .map_err(|e| format!("full replay: {e}"))?;
        let full = tracer.time("pipeline.full_replay", || replay.run());
        let error = (r.estimate.estimate.mpki() - full.mpki()).abs();
        Ok((full, error))
    }

    /// The `note` line of a checked estimate.
    fn note(&self, name: &str, r: &Reference, full_mpki: f64, error: f64) -> String {
        format!(
            "{name} (seed {:#x}): sampled {:.4} mpki, full {full_mpki:.4} mpki, error {error:.4}, bound {:.4}",
            self.cfg.seed,
            r.estimate.estimate.mpki(),
            r.estimate.error_bound_mpki
        )
    }
}

/// The deterministic result of the first operation on a trace.
struct Reference {
    digest: u64,
    plan: PhasePlan,
    estimate: SampledEstimate,
    peak_buffered: usize,
    chunks_skipped: u64,
}

pub struct TraceSampled {
    /// Set-up's directory; the known-defect trace is recorded under it
    /// after the timed loop.
    dir: PathBuf,
    shapes: Vec<Shape>,
    refs: Vec<Option<Reference>>,
    ops: Vec<u64>,
    problems: Vec<String>,
    /// Branch records generated and encoded by this set-up.
    generated: u64,
}

impl TraceSampled {
    pub fn setup(seed: u64, dir: &Path, tracer: &mut Tracer) -> Result<TraceSampled, String> {
        let shapes = (0..TRACES)
            .map(|k| {
                Shape::record(
                    dir.join(format!("trace-{k}")),
                    seed.wrapping_mul(TRACES).wrapping_add(k),
                    TRACE_INSTRUCTIONS,
                    TRACE_WINDOW,
                    tracer,
                )
            })
            .collect::<Result<Vec<Shape>, String>>()?;
        Ok(TraceSampled {
            dir: dir.to_path_buf(),
            refs: shapes.iter().map(|_| None).collect(),
            ops: vec![0; shapes.len()],
            generated: shapes.iter().map(|s| s.records).sum(),
            shapes,
            problems: Vec::new(),
        })
    }

    /// Records and checks the known-defect trace, untraced: its sampled
    /// estimate, full replay and error.
    fn known_defect(&self) -> Result<(Shape, Reference, ReplayEstimate, f64), String> {
        let mut untraced = Tracer::new(false);
        let shape = Shape::record(
            self.dir.join("known-defect"),
            KNOWN_DEFECT_SEED,
            DEFECT_INSTRUCTIONS,
            SamplingSpec::default().window,
            &mut untraced,
        )?;
        let (r, _, _) = shape.sampled(&mut untraced)?;
        let (full, error) = shape.check(&r, &mut untraced)?;
        Ok((shape, r, full, error))
    }
}

impl Workload for TraceSampled {
    fn kinds(&self) -> usize {
        self.shapes.len()
    }

    fn primary_span(&self) -> &'static str {
        "trace.op"
    }

    /// One thread, timed per call: slow host phases only add time, and the
    /// fastest of each call reaches the fast level.
    fn steady_quantile(&self) -> f64 {
        0.0
    }

    fn run_op(&mut self, kind: usize, tracer: &mut Tracer) -> OpOutcome {
        self.ops[kind] += 1;
        let open = tracer.enter("trace.op");
        let result = self.shapes[kind].sampled(tracer);
        tracer.exit(open);
        let (r, instructions, calls_s) = match result {
            Ok(x) => x,
            Err(e) => {
                self.problems.push(format!("trace {kind}: {e}"));
                return OpOutcome {
                    instructions: 0,
                    attempted: 1,
                    failed: 1,
                    calls_s: Vec::new(),
                };
            }
        };
        if r.chunks_skipped != 0 {
            self.problems.push(format!(
                "trace {kind}: strict decode skipped {} chunks",
                r.chunks_skipped
            ));
        }
        match &self.refs[kind] {
            None => self.refs[kind] = Some(r),
            Some(first) if first.digest == r.digest => {}
            Some(_) => self.problems.push(format!(
                "trace {kind}: plan or estimate differs from the first run's"
            )),
        }
        OpOutcome {
            instructions,
            attempted: 1,
            failed: 0,
            calls_s,
        }
    }

    fn finish(&mut self, rounds: u64, tracer: &mut Tracer) -> Finish {
        let mut bound_misses = 0u64;
        let mut errors = Vec::new();
        let mut notes = Vec::new();
        let (mut mispredicts, mut instructions) = (0, 0);
        let mut digests = Vec::new();
        for (kind, shape) in self.shapes.iter().enumerate() {
            let Some(r) = &self.refs[kind] else { continue };
            match shape.check(r, tracer) {
                Ok((full, error)) => {
                    notes.push(shape.note(&format!("trace {kind}"), r, full.mpki(), error));
                    bound_misses += u64::from(error > r.estimate.error_bound_mpki);
                    errors.push(error);
                    mispredicts += full.mispredicts;
                    instructions += full.instructions;
                    digests.push((r.digest, debug_digest(&full)));
                }
                Err(e) => self.problems.push(format!("trace {kind}: {e}")),
            }
        }
        match self.known_defect() {
            Ok((shape, r, full, error)) => {
                notes.push(shape.note("known defect", &r, full.mpki(), error));
                bound_misses += u64::from(error > r.estimate.error_bound_mpki);
                errors.push(error);
                digests.push((r.digest, debug_digest(&full)));
            }
            Err(e) => self.problems.push(format!("known-defect trace: {e}")),
        }
        let refs: Vec<&Reference> = self.refs.iter().flatten().collect();
        let sum = |f: fn(&Reference) -> u64| refs.iter().map(|r| f(r)).sum::<u64>() as f64;
        let mut layers = vec![
            (
                "sampled_mpki_error",
                errors.iter().sum::<f64>() / errors.len().max(1) as f64,
            ),
            ("sampled.bound_misses", bound_misses as f64),
            ("workloads.branches", self.generated as f64),
            (
                "pipeline.replayed_instructions",
                sum(|r| r.estimate.replayed_instructions),
            ),
            ("trace.windows_total", sum(|r| r.plan.total_windows)),
            (
                "trace.windows_selected",
                sum(|r| r.plan.selections.len() as u64),
            ),
            ("trace.chunks_skipped", sum(|r| r.chunks_skipped)),
            (
                "trace.peak_buffered_records",
                refs.iter().map(|r| r.peak_buffered).max().unwrap_or(0) as f64,
            ),
            (
                "pipeline.sampled_coverage",
                refs.iter().map(|r| r.estimate.coverage).sum::<f64>() / refs.len().max(1) as f64,
            ),
        ];
        if tracer.enabled() {
            let decoded: u64 = self
                .shapes
                .iter()
                .zip(&self.ops)
                .map(|(s, ops)| ops * s.records)
                .sum();
            let ops = rounds as f64 * self.shapes.len() as f64;
            let encoded = tracer.count("trace.encode") / self.shapes.len() as u64 * self.generated;
            layers.extend([
                (
                    "workloads.gen_ns_per_branch",
                    tracer.total_s("workloads.gen") * 1e9 / encoded as f64,
                ),
                (
                    "trace.encode_records_per_s",
                    encoded as f64 / tracer.total_s("trace.encode"),
                ),
                (
                    "trace.decode_records_per_s",
                    decoded as f64 / tracer.total_s("trace.decode"),
                ),
                ("trace.sample_s", tracer.total_s("trace.sample") / ops),
                (
                    "pipeline.sampled_replay_s",
                    tracer.total_s("pipeline.sampled_replay") / ops,
                ),
                (
                    "pipeline.full_replay_s",
                    tracer.total_s("pipeline.full_replay") / self.shapes.len() as f64,
                ),
            ]);
        }
        Finish {
            sim_mpki: mispredicts as f64 * 1000.0 / instructions.max(1) as f64,
            digest: debug_digest(&digests),
            layers,
            problems: std::mem::take(&mut self.problems),
            notes,
        }
    }
}
