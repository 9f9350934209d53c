//! `serve_soak` and `serve_churn`: the prediction service under open-loop
//! traffic.
//!
//! Both run [`ServeEngine::run`] with [`ServeConfig::paper_default`] on a
//! two-thread pool. Each kind of operation is one batch of requests built
//! from the seed; requests arrive on a schedule fixed by the batch, so a
//! request's latency counts from when it was due.
//!
//! * Soak: [`WorkloadSpec::soak`] — 24 hot PCs per ASID, four ASIDs per
//!   hardware thread, arrival bursts — at half its arrival rate and half
//!   its burst length, so the bursts fill the shard queues without
//!   overflowing them and no request is shed. Prediction reads dominate.
//! * Churn: 64 ASIDs per hardware thread, a switch every
//!   [`CHURN_SWITCH_PERIOD`] requests, no bursts. Most requests pay a
//!   context switch, i.e. key renewal plus retraining.

use bp_common::pool::Pool;
use bp_common::Asid;
use bp_serve::{
    synth_requests, Request, Response, ServeConfig, ServeEngine, ServeReport, WorkloadSpec,
};
use hybp::SecureBpu;

use crate::spans::Tracer;
use crate::stats::{debug_digest, median, percentile_rank};
use crate::{Finish, OpOutcome, Workload};

/// Request batches, one kind of operation each.
const BATCHES: u64 = 4;

/// Requests per soak batch (about 20 ms of serving per operation).
const SOAK_REQUESTS: u64 = 24_000;

/// Requests per churn batch (about 30 ms: most requests renew keys).
const CHURN_REQUESTS: u64 = 1_000;

/// Mean cycles between soak arrivals outside bursts (`WorkloadSpec::soak`
/// has 48, which sheds about 0.75% of requests on `paper_default`'s queues).
const SOAK_INTERARRIVAL: u64 = 96;

/// Arrivals per soak burst (`WorkloadSpec::soak` has 24). With
/// [`SOAK_INTERARRIVAL`], queue depth peaked at 20 of 32 over 304 seeds.
const SOAK_BURST_LEN: u64 = 12;

/// ASIDs cycled per hardware thread under churn.
const CHURN_ASIDS: u16 = 64;

/// Requests between ASID switches under churn. Request ids alternate
/// between the two hardware threads, so an odd period switches both.
const CHURN_SWITCH_PERIOD: u64 = 3;

/// Worker threads: the machine's two cores.
const POOL_THREADS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    Soak,
    Churn,
}

impl Traffic {
    fn spec(self, seed: u64) -> WorkloadSpec {
        match self {
            Traffic::Soak => WorkloadSpec {
                mean_interarrival: SOAK_INTERARRIVAL,
                burst_len: SOAK_BURST_LEN,
                ..WorkloadSpec::soak(SOAK_REQUESTS, seed)
            },
            Traffic::Churn => WorkloadSpec {
                requests: CHURN_REQUESTS,
                asids_per_thread: CHURN_ASIDS,
                switch_period: CHURN_SWITCH_PERIOD,
                burst_period: 0,
                burst_len: 0,
                ..WorkloadSpec::soak(CHURN_REQUESTS, seed)
            },
        }
    }
}

struct Batch {
    requests: Vec<Request>,
    /// The batch split by shard, in the engine's routing.
    by_shard: Vec<Vec<Request>>,
}

pub struct Serve {
    engine: ServeEngine,
    /// One-shard engine that serves a single shard's routed subset, so
    /// the traced run can time each shard's work alone.
    single: ServeEngine,
    pool: Pool,
    batches: Vec<Batch>,
    refs: Vec<Option<ServeReport>>,
    problems: Vec<String>,
    /// Per traced operation: each shard's busy seconds.
    shard_busy: Vec<Vec<f64>>,
    replayed_branches: u64,
    replayed_switches: u64,
    /// BPU counters of one outside replay of every batch.
    replay_stats: Vec<Option<hybp::BpuStats>>,
}

impl Serve {
    pub fn setup(traffic: Traffic, seed: u64) -> Result<Serve, String> {
        Serve::with_specs(
            (0..BATCHES)
                .map(|b| traffic.spec(seed.wrapping_mul(BATCHES).wrapping_add(b)))
                .collect(),
        )
    }

    /// One batch, and one kind of operation, per spec.
    fn with_specs(specs: Vec<WorkloadSpec>) -> Result<Serve, String> {
        let config = ServeConfig::paper_default();
        let engine = ServeEngine::new(config.clone()).map_err(|e| e.to_string())?;
        let single = ServeEngine::new(ServeConfig {
            shards: 1,
            ..config
        })
        .map_err(|e| e.to_string())?;
        let batches: Vec<Batch> = specs
            .iter()
            .map(|spec| {
                let requests = synth_requests(spec);
                let mut by_shard = vec![Vec::new(); engine.config().shards];
                for r in &requests {
                    by_shard[engine.route(r.hw, r.asid)].push(*r);
                }
                Batch { requests, by_shard }
            })
            .collect();
        Ok(Serve {
            engine,
            single,
            pool: Pool::new(POOL_THREADS),
            refs: batches.iter().map(|_| None).collect(),
            replay_stats: batches.iter().map(|_| None).collect(),
            batches,
            problems: Vec::new(),
            shard_busy: Vec::new(),
            replayed_branches: 0,
            replayed_switches: 0,
        })
    }

    /// Traced run: times routing, each shard's subset alone, and a replay
    /// of each shard's branches through a bare BPU with key renewal on
    /// every ASID change.
    fn trace_layers(&mut self, kind: usize, tracer: &mut Tracer) {
        let batch = &self.batches[kind];
        let engine = &self.engine;
        tracer.time("serve.route", || {
            for r in &batch.requests {
                std::hint::black_box(engine.route(r.hw, r.asid));
            }
        });
        let mut busy = Vec::with_capacity(batch.by_shard.len());
        for subset in &batch.by_shard {
            let t = std::time::Instant::now();
            let open = tracer.enter("serve.shard");
            std::hint::black_box(self.single.run(subset, &Pool::serial()));
            tracer.exit(open);
            busy.push(t.elapsed().as_secs_f64());
        }
        self.shard_busy.push(busy);

        let cfg = engine.config();
        let mut stats = hybp::BpuStats::default();
        for subset in &batch.by_shard {
            let mut bpu = SecureBpu::new(cfg.mechanism, cfg.hw_threads, cfg.seed)
                .expect("mechanism validated by the engine");
            let mut asids: Vec<Option<Asid>> = vec![None; cfg.hw_threads];
            let open = tracer.enter("bpu.process");
            for (i, r) in subset.iter().enumerate() {
                let now = r.submitted_at + i as u64;
                let slot = &mut asids[r.hw.index() % cfg.hw_threads];
                if *slot != Some(r.asid) {
                    *slot = Some(r.asid);
                    tracer.time("keys.switch", || bpu.on_context_switch(r.hw, r.asid, now));
                    self.replayed_switches += 1;
                }
                std::hint::black_box(bpu.process_branch(r.hw, &r.record, now));
            }
            tracer.exit(open);
            self.replayed_branches += subset.len() as u64;
            let s = bpu.observation().stats;
            stats.branches += s.branches;
            stats.direction_mispredicts += s.direction_mispredicts;
            stats.target_mispredicts += s.target_mispredicts;
            for l in 0..3 {
                stats.btb_hits[l] += s.btb_hits[l];
            }
            stats.btb_misses += s.btb_misses;
            stats.context_switches += s.context_switches;
            stats.predictions_during_refresh += s.predictions_during_refresh;
        }
        self.replay_stats[kind].get_or_insert(stats);
    }
}

/// Instructions the answered requests stand for: each branch plus the
/// `gap` non-branch instructions before it.
fn answered_instructions(requests: &[Request], report: &ServeReport) -> u64 {
    requests
        .iter()
        .zip(&report.responses)
        .filter(|(_, resp)| matches!(resp, Response::Answered { .. }))
        .map(|(req, _)| u64::from(req.record.gap) + 1)
        .sum()
}

impl Workload for Serve {
    fn kinds(&self) -> usize {
        self.batches.len()
    }

    fn primary_span(&self) -> &'static str {
        "serve.run"
    }

    /// Two pool threads: how fast an operation runs depends on how its threads
    /// are scheduled, and the fastest operations are rare; the median
    /// repeats.
    fn steady_quantile(&self) -> f64 {
        0.5
    }

    fn run_op(&mut self, kind: usize, tracer: &mut Tracer) -> OpOutcome {
        let batch = &self.batches[kind];
        let report = tracer.time("serve.run", || self.engine.run(&batch.requests, &self.pool));
        if !report.accounting_exact() {
            self.problems
                .push(format!("batch {kind}: submitted != answered + shed + lost"));
        }
        let totals = report.totals();
        let out = OpOutcome {
            instructions: answered_instructions(&batch.requests, &report),
            attempted: totals.submitted,
            failed: totals.shed + totals.lost,
            calls_s: Vec::new(),
        };
        match &self.refs[kind] {
            None => self.refs[kind] = Some(report),
            Some(r) if *r == report => {}
            Some(_) => self.problems.push(format!(
                "batch {kind}: responses differ from the first run's"
            )),
        }
        if tracer.enabled() {
            self.trace_layers(kind, tracer);
        }
        out
    }

    fn finish(&mut self, rounds: u64, tracer: &mut Tracer) -> Finish {
        let serial = Pool::new(1);
        let mut latencies = Vec::new();
        let mut mispredicted = 0;
        let mut instr = 0;
        let mut digests = Vec::new();
        let mut layers: Vec<(&'static str, f64)> = Vec::new();
        let mut add = |name: &'static str, v: u64| match layers.iter_mut().find(|(n, _)| *n == name)
        {
            Some((_, x)) => *x += v as f64,
            None => layers.push((name, v as f64)),
        };
        let mut queue_peak = 0;
        for (kind, (batch, report)) in self.batches.iter().zip(&self.refs).enumerate() {
            let Some(report) = report else { continue };
            if self.engine.run(&batch.requests, &serial) != *report {
                self.problems.push(format!(
                    "batch {kind}: responses differ between pool sizes 1 and {POOL_THREADS}"
                ));
            }
            for r in &report.responses {
                if let Response::Answered { latency, .. } = r {
                    latencies.push(*latency);
                }
            }
            let t = report.totals();
            mispredicted += t.mispredicted;
            instr += answered_instructions(&batch.requests, report);
            digests.push(debug_digest(report));
            for s in &report.shards {
                add("serve.answered", s.answered);
                add("serve.shed_overload", s.shed_overload);
                add("serve.shed_deadline", s.shed_deadline);
                add("serve.lost", s.lost);
                add("serve.restarts", s.restarts);
                add("serve.snapshots_written", s.snapshots_written);
                queue_peak = queue_peak.max(s.queue_depth.peak());
            }
        }
        layers.push(("serve.queue_depth_peak", queue_peak as f64));
        layers.push(("serve_p99_cycles", percentile_rank(&latencies, 99.0) as f64));
        if tracer.enabled() {
            let stats: Vec<&hybp::BpuStats> = self.replay_stats.iter().flatten().collect();
            let sum =
                |f: fn(&hybp::BpuStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
            let requests: u64 = self.batches.iter().map(|b| b.requests.len() as u64).sum();
            let route_s = tracer.total_s("serve.route");
            let bpu_s = tracer.self_s("bpu.process");
            let keys_s = tracer.total_s("keys.switch");
            let busy_max: Vec<f64> = self
                .shard_busy
                .iter()
                .map(|b| b.iter().copied().fold(0.0, f64::max))
                .collect();
            let busy_mean: Vec<f64> = self
                .shard_busy
                .iter()
                .map(|b| b.iter().sum::<f64>() / b.len() as f64)
                .collect();
            let imbalance: Vec<f64> = busy_max
                .iter()
                .zip(&busy_mean)
                .map(|(m, a)| m / a)
                .collect();
            let busy_total: f64 = self.shard_busy.iter().flatten().sum();
            let switch_us = keys_s * 1e6 / self.replayed_switches.max(1) as f64;
            layers.extend([
                ("bpu.branches", sum(|s| s.branches)),
                (
                    "bpu.direction_mispredicts",
                    sum(|s| s.direction_mispredicts),
                ),
                ("bpu.target_mispredicts", sum(|s| s.target_mispredicts)),
                ("bpu.btb_l0_hits", sum(|s| s.btb_hits[0])),
                ("bpu.btb_l1_hits", sum(|s| s.btb_hits[1])),
                ("bpu.btb_l2_hits", sum(|s| s.btb_hits[2])),
                ("bpu.btb_misses", sum(|s| s.btb_misses)),
                (
                    "bpu.predictions_during_refresh",
                    sum(|s| s.predictions_during_refresh),
                ),
                ("keys.switches", sum(|s| s.context_switches)),
                (
                    "bpu.process_ns_per_branch",
                    bpu_s * 1e9 / self.replayed_branches.max(1) as f64,
                ),
                ("keys.switch_us", switch_us),
                ("keys.refresh_share", keys_s / (keys_s + bpu_s)),
                (
                    "serve.route_ns_per_request",
                    route_s * 1e9 / (requests * rounds) as f64,
                ),
                ("serve.shard_busy_s_max", median(&busy_max)),
                ("serve.shard_busy_s_mean", median(&busy_mean)),
                ("serve.shard_imbalance", median(&imbalance)),
                (
                    "pool.parallel_efficiency",
                    busy_total / (POOL_THREADS as f64 * tracer.total_s("serve.run")),
                ),
            ]);
        }
        Finish {
            sim_mpki: mispredicted as f64 * 1000.0 / instr.max(1) as f64,
            digest: debug_digest(&digests),
            layers,
            problems: std::mem::take(&mut self.problems),
            notes: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's soak traffic stays within the engine's queues: no
    /// request is shed or lost, whatever the seed.
    #[test]
    fn soak_traffic_sheds_nothing() {
        for seed in [0, 1, 7, 1001, 2001, u64::MAX / 3] {
            let mut serve = Serve::setup(Traffic::Soak, seed).unwrap();
            for kind in 0..serve.kinds() {
                let out = serve.run_op(kind, &mut Tracer::new(false));
                assert_eq!(out.failed, 0, "seed {seed}, batch {kind}");
                assert_eq!(out.attempted, SOAK_REQUESTS);
            }
        }
    }

    /// A shed request is a failed request: on the library's soak traffic
    /// (twice the arrival rate, bursts of 24) the queues overflow, and the
    /// operation's failed count is exactly the shed and lost requests.
    #[test]
    fn shed_requests_count_as_failed() {
        let mut serve = Serve::with_specs(vec![WorkloadSpec::soak(SOAK_REQUESTS, 1)]).unwrap();
        let out = serve.run_op(0, &mut Tracer::new(false));
        let fin = serve.finish(1, &mut Tracer::new(false));
        assert!(fin.problems.is_empty(), "{:?}", fin.problems);
        let report = serve.refs[0].as_ref().unwrap();
        let totals = report.totals();
        assert!(totals.shed > 0, "soak bursts shed requests");
        assert_eq!(out.failed, totals.shed + totals.lost);
        assert_eq!(out.attempted, totals.submitted);
    }
}
