//! `sim_spec`: whole-core simulations at the paper's 16M-cycle context-switch
//! interval.
//!
//! Nine kinds of operation: four SPEC profiles spanning IPC 1.1–3.7, each
//! under the unprotected baseline and HyBP, plus one Table V SMT pair under
//! HyBP. Each operation builds a [`Simulation`] and runs it to completion.
//! Successive operations of a kind cycle through [`VARIANTS`] master seeds:
//! each seed generates a different synthetic program, so the misprediction
//! rate averages over several programs per profile.
//! The cycle loop, the branch generator and predict/train do nearly all the
//! work; key renewal runs once per hardware thread per operation.

use bp_common::{Asid, HwThreadId};
use bp_pipeline::{stream_seed, RunMetrics, SimConfig, Simulation};
use bp_workloads::mixes::TABLE_V_MIXES;
use bp_workloads::profile::SpecBenchmark;
use bp_workloads::WorkloadGenerator;
use hybp::{Mechanism, SecureBpu};

use crate::spans::Tracer;
use crate::stats::debug_digest;
use crate::{Finish, OpOutcome, Workload};

/// Profiles run single-threaded, low to high IPC.
const PROFILES: [SpecBenchmark; 4] = [
    SpecBenchmark::Mcf,
    SpecBenchmark::Xalancbmk,
    SpecBenchmark::Deepsjeng,
    SpecBenchmark::Exchange2,
];

/// Table V mix run as the SMT kind (`mix7`, the `smt_mix` example's
/// default).
const SMT_MIX: usize = 6;

/// Master seeds (synthetic programs) per kind of operation.
const VARIANTS: u64 = 4;

/// Instructions each hardware thread retires before measuring. With
/// [`MEASURE_INSTRUCTIONS`] this keeps one operation between 5 and 40 ms,
/// so a run holds about a hundred operations of every kind.
const WARMUP_INSTRUCTIONS: u64 = 25_000;

/// Instructions each hardware thread retires while measured.
const MEASURE_INSTRUCTIONS: u64 = 75_000;

struct Kind {
    mechanism: Mechanism,
    /// One benchmark per hardware thread.
    threads: Vec<SpecBenchmark>,
}

/// The deterministic result of the first operation of a kind.
struct Reference {
    digest: u64,
    metrics: RunMetrics,
}

pub struct SimSpec {
    /// One configuration per variant; they differ only in the seed.
    cfgs: Vec<SimConfig>,
    kinds: Vec<Kind>,
    /// Variant the next operation of each kind runs.
    next_variant: Vec<usize>,
    /// Indexed by `kind * VARIANTS + variant`.
    refs: Vec<Option<Reference>>,
    problems: Vec<String>,
    /// Branches regenerated and replayed outside the simulator (traced run).
    replayed_branches: u64,
    /// Key renewals replayed outside the simulator (traced run).
    replayed_switches: u64,
    /// Simulated cycles over every operation (traced run).
    sim_cycles_all_ops: u64,
}

impl SimSpec {
    pub fn setup(seed: u64) -> Result<SimSpec, String> {
        let cfgs: Vec<SimConfig> = (0..VARIANTS)
            .map(|v| SimConfig {
                warmup_instructions: WARMUP_INSTRUCTIONS,
                measure_instructions: MEASURE_INSTRUCTIONS,
                seed: seed.wrapping_mul(VARIANTS).wrapping_add(v),
                ..SimConfig::default_run()
            })
            .collect();
        let mut kinds = Vec::new();
        for bench in PROFILES {
            for mechanism in [Mechanism::Baseline, Mechanism::hybp_default()] {
                kinds.push(Kind {
                    mechanism,
                    threads: vec![bench],
                });
            }
        }
        kinds.push(Kind {
            mechanism: Mechanism::hybp_default(),
            threads: TABLE_V_MIXES[SMT_MIX].pair.to_vec(),
        });
        // Build every engine once: configuration errors surface here, and
        // set-up pays for constructing each predictor and its keys.
        for kind in &kinds {
            for cfg in &cfgs {
                build(cfg, kind)?;
            }
        }
        Ok(SimSpec {
            refs: (0..kinds.len() * cfgs.len()).map(|_| None).collect(),
            next_variant: vec![0; kinds.len()],
            cfgs,
            kinds,
            problems: Vec::new(),
            replayed_branches: 0,
            replayed_switches: 0,
            sim_cycles_all_ops: 0,
        })
    }

    /// Runs the kind's streams through the generator and a fresh BPU
    /// outside the simulator, so the traced run can split host time
    /// between the generator, the predictor, key renewal and the cycle
    /// loop. Replays as many branches as the simulation processed.
    fn replay_layers(&mut self, kind: usize, variant: usize, branches: u64, tracer: &mut Tracer) {
        let k = &self.kinds[kind];
        let cfg = &self.cfgs[variant];
        let per_thread = (branches / k.threads.len() as u64) as usize;
        let mut streams = Vec::with_capacity(k.threads.len());
        for (hw, bench) in k.threads.iter().enumerate() {
            let mut gen = WorkloadGenerator::new(bench.profile(), stream_seed(cfg.seed, hw, 0));
            let mut records = Vec::with_capacity(per_thread);
            tracer.time("workloads.gen", || {
                for _ in 0..per_thread {
                    records.push(gen.next_branch());
                }
            });
            streams.push(records);
        }
        let mut bpu = SecureBpu::new(k.mechanism, cfg.smt_capacity, cfg.seed)
            .expect("mechanism validated at set-up");
        let open = tracer.enter("bpu.process");
        let mut now = 1;
        for hw in 0..streams.len() {
            let hw = HwThreadId::new(hw as u8);
            tracer.time("keys.switch", || {
                bpu.on_context_switch(hw, Asid::new(1), now)
            });
        }
        for i in 0..per_thread {
            for (hw, records) in streams.iter().enumerate() {
                let rec = &records[i];
                std::hint::black_box(bpu.process_branch(HwThreadId::new(hw as u8), rec, now));
                now += u64::from(rec.gap) + 1;
            }
        }
        tracer.exit(open);
        self.replayed_branches += (per_thread * streams.len()) as u64;
        self.replayed_switches += streams.len() as u64;
    }

    /// One operation of every kind and variant (deterministic).
    fn reference_metrics(&self) -> impl Iterator<Item = &RunMetrics> {
        self.refs.iter().flatten().map(|r| &r.metrics)
    }
}

fn build(cfg: &SimConfig, kind: &Kind) -> Result<Simulation, String> {
    let threads: Vec<Vec<SpecBenchmark>> = kind.threads.iter().map(|&b| vec![b]).collect();
    Simulation::builder(kind.mechanism, *cfg)
        .threads(&threads)
        .build()
        .map_err(|e| format!("sim_spec: {e}"))
}

/// Simulated instructions of a run: each thread's warm-up plus its
/// measured retirement.
fn instructions(cfg: &SimConfig, m: &RunMetrics) -> u64 {
    m.threads
        .iter()
        .map(|t| cfg.warmup_instructions + t.retired)
        .sum()
}

impl Workload for SimSpec {
    fn kinds(&self) -> usize {
        self.kinds.len()
    }

    fn primary_span(&self) -> &'static str {
        "pipeline.run"
    }

    /// One thread: slow host phases only add time, and the fastest of about a
    /// hundred operations per kind reaches the fast level.
    fn steady_quantile(&self) -> f64 {
        0.0
    }

    fn run_op(&mut self, kind: usize, tracer: &mut Tracer) -> OpOutcome {
        let variant = self.next_variant[kind];
        self.next_variant[kind] = (variant + 1) % self.cfgs.len();
        let slot = kind * self.cfgs.len() + variant;
        let cfg = self.cfgs[variant];
        let result = build(&cfg, &self.kinds[kind]).and_then(|mut sim| {
            tracer
                .time("pipeline.run", || sim.run())
                .map_err(|e| e.to_string())
        });
        let metrics = match result {
            Ok(m) => m,
            Err(e) => {
                self.problems.push(format!("kind {kind}: {e}"));
                return OpOutcome {
                    instructions: 0,
                    attempted: 1,
                    failed: 1,
                    calls_s: Vec::new(),
                };
            }
        };
        let digest = debug_digest(&metrics);
        match &self.refs[slot] {
            None => {}
            Some(r) if r.digest == digest => {}
            Some(r) => self.problems.push(format!(
                "kind {kind} variant {variant}: run digest {digest:016x} differs from the first run's {:016x}",
                r.digest
            )),
        }
        let out = OpOutcome {
            instructions: instructions(&cfg, &metrics),
            attempted: 1,
            failed: 0,
            calls_s: Vec::new(),
        };
        if tracer.enabled() {
            self.sim_cycles_all_ops += metrics.cycles;
            self.replay_layers(kind, variant, metrics.bpu.branches, tracer);
        }
        if self.refs[slot].is_none() {
            self.refs[slot] = Some(Reference { digest, metrics });
        }
        out
    }

    fn finish(&mut self, rounds: u64, tracer: &mut Tracer) -> Finish {
        // A short run may not reach every variant; the deterministic
        // statistics cover all of them regardless of the host's speed.
        for slot in 0..self.refs.len() {
            if self.refs[slot].is_none() {
                let (kind, variant) = (slot / self.cfgs.len(), slot % self.cfgs.len());
                match build(&self.cfgs[variant], &self.kinds[kind])
                    .and_then(|mut sim| sim.run().map_err(|e| e.to_string()))
                {
                    Ok(metrics) => {
                        self.refs[slot] = Some(Reference {
                            digest: debug_digest(&metrics),
                            metrics,
                        })
                    }
                    Err(e) => self
                        .problems
                        .push(format!("kind {kind} variant {variant}: {e}")),
                }
            }
        }
        let mut instr = 0;
        let mut mispredicts = 0;
        let mut digest_input = Vec::new();
        for r in self.refs.iter().flatten() {
            instr += instructions(&self.cfgs[0], &r.metrics);
            mispredicts += r.metrics.bpu.direction_mispredicts + r.metrics.bpu.target_mispredicts;
            digest_input.push(r.digest);
        }
        let sum = |f: fn(&RunMetrics) -> u64| self.reference_metrics().map(f).sum::<u64>() as f64;
        let mut layers = vec![
            ("workloads.branches", sum(|m| m.bpu.branches)),
            ("bpu.branches", sum(|m| m.bpu.branches)),
            (
                "bpu.direction_mispredicts",
                sum(|m| m.bpu.direction_mispredicts),
            ),
            ("bpu.target_mispredicts", sum(|m| m.bpu.target_mispredicts)),
            ("bpu.btb_l0_hits", sum(|m| m.bpu.btb_hits[0])),
            ("bpu.btb_l1_hits", sum(|m| m.bpu.btb_hits[1])),
            ("bpu.btb_l2_hits", sum(|m| m.bpu.btb_hits[2])),
            ("bpu.btb_misses", sum(|m| m.bpu.btb_misses)),
            (
                "bpu.predictions_during_refresh",
                sum(|m| m.bpu.predictions_during_refresh),
            ),
            ("keys.switches", sum(|m| m.bpu.context_switches)),
            ("pipeline.sim_cycles", sum(|m| m.cycles)),
            (
                "stages.fetch_idle_cycles",
                sum(|m| m.stages.fetch_idle_cycles),
            ),
            (
                "stages.redirect_stall_cycles",
                sum(|m| m.stages.redirect_stall_cycles),
            ),
            (
                "stages.btb_stall_cycles",
                sum(|m| m.stages.btb_stall_cycles),
            ),
            (
                "stages.ctx_switch_stall_cycles",
                sum(|m| m.stages.ctx_switch_stall_cycles),
            ),
        ];
        if tracer.enabled() {
            let gen_s = tracer.total_s("workloads.gen");
            let bpu_s = tracer.self_s("bpu.process");
            let keys_s = tracer.total_s("keys.switch");
            let run_s = tracer.total_s("pipeline.run");
            let self_s = run_s - gen_s - bpu_s - keys_s;
            let switch_us = keys_s * 1e6 / self.replayed_switches.max(1) as f64;
            layers.extend([
                (
                    "workloads.gen_ns_per_branch",
                    gen_s * 1e9 / self.replayed_branches.max(1) as f64,
                ),
                (
                    "bpu.process_ns_per_branch",
                    bpu_s * 1e9 / self.replayed_branches.max(1) as f64,
                ),
                ("keys.switch_us", switch_us),
                ("keys.refresh_share", keys_s / (keys_s + bpu_s)),
                ("pipeline.self_s", self_s / rounds as f64),
                (
                    "pipeline.host_ns_per_cycle",
                    self_s * 1e9 / self.sim_cycles_all_ops.max(1) as f64,
                ),
            ]);
        }
        Finish {
            sim_mpki: mispredicts as f64 * 1000.0 / instr.max(1) as f64,
            digest: debug_digest(&digest_input),
            layers,
            problems: std::mem::take(&mut self.problems),
            notes: Vec::new(),
        }
    }
}
