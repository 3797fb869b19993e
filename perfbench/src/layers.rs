//! The per-layer metrics, and the serial replay that measures them.
//!
//! The replay runs a job through the public functions a serve worker
//! calls, in the worker's order, with a span around each call:
//!
//! ```text
//! replay.job
//! ├── circuit.canonicalize   canonicalize + canonical_hash
//! ├── circuit.resolve        EngineMode::resolve
//! ├── circuit.transpile      comm_avoid_plan            (cache misses)
//! ├── check.verify           verify_plan_checked        (cache misses)
//! ├── core.execute           try_run_prepared           (dense)
//! ├── stabilizer.run | sparse.run   EngineExecutor::run (other engines)
//! └── measure.sample         sample_counts_amps / EngineRun::sample_counts
//! ```
//!
//! The executor's own `ProfiledRun` splits `core.execute` further:
//! rank 0's timed region (`wall_s`) into local sweeps and distributed
//! steps, and the rest of the span into rank set-up (universe spawn,
//! state allocation, gather).

use crate::trace::Tracer;
use qse_circuit::classify::EngineChoice;
use qse_circuit::hash::{canonical_hash, canonicalize};
use qse_circuit::transpile::{Plan, PlanStep};
use qse_circuit::Circuit;
use qse_core::config::{EngineMode, SimConfig, TranspileMode};
use qse_core::executor::{comm_avoid_plan, EngineExecutor, ModelExecutor, ThreadClusterExecutor};
use qse_core::ProfiledRun;
use qse_machine::archer2::Machine;
use qse_statevec::measure::sample_counts_amps;
use qse_util::rng::StdRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, with its unit, in report order. A workload
/// whose path does not reach a layer reports it as 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("statevec.sweep_gib_s.h", "GiB/s"),
    ("statevec.sweep_gib_s.cphase", "GiB/s"),
    ("statevec.sweep_gib_s.swap", "GiB/s"),
    ("statevec.memcpy_gib_s", "GiB/s"),
    ("statevec.roofline_frac.h", "share"),
    ("statevec.roofline_frac.cphase", "share"),
    ("statevec.roofline_frac.swap", "share"),
    ("statevec.single_fused_qft_s", "s"),
    ("core.steps_per_job", "count"),
    ("core.execute_ms_p50", "ms"),
    ("core.rank_setup_ms_p50", "ms"),
    ("statevec.local_ms_p50", "ms"),
    ("comm.distributed_ms_p50", "ms"),
    ("comm.bytes_exchanged_per_job", "B"),
    ("comm.messages_per_job", "count"),
    ("comm.exchange_gib_s", "GiB/s"),
    ("circuit.canonicalize_us_p50", "us"),
    ("circuit.resolve_us_p50", "us"),
    ("circuit.transpile_ms_p50", "ms"),
    ("circuit.plan_steps_per_job", "count"),
    ("circuit.permutes_per_job", "count"),
    ("check.verify_ms_p50", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.cache_evictions", "count"),
    ("serve.executions_per_job", "count"),
    ("serve.max_batch", "count"),
    ("serve.unaccounted_ms_p50", "ms"),
    ("measure.sample_us_p50", "us"),
    ("stabilizer.run_us_p50", "us"),
    ("sparse.run_us_p50", "us"),
    ("machine.model_runtime_s_per_job", "s"),
    ("machine.model_energy_j_per_job", "J"),
    ("machine.measured_over_model", "ratio"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.replayed_jobs", "count"),
];

/// Per-layer values of one traced run, keyed by [`LAYER_METRICS`] name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name`, which must be listed in [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unlisted layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name` (0 when the workload never reached it).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The medians of a set of samples, or 0 when the layer never ran.
fn p50(samples: &[f64]) -> f64 {
    crate::stats::median(samples).unwrap_or(0.0)
}

/// Counts a dense plan's batched permutations.
pub fn permutes(plan: Option<&Plan>) -> usize {
    plan.map_or(0, |p| {
        p.steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Permute(_)))
            .count()
    })
}

/// One job as the replay sees it.
pub struct ReplayJob<'a> {
    /// Job id shared by its spans.
    pub id: u64,
    /// The circuit as submitted.
    pub circuit: &'a Circuit,
    /// Execution config (ranks, transpile, engine).
    pub cfg: SimConfig,
    /// Initial basis state.
    pub basis: u64,
    /// Shots drawn.
    pub shots: usize,
    /// Shot seed.
    pub seed: u64,
    /// The plan a cache hit reuses (`None` on a miss, or when the hit's
    /// plan is the untranspiled circuit).
    pub cached: Option<Option<&'a Plan>>,
    /// The latency the client saw for this job, ms.
    pub served_ms: f64,
}

/// Accumulates the exact counts the replay observes.
#[derive(Default)]
pub struct Replay {
    dense_jobs: usize,
    planned_jobs: usize,
    steps: u64,
    plan_steps: u64,
    permutes: u64,
    bytes: u64,
    messages: u64,
    distributed_s: f64,
    wall_s: Vec<f64>,
    rank_setup_ms: Vec<f64>,
    local_ms: Vec<f64>,
    distributed_ms: Vec<f64>,
    model_s: Vec<f64>,
    model_j: Vec<f64>,
    unaccounted_ms: Vec<f64>,
    jobs: usize,
}

impl Replay {
    /// Folds one dense execution's profile (from a replay or a timed
    /// `qft-run` job) and the span that timed it.
    pub fn add_dense(&mut self, run: &ProfiledRun, plan: Option<&Plan>, execute_ms: f64) {
        self.dense_jobs += 1;
        self.steps += run.gate_count as u64;
        if let Some(p) = plan {
            self.planned_jobs += 1;
            self.plan_steps += p.steps.len() as u64;
            self.permutes += permutes(Some(p)) as u64;
        }
        self.bytes += run.bytes_exchanged;
        self.messages += run.messages_sent;
        self.distributed_s += run.profile.distributed_s;
        self.wall_s.push(run.wall_s);
        self.rank_setup_ms.push(execute_ms - run.wall_s * 1e3);
        self.local_ms
            .push((run.profile.fully_local_s + run.profile.local_memory_s) * 1e3);
        self.distributed_ms.push(run.profile.distributed_s * 1e3);
    }

    /// Prices one dense job with the calibrated machine model.
    pub fn add_model(&mut self, machine: &Machine, circuit: &Circuit, cfg: &SimConfig) {
        let est = ModelExecutor::new(machine).run(circuit, cfg);
        self.model_s.push(est.runtime_s);
        self.model_j.push(est.total_energy_j());
    }

    /// Records the remainder of a job's served latency that no replayed
    /// layer accounts for.
    pub fn add_unaccounted(&mut self, ms: f64) {
        self.jobs += 1;
        self.unaccounted_ms.push(ms);
    }

    /// Replays `job` serially with spans around each layer call.
    pub fn replay(&mut self, tr: &mut Tracer, machine: &Machine, job: &ReplayJob) {
        let root = tr.open("replay.job", job.id, None);
        let span = |tr: &mut Tracer, name| tr.open(name, job.id, Some(root));

        let s = span(tr, "circuit.canonicalize");
        let canon = canonicalize(job.circuit);
        let key = canonical_hash(&canon, job.cfg.n_ranks, cache_tag(&job.cfg));
        tr.close(s);
        std::hint::black_box(key);

        let s = span(tr, "circuit.resolve");
        let engine = job.cfg.engine.resolve(&canon);
        tr.close(s);

        let mut rng = StdRng::seed_from_u64(job.seed);
        if engine == EngineChoice::Dense {
            let fresh;
            let plan = match job.cached {
                Some(plan) => plan,
                None => {
                    let s = span(tr, "circuit.transpile");
                    fresh = comm_avoid_plan(&canon, &job.cfg);
                    tr.close(s);
                    let s = span(tr, "check.verify");
                    ThreadClusterExecutor::verify_plan_checked(&canon, &job.cfg, fresh.as_ref())
                        .expect("the served plan verified, so the replayed one does");
                    tr.close(s);
                    fresh.as_ref()
                }
            };
            let s = span(tr, "core.execute");
            let t = Instant::now();
            let run =
                ThreadClusterExecutor::try_run_prepared(&canon, &job.cfg, job.basis, true, plan)
                    .expect("the served job ran, so the replay does");
            let execute_ms = t.elapsed().as_secs_f64() * 1e3;
            tr.close(s);
            self.add_dense(&run.profiled, plan, execute_ms);
            self.add_model(machine, &canon, &job.cfg);
            let amps = run.state.as_deref().expect("gathered");
            let s = span(tr, "measure.sample");
            let counts = sample_counts_amps(amps, &mut rng, job.shots).expect("normalised state");
            tr.close(s);
            std::hint::black_box(counts);
        } else {
            let name = match engine {
                EngineChoice::Stabilizer => "stabilizer.run",
                _ => "sparse.run",
            };
            let s = span(tr, name);
            let run = EngineExecutor::run(&canon, &job.cfg, job.basis, true)
                .expect("the served job ran, so the replay does");
            tr.close(s);
            let s = span(tr, "measure.sample");
            let counts = run
                .sample_counts(&mut rng, job.shots)
                .expect("samplable state");
            tr.close(s);
            std::hint::black_box(counts);
        }
        tr.close(root);
        let layer_ms: f64 = tr
            .children(root)
            .map(|c| tr.span(c).duration().as_secs_f64() * 1e3)
            .sum();
        self.add_unaccounted(job.served_ms - layer_ms);
    }

    /// Writes the replay's layer metrics into `layers`.
    pub fn finish(&self, tr: &Tracer, layers: &mut Layers) {
        let us = |name| {
            tr.self_ms(name)
                .iter()
                .map(|ms| ms * 1e3)
                .collect::<Vec<_>>()
        };
        layers.set(
            "circuit.canonicalize_us_p50",
            p50(&us("circuit.canonicalize")),
        );
        layers.set("circuit.resolve_us_p50", p50(&us("circuit.resolve")));
        layers.set(
            "circuit.transpile_ms_p50",
            p50(&tr.self_ms("circuit.transpile")),
        );
        layers.set("check.verify_ms_p50", p50(&tr.self_ms("check.verify")));
        layers.set("core.execute_ms_p50", p50(&tr.self_ms("core.execute")));
        layers.set("measure.sample_us_p50", p50(&us("measure.sample")));
        layers.set("stabilizer.run_us_p50", p50(&us("stabilizer.run")));
        layers.set("sparse.run_us_p50", p50(&us("sparse.run")));
        layers.set("core.rank_setup_ms_p50", p50(&self.rank_setup_ms));
        layers.set("statevec.local_ms_p50", p50(&self.local_ms));
        layers.set("comm.distributed_ms_p50", p50(&self.distributed_ms));
        layers.set("serve.unaccounted_ms_p50", p50(&self.unaccounted_ms));
        let per_dense = |x: u64| {
            if self.dense_jobs == 0 {
                0.0
            } else {
                x as f64 / self.dense_jobs as f64
            }
        };
        let per_planned = |x: u64| {
            if self.planned_jobs == 0 {
                0.0
            } else {
                x as f64 / self.planned_jobs as f64
            }
        };
        layers.set("core.steps_per_job", per_dense(self.steps));
        layers.set("comm.bytes_exchanged_per_job", per_dense(self.bytes));
        layers.set("comm.messages_per_job", per_dense(self.messages));
        layers.set("circuit.plan_steps_per_job", per_planned(self.plan_steps));
        layers.set("circuit.permutes_per_job", per_planned(self.permutes));
        layers.set(
            "comm.exchange_gib_s",
            if self.distributed_s > 0.0 {
                self.bytes as f64 / self.distributed_s / f64::from(1u32 << 30)
            } else {
                0.0
            },
        );
        let mean = |xs: &[f64]| crate::stats::mean(xs).unwrap_or(0.0);
        let model_s = mean(&self.model_s);
        layers.set("machine.model_runtime_s_per_job", model_s);
        layers.set("machine.model_energy_j_per_job", mean(&self.model_j));
        layers.set(
            "machine.measured_over_model",
            if model_s > 0.0 {
                mean(&self.wall_s) / model_s
            } else {
                0.0
            },
        );
        layers.set("trace.replayed_jobs", self.jobs as f64);
    }

    /// The counters a given seed must reproduce exactly, by name.
    pub fn exact_counters(&self) -> BTreeMap<&'static str, String> {
        let sum = |xs: &[f64]| xs.iter().sum::<f64>();
        BTreeMap::from([
            ("core.steps", self.steps.to_string()),
            ("circuit.plan_steps", self.plan_steps.to_string()),
            ("circuit.permutes", self.permutes.to_string()),
            ("comm.bytes_exchanged", self.bytes.to_string()),
            ("comm.messages", self.messages.to_string()),
            (
                "machine.model_energy_j",
                format!("{:?}", sum(&self.model_j)),
            ),
        ])
    }
}

/// The cache-key tag a serve worker folds into the canonical hash:
/// transpile strategy in the low bits, requested engine above.
pub fn cache_tag(cfg: &SimConfig) -> u8 {
    let strategy = match cfg.transpile {
        TranspileMode::Off => 0,
        TranspileMode::Greedy => 1,
        TranspileMode::Beam => 2,
    };
    strategy | (cfg.engine.tag() << 2)
}

/// The execution config a serve worker builds for a job.
pub fn sim_config(ranks: u64, transpile: TranspileMode, engine: EngineMode) -> SimConfig {
    let mut cfg = SimConfig::default_for(ranks);
    cfg.transpile = transpile;
    cfg.engine = engine;
    cfg
}
