//! The two `qse-serve` workloads, driven in process through
//! `Server::submit_with`.
//!
//! * `serve-zipf` — independent tenants re-submitting popular circuits:
//!   an open loop on a seeded Poisson schedule, jobs drawn by Zipf from
//!   a pool of 32 circuits warmed into the plan cache in set-up.
//!   It exercises the cache's read path, batching, sampling and all
//!   three engines.
//! * `serve-unique` — a parameter sweep that never repeats a circuit: a
//!   closed loop of two clients, every job a fresh dense circuit, so
//!   every job misses the cache and pays prepare (classify → transpile →
//!   verify); once the cap fills every insert evicts. It exercises the
//!   cache's write path.

use crate::layers::{cache_tag, sim_config, Layers, Replay, ReplayJob};
use crate::loadgen::{poisson_schedule, sleep_until, OpenLoopTiming, Zipf};
use crate::trace::{span_cost, Tracer};
use crate::RunResult;
use qse_circuit::classify::EngineChoice;
use qse_circuit::hash::{canonical_hash, canonicalize};
use qse_circuit::qft::qft;
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::transpile::Plan;
use qse_circuit::Circuit;
use qse_core::config::{EngineMode, TranspileMode};
use qse_core::executor::{comm_avoid_plan, EngineExecutor, EngineState, ThreadClusterExecutor};
use qse_machine::archer2::Machine;
use qse_serve::cache::{plan_cost_bytes, CachedPlan, PlanCache};
use qse_serve::protocol::state_fingerprint;
use qse_serve::{JobResponse, JobSpec, ServeConfig, Server, StatsSnapshot};
use qse_util::mailbox::unbounded;
use qse_util::rng::{Rng, SplitMix64, StdRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Offered rate of `serve-zipf`, jobs/s: about a third of the
/// closed-loop capacity of two clients on the same pool (113-117 jobs/s
/// on a 2-vCPU Xeon VM). At 60-75 jobs/s the queue collapsed whenever
/// the shared host slowed, and the p50 spread over 50 % between runs;
/// 40 jobs/s over the 25 s run still sends the 1000 jobs a p99 needs.
pub const ZIPF_RATE: f64 = 40.0;
/// Zipf exponent of `serve-zipf` popularity.
pub const ZIPF_S: f64 = 1.1;
/// Latency limit of `serve-zipf`'s `slo_met_share`, ms.
pub const ZIPF_LIMIT_MS: f64 = 100.0;
/// Latency limit of `serve-unique`'s `slo_met_share`, ms.
pub const UNIQUE_LIMIT_MS: f64 = 50.0;
/// Circuits in the `serve-zipf` pool.
const POOL: usize = 32;
/// Seed of the stream the `serve-zipf` pool's gates are drawn from.
const POOL_GATES_SEED: u64 = 0x5EED_F00D;
/// Closed-loop clients of `serve-unique`.
const CLIENTS: u64 = 2;
/// Shots every serve job draws.
const SHOTS: usize = 1000;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fresh circuits each `serve-unique` set-up pushes through the server.
const UNIQUE_WARM: u64 = 32;
/// Client id the `serve-unique` warm-up circuits are derived from; the
/// measured clients are `0..CLIENTS`, so no measured job repeats one.
const WARM_CLIENT: u64 = 1000;
/// Jobs the traced run replays. On `serve-unique` they are the first
/// `REPLAY_JOBS / CLIENTS` indices of each client, so the seed fixes the
/// replayed set.
const REPLAY_JOBS: usize = 240;
/// `serve-unique` jobs (the first, in index-major order) whose cache
/// writes the exact-counter pass replays.
const CACHE_PASS_JOBS: u64 = 400;
/// How long a submitted job may take before it counts as timed out.
const REPLY_DEADLINE: Duration = Duration::from_secs(60);
/// Most `serve-zipf` jobs the generator keeps in the server at once.
/// When a slowed host lets the queue grow to this, the generator waits
/// for a reply before it sends the next job, so the server's bounded
/// queue (64 jobs) and memory budget (64 n=20 jobs) never reject one;
/// latency still counts from the due time, so the wait is charged to
/// the jobs it delayed.
const MAX_OUTSTANDING: usize = 32;

/// Which engine a pool entry must resolve to under `engine: auto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Dense,
    Stabilizer,
    Sparse,
}

impl Family {
    fn choice(self) -> EngineChoice {
        match self {
            Family::Dense => EngineChoice::Dense,
            Family::Stabilizer => EngineChoice::Stabilizer,
            Family::Sparse => EngineChoice::Sparse,
        }
    }
}

/// One submittable circuit and how it is submitted.
struct Sub {
    circuit: Circuit,
    basis: u64,
    family: Family,
    ranks: u64,
    transpile: TranspileMode,
    engine: EngineMode,
}

impl Sub {
    fn spec(&self, id: String, seed: u64) -> JobSpec {
        JobSpec {
            id,
            circuit: self.circuit.clone(),
            ranks: self.ranks,
            transpile: self.transpile,
            shots: SHOTS,
            seed,
            basis: self.basis,
            faults: None,
            engine: self.engine,
        }
    }

    fn cfg(&self) -> qse_core::SimConfig {
        sim_config(self.ranks, self.transpile, self.engine)
    }
}

/// What a correct reply must match, computed through the same public
/// functions a worker calls.
struct Reference {
    fnv: u64,
    plan: Option<Plan>,
}

/// Runs `sub` the way a worker would, folding its exact counts into
/// `counts`.
fn reference(sub: &Sub, machine: &Machine, counts: &mut Replay) -> Result<Reference, String> {
    let canon = canonicalize(&sub.circuit);
    let cfg = sub.cfg();
    let engine = cfg.engine.resolve(&canon);
    if engine != sub.family.choice() {
        return Err(format!(
            "pool circuit resolved to {} instead of {}",
            engine.label(),
            sub.family.choice().label()
        ));
    }
    if engine == EngineChoice::Dense {
        let plan = ThreadClusterExecutor::prepare(&canon, &cfg).map_err(|e| e.to_string())?;
        let run =
            ThreadClusterExecutor::try_run_prepared(&canon, &cfg, sub.basis, true, plan.as_ref())
                .map_err(|e| e.to_string())?;
        counts.add_dense(&run.profiled, plan.as_ref(), run.profiled.wall_s * 1e3);
        counts.add_model(machine, &canon, &cfg);
        let amps = run
            .state
            .as_deref()
            .ok_or("dense reference gathered nothing")?;
        Ok(Reference {
            fnv: state_fingerprint(amps),
            plan,
        })
    } else {
        let run = EngineExecutor::run(&canon, &cfg, sub.basis, true).map_err(|e| e.to_string())?;
        let fnv = match &run.state {
            EngineState::Dense(Some(amps)) => state_fingerprint(amps),
            EngineState::Dense(None) => 0,
            EngineState::Sparse(s) => state_fingerprint(&s.to_vec()),
            EngineState::Tableau(t) => t.fingerprint(),
        };
        Ok(Reference { fnv, plan: None })
    }
}

/// What the benchmark keeps of a reply. It is taken in the reply
/// callback, so the shot histograms are dropped at once instead of
/// piling up in the benchmark's own memory.
#[derive(Debug, Clone)]
struct Reply {
    id: String,
    cache_hit: bool,
    state_fnv: u64,
    engine: &'static str,
    shots: usize,
}

impl Reply {
    fn of(resp: JobResponse) -> Result<Reply, String> {
        let r = resp.map_err(|e| format!("job {} failed: {}", e.id, e.error))?;
        Ok(Reply {
            shots: r.counts.as_ref().map_or(0, |c| c.values().sum()),
            id: r.id,
            cache_hit: r.cache_hit,
            state_fnv: r.state_fnv,
            engine: r.engine,
        })
    }

    /// Checks the reply against its reference: counts summing to the
    /// shots, the reference fingerprint, and the engine of the family.
    fn check(&self, fnv: u64, family: Family) -> Result<(), String> {
        if self.shots != SHOTS {
            return Err(format!(
                "job {}: counts sum to {}, not {SHOTS}",
                self.id, self.shots
            ));
        }
        if self.state_fnv != fnv {
            return Err(format!(
                "job {}: state fingerprint {:016x} != reference {fnv:016x}",
                self.id, self.state_fnv
            ));
        }
        if self.engine != family.choice().label() {
            return Err(format!(
                "job {}: ran on {}, expected {}",
                self.id,
                self.engine,
                family.choice().label()
            ));
        }
        Ok(())
    }
}

/// Submits `spec` and waits for its reply.
fn submit_wait(server: &Server, spec: JobSpec) -> Result<Reply, String> {
    let rx = server.submit(spec).map_err(|e| format!("rejected: {e}"))?;
    rx.recv_timeout(REPLY_DEADLINE)
        .map_err(|_| "no reply before the deadline".to_string())
        .and_then(Reply::of)
}

/// Deterministic 64-bit mix of a seed and two indices.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut sm = SplitMix64::seed_from_u64(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let x = sm.next_u64() ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    SplitMix64::seed_from_u64(x).next_u64()
}

/// A GHZ ladder with non-Clifford phase rotations: support stays two
/// amplitudes, so `auto` resolves it to the sparse engine.
fn ghz_with_phases(n: u32, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cnot(q - 1, q);
    }
    for _ in 0..8 {
        let q = rng.random_range(0..n);
        // Strictly between the Clifford angles 0 and π/2.
        c.phase(q, rng.random_range(0.1..1.4));
    }
    c
}

/// The `serve-zipf` pool. Popularity rank `r` holds a Clifford circuit
/// when `r mod 8 = 2`, a sparse one when `r mod 8 = 3`, and a dense one
/// otherwise (24 dense entries cycling n = 12, 14, 16; every fourth a
/// QFT, the rest 120-gate random circuits). The gates come from a fixed
/// stream and only the basis states from the seed: a random circuit's
/// cost varies with its gates, and the most popular entries would carry
/// that variation into every latency figure.
fn zipf_pool(seed: u64) -> Vec<Sub> {
    let mut gates = StdRng::seed_from_u64(POOL_GATES_SEED);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5a, 0));
    let mut dense = 0usize;
    (0..POOL)
        .map(|rank| {
            let (circuit, family) = match rank % 8 {
                2 => (
                    random_circuit(20, 200, GatePool::Clifford, gates.next_u64()),
                    Family::Stabilizer,
                ),
                3 => (ghz_with_phases(20, &mut gates), Family::Sparse),
                _ => {
                    let n = [12, 14, 16][dense % 3];
                    let c = if dense.is_multiple_of(4) {
                        qft(n)
                    } else {
                        random_circuit(n, 120, GatePool::Full, gates.next_u64())
                    };
                    dense += 1;
                    (c, Family::Dense)
                }
            };
            let basis = rng.random_range(0..1u64 << circuit.n_qubits());
            let (ranks, transpile) = match family {
                Family::Dense => (2, TranspileMode::Beam),
                _ => (1, TranspileMode::Off),
            };
            Sub {
                circuit,
                basis,
                family,
                ranks,
                transpile,
                engine: EngineMode::Auto,
            }
        })
        .collect()
}

/// Job `index` of `client` in `serve-unique`, and its shot seed: a fresh
/// 120-gate random circuit alternating n = 12 and 14.
fn unique_job(seed: u64, client: u64, index: u64) -> (Sub, u64) {
    let mut rng = StdRng::seed_from_u64(mix(seed, client, index));
    let n = if (client + index).is_multiple_of(2) {
        12
    } else {
        14
    };
    let circuit = random_circuit(n, 120, GatePool::Full, rng.next_u64());
    let basis = rng.random_range(0..1u64 << n);
    let sub = Sub {
        circuit,
        basis,
        family: Family::Dense,
        ranks: 2,
        transpile: TranspileMode::Beam,
        engine: EngineMode::Dense,
    };
    (sub, rng.next_u64())
}

/// The exact counters of one set-up repetition: its reference runs'
/// counts and the server's cache counters after warm-up.
fn setup_counters(refs: &Replay, stats: &StatsSnapshot) -> BTreeMap<&'static str, String> {
    let mut c = refs.exact_counters();
    c.insert("serve.cache_misses", stats.cache.misses.to_string());
    c.insert("serve.cache_hits", stats.cache.hits.to_string());
    c.insert("serve.cache_evictions", stats.cache.evictions.to_string());
    c
}

/// The cache's write path for the first [`CACHE_PASS_JOBS`] jobs of
/// `serve-unique` in index-major order, replayed into a `PlanCache` of
/// the server's default cap with the server's key and cost functions.
/// The measured phase's own eviction count grows with the jobs the
/// clients complete, so it cannot repeat exactly; this count does.
fn cache_write_pass(seed: u64) -> BTreeMap<&'static str, String> {
    let mut cache = PlanCache::new(ServeConfig::default().cache_cap_bytes);
    for index in 0..CACHE_PASS_JOBS / CLIENTS {
        for client in 0..CLIENTS {
            let (sub, _) = unique_job(seed, client, index);
            let cfg = sub.cfg();
            let canon = canonicalize(&sub.circuit);
            let key = canonical_hash(&canon, sub.ranks, cache_tag(&cfg));
            if cache.get(key).is_none() {
                let plan = comm_avoid_plan(&canon, &cfg);
                let bytes = plan_cost_bytes(&canon, plan.as_ref());
                cache.insert(
                    key,
                    CachedPlan {
                        circuit: canon,
                        plan,
                        bytes,
                    },
                );
            }
        }
    }
    let s = cache.stats();
    BTreeMap::from([
        ("serve.first400_cache_misses", s.misses.to_string()),
        ("serve.first400_cache_evictions", s.evictions.to_string()),
    ])
}

/// One measured job's record.
struct Done {
    /// Index into the job list.
    job: usize,
    /// When it was due (closed loop: when the client called), sent and
    /// answered.
    timing: OpenLoopTiming,
    /// When the `submit_with` call returned.
    submitted: Instant,
    /// The reply, or why there was none.
    reply: Result<Reply, String>,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        self.timing.latency().as_secs_f64() * 1e3
    }
}

/// Runs `serve-zipf`.
pub fn zipf(seed: u64, seconds: f64, traced: bool, machine: &Machine) -> RunResult {
    let mut out = RunResult::new(ZIPF_LIMIT_MS);
    out.info
        .push(("offered_rate_jobs_per_s", format!("{ZIPF_RATE}")));
    out.info
        .push(("latency_limit_ms", format!("{ZIPF_LIMIT_MS}")));
    out.info.push((
        "state_bytes",
        "dense 64 KiB-1 MiB (n=12-16, R=2); stabilizer and sparse n=20".to_string(),
    ));

    // Set-up, repeated: pool, references, a fresh server warmed with
    // every pool entry.
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let pool = zipf_pool(seed);
        let mut counts = Replay::default();
        let refs: Vec<Reference> = match pool
            .iter()
            .map(|s| reference(s, machine, &mut counts))
            .collect()
        {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("set-up reference: {e}"));
                return out;
            }
        };
        let server = Server::start(ServeConfig::default());
        for (i, (sub, r)) in pool.iter().zip(&refs).enumerate() {
            let reply = submit_wait(
                &server,
                sub.spec(format!("warm{rep}-{i}"), mix(seed, 1, i as u64)),
            );
            if let Err(e) = reply.and_then(|reply| reply.check(r.fnv, sub.family)) {
                out.fail(format!("warm-up job {i}: {e}"));
            }
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.counters.push(setup_counters(&counts, &server.stats()));
        if let Some((_, _, old)) = kept.replace((pool, refs, server)) {
            old.shutdown();
        }
    }
    let (pool, refs, server) = kept.expect("SETUP_REPS > 0");

    // The seeded traffic: schedule, entry per job, shot seed per job.
    let mut rng = StdRng::seed_from_u64(mix(seed, 2, 0));
    let offsets = poisson_schedule(ZIPF_RATE, seconds, &mut rng);
    let entries = Zipf::new(POOL, ZIPF_S).shuffled_draws(offsets.len(), &mut rng);
    let jobs: Vec<(usize, u64)> = entries.into_iter().map(|e| (e, rng.next_u64())).collect();

    let before = server.stats();
    let (tx, rx) = unbounded::<(usize, Instant, Result<Reply, String>)>();
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut sent: Vec<(Instant, Instant, Instant)> = Vec::with_capacity(jobs.len());
    let mut rejected: BTreeMap<usize, String> = BTreeMap::new();
    let mut replies: BTreeMap<usize, (Instant, Result<Reply, String>)> = BTreeMap::new();
    let mut held_back = 0usize;
    for (j, (&off, &(entry, shot_seed))) in offsets.iter().zip(&jobs).enumerate() {
        let due = t0 + Duration::from_secs_f64(off);
        // Collect the replies already in; if the server still holds
        // MAX_OUTSTANDING of ours, wait for one before sending more.
        while let Some((k, done, resp)) = rx.try_recv() {
            replies.insert(k, (done, resp));
        }
        if outstanding(sent.len(), &replies, &rejected) >= MAX_OUTSTANDING {
            held_back += 1;
            if let Ok((k, done, resp)) = rx.recv_timeout(REPLY_DEADLINE) {
                replies.insert(k, (done, resp));
            }
        }
        sleep_until(due);
        let spec = pool[entry].spec(format!("z{j}"), shot_seed);
        let tx = tx.clone();
        let s0 = Instant::now();
        let r = server.submit_with(
            spec,
            Box::new(move |resp| {
                let _ = tx.send((j, Instant::now(), Reply::of(resp)));
            }),
        );
        let s1 = Instant::now();
        sent.push((due, s0, s1));
        if let Err(e) = r {
            rejected.insert(j, format!("rejected: {e}"));
        }
    }
    drop(tx);
    out.info.push((
        "held_back_jobs",
        format!("{held_back} (at {MAX_OUTSTANDING} outstanding)"),
    ));
    while replies.len() + rejected.len() < jobs.len() {
        match rx.recv_timeout(REPLY_DEADLINE) {
            Ok((j, done, resp)) => {
                replies.insert(j, (done, resp));
            }
            Err(_) => break,
        }
    }
    let after = server.stats();
    out.peak_rss_mib = crate::host::peak_rss_mib();

    let mut done = Vec::with_capacity(jobs.len());
    for (j, &(due, s0, s1)) in sent.iter().enumerate() {
        let (at, reply) = match (replies.remove(&j), rejected.remove(&j)) {
            (Some((at, reply)), _) => (at, reply),
            (None, Some(e)) => (s1, Err(e)),
            (None, None) => (s1, Err("no reply before the deadline".to_string())),
        };
        done.push(Done {
            job: j,
            timing: OpenLoopTiming {
                due,
                sent: s0,
                done: at,
            },
            submitted: s1,
            reply,
        });
    }
    let lags: Vec<f64> = done
        .iter()
        .map(|d| d.timing.lag().as_secs_f64() * 1e3)
        .collect();
    out.info.push((
        "loadgen_lag_ms_p99",
        crate::stats::percentile(&lags, 99.0).map_or("null".to_string(), |v| format!("{v:.3}")),
    ));
    let end = done.iter().map(|d| d.timing.done).max().unwrap_or(t0);
    out.measured_s = end.saturating_duration_since(t0).as_secs_f64();
    let results = settle(&mut out, &done, |d| {
        let (entry, _) = jobs[d.job];
        (refs[entry].fnv, pool[entry].family)
    });

    if traced {
        let mut tr = Tracer::new(t0);
        let mut layers = Layers::default();
        record_served(&mut tr, &done);
        layers.set("serve.submit_us_p50", p50(&tr.self_ms("serve.submit"), 1e3));
        layers.set(
            "loadgen.lag_ms_p99",
            crate::stats::percentile(&lags, 99.0).unwrap_or(0.0),
        );
        serve_counters(&mut layers, &before, &after, done.len());
        let overhead = span_cost().as_secs_f64() * tr.len() as f64 / out.measured_s;
        layers.set("trace.overhead_share", overhead);

        let mut replay = Replay::default();
        let stride = (results.len() / REPLAY_JOBS).max(1);
        for (d, r) in results.iter().step_by(stride).take(REPLAY_JOBS) {
            let (entry, shot_seed) = jobs[d.job];
            let sub = &pool[entry];
            replay.replay(
                &mut tr,
                machine,
                &ReplayJob {
                    id: d.job as u64,
                    circuit: &sub.circuit,
                    cfg: sub.cfg(),
                    basis: sub.basis,
                    shots: SHOTS,
                    seed: shot_seed,
                    cached: r.cache_hit.then_some(refs[entry].plan.as_ref()),
                    served_ms: d.latency_ms(),
                },
            );
        }
        replay.finish(&tr, &mut layers);
        out.layers = Some(layers);
        out.tracer = Some(tr);
    }
    server.shutdown();
    out
}

/// Jobs sent and not yet answered or rejected.
fn outstanding<T>(
    sent: usize,
    replies: &BTreeMap<usize, T>,
    rejected: &BTreeMap<usize, String>,
) -> usize {
    sent - replies.len() - rejected.len()
}

/// Runs `serve-unique`.
pub fn unique(seed: u64, seconds: f64, traced: bool, machine: &Machine) -> RunResult {
    let mut out = RunResult::new(UNIQUE_LIMIT_MS);
    out.info.push(("clients", CLIENTS.to_string()));
    out.info
        .push(("latency_limit_ms", format!("{UNIQUE_LIMIT_MS}")));
    out.info.push((
        "state_bytes",
        "dense 64 KiB and 256 KiB (n=12, 14; R=2)".to_string(),
    ));

    // Set-up, repeated: a fresh server, then warm-up circuits that no
    // measured job repeats, each checked against its reference.
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let server = Server::start(ServeConfig::default());
        let mut counts = Replay::default();
        for i in 0..UNIQUE_WARM {
            let (sub, shot_seed) = unique_job(seed, WARM_CLIENT, i);
            let r = match reference(&sub, machine, &mut counts) {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("set-up reference: {e}"));
                    return out;
                }
            };
            let reply = submit_wait(&server, sub.spec(format!("warm{i}"), shot_seed));
            if let Err(e) = reply.and_then(|reply| reply.check(r.fnv, sub.family)) {
                out.fail(format!("warm-up job {i}: {e}"));
            }
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.counters.push(setup_counters(&counts, &server.stats()));
        if let Some(old) = kept.replace(server) {
            old.shutdown();
        }
    }
    let server = kept.expect("SETUP_REPS > 0");

    let before = server.stats();
    let t0 = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let per_client: Vec<Vec<(u64, Done)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let server = &server;
                s.spawn(move || {
                    let (tx, rx) = unbounded::<(Instant, Result<Reply, String>)>();
                    let mut mine = Vec::new();
                    let mut index = 0u64;
                    while t0.elapsed() < limit {
                        let (sub, shot_seed) = unique_job(seed, client, index);
                        let spec = sub.spec(format!("u{client}-{index}"), shot_seed);
                        let tx = tx.clone();
                        let s0 = Instant::now();
                        let r = server.submit_with(
                            spec,
                            Box::new(move |resp| {
                                let _ = tx.send((Instant::now(), Reply::of(resp)));
                            }),
                        );
                        let s1 = Instant::now();
                        let (done, reply) = match r {
                            Err(e) => (s1, Err(format!("rejected: {e}"))),
                            Ok(()) => match rx.recv_timeout(REPLY_DEADLINE) {
                                Ok((at, reply)) => (at, reply),
                                Err(_) => {
                                    (Instant::now(), Err("no reply before the deadline".into()))
                                }
                            },
                        };
                        let timed_out = matches!(&reply, Err(e) if e.starts_with("no reply"));
                        mine.push((
                            index,
                            Done {
                                job: 0,
                                timing: OpenLoopTiming {
                                    due: s0,
                                    sent: s0,
                                    done,
                                },
                                submitted: s1,
                                reply,
                            },
                        ));
                        index += 1;
                        if timed_out {
                            break;
                        }
                    }
                    (client, mine)
                })
            })
            .collect();
        let mut all: Vec<Vec<(u64, Done)>> = (0..CLIENTS).map(|_| Vec::new()).collect();
        for h in handles {
            let (client, mine) = h.join().expect("client thread");
            all[client as usize] = mine;
        }
        all
    });
    let after = server.stats();
    out.peak_rss_mib = crate::host::peak_rss_mib();

    // Canonical job order: index-major, client-minor.
    let mut keyed: Vec<(u64, u64, Done)> = per_client
        .into_iter()
        .enumerate()
        .flat_map(|(c, v)| v.into_iter().map(move |(i, d)| (i, c as u64, d)))
        .collect();
    keyed.sort_by_key(|(i, c, _)| (*i, *c));
    let ids: Vec<(u64, u64)> = keyed.iter().map(|(i, c, _)| (*c, *i)).collect();
    let done: Vec<Done> = keyed
        .into_iter()
        .enumerate()
        .map(|(j, (_, _, mut d))| {
            d.job = j;
            d
        })
        .collect();
    let end = done.iter().map(|d| d.timing.done).max().unwrap_or(t0);
    out.measured_s = end.saturating_duration_since(t0).as_secs_f64();

    // Every job's reference, computed after the measured phase on two
    // threads (the circuits are derived, so they need not be stored).
    let fnvs: Vec<Result<u64, String>> = parallel_refs(&ids, seed, machine);
    let results = settle(&mut out, &done, |d| {
        let fnv = fnvs[d.job].clone().unwrap_or(0);
        (fnv, Family::Dense)
    });
    for (j, f) in fnvs.iter().enumerate() {
        if let Err(e) = f {
            out.fail(format!("reference for job {j}: {e}"));
        }
    }
    for _ in 0..2 {
        out.counters.push(cache_write_pass(seed));
    }
    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    if hits != 0 || misses != done.len() as u64 {
        out.fail(format!(
            "cache: {hits} hits and {misses} misses over {} unique jobs (want 0 and {})",
            done.len(),
            done.len()
        ));
    }

    if traced {
        let mut tr = Tracer::new(t0);
        let mut layers = Layers::default();
        record_served(&mut tr, &done);
        layers.set("serve.submit_us_p50", p50(&tr.self_ms("serve.submit"), 1e3));
        serve_counters(&mut layers, &before, &after, done.len());
        let overhead = span_cost().as_secs_f64() * tr.len() as f64 / out.measured_s;
        layers.set("trace.overhead_share", overhead);

        let mut replay = Replay::default();
        let per_client = (REPLAY_JOBS as u64) / CLIENTS;
        for (d, _) in &results {
            let (client, index) = ids[d.job];
            if index >= per_client {
                continue;
            }
            let (sub, shot_seed) = unique_job(seed, client, index);
            replay.replay(
                &mut tr,
                machine,
                &ReplayJob {
                    id: d.job as u64,
                    circuit: &sub.circuit,
                    cfg: sub.cfg(),
                    basis: sub.basis,
                    shots: SHOTS,
                    seed: shot_seed,
                    // Every job missed, so the replay prepares each.
                    cached: None,
                    served_ms: d.latency_ms(),
                },
            );
        }
        replay.finish(&tr, &mut layers);
        out.layers = Some(layers);
        out.tracer = Some(tr);
    }
    server.shutdown();
    out
}

/// Reference fingerprints of `serve-unique` jobs `(client, index)`,
/// split over two threads.
fn parallel_refs(ids: &[(u64, u64)], seed: u64, machine: &Machine) -> Vec<Result<u64, String>> {
    let half = ids.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = ids
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(c, i)| {
                            let (sub, _) = unique_job(seed, c, i);
                            reference(&sub, machine, &mut Replay::default()).map(|r| r.fnv)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// Checks every reply, fills the end-to-end fields, and returns the
/// jobs that completed correctly with their results.
fn settle<'d>(
    out: &mut RunResult,
    done: &'d [Done],
    expect: impl Fn(&Done) -> (u64, Family),
) -> Vec<(&'d Done, &'d Reply)> {
    let mut ok = Vec::new();
    for d in done {
        out.attempted += 1;
        let checked = d.reply.as_ref().map_err(Clone::clone).and_then(|reply| {
            let (fnv, family) = expect(d);
            reply.check(fnv, family).map(|()| reply)
        });
        match checked {
            Ok(r) => {
                let ms = d.latency_ms();
                out.latencies_ms.push(ms);
                if ms <= out.limit_ms {
                    out.slo_met += 1;
                }
                ok.push((d, r));
            }
            Err(e) => out.fail(e),
        }
    }
    out.completed_ok = ok.len() as u64;
    ok
}

/// One span per measured job (start → reply) with its `submit_with`
/// call as a child.
fn record_served(tr: &mut Tracer, done: &[Done]) {
    for d in done {
        let t = &d.timing;
        let job = tr.record("serve.job", d.job as u64, None, t.due, t.done);
        tr.record("serve.submit", d.job as u64, Some(job), t.sent, d.submitted);
    }
}

/// The server's own counters over the measured phase.
fn serve_counters(layers: &mut Layers, before: &StatsSnapshot, after: &StatsSnapshot, jobs: usize) {
    let hits = (after.cache.hits - before.cache.hits) as f64;
    let misses = (after.cache.misses - before.cache.misses) as f64;
    layers.set(
        "serve.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    layers.set(
        "serve.cache_evictions",
        (after.cache.evictions - before.cache.evictions) as f64,
    );
    layers.set(
        "serve.executions_per_job",
        (after.executions - before.executions) as f64 / jobs.max(1) as f64,
    );
    layers.set("serve.max_batch", after.max_batch as f64);
}

/// Median of `samples` scaled by `scale`, 0 when empty.
fn p50(samples: &[f64], scale: f64) -> f64 {
    crate::stats::median(samples).map_or(0.0, |v| v * scale)
}
