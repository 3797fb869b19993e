//! `qft-run`: the `qse run` path. One caller runs
//! `ThreadClusterExecutor::try_run` back to back on the paper's circuit,
//! `qft(22)` from a seeded basis state, on one rank with transpilation
//! off and no gather. Each of the 264 steps sweeps the 64 MiB state, so
//! kernels do almost all the work and exchange does none.

use crate::layers::{Layers, Replay};
use crate::trace::{span_cost, Tracer};
use crate::RunResult;
use qse_circuit::qft::qft;
use qse_core::executor::{comm_avoid_plan, ThreadClusterExecutor};
use qse_core::SimConfig;
use qse_machine::archer2::Machine;
use qse_statevec::storage::SoaStorage;
use qse_statevec::SingleState;
use qse_util::rng::{Rng, StdRng};
use std::time::Instant;

/// Register width.
pub const QUBITS: u32 = 22;
/// Steps of `qft(22)`: 22 Hadamards, 231 controlled phases, 11 swaps.
const STEPS: usize = 264;
/// Latency limit of `slo_met_share`, ms: about twice a run on the
/// reference host.
pub const LIMIT_MS: f64 = 10_000.0;

/// Runs `qft-run`.
pub fn run(seed: u64, seconds: f64, traced: bool, machine: &Machine) -> RunResult {
    let mut out = RunResult::new(LIMIT_MS);
    out.info.push((
        "state_bytes",
        format!("{} MiB (2^{QUBITS} x 16 B, R=1)", (16u64 << QUBITS) >> 20),
    ));
    out.info.push(("latency_limit_ms", format!("{LIMIT_MS}")));
    let basis = StdRng::seed_from_u64(seed).random_range(0..1u64 << QUBITS);
    out.info.push(("basis_state", basis.to_string()));
    let circuit = qft(QUBITS);
    let cfg = SimConfig::default_for(1);

    // Set-up: one gathered run must equal the single-address-space
    // state, and the QFT of a basis state is flat: |amp|² = 2⁻²² for all.
    let t = Instant::now();
    match ThreadClusterExecutor::try_run(&circuit, &cfg, basis, true) {
        Err(e) => out.fail(format!("gathered reference run: {e}")),
        Ok(run) => {
            let got = run.state.unwrap_or_default();
            let mut single: SingleState<SoaStorage> = SingleState::basis_state(QUBITS, basis);
            single.run(&circuit);
            let want = single.to_vec();
            let flat = 1.0 / f64::from(1u32 << QUBITS);
            let max_diff = got
                .iter()
                .zip(&want)
                .map(|(a, b)| (*a - *b).norm_sqr().sqrt())
                .fold(0.0, f64::max);
            if got.len() != want.len() || max_diff > 1e-9 {
                out.fail(format!(
                    "gathered state differs from SingleState by {max_diff:e} (limit 1e-9)"
                ));
            }
            if let Some(a) = got.iter().find(|a| (a.norm_sqr() - flat).abs() > 1e-12) {
                out.fail(format!("|amp|² = {:e}, want 2^-22", a.norm_sqr()));
            }
            check_run(&mut out, &run.profiled);
        }
    }
    out.setup_s.push(t.elapsed().as_secs_f64());

    // Measured phase: back-to-back runs until `seconds` have passed. A
    // traced run calls the two functions `try_run` is made of in release
    // builds, `comm_avoid_plan` then `try_run_prepared`, with a span
    // around each inside one span per job.
    let t0 = Instant::now();
    let mut tr = Tracer::new(t0);
    let mut replay = Replay::default();
    let mut last_end = t0;
    while t0.elapsed().as_secs_f64() < seconds {
        let job = out.attempted;
        out.attempted += 1;
        let start = Instant::now();
        let r = if traced {
            let root = tr.open("qft.job", job, None);
            let s = tr.open("circuit.transpile", job, Some(root));
            let plan = comm_avoid_plan(&circuit, &cfg);
            tr.close(s);
            let s = tr.open("core.execute", job, Some(root));
            let r = ThreadClusterExecutor::try_run_prepared(
                &circuit,
                &cfg,
                basis,
                false,
                plan.as_ref(),
            );
            tr.close(s);
            tr.close(root);
            if let Ok(run) = &r {
                let ms = |id| tr.span(id).duration().as_secs_f64() * 1e3;
                replay.add_dense(&run.profiled, plan.as_ref(), ms(s));
                replay.add_model(machine, &circuit, &cfg);
                let layers: f64 = tr.children(root).map(ms).sum();
                replay.add_unaccounted(ms(root) - layers);
            }
            r
        } else {
            ThreadClusterExecutor::try_run(&circuit, &cfg, basis, false)
        };
        last_end = Instant::now();
        match r {
            Err(e) => out.fail(format!("run {job}: {e}")),
            Ok(run) => {
                if check_run(&mut out, &run.profiled) {
                    let ms = (last_end - start).as_secs_f64() * 1e3;
                    out.latencies_ms.push(ms);
                    out.completed_ok += 1;
                    if ms <= LIMIT_MS {
                        out.slo_met += 1;
                    }
                }
                // Every run is a repetition of the same job: its exact
                // counts must not drift.
                let mut counts = Replay::default();
                counts.add_dense(&run.profiled, None, 0.0);
                counts.add_model(machine, &circuit, &cfg);
                out.counters.push(counts.exact_counters());
            }
        }
    }
    out.measured_s = (last_end - t0).as_secs_f64();
    out.peak_rss_mib = crate::host::peak_rss_mib();

    if traced {
        let mut layers = Layers::default();
        layers.set(
            "trace.overhead_share",
            span_cost().as_secs_f64() * tr.len() as f64 / out.measured_s.max(1e-9),
        );
        replay.finish(&tr, &mut layers);
        out.layers = Some(layers);
        out.tracer = Some(tr);
    }
    out
}

/// Every run executes the 264 unfused steps and exchanges nothing.
fn check_run(out: &mut RunResult, run: &qse_core::ProfiledRun) -> bool {
    let ok = run.gate_count == STEPS && run.bytes_exchanged == 0;
    if !ok {
        out.fail(format!(
            "run executed {} steps and exchanged {} B (want {STEPS} and 0)",
            run.gate_count, run.bytes_exchanged
        ));
    }
    ok
}
