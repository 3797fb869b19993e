//! Host calibration harness.
//!
//! The ARCHER2 constants in `qse-machine` came from the paper's published
//! measurements. This binary performs the *same measurements* on the
//! current host using the real engines — sweep bandwidth, NUMA/cache
//! penalty versus target qubit, and pairwise exchange throughput — and
//! prints them as a ready-to-edit machine description, so the model can
//! be re-anchored to any machine the repository runs on.

use qse_circuit::benchmarks::{hadamard_benchmark, swap_benchmark};
use qse_circuit::Gate;
use qse_core::experiment::TextTable;
use qse_core::{SimConfig, ThreadClusterExecutor};
use qse_statevec::SingleState;
use std::time::Instant;

const SWEEP_QUBITS: u32 = 22; // 4M amplitudes, 64 MB — past LLC
const REPS: usize = 5;

fn sweep_bandwidth(q: u32) -> f64 {
    let mut s: SingleState = SingleState::zero_state(SWEEP_QUBITS);
    // warm-up
    s.apply(&Gate::H(q));
    let t0 = Instant::now();
    for _ in 0..REPS {
        s.apply(&Gate::H(q));
    }
    let dt = t0.elapsed().as_secs_f64() / REPS as f64;
    let bytes = 32.0 * (1u64 << SWEEP_QUBITS) as f64;
    bytes / dt
}

fn main() {
    println!("qse host calibration (sweeps: {SWEEP_QUBITS} qubits, {REPS} reps)\n");

    // 1. Sweep bandwidth of the QuEST (SoA) layout.
    let soa = sweep_bandwidth(4);
    println!(
        "sweep bandwidth, low-stride Hadamard: {:7.2} GB/s\n",
        soa / 1e9
    );

    // 2. Penalty versus target qubit (the Table 1 shape on this host).
    let mut table = TextTable::new(vec!["Target qubit", "GB/s", "vs q0"]);
    let base = sweep_bandwidth(0);
    for q in [0u32, 4, 8, 12, 16, 20, SWEEP_QUBITS - 1] {
        let bw = sweep_bandwidth(q);
        table.row(vec![
            q.to_string(),
            format!("{:.2}", bw / 1e9),
            format!("{:.2}x", base / bw),
        ]);
    }
    println!("per-qubit sweep cost (the Table 1 stride shape):");
    println!("{}", table.render());

    // 3. Blocking exchange throughput (the Table 1 distributed row).
    let n = 18u32;
    let ranks = 4u64;
    let gates = 6usize;
    let circuit = hadamard_benchmark(n, n - 1, gates);
    let mut cfg = SimConfig::default_for(ranks);
    cfg.max_message_bytes = 1 << 16;
    // warm-up then measure
    ThreadClusterExecutor::run(&circuit, &cfg, 0, false);
    let run = ThreadClusterExecutor::run(&circuit, &cfg, 0, false);
    let per_rank_bytes = (run.profiled.bytes_sent / ranks) as f64;
    println!(
        "pairwise exchange ({n} qubits, {ranks} ranks, {gates} distributed H): \
         {:.3} s wall, {:.2} GB/s per rank\n",
        run.profiled.wall_s,
        per_rank_bytes / run.profiled.wall_s / 1e9,
    );

    // 4. Half vs full SWAP exchange.
    let mut table = TextTable::new(vec!["SWAP exchange", "Wall s", "bytes/rank"]);
    for (label, half) in [("full", false), ("half", true)] {
        let circuit = swap_benchmark(n, 2, n - 1, gates);
        let mut cfg = SimConfig::fast_for(ranks);
        cfg.half_exchange_swaps = half;
        ThreadClusterExecutor::run(&circuit, &cfg, 0, false);
        let run = ThreadClusterExecutor::run(&circuit, &cfg, 0, false);
        table.row(vec![
            label.to_string(),
            format!("{:.3}", run.profiled.wall_s),
            run.profiled.bytes_per_rank().to_string(),
        ]);
    }
    println!("distributed SWAP ({n} qubits, {ranks} ranks, {gates} gates):");
    println!("{}", table.render());

    println!("Paste a machine description with these constants into");
    println!("`qse_machine` (see archer2.rs for the field meanings) to re-anchor");
    println!("the model to this host.");
}
