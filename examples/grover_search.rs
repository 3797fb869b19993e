//! Grover's search, end to end: build, simulate, sample, and price the
//! run on the modelled ARCHER2.
//!
//! ```sh
//! cargo run --release --example grover_search
//! ```

use qse::circuit::algorithms::{grover, grover_optimal_iterations};
use qse::prelude::*;
use qse::statevec::measure::sample_counts;
use qse::util::rng::StdRng;

fn main() {
    let n = 12u32;
    let marked = 0b1011_0110_1001u64;
    let iterations = grover_optimal_iterations(n);
    let circuit = grover(n, marked, iterations);
    println!(
        "Grover: {n} qubits, marked state {marked:#0width$b}, {iterations} iterations, {} gates",
        circuit.len(),
        width = n as usize + 2,
    );

    // Simulate and check the success probability.
    let state = SingleState::simulate(&circuit);
    let p = state.amplitude(marked).norm_sqr();
    println!("P(marked) after {iterations} iterations: {p:.4}");

    // Sample measurements — nearly every shot hits the marked state.
    let mut rng = StdRng::seed_from_u64(2);
    let counts = sample_counts(&state, &mut rng, 100).expect("state has nonzero norm");
    let hits = counts.get(&marked).copied().unwrap_or(0);
    println!("measurement samples: {hits}/100 shots on the marked state");

    // Under- and over-rotation: Grover's probability is periodic.
    for k in [iterations / 2, iterations, iterations * 2] {
        let s = SingleState::simulate(&grover(n, marked, k));
        println!(
            "  {k:3} iterations -> P(marked) = {:.4}",
            s.amplitude(marked).norm_sqr()
        );
    }

    // What would a big instance cost on ARCHER2? Grover on 36 qubits is
    // dominated by its distributed Hadamard layers; compare built-in vs
    // cache-blocked execution of one iteration's worth of layers.
    let machine = archer2();
    let big_n = 36u32;
    let nodes = qse::core::scaling::nodes_for(&machine, NodeKind::Standard, big_n).unwrap();
    let one_iteration = grover(big_n, (1 << big_n) - 1, 1);
    let est = ModelExecutor::new(&machine).run(&one_iteration, &SimConfig::default_for(nodes));
    let blocked = qse::circuit::transpile::cache_blocking::cache_block(
        &one_iteration,
        big_n - nodes.trailing_zeros(),
    );
    let est_blocked =
        ModelExecutor::new(&machine).run(&blocked.circuit, &SimConfig::fast_for(nodes));
    println!(
        "\nmodelled single Grover iteration at {big_n} qubits on {nodes} ARCHER2 nodes:\n  built-in:      {:.1} s, {:.1} MJ\n  cache-blocked: {:.1} s, {:.1} MJ",
        est.runtime_s,
        est.total_energy_j() / 1e6,
        est_blocked.runtime_s,
        est_blocked.total_energy_j() / 1e6,
    );
}
