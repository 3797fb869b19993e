//! Quickstart: build a circuit, simulate it three ways, measure it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use qse::prelude::*;
use qse::statevec::measure::sample_counts;
use qse::util::rng::StdRng;

fn main() {
    // 1. Build a circuit: a GHZ state on 10 qubits followed by a QFT.
    let n = 10u32;
    let mut circuit = Circuit::new(n);
    circuit.h(0);
    for q in 1..n {
        circuit.cnot(0, q);
    }
    circuit.extend(&qft(n));
    println!(
        "circuit: {} qubits, {} gates ({:?})",
        n,
        circuit.len(),
        circuit.gate_counts()
    );

    // 2. Exact local simulation with the production kernels.
    let state = SingleState::simulate(&circuit);
    println!("norm after simulation: {:.12}", state.norm_sqr());

    // 3. The same circuit distributed over 4 thread ranks — real message
    //    passing, identical amplitudes.
    let run = ThreadClusterExecutor::run(&circuit, &SimConfig::default_for(4), 0, true);
    let distributed = run.state.expect("gathered on rank 0");
    let max_dev = qse::math::approx::max_deviation(&state.to_vec(), &distributed);
    println!(
        "distributed run: {} ranks, {} bytes exchanged, max |Δamp| = {max_dev:.2e}",
        run.profiled.n_ranks, run.profiled.bytes_sent
    );

    // 4. Sample measurement outcomes (all amplitudes are available — the
    //    statevector method's signature advantage, paper §1).
    let mut rng = StdRng::seed_from_u64(1);
    let counts = sample_counts(&state, &mut rng, 5).expect("state has nonzero norm");
    println!("5 sampled outcomes: {counts:?}");

    // 5. What would this cost on ARCHER2 at 38 qubits? Ask the model.
    let machine = archer2();
    let est = ModelExecutor::new(&machine).run(&qft(38), &SimConfig::default_for(64));
    println!(
        "modelled 38-qubit QFT on 64 ARCHER2 nodes: {:.0} s, {:.1} MJ, {:.1} CU",
        est.runtime_s,
        est.total_energy_j() / 1e6,
        est.cu
    );
}
