//! Chunked blocking exchange, and full vs half-exchange SWAPs, on the
//! thread cluster.
//!
//! The laptop-scale analogue of Table 1's distributed row and fig 4: the
//! same communication structures the paper optimises, measured for real
//! over thread-rank message passing.

use qse_circuit::benchmarks::{hadamard_benchmark, swap_benchmark};
use qse_core::{SimConfig, ThreadClusterExecutor};
use qse_util::bench::BenchGroup;
use std::hint::black_box;

const N_QUBITS: u32 = 18; // 256k amplitudes over 4 ranks
const RANKS: u64 = 4;
const GATES: usize = 4;

fn bench_exchange() {
    let mut group = BenchGroup::new("distributed_hadamard");
    let local_bytes = 16u64 << (N_QUBITS - 2); // per-rank slice
    group
        .throughput_bytes(local_bytes * GATES as u64)
        .sample_size(10);
    let circuit = hadamard_benchmark(N_QUBITS, N_QUBITS - 1, GATES);
    let mut cfg = SimConfig::default_for(RANKS);
    cfg.max_message_bytes = 64 * 1024; // force multi-chunk
    group.bench("blocking", || {
        black_box(ThreadClusterExecutor::run(&circuit, &cfg, 0, false));
    });
    group.finish();
}

fn bench_swap_exchange() {
    let mut group = BenchGroup::new("distributed_swap");
    group.sample_size(10);
    let circuit = swap_benchmark(N_QUBITS, 2, N_QUBITS - 1, GATES);
    for (name, half) in [("full_exchange", false), ("half_exchange", true)] {
        let mut cfg = SimConfig::fast_for(RANKS);
        cfg.half_exchange_swaps = half;
        group.bench(name, || {
            black_box(ThreadClusterExecutor::run(&circuit, &cfg, 0, false));
        });
    }
    group.finish();
}

fn main() {
    bench_exchange();
    bench_swap_exchange();
}
