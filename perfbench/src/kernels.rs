//! Kernel sweeps at the `qft-run` width, read against the memcpy
//! ceiling, and the fused single-state QFT.

use qse_circuit::gate::{qft_cphase, Gate};
use qse_circuit::qft::qft;
use qse_statevec::storage::SoaStorage;
use qse_statevec::{SingleState, DEFAULT_MIN_FUSE};
use std::time::Instant;

/// Register width of the sweeps (the `qft-run` width).
pub const SWEEP_QUBITS: u32 = 22;
/// Timed applications per gate kind.
const REPS: usize = 7;

/// One gate kind's sweep rate, with the per-layer metrics it fills.
pub struct Sweep {
    /// Metric for the rate, e.g. `statevec.sweep_gib_s.h`.
    pub rate_metric: &'static str,
    /// Metric for the rate over the memcpy ceiling.
    pub roofline_metric: &'static str,
    /// Median computed GiB/s.
    pub gib_s: f64,
}

/// Bytes one application reads and writes by the kernel's definition:
/// the Hadamard pairs and the diagonal phase sweep visit all 2ⁿ
/// amplitudes, SWAP moves the half whose two bits differ; each visited
/// amplitude (16 B) is read once and written once.
fn computed_bytes(gate: &Gate, n: u32) -> f64 {
    let amps = (1u64 << n) as f64;
    let visited = match gate {
        Gate::Swap(..) => amps / 2.0,
        _ => amps,
    };
    2.0 * 16.0 * visited
}

/// Times one `SingleState::apply` of each gate kind at
/// [`SWEEP_QUBITS`] qubits (targets mid-register, as most QFT gates are).
pub fn sweeps() -> Vec<Sweep> {
    let n = SWEEP_QUBITS;
    let mut state: SingleState<SoaStorage> = SingleState::basis_state(n, 1);
    let gates = [
        (
            "statevec.sweep_gib_s.h",
            "statevec.roofline_frac.h",
            Gate::H(n / 2),
        ),
        (
            "statevec.sweep_gib_s.cphase",
            "statevec.roofline_frac.cphase",
            qft_cphase(n / 2, n - 6),
        ),
        (
            "statevec.sweep_gib_s.swap",
            "statevec.roofline_frac.swap",
            Gate::Swap(5, n - 6),
        ),
    ];
    gates
        .iter()
        .map(|(rate_metric, roofline_metric, gate)| {
            state.apply(gate); // first touch and warm caches
            let rates: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    state.apply(std::hint::black_box(gate));
                    computed_bytes(gate, n) / t.elapsed().as_secs_f64() / f64::from(1u32 << 30)
                })
                .collect();
            Sweep {
                rate_metric,
                roofline_metric,
                gib_s: crate::stats::median(&rates).expect("REPS > 0"),
            }
        })
        .collect()
}

/// Seconds for `SingleState::run_fused(qft(22))` from a basis state —
/// the single-address-space reference the distributed path is read
/// against.
pub fn single_fused_qft_s(basis: u64) -> f64 {
    let c = qft(SWEEP_QUBITS);
    let mut state: SingleState<SoaStorage> = SingleState::basis_state(SWEEP_QUBITS, basis);
    let t = Instant::now();
    state.run_fused(&c, DEFAULT_MIN_FUSE);
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(&state);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_bytes_count_a_read_and_a_write_per_visited_amplitude() {
        assert_eq!(computed_bytes(&Gate::H(0), 4), 2.0 * 16.0 * 16.0);
        assert_eq!(computed_bytes(&qft_cphase(0, 1), 4), 2.0 * 16.0 * 16.0);
        assert_eq!(computed_bytes(&Gate::Swap(0, 1), 4), 2.0 * 16.0 * 8.0);
    }
}
