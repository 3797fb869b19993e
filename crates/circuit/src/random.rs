//! Seeded random circuit generation for property-based testing.
//!
//! The distributed engine, the transpiler and the storage kernels are all
//! verified against a dense reference simulator on random circuits; this
//! module is the workload generator for those checks.

use crate::circuit::Circuit;
use crate::gate::Gate;
use qse_math::{Complex64, Matrix2, Matrix4};
use qse_util::rng::{Rng, StdRng};

/// A Haar-ish random single-qubit unitary from Euler angles (exactly
/// unitary by construction).
pub fn random_unitary1<R: Rng>(rng: &mut R) -> Matrix2 {
    let theta = rng.random_range(0.0..std::f64::consts::PI);
    let phi = rng.random_range(0.0..std::f64::consts::TAU);
    let lam = rng.random_range(0.0..std::f64::consts::TAU);
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    Matrix2::new(
        Complex64::real(c),
        -Complex64::cis(lam) * s,
        Complex64::cis(phi) * s,
        Complex64::cis(phi + lam) * c,
    )
}

/// A random two-qubit unitary: a tensor product of random single-qubit
/// unitaries, optionally entangled by conjugation with SWAP + CZ-like
/// phases (unitary by construction).
pub fn random_unitary2<R: Rng>(rng: &mut R) -> Matrix4 {
    let u = Matrix4::kron(&random_unitary1(rng), &random_unitary1(rng));
    if rng.random_bool(0.5) {
        // Entangle: multiply by SWAP and a random diagonal phase layer.
        let mut d = Matrix4::identity();
        for i in 0..4 {
            d.m[i * 4 + i] = Complex64::cis(rng.random_range(0.0..std::f64::consts::TAU));
        }
        Matrix4::swap().matmul(&d.matmul(&u))
    } else {
        u
    }
}

/// Which gate families a random circuit may draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatePool {
    /// Every supported gate.
    Full,
    /// Only gates the QFT uses: H, CPhase, SWAP.
    QftLike,
    /// Only diagonal gates (for fusion tests).
    DiagonalOnly,
    /// Only Clifford gates, including phase gates at exact Clifford
    /// angles (0, ±π/2, π and −0.0) so classification has to rely on
    /// canonicalization rather than gate names.
    Clifford,
}

/// Generates a reproducible random circuit.
pub fn random_circuit(n_qubits: u32, n_gates: usize, pool: GatePool, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n_qubits);
    for _ in 0..n_gates {
        c.push(random_gate(&mut rng, n_qubits, pool));
    }
    c
}

fn two_distinct<R: Rng>(rng: &mut R, n: u32) -> (u32, u32) {
    let a = rng.random_range(0..n);
    let mut b = rng.random_range(0..n - 1);
    if b >= a {
        b += 1;
    }
    (a, b)
}

fn random_gate<R: Rng>(rng: &mut R, n: u32, pool: GatePool) -> Gate {
    let theta = rng.random_range(-std::f64::consts::PI..std::f64::consts::PI);
    match pool {
        GatePool::QftLike => match rng.random_range(0..3) {
            0 => Gate::H(rng.random_range(0..n)),
            1 => {
                if n < 2 {
                    return Gate::H(0);
                }
                let (a, b) = two_distinct(rng, n);
                Gate::CPhase { a, b, theta }
            }
            _ => {
                if n < 2 {
                    return Gate::H(0);
                }
                let (a, b) = two_distinct(rng, n);
                Gate::Swap(a, b)
            }
        },
        GatePool::DiagonalOnly => match rng.random_range(0..5) {
            0 => Gate::Z(rng.random_range(0..n)),
            1 => Gate::S(rng.random_range(0..n)),
            2 => Gate::T(rng.random_range(0..n)),
            3 => Gate::Phase {
                target: rng.random_range(0..n),
                theta,
            },
            _ => {
                if n < 2 {
                    return Gate::Z(0);
                }
                let (a, b) = two_distinct(rng, n);
                Gate::CPhase { a, b, theta }
            }
        },
        GatePool::Clifford => match rng.random_range(0..11) {
            0 => Gate::H(rng.random_range(0..n)),
            1 => Gate::X(rng.random_range(0..n)),
            2 => Gate::Y(rng.random_range(0..n)),
            3 => Gate::Z(rng.random_range(0..n)),
            4 => Gate::S(rng.random_range(0..n)),
            5 => Gate::Sdg(rng.random_range(0..n)),
            6 => {
                // A phase gate at an exact Clifford angle — including
                // −0.0, the canonicalization bite case.
                let angles = [
                    0.0,
                    -0.0,
                    std::f64::consts::FRAC_PI_2,
                    -std::f64::consts::FRAC_PI_2,
                    std::f64::consts::PI,
                    -std::f64::consts::PI,
                ];
                Gate::Phase {
                    target: rng.random_range(0..n),
                    theta: angles[rng.random_range(0..angles.len())],
                }
            }
            7 => {
                if n < 2 {
                    return Gate::H(0);
                }
                let (control, target) = two_distinct(rng, n);
                Gate::CNot { control, target }
            }
            8 => {
                if n < 2 {
                    return Gate::S(0);
                }
                let (a, b) = two_distinct(rng, n);
                Gate::CZ(a, b)
            }
            9 => {
                if n < 2 {
                    return Gate::Sdg(0);
                }
                let (a, b) = two_distinct(rng, n);
                Gate::Swap(a, b)
            }
            _ => {
                if n < 2 {
                    return Gate::Z(0);
                }
                let (a, b) = two_distinct(rng, n);
                Gate::CPhase {
                    a,
                    b,
                    theta: std::f64::consts::PI,
                }
            }
        },
        GatePool::Full => match rng.random_range(0..15) {
            0 => Gate::H(rng.random_range(0..n)),
            1 => Gate::X(rng.random_range(0..n)),
            2 => Gate::Y(rng.random_range(0..n)),
            3 => Gate::Z(rng.random_range(0..n)),
            4 => Gate::S(rng.random_range(0..n)),
            5 => Gate::T(rng.random_range(0..n)),
            6 => Gate::Phase {
                target: rng.random_range(0..n),
                theta,
            },
            7 => Gate::Rx {
                target: rng.random_range(0..n),
                theta,
            },
            8 => Gate::Ry {
                target: rng.random_range(0..n),
                theta,
            },
            9 => {
                if n < 2 {
                    return Gate::H(0);
                }
                let (control, target) = two_distinct(rng, n);
                Gate::CNot { control, target }
            }
            10 => {
                if n < 2 {
                    return Gate::H(0);
                }
                let (a, b) = two_distinct(rng, n);
                Gate::CPhase { a, b, theta }
            }
            11 => {
                if n < 2 {
                    return Gate::H(0);
                }
                let (a, b) = two_distinct(rng, n);
                Gate::Swap(a, b)
            }
            12 => {
                if n < 2 {
                    return Gate::H(0);
                }
                let k = rng.random_range(2..=n.min(4));
                let mut qubits: Vec<u32> = (0..n).collect();
                for i in 0..k as usize {
                    let j = rng.random_range(i..n as usize);
                    qubits.swap(i, j);
                }
                qubits.truncate(k as usize);
                Gate::MCPhase { qubits, theta }
            }
            13 => {
                if n < 2 {
                    return Gate::H(0);
                }
                let (control, target) = two_distinct(rng, n);
                Gate::CUnitary {
                    control,
                    target,
                    matrix: random_unitary1(rng),
                }
            }
            _ => {
                if n < 2 {
                    return Gate::H(0);
                }
                let (a, b) = two_distinct(rng, n);
                Gate::Unitary2 {
                    a,
                    b,
                    matrix: random_unitary2(rng),
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = random_circuit(6, 40, GatePool::Full, 7);
        let b = random_circuit(6, 40, GatePool::Full, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_circuit(6, 40, GatePool::Full, 7);
        let b = random_circuit(6, 40, GatePool::Full, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn requested_length_is_honoured() {
        assert_eq!(random_circuit(4, 25, GatePool::QftLike, 0).len(), 25);
    }

    #[test]
    fn qft_pool_only_emits_qft_gates() {
        let c = random_circuit(5, 100, GatePool::QftLike, 3);
        for g in c.gates() {
            assert!(
                matches!(g, Gate::H(_) | Gate::CPhase { .. } | Gate::Swap(..)),
                "unexpected gate {g}"
            );
        }
    }

    #[test]
    fn diagonal_pool_is_all_diagonal() {
        let c = random_circuit(5, 100, GatePool::DiagonalOnly, 3);
        assert!(c.gates().iter().all(|g| g.is_diagonal()));
    }

    #[test]
    fn clifford_pool_is_all_clifford() {
        for seed in 0..8 {
            let c = random_circuit(6, 120, GatePool::Clifford, seed);
            assert!(
                crate::classify::is_clifford_circuit(&c),
                "seed {seed} produced a non-Clifford circuit"
            );
        }
    }

    #[test]
    fn clifford_pool_exercises_negative_zero() {
        // The pool must eventually emit the −0.0 phase angle so that
        // downstream conformance suites exercise canonicalization.
        let hit = (0..64).any(|seed| {
            random_circuit(4, 200, GatePool::Clifford, seed)
                .gates()
                .iter()
                .any(
                    |g| matches!(g, Gate::Phase { theta, .. } if theta.to_bits() == (-0.0f64).to_bits()),
                )
        });
        assert!(hit, "no −0.0 phase angle in 64 seeds");
    }

    #[test]
    fn single_qubit_register_works() {
        let c = random_circuit(1, 30, GatePool::Full, 11);
        assert_eq!(c.len(), 30);
        assert!(c.gates().iter().all(|g| g.max_qubit() == 0));
    }

    #[test]
    fn gates_stay_in_range() {
        let c = random_circuit(7, 500, GatePool::Full, 42);
        assert!(c.gates().iter().all(|g| g.max_qubit() < 7));
    }
}
