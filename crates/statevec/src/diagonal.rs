//! Phase functions for diagonal gates.
//!
//! A diagonal gate multiplies amplitude `|i⟩` by a phase that depends only
//! on `i`'s bits — the paper's *fully local* class. This module evaluates
//! that phase for one gate ([`diagonal_phase`], the reference definition)
//! and compiles runs of gates for a single sweep that applies every
//! gate's phase in turn ([`CompiledDiagonal`], the optimisation behind
//! QuEST's efficient controlled-phase application).

use qse_circuit::Gate;
use qse_math::bits;
use qse_math::Complex64;
use std::f64::consts::FRAC_PI_4;

/// The phase a diagonal gate applies to basis state `index`.
///
/// # Panics
/// Panics on non-diagonal gates — callers classify first.
pub fn diagonal_phase(gate: &Gate, index: u64) -> Complex64 {
    match *gate {
        Gate::Z(q) => {
            if bits::bit(index, q) == 1 {
                Complex64::real(-1.0)
            } else {
                Complex64::ONE
            }
        }
        Gate::S(q) => phase_if(index, q, Complex64::I),
        Gate::Sdg(q) => phase_if(index, q, -Complex64::I),
        Gate::T(q) => phase_if(index, q, Complex64::cis(FRAC_PI_4)),
        Gate::Tdg(q) => phase_if(index, q, Complex64::cis(-FRAC_PI_4)),
        Gate::Phase { target, theta } => phase_if(index, target, Complex64::cis(theta)),
        Gate::Rz { target, theta } => {
            if bits::bit(index, target) == 1 {
                Complex64::cis(theta / 2.0)
            } else {
                Complex64::cis(-theta / 2.0)
            }
        }
        Gate::CZ(a, b) => {
            if bits::bit(index, a) == 1 && bits::bit(index, b) == 1 {
                Complex64::real(-1.0)
            } else {
                Complex64::ONE
            }
        }
        Gate::CPhase { a, b, theta } => {
            if bits::bit(index, a) == 1 && bits::bit(index, b) == 1 {
                Complex64::cis(theta)
            } else {
                Complex64::ONE
            }
        }
        Gate::Unitary1 { target, matrix } => {
            debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
            if bits::bit(index, target) == 1 {
                matrix.at(1, 1)
            } else {
                matrix.at(0, 0)
            }
        }
        Gate::MCPhase { ref qubits, theta } => {
            if qubits.iter().all(|&q| bits::bit(index, q) == 1) {
                Complex64::cis(theta)
            } else {
                Complex64::ONE
            }
        }
        Gate::CUnitary {
            control,
            target,
            matrix,
        } => {
            debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
            if bits::bit(index, control) == 1 {
                if bits::bit(index, target) == 1 {
                    matrix.at(1, 1)
                } else {
                    matrix.at(0, 0)
                }
            } else {
                Complex64::ONE
            }
        }
        Gate::Unitary2 { a, b, matrix } => {
            debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
            let idx = crate::ix((bits::bit(index, b) << 1) | bits::bit(index, a));
            matrix.at(idx, idx)
        }
        ref g => unreachable!("diagonal_phase called on non-diagonal gate {g}"),
    }
}

#[inline(always)]
fn phase_if(index: u64, q: u32, p: Complex64) -> Complex64 {
    if bits::bit(index, q) == 1 {
        p
    } else {
        Complex64::ONE
    }
}

/// One diagonal gate lowered to a branch-light evaluator for the fused
/// execution sweep.
///
/// Every constant (`cis(θ)`, matrix entries, …) is computed once at
/// compile time with the same expressions [`diagonal_phase`] evaluates
/// per call, and [`CompiledDiagonal::apply`] multiplies the amplitude by
/// each gate's phase *in gate order* — including the identity phase of
/// non-matching indices — so fused execution is bit-for-bit identical to
/// applying the same gates one sweep at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PhaseOp {
    /// `p` when every bit of `mask` is set, else 1 — Z, S, S†, T, T†,
    /// Phase, CZ, CPhase, MCPhase.
    MaskAll {
        /// Required-ones mask.
        mask: u64,
        /// Phase applied on a full match.
        p: Complex64,
    },
    /// `p1`/`p0` selected by the bit at `shift` — Rz and diagonal
    /// single-qubit unitaries.
    Select {
        /// Target qubit.
        shift: u32,
        /// Phase when the bit is 0.
        p0: Complex64,
        /// Phase when the bit is 1.
        p1: Complex64,
    },
    /// [`PhaseOp::Select`] gated by a control bit (diagonal CUnitary):
    /// identity unless the control bit is set.
    CtrlSelect {
        /// Control qubit.
        ctrl: u32,
        /// Target qubit.
        shift: u32,
        /// Phase when control = 1 and target bit = 0.
        p0: Complex64,
        /// Phase when control = 1 and target bit = 1.
        p1: Complex64,
    },
    /// Two-bit diagonal lookup (diagonal Unitary2), table index
    /// `(bit_b << 1) | bit_a`.
    Table4 {
        /// Low-order orbit qubit.
        a: u32,
        /// High-order orbit qubit.
        b: u32,
        /// The four diagonal entries.
        d: [Complex64; 4],
    },
}

impl PhaseOp {
    fn compile(gate: &Gate) -> PhaseOp {
        let all = |mask: u64, p: Complex64| PhaseOp::MaskAll { mask, p };
        match *gate {
            Gate::Z(q) => all(1 << q, Complex64::real(-1.0)),
            Gate::S(q) => all(1 << q, Complex64::I),
            Gate::Sdg(q) => all(1 << q, -Complex64::I),
            Gate::T(q) => all(1 << q, Complex64::cis(FRAC_PI_4)),
            Gate::Tdg(q) => all(1 << q, Complex64::cis(-FRAC_PI_4)),
            Gate::Phase { target, theta } => all(1 << target, Complex64::cis(theta)),
            Gate::Rz { target, theta } => PhaseOp::Select {
                shift: target,
                p0: Complex64::cis(-theta / 2.0),
                p1: Complex64::cis(theta / 2.0),
            },
            Gate::CZ(a, b) => all((1 << a) | (1 << b), Complex64::real(-1.0)),
            Gate::CPhase { a, b, theta } => all((1 << a) | (1 << b), Complex64::cis(theta)),
            Gate::MCPhase { ref qubits, theta } => all(
                qubits.iter().fold(0u64, |m, &q| m | (1 << q)),
                Complex64::cis(theta),
            ),
            Gate::Unitary1 { target, matrix } => {
                debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
                PhaseOp::Select {
                    shift: target,
                    p0: matrix.at(0, 0),
                    p1: matrix.at(1, 1),
                }
            }
            Gate::CUnitary {
                control,
                target,
                matrix,
            } => {
                debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
                PhaseOp::CtrlSelect {
                    ctrl: control,
                    shift: target,
                    p0: matrix.at(0, 0),
                    p1: matrix.at(1, 1),
                }
            }
            Gate::Unitary2 { a, b, matrix } => {
                debug_assert!(matrix.is_diagonal(1e-14), "non-diagonal unitary");
                PhaseOp::Table4 {
                    a,
                    b,
                    d: [
                        matrix.at(0, 0),
                        matrix.at(1, 1),
                        matrix.at(2, 2),
                        matrix.at(3, 3),
                    ],
                }
            }
            ref g => unreachable!("PhaseOp::compile called on non-diagonal gate {g}"),
        }
    }

    /// The phase this gate applies to basis state `index` (1 when the
    /// gate does not touch it) — identical to [`diagonal_phase`] of the
    /// source gate, bit for bit.
    #[inline(always)]
    fn phase(&self, index: u64) -> Complex64 {
        match *self {
            PhaseOp::MaskAll { mask, p } => {
                if index & mask == mask {
                    p
                } else {
                    Complex64::ONE
                }
            }
            PhaseOp::Select { shift, p0, p1 } => {
                if (index >> shift) & 1 == 1 {
                    p1
                } else {
                    p0
                }
            }
            PhaseOp::CtrlSelect {
                ctrl,
                shift,
                p0,
                p1,
            } => {
                if (index >> ctrl) & 1 == 1 {
                    if (index >> shift) & 1 == 1 {
                        p1
                    } else {
                        p0
                    }
                } else {
                    Complex64::ONE
                }
            }
            PhaseOp::Table4 { a, b, d } => {
                let idx = (((index >> b) & 1) << 1) | ((index >> a) & 1);
                d[crate::ix(idx)]
            }
        }
    }
}

/// A run of diagonal gates precompiled for single-sweep execution — the
/// execution-layer counterpart of the analytic model's fused runs.
///
/// Where [`diagonal_phase`] re-matches on the gate enum per amplitude and
/// recomputes `cis(θ)` per call, the compiled form folds each gate to a
/// mask test plus a prebuilt constant. The storage backends drive it
/// through [`crate::storage::AmpStorage::apply_fused_diagonal`]: one read
/// and one write per amplitude for the whole run, instead of one sweep
/// per gate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompiledDiagonal {
    ops: Vec<PhaseOp>,
}

impl CompiledDiagonal {
    /// Compiles a run of diagonal gates, preserving gate order.
    ///
    /// # Panics
    /// Panics on non-diagonal gates — callers segment diagonal runs
    /// first.
    pub fn compile<'g>(gates: impl IntoIterator<Item = &'g Gate>) -> Self {
        CompiledDiagonal {
            ops: gates.into_iter().map(PhaseOp::compile).collect(),
        }
    }

    /// Number of gates in the run.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for an empty run (applies the identity).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Multiplies `amp` by every gate's phase at `index`, in gate order —
    /// the exact float-op sequence gate-at-a-time execution performs.
    #[inline]
    pub fn apply(&self, index: u64, amp: Complex64) -> Complex64 {
        let mut a = amp;
        for op in &self.ops {
            a = a * op.phase(index);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_math::approx::assert_complex_close;

    #[test]
    fn z_phase() {
        assert_eq!(diagonal_phase(&Gate::Z(1), 0b01), Complex64::ONE);
        assert_eq!(diagonal_phase(&Gate::Z(1), 0b10), Complex64::real(-1.0));
    }

    #[test]
    fn s_t_relations() {
        // T·T = S on every index.
        for idx in 0..8u64 {
            let t2 = diagonal_phase(&Gate::T(1), idx) * diagonal_phase(&Gate::T(1), idx);
            assert_complex_close(t2, diagonal_phase(&Gate::S(1), idx), 1e-12);
        }
        // S·Sdg = 1.
        for idx in 0..8u64 {
            let p = diagonal_phase(&Gate::S(2), idx) * diagonal_phase(&Gate::Sdg(2), idx);
            assert_complex_close(p, Complex64::ONE, 1e-12);
        }
    }

    #[test]
    fn cphase_needs_both_bits() {
        let g = Gate::CPhase {
            a: 0,
            b: 2,
            theta: 0.5,
        };
        assert_eq!(diagonal_phase(&g, 0b001), Complex64::ONE);
        assert_eq!(diagonal_phase(&g, 0b100), Complex64::ONE);
        assert_complex_close(diagonal_phase(&g, 0b101), Complex64::cis(0.5), 1e-12);
    }

    #[test]
    fn rz_splits_phase_symmetrically() {
        let g = Gate::Rz {
            target: 0,
            theta: 0.8,
        };
        let p0 = diagonal_phase(&g, 0);
        let p1 = diagonal_phase(&g, 1);
        assert_complex_close(p0 * p1, Complex64::ONE, 1e-12);
        assert_complex_close(p1, Complex64::cis(0.4), 1e-12);
    }

    #[test]
    fn diagonal_unitary1_uses_matrix_entries() {
        let m = qse_math::Matrix2::diagonal(Complex64::cis(0.1), Complex64::cis(0.2));
        let g = Gate::Unitary1 { target: 1, matrix: m };
        assert_complex_close(diagonal_phase(&g, 0b00), Complex64::cis(0.1), 1e-12);
        assert_complex_close(diagonal_phase(&g, 0b10), Complex64::cis(0.2), 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-diagonal gate")]
    fn rejects_non_diagonal() {
        diagonal_phase(&Gate::H(0), 0);
    }

    fn one_of_each_diagonal() -> Vec<Gate> {
        vec![
            Gate::Z(0),
            Gate::S(1),
            Gate::Sdg(2),
            Gate::T(0),
            Gate::Tdg(1),
            Gate::Phase {
                target: 2,
                theta: 0.37,
            },
            Gate::Rz {
                target: 0,
                theta: -1.1,
            },
            Gate::CZ(0, 2),
            Gate::CPhase {
                a: 1,
                b: 2,
                theta: 0.73,
            },
            Gate::MCPhase {
                qubits: vec![0, 1, 2],
                theta: 2.2,
            },
            Gate::Unitary1 {
                target: 1,
                matrix: qse_math::Matrix2::diagonal(Complex64::cis(0.4), Complex64::cis(-0.9)),
            },
            Gate::CUnitary {
                control: 2,
                target: 0,
                matrix: qse_math::Matrix2::diagonal(Complex64::cis(1.3), Complex64::cis(0.2)),
            },
        ]
    }

    #[test]
    fn compiled_phase_is_bit_identical_to_diagonal_phase() {
        // The compiled evaluator must reproduce `diagonal_phase` exactly —
        // not approximately — for every gate kind and every index, since
        // the fused/unfused equivalence contract is bitwise.
        for g in one_of_each_diagonal() {
            let compiled = CompiledDiagonal::compile(std::slice::from_ref(&g));
            for idx in 0..8u64 {
                let want = diagonal_phase(&g, idx);
                let got = compiled.apply(idx, Complex64::ONE);
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (
                        (Complex64::ONE * want).re.to_bits(),
                        (Complex64::ONE * want).im.to_bits()
                    ),
                    "gate {g} index {idx}"
                );
            }
        }
    }

    #[test]
    fn compiled_apply_matches_sequential_multiplication() {
        // apply() must perform the same multiply sequence as k successive
        // gate-at-a-time sweeps: a·p1·p2·…·pk in gate order.
        let gates = one_of_each_diagonal();
        let compiled = CompiledDiagonal::compile(&gates);
        assert_eq!(compiled.len(), gates.len());
        for idx in 0..8u64 {
            let amp = Complex64::new(0.3 - idx as f64, 0.8);
            let want = gates
                .iter()
                .fold(amp, |a, g| a * diagonal_phase(g, idx));
            let got = compiled.apply(idx, amp);
            assert_eq!(got.re.to_bits(), want.re.to_bits(), "re at {idx}");
            assert_eq!(got.im.to_bits(), want.im.to_bits(), "im at {idx}");
        }
    }

    #[test]
    fn empty_compiled_run_is_identity() {
        let compiled = CompiledDiagonal::compile(&[]);
        assert!(compiled.is_empty());
        let a = Complex64::new(0.5, -0.25);
        assert_eq!(compiled.apply(3, a), a);
    }

    #[test]
    #[should_panic(expected = "non-diagonal gate")]
    fn compile_rejects_non_diagonal() {
        CompiledDiagonal::compile(&[Gate::S(0), Gate::H(1)]);
    }
}
