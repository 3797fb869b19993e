//! Lowering of dense programs into executed steps.
//!
//! Every dense run — one gate through `apply`, a whole circuit, or a
//! comm-avoiding [`Plan`](qse_circuit::transpile::Plan) — is lowered here
//! into the steps the engines execute: a non-diagonal gate, a maximal run
//! of diagonal gates compiled into one [`CompiledDiagonal`] sweep, or a
//! batched global permutation. This is the only place a diagonal gate
//! becomes an executable sweep; a lone diagonal gate is a run of one.
//!
//! Fusing changes the number of sweeps, never the result:
//! [`CompiledDiagonal::apply`] performs the per-gate multiply sequence
//! bit for bit, so any fusion threshold yields the same amplitudes.

use crate::diagonal::CompiledDiagonal;
use qse_circuit::transpile::PlanStep;
use qse_circuit::{Gate, Permutation};
use std::iter::Peekable;

/// Default fusion threshold for the real engines: every diagonal gate
/// already costs a full sweep here, so fusing any run of ≥ 2 strictly
/// removes sweeps (unlike QuEST's quarter-sweep controlled phases, where
/// the model's break-even sits near 4).
pub const DEFAULT_MIN_FUSE: usize = 2;

/// A borrowed source step: a gate, or a plan's batched permutation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source<'a> {
    Gate(&'a Gate),
    Permute(&'a Permutation),
}

impl<'a> From<&'a PlanStep> for Source<'a> {
    fn from(step: &'a PlanStep) -> Self {
        match step {
            PlanStep::Gate(g) => Source::Gate(g),
            PlanStep::Permute(p) => Source::Permute(p),
        }
    }
}

/// One executed step.
#[derive(Debug)]
pub(crate) enum Lowered<'a> {
    /// A non-diagonal gate.
    Gate(&'a Gate),
    /// A run of diagonal gates applied in one sweep.
    Diagonal(CompiledDiagonal),
    /// A batched global permutation.
    Permute(&'a Permutation),
}

/// Lowers `steps`: every maximal run of at least `min_fuse` diagonal
/// gates becomes one sweep, and shorter runs sweep gate by gate.
pub(crate) fn lower<'a>(
    steps: impl IntoIterator<Item = Source<'a>>,
    min_fuse: usize,
) -> impl Iterator<Item = Lowered<'a>> {
    Lowering {
        steps: steps.into_iter().peekable(),
        min_fuse,
        short: Vec::new().into_iter(),
    }
}

struct Lowering<'a, I: Iterator<Item = Source<'a>>> {
    steps: Peekable<I>,
    min_fuse: usize,
    /// The rest of a diagonal run too short to fuse, one sweep each.
    short: std::vec::IntoIter<&'a Gate>,
}

impl<'a, I: Iterator<Item = Source<'a>>> Iterator for Lowering<'a, I> {
    type Item = Lowered<'a>;

    fn next(&mut self) -> Option<Lowered<'a>> {
        let run = match self.short.next() {
            Some(g) => vec![g],
            None => match self.steps.next()? {
                Source::Permute(p) => return Some(Lowered::Permute(p)),
                Source::Gate(g) if !g.is_diagonal() => return Some(Lowered::Gate(g)),
                Source::Gate(g) => {
                    let mut run = vec![g];
                    while let Some(Source::Gate(g)) = self
                        .steps
                        .next_if(|s| matches!(s, Source::Gate(g) if g.is_diagonal()))
                    {
                        run.push(g);
                    }
                    if run.len() < self.min_fuse {
                        self.short = run.split_off(1).into_iter();
                    }
                    run
                }
            },
        };
        Some(Lowered::Diagonal(CompiledDiagonal::compile(run)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::random::{random_circuit, GatePool};
    use qse_circuit::transpile::fusion::{fused_schedule, ScheduleStep};

    #[test]
    fn lowering_follows_the_fused_schedule() {
        // One executed step per schedule step: a fused run is one sweep
        // of the run's length, a single is its gate (a lone diagonal gate
        // is a sweep of one).
        for seed in 0..6 {
            let pool = if seed % 2 == 0 {
                GatePool::QftLike
            } else {
                GatePool::Full
            };
            let c = random_circuit(6, 120, pool, seed);
            for min_fuse in [1, 2, 4] {
                let got: Vec<_> = lower(c.gates().iter().map(Source::Gate), min_fuse).collect();
                let want = fused_schedule(&c, min_fuse);
                assert_eq!(got.len(), want.len(), "seed {seed} min_fuse {min_fuse}");
                for (step, sched) in got.iter().zip(want) {
                    match (step, sched) {
                        (Lowered::Gate(g), ScheduleStep::Single(i)) => {
                            assert!(!g.is_diagonal());
                            assert_eq!(*g, &c.gates()[i]);
                        }
                        (Lowered::Diagonal(run), ScheduleStep::Single(i)) => {
                            assert!(c.gates()[i].is_diagonal());
                            assert_eq!(run.len(), 1);
                        }
                        (Lowered::Diagonal(run), ScheduleStep::Fused(r)) => {
                            assert_eq!(run.len(), r.len());
                        }
                        (step, sched) => panic!("{step:?} lowered for {sched:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn permutes_split_diagonal_runs() {
        let p = Permutation::identity(3);
        let gates = [Gate::Z(0), Gate::S(1), Gate::T(2)];
        let steps = [
            Source::Gate(&gates[0]),
            Source::Gate(&gates[1]),
            Source::Permute(&p),
            Source::Gate(&gates[2]),
        ];
        let got: Vec<_> = lower(steps, DEFAULT_MIN_FUSE).collect();
        assert_eq!(got.len(), 3);
        assert!(matches!(&got[0], Lowered::Diagonal(r) if r.len() == 2));
        assert!(matches!(got[1], Lowered::Permute(_)));
        assert!(matches!(&got[2], Lowered::Diagonal(r) if r.len() == 1));
    }
}
