//! The standard plan corpus swept by `qse check --plans` and CI: QFT,
//! cache-blocked QFT, and random circuits × rank counts × transpile
//! strategies × chunk caps, each paired with the [`VerifyOptions`] the
//! runtime would use, ready for [`crate::verify::verify_plan`].

use crate::verify::VerifyOptions;
use qse_circuit::classify::Layout;
use qse_circuit::qft::{cache_blocked_qft, default_split, qft};
use qse_circuit::random::{random_circuit, GatePool};
use qse_circuit::transpile::{comm_avoid, ByteOracle, Plan, Strategy};
use qse_circuit::{Circuit, Permutation};
use qse_comm::chunking::ChunkPolicy;

/// One corpus entry: a compiled plan, the circuit it was compiled from,
/// and the execution configuration to verify it under.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// Human-readable case name, e.g. `qft8/R4/512B-half/beam`.
    pub name: String,
    pub plan: Plan,
    pub original: Circuit,
    pub n_ranks: u64,
    pub opts: VerifyOptions,
}

fn strategy_name(s: Option<Strategy>) -> &'static str {
    match s {
        None => "off",
        Some(Strategy::Greedy) => "greedy",
        Some(Strategy::Beam { .. }) => "beam",
        Some(Strategy::Exhaustive { .. }) => "exhaustive",
    }
}

/// Builds the standard corpus: 6 circuits × R ∈ {1, 2, 4, 8} ×
/// transpile off/greedy/beam × 2 exchange settings = 144 plans. The
/// settings are a 1 MiB chunk cap with full-exchange SWAPs and a 512 B
/// cap with half-exchange SWAPs, so multi-chunk and half-exchange
/// lowering stay covered on every (circuit, R, strategy) combination.
pub fn standard_corpus() -> Vec<CorpusCase> {
    let circuits: Vec<(String, Circuit)> = vec![
        ("qft6".into(), qft(6)),
        ("qft8".into(), qft(8)),
        ("cbqft8".into(), cache_blocked_qft(8, default_split(8, 5))),
        ("rand7s1".into(), random_circuit(7, 40, GatePool::Full, 1)),
        ("rand7s2".into(), random_circuit(7, 40, GatePool::Full, 2)),
        ("rand8s3".into(), random_circuit(8, 48, GatePool::Full, 3)),
    ];
    let strategies = [None, Some(Strategy::Greedy), Some(Strategy::beam())];
    // (name, chunk cap, half-exchange SWAPs)
    let settings = [("1MiB", 1usize << 20, false), ("512B-half", 512, true)];
    let mut cases = Vec::new();
    for (cname, circuit) in &circuits {
        for &ranks in &[1u64, 2, 4, 8] {
            for &strategy in &strategies {
                let plan = match strategy {
                    None => {
                        Plan::from_circuit(circuit, Permutation::identity(circuit.n_qubits()))
                    }
                    Some(s) => {
                        let layout = Layout::new(circuit.n_qubits(), ranks);
                        comm_avoid(circuit, &layout, s, &ByteOracle).with_layout_restored()
                    }
                };
                for &(sname, cap, half) in &settings {
                    let opts = VerifyOptions {
                        chunk_policy: ChunkPolicy {
                            max_message_bytes: cap,
                        },
                        half_exchange_swaps: half,
                    };
                    cases.push(CorpusCase {
                        name: format!("{cname}/R{ranks}/{sname}/{}", strategy_name(strategy)),
                        plan: plan.clone(),
                        original: circuit.clone(),
                        n_ranks: ranks,
                        opts,
                    });
                }
            }
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_plan;

    #[test]
    fn the_standard_corpus_is_large_and_clean() {
        let cases = standard_corpus();
        assert_eq!(cases.len(), 144, "corpus size");
        for case in &cases {
            verify_plan(&case.plan, Some(&case.original), case.n_ranks, &case.opts)
                .unwrap_or_else(|e| panic!("{} failed: {e}", case.name));
        }
    }
}
