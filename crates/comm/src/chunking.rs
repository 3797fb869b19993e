//! Chunked pairwise exchange — the heart of a distributed gate.
//!
//! QuEST exchanges the *entire local statevector* with a single pair rank
//! for every distributed gate: 64 GB per process on ARCHER2. "Due to
//! limitations of some implementations of MPI, individual messages cannot
//! be larger than 2 GB, so the communication cannot be done in a single
//! message. Instead, 32 messages are exchanged per distributed gate"
//! (§2.1). This module reproduces that structure with a configurable cap:
//! [`exchange_blocking`] is QuEST's original scheme, one blocking
//! `sendrecv` per chunk, strictly serialised.
//!
//! The paper's non-blocking rewrite is not executed here. The analytic
//! machine model prices it (`qse_machine::CommMode`) with effective
//! bandwidths calibrated from the paper's Table 1; on the thread cluster
//! the executed variants measured within a few percent of blocking.

use crate::error::CommError;
use crate::Communicator;
use crate::Result;
use std::ops::Range;

/// Message-size policy for chunked transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPolicy {
    /// Maximum bytes per message. The paper's machines cap at 2 GiB; tests
    /// and benches use small values to force multi-chunk behaviour.
    pub max_message_bytes: usize,
}

impl ChunkPolicy {
    /// The paper's production cap: 2 GiB per MPI message.
    pub const ARCHER2: ChunkPolicy = ChunkPolicy {
        max_message_bytes: 2 * 1024 * 1024 * 1024,
    };

    /// Creates a policy, rejecting a zero cap.
    pub fn new(max_message_bytes: usize) -> Result<Self> {
        if max_message_bytes == 0 {
            return Err(CommError::InvalidConfig("max_message_bytes must be > 0"));
        }
        Ok(ChunkPolicy { max_message_bytes })
    }

    /// Number of messages needed for `total` bytes (0 bytes → 0 messages).
    pub fn num_chunks(&self, total: usize) -> usize {
        total.div_ceil(self.max_message_bytes)
    }

    /// Byte ranges of each chunk, in order.
    ///
    /// Chunk starts use saturating arithmetic: for any `total <=
    /// usize::MAX` every start offset `i * cap` is `< total` and therefore
    /// cannot overflow; the saturation plus debug assertion keep a future
    /// refactor from silently wrapping on pathological `(total, cap)`
    /// combinations without putting a panic on the library path.
    pub fn ranges(&self, total: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let cap = self.max_message_bytes;
        (0..self.num_chunks(total)).map(move |i| {
            let start = i.saturating_mul(cap);
            debug_assert!(start < total, "chunk start {start} beyond total {total}");
            start..usize::min(start.saturating_add(cap), total)
        })
    }

    /// Byte range of chunk `i` out of `total` bytes, or `None` past the end.
    pub fn chunk_range(&self, i: usize, total: usize) -> Option<Range<usize>> {
        if i >= self.num_chunks(total) {
            return None;
        }
        let start = i.saturating_mul(self.max_message_bytes);
        Some(start..usize::min(start.saturating_add(self.max_message_bytes), total))
    }
}

/// Base tags must leave the low 32 bits for chunk indices.
const CHUNK_TAG_SHIFT: u64 = 32;

/// Builds the wire tag for chunk `idx` of an exchange tagged `base`.
///
/// # Panics
/// Panics if `base >= 2^31` or `idx >= 2^32`; exchanges never get near
/// either bound, and colliding tags would corrupt message matching.
#[inline]
pub fn chunk_tag(base: u64, idx: usize) -> u64 {
    assert!(base < (1 << 31), "exchange base tag too large: {base}");
    assert!((idx as u64) < (1 << 32), "chunk index too large: {idx}");
    (base << CHUNK_TAG_SHIFT) | idx as u64
}

/// Symmetric full exchange using blocking sendrecv, chunk by chunk.
///
/// `send_buf` and `recv_buf` may differ in length (the half-exchange SWAP
/// optimisation sends half the vector); chunking applies to each direction
/// independently, in lockstep over the longer of the two chunk counts.
pub fn exchange_blocking(
    comm: &mut Communicator,
    peer: usize,
    base_tag: u64,
    send_buf: &[u8],
    recv_buf: &mut Vec<u8>,
    expected_recv: usize,
    policy: ChunkPolicy,
) -> Result<()> {
    recv_buf.clear();
    recv_buf.reserve(expected_recv);
    let send_chunks = policy.num_chunks(send_buf.len());
    let recv_chunks = policy.num_chunks(expected_recv);
    let steps = usize::max(send_chunks, recv_chunks);
    for i in 0..steps {
        if let Some(r) = policy.chunk_range(i, send_buf.len()) {
            comm.send(peer, chunk_tag(base_tag, i), &send_buf[r])?;
        }
        if i < recv_chunks {
            let payload = comm.recv(peer, chunk_tag(base_tag, i))?;
            recv_buf.extend_from_slice(&payload);
        }
    }
    if !send_buf.is_empty() {
        comm.record_exchange_bytes(send_buf.len() as u64);
    }
    debug_assert_eq!(recv_buf.len(), expected_recv, "peer sent unexpected size");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn policy_rejects_zero() {
        assert!(ChunkPolicy::new(0).is_err());
        assert!(ChunkPolicy::new(1).is_ok());
    }

    #[test]
    fn chunk_counts_and_ranges() {
        let p = ChunkPolicy::new(10).unwrap();
        assert_eq!(p.num_chunks(0), 0);
        assert_eq!(p.num_chunks(10), 1);
        assert_eq!(p.num_chunks(11), 2);
        assert_eq!(p.num_chunks(95), 10);
        let ranges: Vec<_> = p.ranges(25).collect();
        assert_eq!(ranges, vec![0..10, 10..20, 20..25]);
    }

    #[test]
    fn boundary_totals_zero_cap_and_cap_plus_one() {
        let cap = 64;
        let p = ChunkPolicy::new(cap).unwrap();
        // total = 0: no chunks, no ranges.
        assert_eq!(p.num_chunks(0), 0);
        assert_eq!(p.ranges(0).count(), 0);
        // total = cap: exactly one full chunk.
        assert_eq!(p.num_chunks(cap), 1);
        assert_eq!(p.ranges(cap).collect::<Vec<_>>(), vec![0..cap]);
        // total = cap + 1: a full chunk plus a one-byte tail.
        assert_eq!(p.num_chunks(cap + 1), 2);
        assert_eq!(
            p.ranges(cap + 1).collect::<Vec<_>>(),
            vec![0..cap, cap..cap + 1]
        );
    }

    #[test]
    fn ranges_near_usize_max_do_not_wrap() {
        // The last chunk's nominal end (start + cap) would exceed
        // usize::MAX; the saturating add must clamp to `total` instead of
        // wrapping around to a tiny range.
        let cap = usize::MAX / 2 + 1; // 2^63 on 64-bit targets
        let total = usize::MAX;
        let p = ChunkPolicy::new(cap).unwrap();
        assert_eq!(p.num_chunks(total), 2);
        let ranges: Vec<_> = p.ranges(total).collect();
        assert_eq!(ranges, vec![0..cap, cap..total]);
    }

    #[test]
    fn archer2_policy_matches_paper() {
        // 64 GB local statevector / 2 GB cap = 32 messages (paper §2.1).
        let local_bytes = 64usize * 1024 * 1024 * 1024;
        assert_eq!(ChunkPolicy::ARCHER2.num_chunks(local_bytes), 32);
    }

    #[test]
    fn chunk_tags_unique_across_chunks_and_bases() {
        let mut seen = std::collections::HashSet::new();
        for base in 0..8u64 {
            for idx in 0..8usize {
                assert!(seen.insert(chunk_tag(base, idx)));
            }
        }
    }

    #[test]
    fn chunk_tags_unique_at_documented_bounds() {
        // The extreme corners of the documented domain (base < 2^31,
        // idx < 2^32) must still map to distinct tags.
        let bases = [0u64, 1, (1 << 31) - 1];
        let idxs = [0usize, 1, (1usize << 32) - 1];
        let mut seen = std::collections::HashSet::new();
        for &base in &bases {
            for &idx in &idxs {
                assert!(seen.insert(chunk_tag(base, idx)), "collision at ({base}, {idx})");
            }
        }
        assert_eq!(seen.len(), bases.len() * idxs.len());
    }

    #[test]
    fn chunk_tag_round_trips_base_and_index() {
        let tag = chunk_tag((1 << 31) - 1, (1usize << 32) - 1);
        assert_eq!(tag >> CHUNK_TAG_SHIFT, (1 << 31) - 1);
        assert_eq!(tag & 0xFFFF_FFFF, (1u64 << 32) - 1);
    }

    #[test]
    #[should_panic(expected = "base tag too large")]
    fn oversized_base_tag_panics() {
        chunk_tag(1 << 31, 0);
    }

    #[test]
    #[should_panic(expected = "chunk index too large")]
    fn oversized_chunk_index_panics() {
        chunk_tag(0, 1usize << 32);
    }

    fn roundtrip(len: usize, cap: usize) {
        let policy = ChunkPolicy::new(cap).unwrap();
        Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            let send: Vec<u8> = (0..len).map(|i| (i + c.rank() * 7) as u8).collect();
            let mut recv = Vec::new();
            exchange_blocking(c, peer, 3, &send, &mut recv, len, policy).unwrap();
            let expected: Vec<u8> = (0..len).map(|i| (i + peer * 7) as u8).collect();
            assert_eq!(recv, expected);
        });
    }

    #[test]
    fn blocking_exchange_roundtrips() {
        roundtrip(1000, 64);
        roundtrip(64, 64); // exactly one chunk
        roundtrip(65, 64); // one byte spillover
        roundtrip(1, 1024);
        roundtrip(0, 16); // empty exchange is legal
    }

    #[test]
    fn chunk_range_matches_ranges_iterator() {
        let p = ChunkPolicy::new(10).unwrap();
        let from_iter: Vec<_> = p.ranges(25).collect();
        let from_index: Vec<_> = (0..3).map(|i| p.chunk_range(i, 25).unwrap()).collect();
        assert_eq!(from_iter, from_index);
        assert_eq!(p.chunk_range(3, 25), None);
        assert_eq!(p.chunk_range(0, 0), None);
    }

    #[test]
    fn asymmetric_exchange_sizes() {
        // One side sends 100 bytes, the other 50 (half-exchange pattern).
        Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            let my_len = if c.rank() == 0 { 100 } else { 50 };
            let peer_len = if c.rank() == 0 { 50 } else { 100 };
            let send = vec![c.rank() as u8; my_len];
            let mut recv = Vec::new();
            let policy = ChunkPolicy::new(16).unwrap();
            exchange_blocking(c, peer, 9, &send, &mut recv, peer_len, policy).unwrap();
            assert_eq!(recv, vec![peer as u8; peer_len]);
        });
    }

    #[test]
    fn exchange_message_counts_match_policy() {
        let stats = Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            let send = vec![0u8; 256];
            let mut recv = Vec::new();
            let policy = ChunkPolicy::new(64).unwrap();
            exchange_blocking(c, peer, 0, &send, &mut recv, 256, policy).unwrap();
            c.barrier();
            c.stats()
        });
        for s in stats {
            assert_eq!(s.messages_sent, 4); // 256 / 64
            assert_eq!(s.bytes_sent, 256);
            assert_eq!(s.bytes_received, 256);
            assert_eq!(s.bytes_exchanged, 256, "exchange payload tracked");
        }
    }

    #[test]
    fn blocking_exchange_survives_recoverable_faults() {
        // Full fault cocktail (delay + corruption + transient failures),
        // recoverable by construction: the exchange must deliver exactly
        // the fault-free bytes.
        for seed in [5u64, 9, 31] {
            let universe =
                Universe::with_faults(2, crate::FaultConfig::recoverable(seed)).unwrap();
            let out = universe.run(|c| {
                let peer = 1 - c.rank();
                let send: Vec<u8> = (0..500).map(|i| (i * 7 + c.rank()) as u8).collect();
                let mut recv = Vec::new();
                let policy = ChunkPolicy::new(64).unwrap();
                exchange_blocking(c, peer, 2, &send, &mut recv, 500, policy).unwrap();
                c.barrier();
                (recv, c.stats().faults_injected)
            });
            let mut injected_total = 0;
            for (rank, (recv, injected)) in out.into_iter().enumerate() {
                let peer = 1 - rank;
                let expected: Vec<u8> = (0..500).map(|i| (i * 7 + peer) as u8).collect();
                assert_eq!(recv, expected, "seed {seed} rank {rank}");
                injected_total += injected;
            }
            assert!(injected_total > 0, "plan {seed} never fired a fault");
        }
    }
}
