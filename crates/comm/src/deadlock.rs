//! Runtime deadlock detection over a shared wait-for graph.
//!
//! Every [`crate::Communicator`] registers what it is currently blocked on
//! — the peer rank and tag of a receive, or the barrier — in a
//! [`WaitRegistry`] shared by the whole universe. Blocked receives wake on
//! a short poll slice and run [`WaitRegistry::detect`], which declares a
//! deadlock under either of two sound rules:
//!
//! 1. **Wait cycle**: following the "waiting on" edges from the calling
//!    rank returns to a rank already on the path, and no member of the
//!    cycle has a message in flight towards it. None of them can ever be
//!    satisfied.
//! 2. **Global starvation**: every rank is blocked (receive or barrier) or
//!    has finished, zero messages are in flight anywhere, and at least one
//!    rank is blocked in a receive. Nobody can ever send again.
//!
//! Soundness rests on the in-flight counters: a sender increments the
//! destination's counter *before* the message enters the mailbox and the
//! receiver decrements it at dequeue, so any message that could still wake
//! a rank keeps its counter positive and suppresses detection (the safe
//! direction — detection is retried on the next poll slice). The
//! snapshot reads one rank after another, so it is only trusted when no
//! registry change landed while it was taken: every change bumps a
//! registry-wide counter *after* its write, and detection reads that
//! counter before and after the snapshot. A rank that sends and then
//! enters a barrier between two of those reads would otherwise appear
//! as "barrier-blocked, nothing in flight". A detected
//! deadlock is reported as [`crate::CommError::Deadlock`] with a per-rank
//! diagnostic (rank → waiting-on peer/tag → queue depths) instead of a
//! 60-second timeout.

use qse_util::sync::{sync_point, SyncOp};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// What a rank is currently blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Blocked in `recv(src, tag)`.
    Recv {
        /// Rank we are waiting to hear from.
        src: usize,
        /// Tag we are matching.
        tag: u64,
    },
    /// Blocked in `wait_any` over a set of posted receives.
    RecvAny {
        /// Source rank of the first outstanding receive. When
        /// `multi_source` is false this is the *only* source, so the
        /// cycle rule may follow it as a wait-for edge.
        src: usize,
        /// Number of receives still outstanding in the set.
        outstanding: usize,
        /// True when the outstanding receives name more than one source
        /// rank. A multi-source waiter wakes if *any* of them sends, so
        /// no single wait-for edge is sound; only the global rule can
        /// claim certainty for it.
        multi_source: bool,
    },
    /// Blocked in `barrier()`.
    Barrier,
}

impl fmt::Display for WaitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitKind::Recv { src, tag } => write!(f, "recv(src={src}, tag={tag})"),
            WaitKind::RecvAny {
                src,
                outstanding,
                multi_source,
            } => {
                if *multi_source {
                    write!(f, "wait_any({outstanding} outstanding, multiple sources)")
                } else {
                    write!(f, "wait_any(src={src}, {outstanding} outstanding)")
                }
            }
            WaitKind::Barrier => write!(f, "barrier"),
        }
    }
}

/// Per-rank slot in the wait-for graph.
#[derive(Debug, Default, Clone)]
struct RankWait {
    /// What the rank is blocked on right now, if anything.
    waiting: Option<WaitKind>,
    /// Depth of the rank's unexpected-message queue (buffered arrivals
    /// that matched no receive yet) — diagnostic only.
    pending_depth: usize,
}

/// One rank's line in a [`DeadlockReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankDiag {
    /// The rank this line describes.
    pub rank: usize,
    /// What it is blocked on (`None` → running or finished).
    pub waiting: Option<WaitKind>,
    /// True when the rank's communicator has been dropped.
    pub done: bool,
    /// Buffered unexpected messages held by the rank.
    pub pending_depth: usize,
    /// Messages in flight towards the rank (sent, not yet dequeued).
    pub in_flight: u64,
}

/// The full diagnosis produced when a deadlock is detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Ranks that can never be satisfied (every recv-blocked rank on the
    /// cycle, or all recv-blocked ranks under the global rule).
    pub stuck: Vec<usize>,
    /// One line per rank in the universe.
    pub ranks: Vec<RankDiag>,
}

impl DeadlockReport {
    /// Renders the per-rank diagnostic table as a multi-line string.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "stuck ranks: {:?}", self.stuck);
        for d in &self.ranks {
            let state = match (&d.waiting, d.done) {
                (Some(w), _) => format!("waiting on {w}"),
                (None, true) => "finished".to_string(),
                (None, false) => "running".to_string(),
            };
            let _ = write!(
                out,
                "; rank {} -> {} [{} buffered, {} in flight]",
                d.rank, state, d.pending_depth, d.in_flight
            );
        }
        out
    }
}

/// Shared wait-for graph for one universe: one slot and one in-flight
/// counter per rank.
pub struct WaitRegistry {
    slots: Vec<Mutex<RankWait>>,
    /// Messages sent towards each rank that it has not yet dequeued.
    in_flight: Vec<AtomicU64>,
    /// Set when the rank's communicator is dropped: it can never send.
    done: Vec<AtomicBool>,
    /// Bumped after every change to a slot, an in-flight counter or a
    /// done flag; [`Self::detect`] trusts a snapshot only if it did not
    /// move while the snapshot was taken.
    changes: AtomicU64,
    /// First proven diagnosis, shared so every stuck rank reports the
    /// same full picture even after earlier detectors unregister.
    verdict: Mutex<Option<DeadlockReport>>,
}

impl WaitRegistry {
    /// Creates an empty registry for `size` ranks.
    pub fn new(size: usize) -> Self {
        WaitRegistry {
            slots: (0..size).map(|_| Mutex::new(RankWait::default())).collect(),
            in_flight: (0..size).map(|_| AtomicU64::new(0)).collect(),
            done: (0..size).map(|_| AtomicBool::new(false)).collect(),
            changes: AtomicU64::new(0),
            verdict: Mutex::new(None),
        }
    }

    /// Number of ranks tracked.
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    fn slot(&self, rank: usize) -> std::sync::MutexGuard<'_, RankWait> {
        self.slots[rank]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Marks `rank` blocked on `kind`; `pending_depth` is its current
    /// unexpected-queue depth.
    pub fn begin_wait(&self, rank: usize, kind: WaitKind, pending_depth: usize) {
        {
            let mut s = self.slot(rank);
            s.waiting = Some(kind);
            s.pending_depth = pending_depth;
        }
        self.changed();
    }

    /// Marks `rank` running again.
    pub fn end_wait(&self, rank: usize) {
        self.slot(rank).waiting = None;
        self.changed();
    }

    /// Records that the wait-for state just changed (called after the
    /// write, so a snapshot that saw a later change also sees this bump).
    fn changed(&self) {
        self.changes.fetch_add(1, Ordering::SeqCst);
    }

    /// Updates the diagnostic unexpected-queue depth for `rank`.
    pub fn set_pending_depth(&self, rank: usize, depth: usize) {
        self.slot(rank).pending_depth = depth;
    }

    /// A message towards `dst` entered the transport. Must be called
    /// *before* the enqueue so detection never misses an in-flight message.
    pub fn msg_sent(&self, dst: usize) {
        self.in_flight[dst].fetch_add(1, Ordering::SeqCst);
        self.changed();
    }

    /// Undo of [`Self::msg_sent`] when the enqueue itself failed.
    pub fn msg_unsent(&self, dst: usize) {
        self.in_flight[dst].fetch_sub(1, Ordering::SeqCst);
        self.changed();
    }

    /// `dst` dequeued one message from its mailbox.
    pub fn msg_delivered(&self, dst: usize) {
        self.in_flight[dst].fetch_sub(1, Ordering::SeqCst);
        self.changed();
    }

    /// The rank's communicator was dropped; it can never send again.
    pub fn mark_done(&self, rank: usize) {
        self.done[rank].store(true, Ordering::SeqCst);
        self.changed();
    }

    /// Snapshot every rank's state for a report, one rank after another.
    /// The schedule explorer may switch threads between two ranks' reads.
    fn snapshot(&self) -> Vec<RankDiag> {
        (0..self.size())
            .map(|r| {
                let s = self.slot(r).clone();
                let diag = RankDiag {
                    rank: r,
                    waiting: s.waiting,
                    done: self.done[r].load(Ordering::SeqCst),
                    pending_depth: s.pending_depth,
                    in_flight: self.in_flight[r].load(Ordering::SeqCst),
                };
                sync_point(SyncOp::User("deadlock snapshot: between ranks"));
                diag
            })
            .collect()
    }

    /// Runs both detection rules from the point of view of recv-blocked
    /// rank `me`. Returns a report only when the deadlock is certain.
    pub fn detect(&self, me: usize) -> Option<DeadlockReport> {
        // A deadlock already proven for a set containing `me` stays true
        // even after other members error out and unregister — adopt the
        // shared verdict so every stuck rank reports the same full picture.
        if let Some(v) = self.verdict().as_ref() {
            if v.stuck.contains(&me) {
                return Some(v.clone());
            }
        }

        // A change during the snapshot may have torn it; give no verdict
        // this slice (a real deadlock changes nothing and is seen next).
        let before = self.changes.load(Ordering::SeqCst);
        let snap = self.snapshot();
        if self.changes.load(Ordering::SeqCst) != before {
            return None;
        }
        // `me` must still be recv-blocked in the snapshot (it is, unless a
        // racing update is in progress — then skip this slice).
        let my_wait = snap[me].waiting?;
        if !matches!(
            my_wait,
            WaitKind::Recv { .. } | WaitKind::RecvAny { .. }
        ) {
            return None;
        }

        // Rule 1: wait cycle among recv-blocked ranks with no in-flight
        // messages towards any member.
        if let Some(cycle) = self.find_cycle(me, &snap) {
            return Some(self.publish(me, DeadlockReport {
                stuck: cycle,
                ranks: snap,
            }));
        }

        // Rule 2: global starvation — every rank blocked or finished, no
        // message in flight anywhere, so no future send can happen.
        let all_inert = snap.iter().all(|d| d.waiting.is_some() || d.done);
        let none_in_flight = snap.iter().all(|d| d.in_flight == 0);
        if all_inert && none_in_flight {
            let stuck: Vec<usize> = snap
                .iter()
                .filter(|d| {
                    matches!(
                        d.waiting,
                        Some(WaitKind::Recv { .. }) | Some(WaitKind::RecvAny { .. })
                    )
                })
                .map(|d| d.rank)
                .collect();
            if !stuck.is_empty() {
                return Some(self.publish(me, DeadlockReport { stuck, ranks: snap }));
            }
        }
        None
    }

    fn verdict(&self) -> std::sync::MutexGuard<'_, Option<DeadlockReport>> {
        self.verdict.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records the first proven report so later detectors on the same
    /// stuck set render an identical diagnosis. A concurrently proven
    /// *disjoint* deadlock keeps its own report.
    fn publish(&self, me: usize, report: DeadlockReport) -> DeadlockReport {
        let mut slot = self.verdict();
        match slot.as_ref() {
            Some(v) if v.stuck.contains(&me) => v.clone(),
            Some(_) => report,
            None => {
                *slot = Some(report.clone());
                report
            }
        }
    }

    /// Follows "waiting on" edges from `me`; a revisited rank closes a
    /// cycle. Every member must be recv-blocked with zero in-flight
    /// messages, otherwise a wake-up is still possible.
    fn find_cycle(&self, me: usize, snap: &[RankDiag]) -> Option<Vec<usize>> {
        let mut path: Vec<usize> = Vec::new();
        let mut cur = me;
        loop {
            let d = &snap[cur];
            // A `wait_any` over a single source is equivalent to a plain
            // receive for the cycle rule: only that source can wake it.
            // Multi-source waiters have no sound single edge, so the walk
            // gives up (the global rule still covers them).
            let src = match d.waiting {
                Some(WaitKind::Recv { src, .. }) => src,
                Some(WaitKind::RecvAny {
                    src,
                    multi_source: false,
                    ..
                }) => src,
                _ => return None,
            };
            if d.in_flight != 0 {
                return None;
            }
            if let Some(pos) = path.iter().position(|&r| r == cur) {
                let mut cycle = path[pos..].to_vec();
                cycle.sort_unstable();
                // Only report if the caller itself is trapped on the cycle.
                if cycle.contains(&me) {
                    return Some(cycle);
                }
                return None;
            }
            path.push(cur);
            if src == cur {
                // Self-wait without a buffered match: a one-rank cycle.
                return Some(vec![cur]);
            }
            cur = src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_rank_cycle_is_detected() {
        let reg = WaitRegistry::new(2);
        reg.begin_wait(0, WaitKind::Recv { src: 1, tag: 5 }, 0);
        reg.begin_wait(1, WaitKind::Recv { src: 0, tag: 6 }, 1);
        let report = reg.detect(0).expect("cycle should be found");
        assert_eq!(report.stuck, vec![0, 1]);
        let text = report.render();
        assert!(text.contains("rank 0"));
        assert!(text.contains("tag=5"));
        assert!(text.contains("tag=6"));
    }

    #[test]
    fn in_flight_message_suppresses_detection() {
        let reg = WaitRegistry::new(2);
        reg.begin_wait(0, WaitKind::Recv { src: 1, tag: 5 }, 0);
        reg.begin_wait(1, WaitKind::Recv { src: 0, tag: 6 }, 0);
        reg.msg_sent(0); // something is still en route to rank 0
        assert!(reg.detect(0).is_none());
        reg.msg_delivered(0);
        assert!(reg.detect(0).is_some());
    }

    #[test]
    fn running_rank_prevents_global_rule() {
        let reg = WaitRegistry::new(3);
        reg.begin_wait(0, WaitKind::Recv { src: 2, tag: 1 }, 0);
        reg.begin_wait(1, WaitKind::Barrier, 0);
        // Rank 2 is running: no cycle through it, no global starvation.
        assert!(reg.detect(0).is_none());
    }

    #[test]
    fn global_rule_fires_with_done_and_barrier_ranks() {
        let reg = WaitRegistry::new(3);
        reg.begin_wait(0, WaitKind::Recv { src: 2, tag: 1 }, 0);
        reg.begin_wait(1, WaitKind::Barrier, 0);
        reg.mark_done(2);
        let report = reg.detect(0).expect("global starvation");
        assert_eq!(report.stuck, vec![0]);
        assert!(report.render().contains("finished"));
    }

    #[test]
    fn three_rank_cycle_is_detected() {
        let reg = WaitRegistry::new(4);
        reg.begin_wait(0, WaitKind::Recv { src: 1, tag: 0 }, 0);
        reg.begin_wait(1, WaitKind::Recv { src: 2, tag: 0 }, 0);
        reg.begin_wait(2, WaitKind::Recv { src: 0, tag: 0 }, 0);
        // Rank 3 keeps running: the cycle rule must still fire.
        let report = reg.detect(1).expect("3-cycle");
        assert_eq!(report.stuck, vec![0, 1, 2]);
    }

    #[test]
    fn single_source_wait_any_participates_in_cycle_rule() {
        // rank 0 is in wait_any over several chunks, all from rank 1;
        // rank 1 symmetrically waits on rank 0 — a 2-cycle.
        let reg = WaitRegistry::new(2);
        reg.begin_wait(
            0,
            WaitKind::RecvAny {
                src: 1,
                outstanding: 4,
                multi_source: false,
            },
            0,
        );
        reg.begin_wait(1, WaitKind::Recv { src: 0, tag: 3 }, 0);
        let report = reg.detect(0).expect("cycle through wait_any");
        assert_eq!(report.stuck, vec![0, 1]);
        assert!(report.render().contains("wait_any(src=1, 4 outstanding)"));
    }

    #[test]
    fn multi_source_wait_any_has_no_cycle_edge_but_global_rule_applies() {
        // rank 0 waits on {1, 2}; following either edge alone would be
        // unsound, so the cycle rule must not fire even though rank 1
        // waits back on rank 0. Once rank 2 finishes, the global rule
        // proves starvation.
        let reg = WaitRegistry::new(3);
        reg.begin_wait(
            0,
            WaitKind::RecvAny {
                src: 1,
                outstanding: 2,
                multi_source: true,
            },
            0,
        );
        reg.begin_wait(1, WaitKind::Recv { src: 0, tag: 9 }, 0);
        assert!(
            reg.find_cycle(0, &reg.snapshot()).is_none(),
            "multi-source wait_any must not contribute a wait-for edge"
        );
        // Rank 1's walk reaches rank 0 and must also stop there.
        assert!(reg.find_cycle(1, &reg.snapshot()).is_none());
        // Rank 2 still running: nothing is certain yet.
        assert!(reg.detect(0).is_none());
        reg.mark_done(2);
        let report = reg.detect(0).expect("global starvation");
        assert_eq!(report.stuck, vec![0, 1]);
        assert!(report.render().contains("multiple sources"));
    }

    #[test]
    fn in_flight_message_suppresses_wait_any_detection() {
        let reg = WaitRegistry::new(2);
        reg.begin_wait(
            0,
            WaitKind::RecvAny {
                src: 1,
                outstanding: 2,
                multi_source: false,
            },
            0,
        );
        reg.mark_done(1);
        reg.msg_sent(0); // a chunk is still en route
        assert!(reg.detect(0).is_none());
        reg.msg_delivered(0);
        assert!(reg.detect(0).is_some());
    }

    #[test]
    fn chain_into_foreign_cycle_is_not_reported_for_outsider() {
        // 0 waits on 1, but the cycle is 1 <-> 2; rank 0 is NOT on a cycle
        // (though it is transitively stuck, the cycle rule only claims
        // certainty for cycle members; the global rule handles the rest).
        let reg = WaitRegistry::new(3);
        reg.begin_wait(0, WaitKind::Recv { src: 1, tag: 0 }, 0);
        reg.begin_wait(1, WaitKind::Recv { src: 2, tag: 0 }, 0);
        reg.begin_wait(2, WaitKind::Recv { src: 1, tag: 0 }, 0);
        assert!(reg.find_cycle(0, &reg.snapshot()).is_none());
        // But the global rule still catches it: everyone is blocked.
        let report = reg.detect(0).expect("global rule");
        assert_eq!(report.stuck, vec![0, 1, 2]);
    }
}
