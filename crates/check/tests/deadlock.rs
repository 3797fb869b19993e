//! Intentional-deadlock suite: rank programs that can never complete
//! must fail *fast* with diagnostics naming the stuck ranks and what
//! they are waiting for — not with a generic receive timeout minutes
//! later. Drives the wait-for-graph detector in `qse_comm::deadlock`
//! through real `Universe` runs.

use qse_check::{Ctl, Explorer};
use qse_comm::deadlock::{WaitKind, WaitRegistry};
use qse_comm::{CommError, Universe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The detector polls every 25 ms; well under this budget.
const BUDGET: Duration = Duration::from_secs(2);

/// A long receive timeout so any failure we see comes from the
/// detector, never from the deadline.
const LONG: Duration = Duration::from_secs(300);

#[test]
fn mismatched_sendrecv_tags_fail_fast_naming_both_ranks() {
    let t0 = Instant::now();
    let out = Universe::with_timeout(4, LONG).run(|c| match c.rank() {
        // Ranks 0 and 1 exchange, but each waits for a tag the other
        // never sends: a classic tag-mismatch deadlock.
        0 => c.sendrecv(1, 10, b"ping", 1, 99).map(|_| ()),
        1 => c.sendrecv(0, 20, b"pong", 0, 88).map(|_| ()),
        // Ranks 2 and 3 finish immediately.
        _ => Ok(()),
    });
    assert!(
        t0.elapsed() < BUDGET,
        "deadlock took {:?} to surface",
        t0.elapsed()
    );
    for (rank, want_peer, want_tag) in [(0usize, 1usize, 99u64), (1, 0, 88)] {
        match &out[rank] {
            Err(CommError::Deadlock {
                rank: r,
                stuck,
                detail,
            }) => {
                assert_eq!(*r, rank);
                assert_eq!(stuck, &vec![0, 1], "both mismatched ranks named");
                let wait = format!("recv(src={want_peer}, tag={want_tag})");
                assert!(
                    detail.contains(&wait),
                    "rank {rank} detail must name its awaited (peer, tag): {detail}"
                );
            }
            other => panic!("rank {rank}: expected Deadlock, got {other:?}"),
        }
    }
    assert!(out[2].is_ok());
    assert!(out[3].is_ok());
}

#[test]
fn one_sided_exchange_reports_the_waiting_rank() {
    let t0 = Instant::now();
    let out = Universe::with_timeout(2, LONG).run(|c| {
        if c.rank() == 1 {
            // Waits for a message rank 0 never sends.
            c.recv(0, 7).map(|_| ())
        } else {
            Ok(())
        }
    });
    assert!(t0.elapsed() < BUDGET);
    assert!(out[0].is_ok());
    match &out[1] {
        Err(CommError::Deadlock { rank, stuck, detail }) => {
            assert_eq!(*rank, 1);
            assert_eq!(stuck, &vec![1]);
            assert!(detail.contains("recv(src=0, tag=7)"), "{detail}");
            assert!(detail.contains("finished"), "peer state shown: {detail}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn three_rank_wait_cycle_is_named_in_full() {
    let t0 = Instant::now();
    let out = Universe::with_timeout(3, LONG).run(|c| {
        // rank r waits on rank r+1 (mod 3); nobody ever sends.
        let next = (c.rank() + 1) % 3;
        c.recv(next, 5).map(|_| ())
    });
    assert!(t0.elapsed() < BUDGET);
    for (rank, res) in out.iter().enumerate() {
        match res {
            Err(CommError::Deadlock { stuck, detail, .. }) => {
                assert_eq!(stuck, &vec![0, 1, 2], "whole cycle named");
                // Every rank's report shows each member and its wait.
                for r in 0..3usize {
                    assert!(detail.contains(&format!("rank {r}")), "{detail}");
                }
            }
            other => panic!("rank {rank}: expected Deadlock, got {other:?}"),
        }
    }
}

#[test]
fn buffered_but_unmatched_traffic_still_detected() {
    // Both ranks send a tag the peer is not waiting for: the messages
    // are delivered into pending buffers (so nothing is "in flight"),
    // yet neither recv can ever match — the detector must see through
    // the buffered traffic.
    let t0 = Instant::now();
    let out = Universe::with_timeout(2, LONG).run(|c| {
        let peer = 1 - c.rank();
        c.send(peer, 40 + c.rank() as u64, b"noise")?;
        c.recv(peer, 1234).map(|_| ())
    });
    assert!(t0.elapsed() < BUDGET);
    for res in &out {
        match res {
            Err(CommError::Deadlock { stuck, detail, .. }) => {
                assert_eq!(stuck, &vec![0, 1]);
                assert!(detail.contains("1 buffered"), "queue depth shown: {detail}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }
}

#[test]
fn wait_any_on_never_sent_chunks_fails_fast() {
    // Rank 0 posts receives for two chunks and parks in `wait_any`;
    // rank 1 finishes without sending. The detector must diagnose the
    // RecvAny wait, fast, and the report must name the wait_any state
    // with its outstanding count.
    let t0 = Instant::now();
    let out = Universe::with_timeout(2, LONG).run(|c| {
        if c.rank() == 0 {
            let r1 = c.irecv(1, 5)?;
            let r2 = c.irecv(1, 6)?;
            c.wait_any(&[r1, r2]).map(|_| ())
        } else {
            Ok(())
        }
    });
    assert!(
        t0.elapsed() < BUDGET,
        "wait_any deadlock took {:?} to surface",
        t0.elapsed()
    );
    assert!(out[1].is_ok());
    match &out[0] {
        Err(CommError::Deadlock { rank, stuck, detail }) => {
            assert_eq!(*rank, 0);
            assert_eq!(stuck, &vec![0]);
            assert!(detail.contains("wait_any"), "{detail}");
            assert!(detail.contains("2 outstanding"), "{detail}");
            assert!(detail.contains("finished"), "peer state shown: {detail}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn retrying_and_delayed_ranks_are_not_misreported() {
    // False-positive guard for the fault-injection layer: every message
    // is delayed (held invisible at the receiver) and most sends need
    // backoff retries, so both ranks spend most of their time waiting on
    // traffic that exists but is not yet visible. The detector must stay
    // silent — held envelopes count as in flight — and every round must
    // deliver the exact payload.
    let mut plan = qse_comm::FaultConfig::recoverable(21);
    plan.p_delay = 1.0;
    plan.max_delay_slices = 2;
    plan.p_send_fail = 0.8;
    let out = Universe::with_timeout_and_faults(2, LONG, plan)
        .expect("valid plan")
        .run(|c| {
            let peer = 1 - c.rank();
            for round in 0..6u64 {
                let sent = [c.rank() as u8, round as u8];
                let got = c.sendrecv(peer, round, &sent, peer, round)?;
                assert_eq!(&got[..], &[peer as u8, round as u8]);
            }
            Ok::<_, CommError>(())
        });
    for (rank, r) in out.into_iter().enumerate() {
        r.unwrap_or_else(|e| panic!("rank {rank} falsely failed: {e}"));
    }
}

#[test]
fn real_deadlocks_still_fire_under_an_active_fault_lane() {
    // The fault lane swaps the receive loop onto a modelled slice clock;
    // a genuine one-sided wait must still be diagnosed by the wait-for
    // graph, fast, not ride the (huge) modelled deadline.
    let t0 = Instant::now();
    let out = Universe::with_timeout_and_faults(2, LONG, qse_comm::FaultConfig::recoverable(4))
        .expect("valid plan")
        .run(|c| {
            if c.rank() == 1 {
                c.recv(0, 7).map(|_| ())
            } else {
                Ok(())
            }
        });
    assert!(
        t0.elapsed() < BUDGET,
        "deadlock under faults took {:?} to surface",
        t0.elapsed()
    );
    assert!(out[0].is_ok());
    match &out[1] {
        Err(CommError::Deadlock { rank, stuck, .. }) => {
            assert_eq!(*rank, 1);
            assert_eq!(stuck, &vec![1]);
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn healthy_exchange_is_not_flagged() {
    // The false-positive guard: a slow but live exchange (receiver
    // starts waiting before the sender sends) must complete normally.
    let out = Universe::with_timeout(2, LONG).run(|c| {
        if c.rank() == 0 {
            c.recv(1, 3).map(|b| b.len())
        } else {
            std::thread::sleep(Duration::from_millis(120));
            c.send(0, 3, &[1, 2, 3]).map(|_| 0)
        }
    });
    assert_eq!(*out[0].as_ref().unwrap(), 3);
    assert!(out[1].is_ok());
}

/// Rank 0 is blocked on a receive from rank 1 and runs the detector;
/// rank 1 sends to rank 0 and then enters a barrier. The schedule
/// explorer may run rank 1 between the detector's per-rank reads, so
/// the snapshot can see rank 0's in-flight count from before the send
/// and rank 1's barrier from after it.
fn send_then_barrier_during_detection(ctl: &Ctl) {
    let reg = Arc::new(WaitRegistry::new(2));
    reg.begin_wait(0, WaitKind::Recv { src: 1, tag: 2 }, 0);
    let peer = Arc::clone(&reg);
    ctl.spawn(move || {
        peer.msg_sent(0);
        peer.begin_wait(1, WaitKind::Barrier, 0);
    });
    if let Some(report) = reg.detect(0) {
        panic!("false deadlock on a live run: {}", report.render());
    }
}

#[test]
fn a_send_racing_the_snapshot_is_never_a_deadlock() {
    // Rank 1's message is in flight towards rank 0 in every state of
    // this run, so no schedule may produce a deadlock verdict.
    let schedules = Explorer::exhaustive()
        .explore(send_then_barrier_during_detection)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(schedules > 2, "explored only {schedules} schedules");
}
