//! Session stress test: many sequential runs with randomized rank panic
//! injection. The contract under test is the session's failure story —
//! every run either **completes** or **panics and poisons the session**;
//! nothing is allowed to hang, no matter where in the SPMD workload the
//! panic lands (before a collective, between a collective and the p2p
//! ring, after a receive in front of the all-to-all, or before the closing
//! barrier). A run that cannot progress fails the moment it stalls, and
//! [`every_stuck_shape_fails_at_once_with_its_own_message`] holds each
//! shape of stall to its own diagnostic.
//!
//! All randomness comes from the in-tree seeded PRNG, so a failure here
//! replays deterministically.
#![expect(
    clippy::disallowed_methods,
    reason = "test-only wall clock and helper thread: they bound how long a failure takes to surface"
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use apc_comm::sort::sample_sort;
use apc_comm::{
    FlowControl, NetModel, QueueReceiver, QueueSender, Rank, Runtime, ServeClient, ServeServer, Tag,
};
use apc_par::SplitMix64;

const ROUNDS: usize = 10;

/// The message of a formatted `panic!` caught from a run.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default()
}

/// How many places [`job`] can be told to panic at.
const SITES: usize = 4;

/// One SPMD job: an allreduce, a ring exchange, an all-to-all, a barrier —
/// with an optional panic injected at one of [`SITES`] sites on one victim
/// rank.
fn job(rank: &mut Rank, inject_site: Option<(usize, usize)>) -> (u64, u64) {
    let r = rank.rank();
    let n = rank.nranks();
    let boom = |site: usize| {
        if inject_site == Some((r, site)) {
            panic!("injected panic on rank {r} at site {site}");
        }
    };
    boom(0); // before the collective: peers strand in the barrier
    let sum = rank.allreduce(r as u64 + 1, |a, b| a + b);
    boom(1); // between collective and ring: peers strand in recv
    rank.send((r + 1) % n, Tag(7), r as u64);
    let left = rank.recv::<u64>((r + n - 1) % n, Tag(7));
    boom(2); // after the ring: peers strand in the all-to-all's rendezvous
    let incoming = rank.alltoallv((0..n).map(|dst| vec![(r * n + dst) as u64]).collect());
    for (src, batch) in incoming.into_iter().enumerate() {
        assert_eq!(
            batch,
            [(src * n + r) as u64],
            "all-to-all wrong on rank {r}"
        );
    }
    boom(3); // after the exchanges: peers strand in the closing barrier
    rank.barrier();
    (sum, left)
}

#[test]
fn randomized_rank_panics_complete_or_poison_never_deadlock() {
    let mut rng = SplitMix64::new(0x5E55_1011);
    let overall = Instant::now();
    let mut injected_total = 0;
    let mut clean_total = 0;

    for round in 0..ROUNDS {
        let nranks = 2 + rng.below(4); // 2..=5 ranks
        let mut session = Runtime::new(nranks, NetModel::free()).session();
        let runs = 1 + rng.below(8);
        for run_idx in 0..runs {
            // ~1/3 of runs sabotage one rank at a random site.
            let inject_site = (rng.below(3) == 0).then(|| (rng.below(nranks), rng.below(SITES)));
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                session.run(|rank| job(rank, inject_site))
            }));
            let elapsed = t0.elapsed();
            // The hard bound: a run stranded by the injected panic fails
            // when it stalls — milliseconds, with generous slack for an
            // oversubscribed CI box.
            assert!(
                elapsed < Duration::from_secs(5),
                "round {round} run {run_idx} blocked for {elapsed:?}"
            );
            match inject_site {
                Some(_) => {
                    injected_total += 1;
                    assert!(
                        result.is_err(),
                        "round {round} run {run_idx}: injected panic did not propagate"
                    );
                    assert!(session.is_poisoned(), "panic must poison the session");
                    break; // poisoned sessions take no further runs
                }
                None => {
                    clean_total += 1;
                    let out = result.unwrap_or_else(|_| {
                        panic!("round {round} run {run_idx}: clean run failed")
                    });
                    let expect_sum = (nranks as u64 * (nranks as u64 + 1)) / 2;
                    for (r, &(sum, left)) in out.iter().enumerate() {
                        assert_eq!(sum, expect_sum, "allreduce wrong on rank {r}");
                        assert_eq!(
                            left,
                            ((r + nranks - 1) % nranks) as u64,
                            "ring value wrong on rank {r}"
                        );
                    }
                }
            }
        }
        if session.is_poisoned() {
            // A poisoned session refuses instantly — it must not hang or
            // limp along with a broken barrier.
            let t0 = Instant::now();
            let refused = catch_unwind(AssertUnwindSafe(|| session.run(|_| ())));
            assert!(refused.is_err(), "poisoned session accepted a run");
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "refusal must be immediate"
            );
        }
    }

    assert!(
        injected_total > 0,
        "seed never injected a panic — stress test is vacuous"
    );
    assert!(
        clean_total > 0,
        "seed never ran a clean job — stress test is vacuous"
    );
    assert!(
        overall.elapsed() < Duration::from_secs(120),
        "stress suite exceeded its wall budget: {:?}",
        overall.elapsed()
    );
}

/// The all-to-all's failure story, where it moved: its batches cross in a
/// rendezvous now, not as per-peer messages, so a rank that dies in front
/// of it strands its peers *there* — they must fail with the rendezvous'
/// arrival-count diagnostic when the run stalls (it used to be a receive
/// timeout per missing message), the session poisoned, a fresh one sound.
#[test]
fn a_rank_dying_before_the_all_to_all_strands_peers_in_its_rendezvous() {
    const NRANKS: usize = 4;
    let runtime = Runtime::new(NRANKS, NetModel::free());
    let mut session = runtime.session();
    assert_eq!(session.run(|rank| job(rank, None))[0].0, 10);

    let t0 = Instant::now();
    // Rank 0's panic is the one `run` re-raises; the victim is rank 1, so
    // what surfaces is a stranded peer's diagnostic.
    let result = catch_unwind(AssertUnwindSafe(|| {
        session.run(|rank| job(rank, Some((1, 2))))
    }));
    let payload = result.expect_err("the run must fail, not complete");
    let msg = panic_text(&*payload);
    assert!(
        msg.contains("only 3 of 4 ranks arrived"),
        "stranded peers must report the rendezvous' arrival count, got: {msg}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stranded peers must fail when the run stalls"
    );
    assert!(session.is_poisoned(), "the panic poisons the session");

    drop(session);
    let mut fresh = runtime.session();
    let out = fresh.run(|rank| job(rank, None));
    assert_eq!(out[2], (10, 1));
}

/// The staged-queue failure story: simulation ranks feed a stager through
/// credit-flow bounded queues; the stager panics after consuming one
/// frame. The producers are then stranded waiting for credits that will
/// never come — exactly the shape of a dead helper core. That must be a
/// loud panic at once (never a hang), the panic must poison the session,
/// and a fresh session must recover.
#[test]
fn stager_panic_fails_blocked_producers_instead_of_stranding_them() {
    const NRANKS: usize = 4; // ranks 0..3 produce, rank 3 stages
    const FRAMES: usize = 5;
    let runtime = Runtime::new(NRANKS, NetModel::free());
    let mut session = runtime.session();

    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        session.run(|rank| {
            let r = rank.rank();
            if r < NRANKS - 1 {
                // Producer: depth-1 credited queue to the stager. Frame 2
                // needs the credit for frame 1, which the dead stager
                // never sends — the recv must fail, not hang.
                let mut tx = QueueSender::new(NRANKS - 1, 1, FlowControl::Credit);
                for k in 0..FRAMES as u64 {
                    tx.enqueue(rank, vec![k as f32; 64]);
                }
            } else {
                let mut rxs: Vec<QueueReceiver> = (0..NRANKS - 1)
                    .map(|src| QueueReceiver::new(src, FlowControl::Credit))
                    .collect();
                for rx in &mut rxs {
                    let _ = rx.dequeue::<Vec<f32>>(rank);
                }
                panic!("stager died mid-run");
            }
        })
    }));
    let elapsed = t0.elapsed();
    assert!(result.is_err(), "the run must fail, not complete");
    assert!(
        elapsed < Duration::from_secs(5),
        "blocked producers must fail at once, took {elapsed:?}"
    );
    assert!(session.is_poisoned(), "a dead stager poisons the session");

    // Recovery: drop the poisoned session, a fresh one works.
    drop(session);
    let mut fresh = runtime.session();
    let sums = fresh.run(|rank| rank.allreduce(1u64, |a, b| a + b));
    assert_eq!(sums, vec![NRANKS as u64; NRANKS]);
}

/// The frame-serving failure story, server side: a serving stager dies
/// between taking a request and answering it. The client is stranded in
/// `recv_reply` — it must fail loudly at once, the panic must poison the
/// session, and a fresh session must recover.
#[test]
fn server_panic_mid_request_fails_waiting_clients_not_strands_them() {
    let runtime = Runtime::new(3, NetModel::free());
    let mut session = runtime.session();

    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        session.run(|rank| {
            match rank.rank() {
                0 | 1 => {
                    // Clients: first round trip completes, the second
                    // request is never answered.
                    let mut ep = ServeClient::new(2, 0);
                    ep.send_request(rank, 1u64);
                    let _ = ep.recv_reply::<u64>(rank);
                    ep.send_request(rank, 2u64);
                    let _ = ep.recv_reply::<u64>(rank); // strands here
                }
                _ => {
                    let mut eps: Vec<ServeServer> =
                        (0..2).map(|c| ServeServer::new(c, 0)).collect();
                    for ep in &mut eps {
                        let q = ep.recv_request::<u64>(rank).msg;
                        ep.send_reply(rank, q);
                    }
                    // Take round two's requests, answer nothing.
                    for ep in &mut eps {
                        let _ = ep.recv_request::<u64>(rank);
                    }
                    panic!("server died mid-request");
                }
            }
        })
    }));
    assert!(result.is_err(), "the run must fail, not complete");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stranded clients must fail at once"
    );
    assert!(session.is_poisoned(), "a dead server poisons the session");

    drop(session);
    let mut fresh = runtime.session();
    let sums = fresh.run(|rank| rank.allreduce(1u64, |a, b| a + b));
    assert_eq!(sums, vec![3; 3]);
}

/// The frame-serving failure story, client side: a client dies after one
/// round trip while its server still expects another request. The server
/// is stranded in `recv_request` — loud failure at once, poisoned session,
/// fresh-session recovery.
#[test]
fn client_panic_mid_request_fails_the_server_not_strands_it() {
    let runtime = Runtime::new(2, NetModel::free());
    let mut session = runtime.session();

    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        session.run(|rank| {
            if rank.rank() == 0 {
                let mut ep = ServeClient::new(1, 0);
                ep.send_request(rank, 7u64);
                let _ = ep.recv_reply::<u64>(rank);
                panic!("client died mid-conversation");
            } else {
                let mut ep = ServeServer::new(0, 0);
                let q = ep.recv_request::<u64>(rank).msg;
                ep.send_reply(rank, q);
                // The second request never comes.
                let _ = ep.recv_request::<u64>(rank);
            }
        })
    }));
    assert!(result.is_err(), "the run must fail, not complete");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "a stranded server must fail at once"
    );
    assert!(session.is_poisoned(), "a dead client poisons the session");

    drop(session);
    let mut fresh = runtime.session();
    let out = fresh.run(|rank| rank.rank());
    assert_eq!(out, vec![0, 1]);
}

/// A receive blocked on a rank that has *died* reports the death, not a
/// stall: the dying rank's thread wakes whoever is parked on a message
/// from it before it counts itself finished, and the receive fails at
/// once, naming the peer. Both serving shapes above, with the stranded
/// rank the lowest one so its diagnostic is what `run` re-raises.
#[test]
fn a_receive_from_a_dead_rank_fails_at_once_naming_it() {
    let runtime = Runtime::new(3, NetModel::free());
    let fails_fast_naming = |dead: &str, lane: &str, job: &(dyn Fn(&mut Rank) + Sync)| {
        let mut session = runtime.session();
        let t0 = Instant::now();
        let payload = catch_unwind(AssertUnwindSafe(|| session.run(job)))
            .expect_err("the run must fail, not complete");
        let elapsed = t0.elapsed();
        let msg = panic_text(&*payload);
        assert!(
            msg.contains(dead) && msg.contains(lane) && msg.contains("died"),
            "the stranded receive must name {dead} and {lane}, got: {msg}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "a receive from a dead rank waited {elapsed:?}"
        );
        assert!(session.is_poisoned(), "a dead rank poisons the session");
    };

    // Server side: clients 0 and 1 strand in `recv_reply` when server 2
    // dies holding their second requests.
    fails_fast_naming("rank 2", "lane=Reply(0)", &|rank| match rank.rank() {
        0 | 1 => {
            let mut ep = ServeClient::new(2, 0);
            ep.send_request(rank, 1u64);
            let _ = ep.recv_reply::<u64>(rank);
            ep.send_request(rank, 2u64);
            let _ = ep.recv_reply::<u64>(rank); // strands here
        }
        _ => {
            let mut eps: Vec<ServeServer> = (0..2).map(|c| ServeServer::new(c, 0)).collect();
            for ep in &mut eps {
                let q = ep.recv_request::<u64>(rank).msg;
                ep.send_reply(rank, q);
            }
            for ep in &mut eps {
                let _ = ep.recv_request::<u64>(rank);
            }
            panic!("server died mid-request");
        }
    });

    // Client side: server 0 strands in `recv_request` when client 1 dies
    // after one round trip; rank 2 idles.
    fails_fast_naming("rank 1", "lane=Request(0)", &|rank| match rank.rank() {
        0 => {
            let mut ep = ServeServer::new(1, 0);
            let q = ep.recv_request::<u64>(rank).msg;
            ep.send_reply(rank, q);
            let _ = ep.recv_request::<u64>(rank); // never comes
        }
        1 => {
            let mut ep = ServeClient::new(0, 0);
            ep.send_request(rank, 7u64);
            let _ = ep.recv_reply::<u64>(rank);
            panic!("client died mid-conversation");
        }
        _ => {}
    });
}

/// One way for a run to stop making progress: every rank parked in a
/// receive or a collective, or finished (returned or died).
struct Stall {
    shape: &'static str,
    nranks: usize,
    job: fn(&mut Rank),
    /// What the re-raised panic — rank 0's unless rank 0 returned — says.
    says: &'static str,
}

/// The head of a 272-rank chain sends, every rank forwards what its upper
/// neighbour sent to its lower one, and rank 136 swallows it.
fn silent_link(rank: &mut Rank) {
    const SILENT: usize = 136;
    let (r, n) = (rank.rank(), rank.nranks());
    let v = if r + 1 < n {
        rank.recv::<u64>(r + 1, Tag(0))
    } else {
        0
    };
    if r > 0 && r != SILENT {
        rank.send(r - 1, Tag(0), v + 1);
    }
}

const STALLS: &[Stall] = &[
    Stall {
        shape: "a receive from a peer that returned",
        nranks: 2,
        job: |rank| {
            if rank.rank() == 0 {
                rank.recv::<u8>(1, Tag(0));
            }
        },
        says: "rank 0 deadlocked waiting for message (src=1",
    },
    Stall {
        shape: "a two-rank receive cycle",
        nranks: 2,
        job: |rank| {
            let peer = 1 - rank.rank();
            rank.recv::<u8>(peer, Tag(0));
        },
        says: "rank 0 deadlocked waiting for message (src=1",
    },
    Stall {
        shape: "a death before a collective",
        nranks: 3,
        job: |rank| {
            if rank.rank() == 1 {
                panic!("rank 1 died before the allreduce");
            }
            rank.allreduce(1u64, |a, b| a + b);
        },
        says: "deadlocked in a collective barrier: only 2 of 3 ranks arrived",
    },
    Stall {
        // Rank 1's comparator dies on its first foreign key: after the
        // samples' allgather, before the bucket exchange.
        shape: "a death during a collective (sample sort)",
        nranks: 3,
        job: |rank| {
            let r = rank.rank() as u32;
            let mine = move |k: &u32| k / 10 == r;
            let keys: Vec<u32> = (r * 10..r * 10 + 10).rev().collect();
            sample_sort(rank, keys, move |a, b| {
                assert!(r != 1 || (mine(a) && mine(b)), "rank 1 died mid-sort");
                a.cmp(b)
            });
        },
        says: "deadlocked in a collective barrier: only 2 of 3 ranks arrived",
    },
    Stall {
        shape: "a death between collectives",
        nranks: 3,
        job: |rank| {
            rank.allreduce(1u64, |a, b| a + b);
            if rank.rank() == 1 {
                panic!("rank 1 died between collectives");
            }
            rank.barrier();
        },
        says: "deadlocked in a collective barrier: only 2 of 3 ranks arrived",
    },
    Stall {
        shape: "a return before a collective",
        nranks: 3,
        job: |rank| {
            if rank.rank() != 2 {
                rank.barrier();
            }
        },
        says: "deadlocked in a collective barrier: only 2 of 3 ranks arrived",
    },
    Stall {
        shape: "a receive against a collective",
        nranks: 2,
        job: |rank| {
            if rank.rank() == 0 {
                rank.recv::<u8>(1, Tag(0));
            } else {
                rank.barrier();
            }
        },
        says: "rank 0 deadlocked waiting for message (src=1",
    },
    Stall {
        shape: "a 272-rank chain with one silent link",
        nranks: 272,
        job: silent_link,
        says: "rank 0 deadlocked waiting for message (src=1",
    },
];

/// Every shape of stall fails with its own diagnostic the moment the run
/// stops — a few milliseconds, thread spawn included; 1 s is the bound a
/// loaded two-core box must still meet.
#[test]
fn every_stuck_shape_fails_at_once_with_its_own_message() {
    for stall in STALLS {
        let t0 = Instant::now();
        let payload = catch_unwind(|| Runtime::new(stall.nranks, NetModel::free()).run(stall.job))
            .expect_err(stall.shape);
        let elapsed = t0.elapsed();
        let msg = panic_text(&*payload);
        eprintln!("stall shape {:?}: failed in {elapsed:?}", stall.shape);
        assert!(
            msg.contains(stall.says),
            "{}: expected {:?}, got: {msg}",
            stall.shape,
            stall.says
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "{}: the stall took {elapsed:?} to surface",
            stall.shape
        );
    }
}

/// Run `f` on a helper thread; fail — instead of hanging the suite — if it
/// is still running after `limit`.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let t0 = Instant::now();
    let worker = std::thread::spawn(f);
    while !worker.is_finished() {
        assert!(t0.elapsed() < limit, "still running after {limit:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    worker.join().expect("the helper thread must not panic")
}

/// Detection survives session reuse: each run starts its progress count
/// from zero. Were the ranks that finished earlier runs still counted,
/// the count would never equal the rank count again and the stuck fourth
/// run below would hang — hence the helper thread.
#[test]
fn a_stall_on_a_reused_session_is_detected() {
    let (msg, elapsed) = within(Duration::from_secs(10), || {
        let mut session = Runtime::new(4, NetModel::free()).session();
        for _ in 0..3 {
            assert_eq!(session.run(|rank| job(rank, None))[0].0, 10);
        }
        let t0 = Instant::now();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            session.run(|rank| {
                if rank.rank() == 0 {
                    rank.recv::<u8>(3, Tag(0));
                }
            })
        }))
        .expect_err("rank 3 never sends");
        (panic_text(&*payload), t0.elapsed())
    });
    assert!(
        msg.contains("rank 0 deadlocked waiting for message (src=3"),
        "got: {msg}"
    );
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}

/// No false stall at run start: the count is zeroed before a run is
/// dispatched, never by a rank as its run begins. Had each rank uncounted
/// itself then, the ranks not yet started would still count as finished
/// while rank 0, already parked on rank 271, looked at the count.
#[test]
fn a_receive_at_run_start_is_never_a_false_stall() {
    let mut session = Runtime::new(272, NetModel::free()).session();
    for run in 0..300 {
        let got = session.run(|rank| match rank.rank() {
            0 => rank.recv::<u64>(271, Tag(0)),
            271 => {
                rank.send(0, Tag(0), 271u64);
                0
            }
            _ => 0,
        });
        assert_eq!(got[0], 271, "run {run}");
    }
}

#[test]
fn fresh_session_recovers_after_a_poisoned_one() {
    // The recovery story: a poisoned session is dropped (joining its
    // threads despite the dead rank) and a fresh session over the same
    // runtime configuration works normally.
    let runtime = Runtime::new(3, NetModel::free());
    let mut session = runtime.session();
    let poisoned = catch_unwind(AssertUnwindSafe(|| {
        session.run(|rank| {
            if rank.rank() == 1 {
                panic!("die");
            }
            rank.allreduce(1u64, |a, b| a + b)
        })
    }));
    assert!(poisoned.is_err());
    assert!(session.is_poisoned());
    drop(session); // must join cleanly, not hang

    let mut fresh = runtime.session();
    let sums = fresh.run(|rank| rank.allreduce(1u64, |a, b| a + b));
    assert_eq!(sums, vec![3; 3]);
}
