//! Session stress test: many sequential runs with randomized rank panic
//! injection. The contract under test is the session's failure story —
//! every run either **completes** or **panics and poisons the session**;
//! nothing is allowed to deadlock past the configured receive timeout,
//! no matter where in the SPMD workload the panic lands (before a
//! collective, between a collective and the p2p ring, after a receive
//! in front of the all-to-all, or before the closing barrier).
//!
//! All randomness comes from the in-tree seeded PRNG, so a failure here
//! replays deterministically.
#![expect(
    clippy::disallowed_methods,
    reason = "the deadline timers bound each round against the real receive timeout"
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use apc_comm::{
    FlowControl, NetModel, QueueReceiver, QueueSender, Runtime, ServeClient, ServeServer, Tag,
};
use apc_par::SplitMix64;

const ROUNDS: usize = 10;
/// Short so stranded-peer rounds resolve quickly; the workload itself
/// needs microseconds.
const TIMEOUT: Duration = Duration::from_millis(400);

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
fn job(rank: &mut apc_comm::Rank, inject_site: Option<(usize, usize)>) -> (u64, u64) {
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
        let mut session = Runtime::new(nranks, NetModel::free())
            .deadlock_timeout(TIMEOUT)
            .session();
        let runs = 1 + rng.below(8);
        for run_idx in 0..runs {
            // ~1/3 of runs sabotage one rank at a random site.
            let inject_site = (rng.below(3) == 0).then(|| (rng.below(nranks), rng.below(SITES)));
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                session.run(|rank| job(rank, inject_site))
            }));
            let elapsed = t0.elapsed();
            // The hard bound: no run may block past the deadlock timeout
            // (plus generous slack for an oversubscribed CI box). A hang
            // here would previously have been "wait for APC_RECV_TIMEOUT
            // or forever"; the timeout barrier turns it into a panic.
            assert!(
                elapsed < Duration::from_secs(30),
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
/// arrival-count diagnostic inside the timeout (it used to be a receive
/// timeout per missing message), the session poisoned, a fresh one sound.
#[test]
fn a_rank_dying_before_the_all_to_all_strands_peers_in_its_rendezvous() {
    const NRANKS: usize = 4;
    let runtime = Runtime::new(NRANKS, NetModel::free()).deadlock_timeout(TIMEOUT);
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
        t0.elapsed() < Duration::from_secs(30),
        "stranded peers must fail within the deadlock timeout"
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
/// never come — exactly the shape of a dead helper core. The
/// `APC_RECV_TIMEOUT` deadlock machinery must turn that into a loud panic
/// within the timeout (never a hang), the panic must poison the session,
/// and a fresh session must recover.
#[test]
fn stager_panic_fails_blocked_producers_instead_of_stranding_them() {
    const NRANKS: usize = 4; // ranks 0..3 produce, rank 3 stages
    const FRAMES: usize = 5;
    let runtime = Runtime::new(NRANKS, NetModel::free()).deadlock_timeout(TIMEOUT);
    let mut session = runtime.session();

    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        session.run(|rank| {
            let r = rank.rank();
            if r < NRANKS - 1 {
                // Producer: depth-1 credited queue to the stager. Frame 2
                // needs the credit for frame 1, which the dead stager
                // never sends — the recv must time out, not hang.
                let mut tx = QueueSender::new(NRANKS - 1, 0, 1, FlowControl::Credit);
                for k in 0..FRAMES as u64 {
                    tx.enqueue(rank, vec![k as f32; 64]);
                }
            } else {
                let mut rxs: Vec<QueueReceiver> = (0..NRANKS - 1)
                    .map(|src| QueueReceiver::new(src, 0, FlowControl::Credit))
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
        elapsed < Duration::from_secs(30),
        "blocked producers must fail within the deadlock timeout, took {elapsed:?}"
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
/// `recv_reply` — the deadlock machinery must fail it loudly within the
/// timeout, the panic must poison the session, and a fresh session must
/// recover.
#[test]
fn server_panic_mid_request_fails_waiting_clients_not_strands_them() {
    let runtime = Runtime::new(3, NetModel::free()).deadlock_timeout(TIMEOUT);
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
        t0.elapsed() < Duration::from_secs(30),
        "stranded clients must fail within the deadlock timeout"
    );
    assert!(session.is_poisoned(), "a dead server poisons the session");

    drop(session);
    let mut fresh = runtime.session();
    let sums = fresh.run(|rank| rank.allreduce(1u64, |a, b| a + b));
    assert_eq!(sums, vec![3; 3]);
}

/// The frame-serving failure story, client side: a client dies after one
/// round trip while its server still expects another request. The server
/// is stranded in `recv_request` — loud failure within the timeout,
/// poisoned session, fresh-session recovery.
#[test]
fn client_panic_mid_request_fails_the_server_not_strands_it() {
    let runtime = Runtime::new(2, NetModel::free()).deadlock_timeout(TIMEOUT);
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
        t0.elapsed() < Duration::from_secs(30),
        "a stranded server must fail within the deadlock timeout"
    );
    assert!(session.is_poisoned(), "a dead client poisons the session");

    drop(session);
    let mut fresh = runtime.session();
    let out = fresh.run(|rank| rank.rank());
    assert_eq!(out, vec![0, 1]);
}

/// A receive blocked on a rank that has *died* does not sit out the
/// deadlock timeout: the dying rank's thread wakes whoever is parked on a
/// message from it, and the receive fails at once, naming the peer. Both
/// serving shapes above under a 30 s timeout, with the stranded rank the
/// lowest one so its diagnostic is what `run` re-raises.
#[test]
fn a_receive_from_a_dead_rank_fails_at_once_naming_it() {
    let runtime = Runtime::new(3, NetModel::free()).deadlock_timeout(Duration::from_secs(30));
    let fails_fast_naming = |dead: &str, lane: &str, job: &(dyn Fn(&mut apc_comm::Rank) + Sync)| {
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
            "a receive from a dead rank waited {elapsed:?} of a 30 s timeout"
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

/// A receive's deadline is fixed when it starts. Rank 0 blocks on rank 1,
/// which is alive and silent, while rank 2 keeps sending it something
/// else: every such arrival used to restart the full timeout, so a
/// talkative third rank postponed the diagnostic for as long as it talked.
#[test]
fn traffic_a_receive_is_not_waiting_for_does_not_postpone_its_deadline() {
    // Wide enough that a loaded CI box cannot blur "after one timeout"
    // into "after the traffic stopped" (four timeouts).
    let timeout = Duration::from_secs(1);
    let t0 = Instant::now();
    let payload = catch_unwind(AssertUnwindSafe(|| {
        Runtime::new(3, NetModel::free())
            .deadlock_timeout(timeout)
            .run(|rank| match rank.rank() {
                0 => rank.recv::<u32>(1, Tag(1)),
                1 => 0,
                _ => {
                    // Once rank 0 has given up, the next send finds it
                    // gone and ends this loop (and with it the run) early.
                    for k in 0..12 {
                        rank.send(0, Tag(2), k);
                        std::thread::sleep(timeout / 4);
                    }
                    0
                }
            })
    }))
    .expect_err("rank 0 must fail, rank 1 never sends");
    let elapsed = t0.elapsed();
    let msg = panic_text(&*payload);
    assert!(
        msg.contains("rank 0 deadlocked waiting for message (src=1"),
        "rank 0's timeout diagnostic expected, got: {msg}"
    );
    assert!(
        elapsed < 2 * timeout,
        "the diagnostic took {elapsed:?}: arrivals from rank 2 restarted a {timeout:?} deadline"
    );
}

/// The sharded-store failure story: ranks read their chunks out of one
/// shared shard container via byte-range partial reads, then meet in a
/// barrier. One rank panics mid-read — after fetching its bytes but
/// before the rendezvous — so its peers are stranded in the barrier.
/// The `APC_RECV_TIMEOUT` deadlock machinery must fail them within the
/// timeout, the panic must poison the session, and a fresh session must
/// replay the **same shard files** successfully: shard state lives in
/// the store, not the session, so rank death never corrupts it.
#[test]
fn rank_panic_mid_shard_read_poisons_and_recovers() {
    use apc_store::{DirStore, ShardWriter, ShardedStore, StoreBackend};

    const NRANKS: usize = 4;
    let root = std::env::temp_dir()
        .join("apc_session_stress_tests")
        .join("shard-read-panic");
    let _ = std::fs::remove_dir_all(&root);
    let store = DirStore::create(&root).unwrap();
    let mut writer = ShardWriter::new();
    let payload_of = |r: usize| vec![r as u8 ^ 0x5C; 512];
    for r in 0..NRANKS {
        writer
            .append(&format!("c/000100/{r:06}"), &payload_of(r))
            .unwrap();
    }
    writer.write_to(&store, "c/000100/s000000").unwrap();

    let runtime = Runtime::new(NRANKS, NetModel::free()).deadlock_timeout(TIMEOUT);
    let mut session = runtime.session();

    let read_own_chunk = |r: usize| {
        ShardedStore::new(&store, NRANKS)
            .get(&format!("c/000100/{r:06}"))
            .unwrap()
    };

    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        session.run(|rank| {
            let r = rank.rank();
            let bytes = read_own_chunk(r);
            if r == 2 {
                // Mid-read: the bytes are in hand but the barrier that
                // publishes them never happens — peers strand there.
                panic!("rank {r} died mid-shard-read");
            }
            rank.barrier();
            bytes
        })
    }));
    assert!(result.is_err(), "the run must fail, not complete");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "stranded peers must fail within the deadlock timeout"
    );
    assert!(
        session.is_poisoned(),
        "a mid-read panic poisons the session"
    );

    // Recovery against the *same* shard files: the panic left the
    // container untouched, so a fresh session reads every chunk.
    drop(session);
    let mut fresh = runtime.session();
    let out = fresh.run(|rank| {
        let bytes = read_own_chunk(rank.rank());
        rank.barrier();
        bytes
    });
    for (r, bytes) in out.iter().enumerate() {
        assert_eq!(*bytes, payload_of(r), "rank {r} chunk damaged by the panic");
    }
}

#[test]
fn fresh_session_recovers_after_a_poisoned_one() {
    // The recovery story: a poisoned session is dropped (joining its
    // threads despite the dead rank) and a fresh session over the same
    // runtime configuration works normally.
    let runtime = Runtime::new(3, NetModel::free()).deadlock_timeout(TIMEOUT);
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

/// The replay-pool failure story: a replay server dies mid-request (after
/// receiving a request, before replying), stranding every client waiting
/// on its replies. The `APC_RECV_TIMEOUT` machinery must fail the
/// stranded ranks within the timeout, the panic must poison the session —
/// and because the run lives in the store, not the session, a fresh
/// session must replay the same trace byte-identically, twice.
#[test]
fn replay_server_death_mid_request_poisons_and_fresh_session_replays() {
    use std::sync::Arc;

    use apc_core::run_replay_serving_in_session;
    use apc_replay::{small_run, ArrivalTrace, PoolParams, ReplayFault, RouteMode, TraceSpec};
    use apc_store::{MemStore, StoreBackend};

    let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    let manifest = small_run(Arc::clone(&backend), "stress-replay");
    let trace = ArrivalTrace::generate(&TraceSpec::new(6, 6, 17), &manifest);
    let nranks = 4 + trace.clients;
    let runtime = Runtime::new(nranks, NetModel::free()).deadlock_timeout(TIMEOUT);

    let faulty = PoolParams::new(4, RouteMode::RoutedStealing).with_fault(ReplayFault {
        server: 1,
        after_requests: 2,
    });
    let mut session = runtime.session();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_replay_serving_in_session(
            &mut session,
            Arc::clone(&backend),
            "stress-replay",
            &trace,
            &faulty,
            apc_par::ExecPolicy::Serial,
        )
    }));
    assert!(
        result.is_err(),
        "the faulted replay must fail, not complete"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "stranded replay clients must fail within the deadlock timeout"
    );
    assert!(
        session.is_poisoned(),
        "a dead replay server poisons the session"
    );
    drop(session); // must join cleanly, not hang

    // Fresh sessions over the same persisted run replay identically: the
    // panic touched session state only, never the store.
    let sound = PoolParams::new(4, RouteMode::RoutedStealing);
    let replay = |_: usize| {
        let mut fresh = runtime.session();
        run_replay_serving_in_session(
            &mut fresh,
            Arc::clone(&backend),
            "stress-replay",
            &trace,
            &sound,
            apc_par::ExecPolicy::Serial,
        )
    };
    let a = replay(0);
    let b = replay(1);
    assert_eq!(a, b, "fresh sessions must replay byte-identically");
    assert_eq!(
        a.requests.len(),
        trace.len(),
        "the recovered replay answers every recorded arrival"
    );
}

/// Stealing under churn: the same bursty trace replayed many times over
/// one reused session, alternating `Serial` and `Threads(8)` for the
/// resolution pass, must produce one byte-identical result — stealing
/// decisions come from the recorded plan, never from thread timing.
#[test]
fn stealing_under_churn_is_byte_identical_across_exec_policies() {
    use std::sync::Arc;

    use apc_core::run_replay_serving_in_session;
    use apc_replay::{small_run, ArrivalTrace, PoolParams, RouteMode, TraceSpec};
    use apc_store::{MemStore, StoreBackend};

    let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    let manifest = small_run(Arc::clone(&backend), "stress-churn");
    // Hard bursts so the plan actually steals.
    let spec = TraceSpec::new(16, 8, 29).with_intervals(1e-2, 5e-4);
    let trace = ArrivalTrace::generate(&spec, &manifest);
    let params = PoolParams::new(4, RouteMode::RoutedStealing);
    let runtime = Runtime::new(4 + trace.clients, NetModel::free()).deadlock_timeout(TIMEOUT);
    let mut session = runtime.session();

    let mut runs = Vec::new();
    for i in 0..4 {
        let exec = if i % 2 == 0 {
            apc_par::ExecPolicy::Serial
        } else {
            apc_par::ExecPolicy::Threads(8)
        };
        runs.push(run_replay_serving_in_session(
            &mut session,
            Arc::clone(&backend),
            "stress-churn",
            &trace,
            &params,
            exec,
        ));
    }
    assert!(runs[0].stolen_total > 0, "burst load must trigger steals");
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(&runs[0], run, "run {i} diverged under churn");
    }
}

/// Adaptive-serving death: a stager running a tight latency budget dies
/// **mid-degraded-reply** — after the reply has been built and pushed
/// down the fidelity ladder, before the bytes go out — stranding its
/// clients waiting on replies. The `APC_RECV_TIMEOUT` machinery must
/// fail the stranded ranks within the timeout and the panic must poison
/// the session; sound fresh sessions over the same configuration then
/// run byte-identically, proving the fault touched session state only.
#[test]
fn stager_death_mid_degraded_reply_poisons_within_recv_timeout() {
    use std::sync::Arc;

    use apc_cm1::ReflectivityDataset;
    use apc_core::{
        run_staged_serving_in_session, BackpressurePolicy, FrameSink, PipelineConfig, ServeFault,
        ServeParams, ServePolicy, ServingRun, StagedParams,
    };
    use apc_store::{CodecKind, MemStore, StoreBackend};

    // The tight-budget serving fixture: per-reply service cost far above
    // the latency budget, so the per-stager controller walks the
    // fidelity ladder and replies are degraded well before the fault
    // fires. Stager 1 serves clients 1 and 3 (6 requests each): dying
    // after its 10th request lands deep in the run, when the controller
    // has long since pushed replies down the ladder.
    let dataset = ReflectivityDataset::tiny(8, 42).unwrap();
    let iters = dataset.sample_iterations(4);
    let serve_base = ServeParams::new(4, 6, ServePolicy::BestEffort)
        .with_think_time(0.1)
        .with_cache_bytes(2048)
        .with_serve_costs(0.05, 1e-4)
        .with_latency_budget(0.01);
    let config_for = |backend: &Arc<dyn StoreBackend>| {
        let sink = FrameSink::new(Arc::clone(backend), "stress-serve", CodecKind::Fpz);
        let params = StagedParams::new(2, 2, BackpressurePolicy::Block)
            .with_sim_compute(5.0)
            .with_persist(sink);
        PipelineConfig::default()
            .deterministic()
            .with_fixed_percent(40.0)
            .with_staged(params)
    };
    let runtime =
        Runtime::new(dataset.decomp().nranks(), NetModel::blue_waters()).deadlock_timeout(TIMEOUT);

    let faulty = serve_base.with_fault(ServeFault {
        stager: 1,
        after_requests: 10,
    });
    let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    let config = config_for(&backend);
    let mut session = runtime.session();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_staged_serving_in_session(
            &mut session,
            dataset.decomp(),
            dataset.coords(),
            &config,
            &iters,
            &faulty,
            &|it, rank| dataset.rank_blocks(it, rank),
        )
    }));
    assert!(
        result.is_err(),
        "the faulted serving run must fail, not complete"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "stranded serving clients must fail within the deadlock timeout"
    );
    assert!(session.is_poisoned(), "a dead stager poisons the session");
    drop(session); // must join cleanly, not hang

    // The fault touched session state only: sound fresh sessions over
    // the same configuration serve byte-identically — the same recovery
    // story as the replay-pool death above.
    let sound = |_: usize| -> ServingRun {
        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let config = config_for(&backend);
        let mut fresh = runtime.session();
        let run = run_staged_serving_in_session(
            &mut fresh,
            dataset.decomp(),
            dataset.coords(),
            &config,
            &iters,
            &serve_base,
            &|it, rank| dataset.rank_blocks(it, rank),
        );
        assert!(!fresh.is_poisoned(), "a sound run must not poison");
        run
    };
    let a = sound(0);
    let b = sound(1);
    assert_eq!(a, b, "fresh sessions must serve byte-identically");
    assert!(
        a.degraded_replies() > 0,
        "the tight budget must actually degrade replies in the sound runs"
    );
}
