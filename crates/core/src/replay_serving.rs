//! The replay-serving executor: a pool of server ranks answering client
//! ranks out of a *persisted* run — zero live sim or stage ranks in the
//! session.
//!
//! [`run_replay_serving_in_session`] splits the session's ranks two ways
//! — `[replay servers][clients]` — and realizes a pre-computed
//! [`PoolPlan`] over `apc_comm`'s request/reply endpoints:
//!
//! * every server reads the same completed run ([`open_run`]; flat or
//!   sharded) through its **own** [`ServeCore`] — the fetch → degrade →
//!   reply path the live stager drives too — so the pool's cache
//!   behavior is per-rank and attributable;
//! * clients post their recorded [`ArrivalTrace`] arrivals eagerly (the
//!   runtime's sends never block), each encoded through the
//!   [`apc_serve::FrameRequest`] wire codec, to the server the plan
//!   assigned;
//! * each server walks its planned service order, *attributing* every
//!   step to the next unconsumed request of that step's (client, server)
//!   pair — per-pair issue order is the wire contract, the plan's
//!   cross-client interleaving decides cache and queueing behavior;
//! * virtual charges are explicit: `service_base` per request,
//!   [`STEAL_OVERHEAD`] on stolen requests, and a storage-tier read cost
//!   (`miss_read + read_per_byte × bytes`) per cache-missed frame. Cache
//!   hits move no bytes and charge nothing.
//!
//! **Why this cannot deadlock, and why it replays bit-identically.**
//! Clients send *all* requests before receiving anything, so no server
//! ever blocks on a request that depends on a reply. Servers receive in
//! plan order (a pure function of the recorded trace), clients receive
//! pair-by-pair in issue order, and every quantity is virtual-time
//! arithmetic over deterministic inputs — so a replay run is a pure
//! function of `(trace, params, manifest)`, byte-stable across OS
//! scheduling, [`ExecPolicy`], and session reuse.

use std::collections::BTreeMap;
use std::sync::Arc;

use apc_comm::{Rank, ServeClient, ServeServer, Session};
use apc_par::{par_map, ExecPolicy};
use apc_replay::{
    resolve, ArrivalTrace, Assignment, PoolParams, PoolPlan, QosTier, Resolution, STEAL_OVERHEAD,
};
use apc_serve::{
    frame_key, open_run, percentile, Fidelity, FrameKey, FrameReply, FrameStore, ReplyChecker,
    RequestLog, ServeCore, ServeReport, ServerStats,
};
use apc_store::StoreBackend;

/// A completed replay run. Derefs to its [`ServeReport`], so
/// `run.servers`, `run.requests` and the summaries (`frames_served()`,
/// `cache_hit_rate()`, `latency_percentile(p)`, …) are the same code
/// [`crate::ServingRun`] reports through. Requests are logged in
/// trace-slot order, each carrying the plan's [`Assignment`] (slot, tier,
/// primary, executor, stolen) as its `route`; latency runs from the
/// recorded arrival to the reply's arrival back at the client.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRun {
    pub report: ServeReport<Assignment>,
    /// Requests a steal moved off their primary.
    pub stolen_total: usize,
}

impl std::ops::Deref for ReplayRun {
    type Target = ServeReport<Assignment>;

    fn deref(&self) -> &Self::Target {
        &self.report
    }
}

impl ReplayRun {
    /// The `p`-th percentile of latency over one tier's requests.
    pub fn tier_latency_percentile(&self, tier: QosTier, p: f64) -> f64 {
        percentile(
            self.requests
                .iter()
                .filter(|r| r.route.tier == tier)
                .map(|r| r.latency),
            p,
        )
    }
}

/// Per-rank result (internal).
enum ReplayRankOut {
    Server(ServerStats),
    Client(Vec<RequestLog<Assignment>>, f64),
}

/// Replay-serve a persisted run over a caller-owned [`Session`]. The
/// session's ranks split `[params.nservers servers][trace.clients
/// clients]` — nothing else; the producing simulation is long gone.
///
/// `exec` parallelizes the pre-session resolution/cost pass
/// ([`par_map`]); the run's observables are byte-identical across
/// policies (guarded by `tests/replay_fanout.rs`).
pub fn run_replay_serving_in_session(
    session: &mut Session,
    backend: Arc<dyn StoreBackend>,
    run_id: &str,
    trace: &ArrivalTrace,
    params: &PoolParams,
    exec: ExecPolicy,
) -> ReplayRun {
    let nservers = params.nservers;
    assert_eq!(
        session.nranks(),
        nservers + trace.clients,
        "session ranks must split [servers][clients] exactly"
    );
    #[expect(
        clippy::panic,
        reason = "driver-level setup — an unopenable run fails before any rank spawns"
    )]
    let (store, manifest) = open_run(backend, run_id)
        .unwrap_or_else(|e| panic!("replay pool failed to open run {run_id:?}: {e}"));
    let reader: Arc<dyn StoreBackend> = Arc::clone(store.backend());

    // Resolve every arrival under the caller's ExecPolicy (par_map returns
    // results in input order, so the pass is policy-invariant), ask the
    // store for each *distinct* frame's size once — a trace asks for the
    // same few hundred frames thousands of times over — and estimate each
    // arrival's service cost (pessimistic all-miss store reads), summed in
    // key order as before.
    let resolutions: Vec<Resolution> = par_map(exec, &trace.arrivals, |a| {
        resolve(a.request, a.stager, a.tier, &manifest.iterations)
    });
    let mut sizes: BTreeMap<FrameKey, u64> = BTreeMap::new();
    for &(it, st) in resolutions.iter().flat_map(Resolution::keys) {
        sizes
            .entry((it, st))
            .or_insert_with(|| reader.size(&frame_key(run_id, it, st)).unwrap_or(0));
    }
    let resolved: Vec<(Resolution, f64)> = resolutions
        .into_iter()
        .map(|res| {
            let mut cost = params.service_base;
            for key in res.keys() {
                cost += params.miss_read + params.read_per_byte * sizes[key] as f64;
            }
            (res, cost)
        })
        .collect();
    let est_cost: Vec<f64> = resolved.iter().map(|(_, c)| *c).collect();
    let plan = PoolPlan::plan(trace, params, &manifest.iterations, &est_cost);

    // Each client's issue order and the per-(server, client) slot lists
    // — the wire contract both send and receive loops follow.
    let client_issue = trace.issue_order();
    let pair_slots = plan.pair_slots(&client_issue);
    // One checker for the run: the first client to receive a persisted
    // frame decodes it, every later one compares bytes.
    let checker = ReplyChecker::default();

    let outs: Vec<ReplayRankOut> = session.run(|rank| {
        let r = rank.rank();
        if r < nservers {
            ReplayRankOut::Server(server_program(
                rank,
                r,
                run_id,
                &reader,
                trace,
                params,
                &plan,
                &resolved,
                &pair_slots[r],
            ))
        } else {
            let c = r - nservers;
            let (logs, finish) = client_program(
                rank,
                c,
                nservers,
                trace,
                &manifest.iterations,
                &plan,
                &client_issue[c],
                &pair_slots,
                &checker,
            );
            ReplayRankOut::Client(logs, finish)
        }
    });

    let mut servers = Vec::with_capacity(nservers);
    let mut requests = vec![None; trace.len()];
    let mut client_finish = Vec::with_capacity(trace.clients);
    for out in outs {
        match out {
            ReplayRankOut::Server(stats) => servers.push(stats),
            ReplayRankOut::Client(logs, finish) => {
                for log in logs {
                    requests[log.route.slot] = Some(log);
                }
                client_finish.push(finish);
            }
        }
    }
    let requests = requests
        .into_iter()
        .map(|r| {
            #[expect(
                clippy::expect_used,
                reason = "every trace slot is owned by exactly one client rank"
            )]
            r.expect("every trace slot logged")
        })
        .collect();
    ReplayRun {
        report: ServeReport {
            servers,
            requests,
            client_finish,
        },
        stolen_total: plan.stolen_total,
    }
}

/// The SPMD program of one replay server rank.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one borrow of the pool's shared prelude; a struct would only rename them"
)]
fn server_program(
    rank: &mut Rank,
    s: usize,
    run_id: &str,
    reader: &Arc<dyn StoreBackend>,
    trace: &ArrivalTrace,
    params: &PoolParams,
    plan: &PoolPlan,
    resolved: &[(Resolution, f64)],
    my_pairs: &[Vec<usize>],
) -> ServerStats {
    // Each server fronts the shared run reader with its own cache: hit
    // rates are per-rank observables, and eviction pressure on one server
    // never disturbs another.
    let store = FrameStore::new(Arc::clone(reader), run_id);
    let mut core = ServeCore::new(store, params.cache_bytes);
    let mut eps: Vec<Option<ServeServer>> = (0..trace.clients).map(|_| None).collect();
    let mut cursor = vec![0usize; trace.clients];

    for &planned in &plan.server_order[s] {
        // Attribute this service step to the next unconsumed request of
        // the planned slot's client — per-pair issue order is the wire
        // contract (see the module docs).
        let c = trace.arrivals[planned].client;
        let slot = my_pairs[c][cursor[c]];
        cursor[c] += 1;
        let a = &trace.arrivals[slot];
        let asg = &plan.assignments[slot];
        debug_assert_eq!(asg.executor, s);

        let ep = eps[c].get_or_insert_with(|| ServeServer::new(params.nservers + c, 0));
        let wire: Vec<u8> = ep.recv_request(rank).msg;
        // The wire codec is the trust boundary: decode totally, then pin
        // the decoded request to the recorded trace.
        #[expect(
            clippy::panic,
            reason = "inside a rank program a corrupt request fails the replay loudly (poisons the session)"
        )]
        let request = core
            .request(&wire)
            .unwrap_or_else(|e| panic!("replay server {s} received a corrupt request: {e}"));
        assert_eq!(request, a.request, "wire request diverged from the trace");

        if asg.stolen {
            rank.advance(STEAL_OVERHEAD);
            core.stats.stolen += 1;
        }
        rank.advance(params.service_base);
        if a.tier == QosTier::Premium {
            core.stats.premium += 1;
        }

        // The replay pool serves persisted bytes verbatim — no budget
        // controller, no degradation. The storage tier is real data
        // movement with its own latency floor; a hit moves no bytes.
        #[expect(
            clippy::panic,
            reason = "inside a rank program a failed store read fails the replay loudly"
        )]
        let reply = core
            .reply(&resolved[slot].0, Fidelity::Full, |bytes| {
                rank.advance(params.miss_read + params.read_per_byte * bytes as f64)
            })
            .unwrap_or_else(|e| panic!("replay server {s} failed to serve slot {slot}: {e}"));
        // Replies cross the in-process wire as typed `FrameReply`s,
        // metered at `wire_len()` — exactly the encoded length — so no
        // encode or decode runs per reply. Debug builds still put every
        // reply through the codec.
        debug_assert!(reply.wire_round_trips(), "reply codec round trip");
        ep.send_reply(rank, reply);
    }

    debug_assert!(
        (0..trace.clients).all(|c| cursor[c] == my_pairs[c].len()),
        "server drained every pair"
    );
    core.finish(rank.clock())
}

/// The SPMD program of one client rank: post every recorded arrival
/// eagerly, then collect replies pair-by-pair and verify them end to end
/// through the run's one [`ReplyChecker`].
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one borrow of the pool's shared prelude; a struct would only rename them"
)]
fn client_program(
    rank: &mut Rank,
    c: usize,
    nservers: usize,
    trace: &ArrivalTrace,
    iterations: &[usize],
    plan: &PoolPlan,
    my_issue: &[usize],
    pair_slots: &[Vec<Vec<usize>>],
    checker: &ReplyChecker,
) -> (Vec<RequestLog<Assignment>>, f64) {
    let mut eps: Vec<Option<ServeClient>> = (0..nservers).map(|_| None).collect();
    // Send phase: entirely eager — the virtual runtime buffers sends, so
    // posting every request up front is deadlock-free by construction.
    for &slot in my_issue {
        let a = &trace.arrivals[slot];
        rank.merge_clock_to(a.time);
        let s = plan.assignments[slot].executor;
        let ep = eps[s].get_or_insert_with(|| ServeClient::new(s, 0));
        ep.send_request(rank, a.request.encode());
    }
    // Receive phase: per pair, replies come back in issue order (the
    // endpoint is FIFO); across pairs, server-rank order is fixed.
    let mut logs = Vec::with_capacity(my_issue.len());
    for (s, ep) in eps.iter_mut().enumerate() {
        let Some(ep) = ep else { continue };
        for &slot in &pair_slots[s][c] {
            let a = &trace.arrivals[slot];
            let d = ep.recv_reply::<FrameReply>(rank);
            #[expect(
                clippy::panic,
                reason = "end-to-end check in a rank program — a corrupt reply or frame fails the replay loudly"
            )]
            let reply = checker
                .check_reply(d.msg)
                .unwrap_or_else(|e| panic!("client {c} received a bad reply: {e}"));
            // The reply must match the pure resolution of the recorded
            // request, key for key.
            let expect = resolve(a.request, a.stager, a.tier, iterations);
            assert!(
                reply
                    .frames()
                    .iter()
                    .map(|f| (f.iteration, f.stager))
                    .eq(expect.keys().iter().copied()),
                "reply frames diverged from the recorded request's resolution"
            );
            let latency = d.arrival - a.time;
            logs.push(RequestLog::new(
                c,
                a.request,
                &reply,
                latency,
                plan.assignments[slot],
            ));
        }
    }
    (logs, rank.clock())
}
