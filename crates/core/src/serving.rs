//! The frame-serving executor: simulated client ranks co-scheduled
//! against the stager pool, in one session.
//!
//! A serving run is the staged run with client ranks:
//! [`run_staged_serving_in_session`] hands the staged driver
//! (`crate::staged`) its [`ServeParams`], and the driver splits the
//! session's ranks three ways — `[simulation ranks][staging ranks][client
//! ranks]`. The first two run the ordinary staged pipeline, with two
//! additions wired through the stager's per-frame hook:
//!
//! * every rendered frame is **persisted** through the config's
//!   [`FrameSink`] and seeded into the stager's [`ServeCore`] cache;
//! * after rendering frame `k`, the stager **serves its clients** up to
//!   frame `k`'s request quota over `apc_comm`'s request/reply endpoints.
//!   The stager is a driver over `apc-serve`'s [`ServeCore`]: it owns the
//!   quota schedule, deferral, the serve costs and the budget controller;
//!   which frames answer a request is [`Resolution::of`] over the frames
//!   rendered so far, and the fetch → degrade → reply path (cache hit
//!   free, miss charged as the ingest of the stream's bytes) is the
//!   core's.
//!
//! Client ranks issue a deterministic request mix ([`FrameRequest`]:
//! `Latest` / `AtIteration` / `Range`, some deliberately targeting frames
//! *ahead* of production) and measure virtual service latency per
//! request. Requests that race production are the [`ServePolicy`]'s
//! call: `WaitForFrame` defers the reply until the frame exists (the
//! client's latency absorbs the wait), `BestEffort` answers immediately
//! with the newest frame available.
//!
//! **Why this cannot deadlock, and why it replays bit-identically.** A
//! client sends request `j + 1` only after receiving reply `j`, and a
//! stager blocks on a client only when every earlier reply to it has been
//! sent (a deferred reply marks the client *blocked* and the stager skips
//! it until the due frame is rendered — the due frame depends only on the
//! sim queues, never on clients, so production always advances). Receive
//! orders are fixed (clients in slot order, requests in sequence order),
//! every quantity is virtual-time arithmetic over deterministic inputs,
//! and the quota schedule is pure integer math — so a serving run is a
//! pure function of its configuration, byte-stable across OS scheduling,
//! `ExecPolicy`, and session reuse (`tests/staged_determinism.rs` pins
//! this).

use std::collections::VecDeque;

use apc_comm::{Meter, Rank, ServeClient, ServeServer, Session};
use apc_grid::{Block, DomainDecomp, RectilinearCoords};
use apc_serve::{
    percentile, Fidelity, FrameReply, FrameRequest, FrameSink, ReplyChecker, RequestLog,
    Resolution, ServeCore, ServePolicy, ServeReport, ServerStats,
};
use apc_store::StoreBackend;

use crate::config::PipelineConfig;
use crate::controller::BudgetController;
use crate::staged::StagedRun;

/// Sliding-window length (latency samples) a stager's
/// [`BudgetController`] observes; it also re-steps mid-batch every
/// `BUDGET_WINDOW` replies.
const BUDGET_WINDOW: usize = 32;

/// Parameters of one serving run: how many client ranks, how hard they
/// ask, and how the stagers answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeParams {
    /// Simulated client ranks (the last ranks of the session).
    pub clients: usize,
    /// Requests each client issues over the run.
    pub requests_per_client: usize,
    /// What a stager does with a request whose frame is not rendered yet.
    pub policy: ServePolicy,
    /// Virtual seconds a client waits between a reply and its next
    /// request.
    pub think_time: f64,
    /// Byte budget of each stager's LRU hot-frame cache (0 disables
    /// caching — the uncached baseline).
    pub cache_bytes: usize,
    /// Virtual reply-latency budget. `Some(b)`: every stager runs a
    /// [`BudgetController`] (paper Algorithm 1, second life) over a
    /// sliding window of its observed reply latencies and degrades reply
    /// fidelity ([`Fidelity::for_percent`]) to keep the window's worst
    /// latency within `b`. The controller's set point is `b / 2`: the
    /// headroom absorbs the control loop's hunting overshoot so the
    /// *delivered* tail stays inside `b`. `None`: fixed full fidelity,
    /// the pre-adaptive behavior.
    pub latency_budget: Option<f64>,
    /// Virtual seconds of per-reply service work on the stager clock.
    /// Zero (the default) keeps pre-adaptive runs byte-identical.
    pub service_base: f64,
    /// Virtual seconds per encoded reply byte on the stager clock — the
    /// cost the fidelity ladder actually shrinks. Zero by default.
    pub reply_per_byte: f64,
    /// Virtual seconds of start stagger per client slot: client `c`
    /// idles `c · client_ramp` before its first request, so offered load
    /// ramps up over the run instead of arriving as one t=0 burst. Zero
    /// (the default) keeps the original all-at-once start.
    pub client_ramp: f64,
}

impl ServeParams {
    pub fn new(clients: usize, requests_per_client: usize, policy: ServePolicy) -> Self {
        assert!(clients >= 1, "need at least one client rank");
        assert!(
            requests_per_client >= 1,
            "each client must issue at least one request"
        );
        Self {
            clients,
            requests_per_client,
            policy,
            think_time: 0.0,
            cache_bytes: 1 << 20,
            latency_budget: None,
            service_base: 0.0,
            reply_per_byte: 0.0,
            client_ramp: 0.0,
        }
    }

    /// Set the virtual think time between requests.
    pub fn with_think_time(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "think time must be finite and non-negative"
        );
        self.think_time = seconds;
        self
    }

    /// Set the per-stager hot-frame cache byte budget (0 disables
    /// caching).
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Enable adaptive serving: run a per-stager [`BudgetController`]
    /// against this virtual reply-latency budget.
    pub fn with_latency_budget(mut self, budget: f64) -> Self {
        assert!(
            budget.is_finite() && budget > 0.0,
            "latency budget must be finite and positive"
        );
        self.latency_budget = Some(budget);
        self
    }

    /// Set the explicit per-reply serve costs: `base` virtual seconds of
    /// service work plus `per_byte` seconds per encoded reply byte, both
    /// charged on the stager's clock before the reply is sent. These are
    /// what make client pressure *cost* something the controller can
    /// observe; both default to zero so budget-less runs are unchanged.
    pub fn with_serve_costs(mut self, base: f64, per_byte: f64) -> Self {
        assert!(
            base.is_finite() && base >= 0.0 && per_byte.is_finite() && per_byte >= 0.0,
            "serve costs must be finite and non-negative"
        );
        self.service_base = base;
        self.reply_per_byte = per_byte;
        self
    }

    /// Stagger client starts: client `c` idles `c · seconds` before its
    /// first request, turning the t=0 request burst into a load ramp the
    /// budget controller can adapt ahead of.
    pub fn with_client_ramp(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "client ramp must be finite and non-negative"
        );
        self.client_ramp = seconds;
        self
    }
}

/// A completed serving run: the staged pipeline's own observables plus
/// the serving-side ones. Derefs to its [`ServeReport`], so `run.servers`,
/// `run.requests` and the summaries (`frames_served()`, `fidelity_mix()`,
/// `latency_percentile(p)`, …) are the same code [`crate::ReplayRun`]
/// reports through. Requests are logged clients in slot order, each
/// client's in issue order.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRun {
    /// The underlying staged run (reports, stalls, drops, per-stager
    /// block counts).
    pub staged: StagedRun,
    pub report: ServeReport,
}

impl std::ops::Deref for ServingRun {
    type Target = ServeReport;

    fn deref(&self) -> &ServeReport {
        &self.report
    }
}

/// The deterministic request mix a client issues: a rotation over
/// `Latest`, a trailing `AtIteration` (exercises the cache/store split),
/// an `AtIteration` deliberately *ahead* of the expected production
/// frontier (races production — the `ServePolicy` decides), and a short
/// `Range` window.
pub(crate) fn gen_request(
    client: usize,
    j: usize,
    iterations: &[usize],
    requests_per_client: usize,
) -> FrameRequest {
    let n = iterations.len();
    match (client + j) % 4 {
        0 => FrameRequest::Latest,
        1 => {
            // A trailing frame, cycling backward through the run.
            let idx = (client * 7 + j * 3) % n;
            FrameRequest::AtIteration(iterations[idx] as u64)
        }
        2 => {
            // Just ahead of the frontier the quota schedule will have
            // produced when this request is serviced.
            let frontier = ((j + 1) * n) / requests_per_client.max(1);
            let idx = (frontier + 1).min(n - 1);
            FrameRequest::AtIteration(iterations[idx] as u64)
        }
        _ => {
            let a = (client + j) % n;
            let b = (a + 2).min(n - 1);
            FrameRequest::Range {
                start: iterations[a] as u64,
                end: iterations[b] as u64,
            }
        }
    }
}

/// One client's connection state at its serving stager.
struct ClientConn {
    ep: ServeServer,
    /// Requests received from this client so far.
    taken: usize,
    /// A resolved request whose reply is held until its last key is
    /// rendered, plus its virtual arrival time (the latency the stager will
    /// observe includes the production wait). While present the client is
    /// blocked on it, so the stager must not expect further requests from
    /// this client.
    deferred: Option<(Resolution, f64)>,
}

/// Per-stager serving state, driven from the staged rank program's
/// per-frame hook.
pub struct StagerServe<'a> {
    serve: ServeParams,
    slot: u32,
    iterations: &'a [usize],
    core: ServeCore<&'a dyn StoreBackend>,
    clients: Vec<ClientConn>,
    /// Algorithm 1 over reply latency, when a budget is set.
    budget: Option<BudgetController>,
    /// Sliding window of the last [`BUDGET_WINDOW`] stager-observed
    /// reply latencies (send clock − request arrival).
    window: VecDeque<f64>,
    /// Replies shipped since the controller last observed the window —
    /// the controller only steps on fresh evidence.
    served_since_observe: usize,
}

impl<'a> StagerServe<'a> {
    /// Serving state for stager `slot`, answering `client_ranks` (global
    /// rank ids, fixed order).
    pub(crate) fn new(
        serve: &ServeParams,
        slot: u32,
        sink: &'a FrameSink,
        iterations: &'a [usize],
        client_ranks: Vec<usize>,
    ) -> Self {
        // The budget is the delivered-tail objective; the controller's
        // set point sits at half of it. Algorithm 1's two-point fit
        // overshoots while it hunts (the latency-vs-percent curve is
        // nonlinear and shifts with load), and the serving tail lands
        // 1.3–1.7× the set point — the headroom is what keeps the
        // delivered p99 inside the budget itself.
        let budget = serve.latency_budget.map(|b| BudgetController::new(b * 0.5));
        Self {
            serve: *serve,
            slot,
            iterations,
            core: ServeCore::new(sink.store(), serve.cache_bytes),
            clients: client_ranks
                .into_iter()
                .map(|r| ClientConn {
                    ep: ServeServer::new(r, 0),
                    taken: 0,
                    deferred: None,
                })
                .collect(),
            budget,
            window: VecDeque::with_capacity(BUDGET_WINDOW),
            served_since_observe: 0,
        }
    }

    /// Reduction percent in effect: the controller's output, or 0 (serve
    /// unreduced) without a budget. The controller's first output is 0
    /// too, so the opening fidelity is `Full` either way.
    fn percent(&self) -> f64 {
        self.budget.as_ref().map_or(0.0, BudgetController::percent)
    }

    /// Called by the stager right after persisting a frame: seed the hot
    /// cache.
    pub(crate) fn on_frame_rendered(&mut self, iteration: u64, stream: Vec<u8>) {
        self.core.seed((iteration, self.slot), stream);
    }

    /// Called by the stager after rendering frame `k`: flush replies that
    /// waited for it, then serve every client up to frame `k`'s request
    /// quota. The quota schedule spreads each client's
    /// `requests_per_client` requests evenly over the run's frames and
    /// drains completely on the last frame.
    pub(crate) fn after_frame(&mut self, rank: &mut Rank, k: usize) {
        let nframes = self.iterations.len();
        // A resolution's keys are in iteration order, and frames render in
        // iteration order: it is due once its last key is frame `k` or older.
        let newest = self.iterations[k] as u64;
        let due = |r: &Resolution| r.keys().last().is_none_or(|&(it, _)| it <= newest);
        for i in 0..self.clients.len() {
            if let Some((resolution, arrival)) = self.clients[i].deferred.take_if(|(r, _)| due(r)) {
                self.ship_reply(rank, i, &resolution, arrival);
            }
        }
        let quota = if k + 1 == nframes {
            self.serve.requests_per_client
        } else {
            (self.serve.requests_per_client * (k + 1)).div_ceil(nframes)
        };
        for i in 0..self.clients.len() {
            while self.clients[i].taken < quota && self.clients[i].deferred.is_none() {
                let d = self.clients[i].ep.recv_request::<FrameRequest>(rank);
                self.clients[i].taken += 1;
                let resolution =
                    Resolution::of(d.msg, self.slot, self.iterations, k + 1, self.serve.policy);
                if due(&resolution) {
                    self.ship_reply(rank, i, &resolution, d.arrival);
                } else {
                    self.clients[i].deferred = Some((resolution, d.arrival));
                    self.core.stats.deferred += 1;
                }
            }
        }
        self.step_controller();
    }

    /// Build and send one reply at the ladder rung in effect: a store
    /// read on a cache miss is real data movement and pays the same
    /// per-byte ingest cost any other transfer does; then charge the
    /// explicit serve cost (`service_base + reply_per_byte × encoded
    /// bytes`) on the stager's clock, observe the reply's latency into the
    /// controller window, and ship the typed reply (its wire charge, too,
    /// is exactly its encoded length).
    fn ship_reply(
        &mut self,
        rank: &mut Rank,
        client: usize,
        resolution: &Resolution,
        arrival: f64,
    ) {
        let fidelity = Fidelity::for_percent(self.percent());
        #[expect(
            clippy::panic,
            reason = "inside a rank program a failed store read or re-encode of the run's own frames fails the run loudly (poisons the session)"
        )]
        let reply = self
            .core
            .reply(resolution, fidelity, |bytes| {
                let cost = rank.net().ingest(bytes);
                rank.advance(cost);
            })
            .unwrap_or_else(|e| {
                panic!(
                    "stager {} failed to serve {resolution:?} at {}: {e}",
                    self.slot,
                    fidelity.name()
                )
            });
        let cost = self.serve.service_base + self.serve.reply_per_byte * reply.nbytes() as f64;
        rank.advance(cost);
        let latency = rank.clock() - arrival;
        if self.window.len() == BUDGET_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(latency);
        self.served_since_observe += 1;
        debug_assert!(reply.wire_round_trips(), "reply codec round trip");
        self.clients[client].ep.send_reply(rank, reply);
        // Long serving batches (deep fan-in, the final-frame drain) would
        // otherwise run hundreds of replies at a stale fidelity: re-step
        // the controller every window's worth of replies so it reacts
        // within a batch, not just between frames.
        if self.served_since_observe >= BUDGET_WINDOW {
            self.step_controller();
        }
    }

    /// One controller step per frame, on fresh evidence only: feed the
    /// window's worst latency and the percent those replies were shipped
    /// at into Algorithm 1, and move the ladder for the next frame's
    /// replies. Regulating the window *maximum* (rather than a central
    /// percentile) makes the controller's set point a tail bound: at
    /// equilibrium the worst recent reply sits at the budget, so the
    /// run-wide p99 lands at or under it.
    fn step_controller(&mut self) {
        let Some(ctrl) = self.budget.as_mut() else {
            return;
        };
        if self.served_since_observe == 0 || self.window.is_empty() {
            return;
        }
        let observed = percentile(self.window.iter().copied(), 100.0);
        ctrl.observe(observed);
        self.served_since_observe = 0;
    }

    /// Drain the serving state into its totals at the stager's final
    /// virtual `clock`.
    pub(crate) fn finish(self, clock: f64) -> ServerStats {
        debug_assert!(
            self.clients
                .iter()
                .all(|c| c.taken == self.serve.requests_per_client && c.deferred.is_none()),
            "every client fully served at end of run"
        );
        ServerStats {
            final_percent: self.percent(),
            ..self.core.finish(clock)
        }
    }
}

/// The SPMD program of one client rank: issue the deterministic request
/// mix against its assigned stager, one request in flight at a time, and
/// log virtual latency per request.
pub(crate) fn client_program(
    rank: &mut Rank,
    client: usize,
    server_rank: usize,
    server_slot: u32,
    iterations: &[usize],
    serve: &ServeParams,
    checker: &ReplyChecker,
) -> (Vec<RequestLog>, f64) {
    let mut ep = ServeClient::new(server_rank, 0);
    let mut logs = Vec::with_capacity(serve.requests_per_client);
    // Staggered start: later client slots come online later, so offered
    // load ramps up instead of bursting at t=0.
    rank.advance(serve.client_ramp * client as f64);
    for j in 0..serve.requests_per_client {
        let q = gen_request(client, j, iterations, serve.requests_per_client);
        let t0 = rank.clock();
        // Requests and replies ride the wire typed, each metered at its
        // encoded length — the reply's is what the fidelity ladder
        // shrinks.
        ep.send_request(rank, q);
        let reply: FrameReply = ep.recv_reply(rank).msg;
        let latency = rank.clock() - t0;
        #[expect(
            clippy::panic,
            reason = "end-to-end check in a rank program — a corrupt reply or frame fails the run loudly"
        )]
        let reply = checker
            .check_reply(reply)
            .unwrap_or_else(|e| panic!("client {client} received a bad reply: {e}"));
        assert!(
            reply.frames().iter().all(|f| f.stager == server_slot),
            "frame from the wrong stager"
        );
        logs.push(RequestLog::new(client, q, &reply, latency, ()));
        rank.advance(serve.think_time);
    }
    (logs, rank.clock())
}

/// Run a staged configuration with `serve.clients` simulated client ranks
/// co-scheduled against the stager pool, over a caller-owned [`Session`] —
/// the run [`crate::staged::run_staged_in_session`] makes, with clients.
///
/// The session's ranks split `[sim][stage][client]`: the staged partition
/// covers the first `nranks − clients` ranks (dataset ranks fold onto the
/// simulation ranks exactly as in a plain staged run), and the last
/// `clients` ranks run the request/reply workload. The config must be
/// [`crate::InSituMode::Staged`] **with a frame sink attached**
/// (`StagedParams::persist`) — serving reads the frames it ships from
/// that sink's store. The run writes the sink's
/// [`apc_serve::RunManifest`] before the ranks start. `_coords` is unused,
/// as in [`crate::staged::run_staged_in_session`].
pub fn run_staged_serving_in_session<F>(
    session: &mut Session,
    decomp: &DomainDecomp,
    _coords: &RectilinearCoords,
    config: &PipelineConfig,
    iterations: &[usize],
    serve: &ServeParams,
    blocks: &F,
) -> ServingRun
where
    F: Fn(usize, usize) -> Vec<Block> + Sync,
{
    crate::staged::run(session, decomp, config, iterations, Some(serve), blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use apc_cm1::ReflectivityDataset;
    use apc_comm::{NetModel, Runtime};
    use apc_serve::FrameStore;
    use apc_store::{CacheStats, CodecKind, MemStore, StoreBackend};

    use crate::config::{BackpressurePolicy, StagedParams};

    /// A tiny serving run: 8 ranks split 2 sim / 2 viz / 4 clients over
    /// the tiny dataset, returning the run and its backing store.
    fn tiny_serving(
        policy: ServePolicy,
        cache_bytes: usize,
    ) -> (ServingRun, Arc<dyn StoreBackend>, Vec<usize>) {
        tiny_serving_with(policy, cache_bytes, None)
    }

    /// [`tiny_serving`] with a frame layout choice: `Some(n)` persists
    /// through a sharded sink, `n` frames per shard container.
    fn tiny_serving_with(
        policy: ServePolicy,
        cache_bytes: usize,
        shard: Option<usize>,
    ) -> (ServingRun, Arc<dyn StoreBackend>, Vec<usize>) {
        let serve = ServeParams::new(4, 6, policy)
            .with_think_time(0.1)
            .with_cache_bytes(cache_bytes);
        tiny_serving_serve(serve, shard)
    }

    /// The tiny serving fixture with full control over [`ServeParams`].
    fn tiny_serving_serve(
        serve: ServeParams,
        shard: Option<usize>,
    ) -> (ServingRun, Arc<dyn StoreBackend>, Vec<usize>) {
        let iters = ReflectivityDataset::tiny(8, 42)
            .unwrap()
            .sample_iterations(4);
        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let run = serving_run(&backend, 2, &iters, serve, shard);
        (run, backend, iters)
    }

    /// A serving run over the tiny dataset at 8 ranks, persisting into
    /// `backend` as run `"test"`: `viz` stagers, `serve.clients` clients
    /// and simulation ranks for the rest.
    fn serving_run(
        backend: &Arc<dyn StoreBackend>,
        viz: usize,
        iters: &[usize],
        serve: ServeParams,
        shard: Option<usize>,
    ) -> ServingRun {
        let dataset = ReflectivityDataset::tiny(8, 42).unwrap();
        let sink = FrameSink::with_layout(Arc::clone(backend), "test", CodecKind::Fpz, shard);
        let params = StagedParams::new(viz, 2, BackpressurePolicy::Block)
            .with_sim_compute(5.0)
            .with_persist(sink);
        let config = crate::PipelineConfig::default()
            .deterministic()
            .with_fixed_percent(40.0)
            .with_staged(params);
        run_staged_serving_in_session(
            &mut Runtime::new(8, NetModel::blue_waters()).session(),
            dataset.decomp(),
            dataset.coords(),
            &config,
            iters,
            &serve,
            &|it, rank| dataset.rank_blocks(it, rank),
        )
    }

    #[test]
    fn serving_run_persists_and_answers_every_request() {
        let (run, backend, iters) = tiny_serving(ServePolicy::WaitForFrame, 64 << 10);
        // Every client's every request is logged and carried frames.
        assert_eq!(run.requests.len(), 4 * 6);
        assert!(run.frames_served() > 0);
        assert_eq!(run.client_finish.len(), 4);
        assert!(run.requests.iter().all(|r| r.latency >= 0.0));
        // WaitForFrame answers everything exactly.
        assert_eq!(run.total_inexact(), 0);
        // The staged side still did its job.
        assert_eq!(run.staged.frames.len(), iters.len());
        assert_eq!(run.servers.len(), 2);
        // Frames are durable: every (iteration, stager) reads back and
        // the manifest describes the run.
        let store = FrameStore::new(&*backend, "test");
        let manifest = store.manifest().unwrap();
        assert_eq!(manifest.n_stagers, 2);
        assert_eq!(manifest.iterations, iters);
        for &it in &iters {
            for stager in 0..2u32 {
                let frame = store.get_frame(it as u64, stager).unwrap();
                assert_eq!(frame.iteration, it as u64);
                assert_eq!(frame.stager, stager);
                assert_eq!(
                    (frame.width as usize, frame.height as usize),
                    (manifest.width, manifest.height)
                );
            }
        }
    }

    /// The layout below the sink must be invisible to the run: a sharded
    /// sink serves byte-identical frames with identical request traffic,
    /// latencies and cache behavior, because the encoded streams (and so
    /// every virtual-cost charge) are the same bytes either way. Only the
    /// store's key population differs.
    #[test]
    fn sharded_sink_serves_byte_identically() {
        let (plain, plain_backend, iters) =
            tiny_serving_with(ServePolicy::BestEffort, 64 << 10, None);
        let (sharded, sharded_backend, _) =
            tiny_serving_with(ServePolicy::BestEffort, 64 << 10, Some(3));
        assert_eq!(plain.requests, sharded.requests);
        assert_eq!(plain.frames_served(), sharded.frames_served());
        assert_eq!(plain.cache_hit_rate(), sharded.cache_hit_rate());
        assert_eq!(plain.client_finish, sharded.client_finish);

        // The raw sharded backend holds containers, not frame keys…
        assert!(!sharded_backend
            .contains(&apc_serve::store::frame_key("test", iters[0] as u64, 0))
            .unwrap());
        // …but open_run reads back streams byte-identical to the plain run.
        let (reader, manifest) = apc_serve::store::open_run(sharded_backend, "test").unwrap();
        assert_eq!(manifest.shard_chunks, Some(3));
        assert_eq!(manifest.iterations, iters);
        let plain_store = FrameStore::new(&*plain_backend, "test");
        for &it in &iters {
            for stager in 0..2u32 {
                assert_eq!(
                    reader.encoded(it as u64, stager).unwrap(),
                    plain_store.encoded(it as u64, stager).unwrap(),
                    "iteration {it} stager {stager}"
                );
            }
        }
    }

    /// 8 ranks split 2 sim / 4 stage / 2 clients: clients 0 and 1 go to
    /// stagers 0 and 1, and stagers 2 and 3 have no client. Those render
    /// and seed their caches like the others but answer nothing.
    #[test]
    fn stagers_without_clients_serve_nothing() {
        for policy in [ServePolicy::WaitForFrame, ServePolicy::BestEffort] {
            let serve = ServeParams::new(2, 6, policy)
                .with_think_time(0.1)
                .with_cache_bytes(64 << 10);
            let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
            let iters = ReflectivityDataset::tiny(8, 42)
                .unwrap()
                .sample_iterations(4);
            let run = serving_run(&backend, 4, &iters, serve, None);
            assert_eq!(run.requests.len(), 2 * 6, "{policy:?}");
            assert_eq!(run.client_finish.len(), 2);
            assert_eq!(run.servers.len(), 4);
            assert_eq!(run.staged.blocks_by_stager().len(), 4);
            for (slot, stats) in run.servers.iter().enumerate() {
                assert_eq!(stats.cache.insertions, iters.len(), "stager {slot}");
                if slot < 2 {
                    assert_eq!(stats.requests, 6, "stager {slot} answers its client");
                    continue;
                }
                let idle = ServerStats {
                    cache: CacheStats {
                        insertions: stats.cache.insertions,
                        ..CacheStats::default()
                    },
                    finish: stats.finish,
                    ..ServerStats::default()
                };
                assert_eq!(*stats, idle, "stager {slot} has no client ({policy:?})");
            }
            if policy == ServePolicy::WaitForFrame {
                assert_eq!(run.total_inexact(), 0);
            }
        }
    }

    /// A run that persists frames must write a manifest `open_run` reads
    /// back, so iterations out of order fail the run at entry, before any
    /// rank starts: no stager renders, and no manifest or frame is stored.
    #[test]
    fn out_of_order_iterations_fail_before_any_rank_starts() {
        let mut iters = ReflectivityDataset::tiny(8, 42)
            .unwrap()
            .sample_iterations(4);
        iters.swap(1, 2);
        let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
        let serve = ServeParams::new(4, 6, ServePolicy::WaitForFrame).with_think_time(0.1);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serving_run(&backend, 2, &iters, serve, None)
        }))
        .expect_err("the run must not start");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(message.contains("strictly increasing"), "{message}");
        assert!(!backend.contains("f/test/manifest.json").unwrap());
        for &it in &iters {
            let key = apc_serve::store::frame_key("test", it as u64, 0);
            assert!(!backend.contains(&key).unwrap(), "frame {it} rendered");
        }
    }

    #[test]
    fn wait_for_frame_defers_racing_requests() {
        let (run, ..) = tiny_serving(ServePolicy::WaitForFrame, 64 << 10);
        assert!(
            run.total_deferred() > 0,
            "the request mix targets frames ahead of production"
        );
        assert_eq!(run.total_inexact(), 0, "waiting always answers exactly");
    }

    #[test]
    fn best_effort_never_defers_but_substitutes() {
        let (run, ..) = tiny_serving(ServePolicy::BestEffort, 64 << 10);
        assert_eq!(run.total_deferred(), 0, "best effort never waits");
        assert!(
            run.total_inexact() > 0,
            "racing requests must come back substituted"
        );
    }

    #[test]
    #[should_panic(expected = "needs StagedParams::persist")]
    fn serving_without_a_sink_rejected() {
        let dataset = ReflectivityDataset::tiny(8, 42).unwrap();
        let iters = dataset.sample_iterations(2);
        let config = crate::PipelineConfig::default()
            .deterministic()
            .with_staged(StagedParams::new(2, 2, BackpressurePolicy::Block));
        let _ = run_staged_serving_in_session(
            &mut Runtime::new(8, NetModel::blue_waters()).session(),
            dataset.decomp(),
            dataset.coords(),
            &config,
            &iters,
            &ServeParams::new(2, 2, ServePolicy::BestEffort),
            &|it, rank| dataset.rank_blocks(it, rank),
        );
    }

    #[test]
    fn gen_request_is_deterministic_and_in_range() {
        let iterations: Vec<usize> = (0..12).map(|i| 100 + i * 20).collect();
        for client in 0..7 {
            for j in 0..9 {
                let a = gen_request(client, j, &iterations, 9);
                let b = gen_request(client, j, &iterations, 9);
                assert_eq!(a, b, "request mix must replay identically");
                match a {
                    FrameRequest::Latest => {}
                    FrameRequest::AtIteration(it) => {
                        assert!(iterations.iter().any(|&x| x as u64 == it))
                    }
                    FrameRequest::Range { start, end } => {
                        assert!(start <= end);
                        assert!(iterations.iter().any(|&x| x as u64 == start));
                        assert!(iterations.iter().any(|&x| x as u64 == end));
                    }
                }
            }
        }
    }

    #[test]
    fn gen_request_covers_every_variant() {
        let iterations: Vec<usize> = (0..8).collect();
        let mut latest = 0;
        let mut at = 0;
        let mut range = 0;
        for j in 0..8 {
            match gen_request(0, j, &iterations, 8) {
                FrameRequest::Latest => latest += 1,
                FrameRequest::AtIteration(_) => at += 1,
                FrameRequest::Range { .. } => range += 1,
            }
        }
        assert!(latest > 0 && at > 0 && range > 0);
    }

    /// The driver subtracts the clients before it splits sim from viz:
    /// 2 viz + 6 clients of 8 ranks leave no simulation rank, and the
    /// message names both shares of the session, not the staged remainder.
    #[test]
    #[should_panic(expected = "2 viz + 6 client of 8 ranks; at least one simulation rank")]
    fn overfull_split_rejected() {
        let _ = tiny_serving_serve(ServeParams::new(6, 1, ServePolicy::BestEffort), None);
    }

    /// Zero frames would leave the stagers nothing to serve from while
    /// the clients still generate requests over an empty iteration list.
    #[test]
    #[should_panic(expected = "a staged run needs at least one iteration")]
    fn empty_iteration_list_rejected() {
        let dataset = ReflectivityDataset::tiny(8, 42).unwrap();
        let sink = FrameSink::new(Arc::new(MemStore::new()), "test", CodecKind::Fpz);
        let config = crate::PipelineConfig::default()
            .deterministic()
            .with_staged(StagedParams::new(2, 2, BackpressurePolicy::Block).with_persist(sink));
        let _ = run_staged_serving_in_session(
            &mut Runtime::new(8, NetModel::blue_waters()).session(),
            dataset.decomp(),
            dataset.coords(),
            &config,
            &[],
            &ServeParams::new(4, 6, ServePolicy::BestEffort),
            &|it, rank| dataset.rank_blocks(it, rank),
        );
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let _ = ServeParams::new(0, 1, ServePolicy::BestEffort);
    }

    #[test]
    fn serve_params_builders() {
        let p = ServeParams::new(4, 6, ServePolicy::WaitForFrame)
            .with_think_time(0.25)
            .with_cache_bytes(2048)
            .with_latency_budget(0.5)
            .with_serve_costs(0.01, 1e-5)
            .with_client_ramp(0.125);
        assert_eq!(p.clients, 4);
        assert_eq!(p.requests_per_client, 6);
        assert_eq!(p.think_time, 0.25);
        assert_eq!(p.cache_bytes, 2048);
        assert_eq!(p.latency_budget, Some(0.5));
        assert_eq!(p.service_base, 0.01);
        assert_eq!(p.reply_per_byte, 1e-5);
        assert_eq!(p.client_ramp, 0.125);
    }

    #[test]
    #[should_panic(expected = "latency budget must be finite and positive")]
    fn non_positive_budget_rejected() {
        let _ = ServeParams::new(1, 1, ServePolicy::BestEffort).with_latency_budget(0.0);
    }

    #[test]
    fn no_budget_ships_everything_full_fidelity() {
        let (run, ..) = tiny_serving(ServePolicy::BestEffort, 64 << 10);
        assert_eq!(run.degraded_replies(), 0);
        let mix = run.fidelity_mix();
        assert!(mix.full > 0, "frame replies were shipped");
        assert_eq!(mix.degraded(), 0);
        assert!(run.requests.iter().all(|r| r.fidelity == Fidelity::Full));
        assert!(run.servers.iter().all(|s| s.final_percent == 0.0));
    }

    #[test]
    fn generous_budget_converges_to_full_fidelity() {
        // With explicit serve costs but a budget far above the observed
        // latencies, the controller must settle at 0% — zero degraded
        // replies, exactly the fixed-fidelity outcome.
        let serve = ServeParams::new(4, 6, ServePolicy::BestEffort)
            .with_think_time(0.1)
            .with_serve_costs(0.01, 1e-6)
            .with_latency_budget(1e6);
        let (run, ..) = tiny_serving_serve(serve, None);
        assert_eq!(run.degraded_replies(), 0, "generous budget never degrades");
        assert!(run.servers.iter().all(|s| s.final_percent == 0.0));
        assert!(run.requests.iter().all(|r| r.fidelity == Fidelity::Full));
    }

    #[test]
    fn tight_budget_walks_the_fidelity_ladder() {
        // Serve costs make every reply expensive; a budget far below the
        // resulting latencies forces the controller up the ladder
        // mid-run.
        let serve = ServeParams::new(4, 6, ServePolicy::BestEffort)
            .with_think_time(0.1)
            .with_serve_costs(0.05, 1e-4)
            .with_latency_budget(0.01);
        let (run, ..) = tiny_serving_serve(serve, None);
        let mix = run.fidelity_mix();
        assert!(
            mix.degraded() > 0,
            "an unmeetable budget must degrade replies: {mix:?}"
        );
        assert!(
            mix.full > 0,
            "the controller's first frame serves unreduced (Algorithm 1 initial conditions)"
        );
        assert!(
            run.servers.iter().any(|s| s.final_percent > 0.0),
            "controllers end under pressure"
        );
        // Clients observed the degradation through the wire tag.
        assert!(run
            .requests
            .iter()
            .any(|r| r.fidelity != Fidelity::Full && r.frames > 0));
        // Fidelity-mix accounting covers exactly the frame-carrying
        // replies.
        let frame_replies = run.requests.iter().filter(|r| r.frames > 0).count();
        assert_eq!(mix.total(), frame_replies);
    }

    #[test]
    fn degraded_replies_ship_fewer_bytes_for_lower_tail() {
        // Same costs, same traffic: the adaptive run's tail latency must
        // not exceed the fixed-fidelity run's, because every degraded
        // reply is strictly smaller on the (per-byte-charged) wire.
        let costs = (0.02, 2e-4);
        let fixed = ServeParams::new(4, 6, ServePolicy::BestEffort)
            .with_think_time(0.1)
            .with_serve_costs(costs.0, costs.1);
        let adaptive = fixed.with_latency_budget(0.05);
        let (fixed_run, ..) = tiny_serving_serve(fixed, None);
        let (adaptive_run, ..) = tiny_serving_serve(adaptive, None);
        assert!(adaptive_run.degraded_replies() > 0);
        assert!(
            adaptive_run.latency_percentile(99.0) <= fixed_run.latency_percentile(99.0) + 1e-12,
            "adaptive p99 {} vs fixed p99 {}",
            adaptive_run.latency_percentile(99.0),
            fixed_run.latency_percentile(99.0)
        );
    }
}
