//! The pool plan: who executes each recorded arrival, in what order.
//!
//! Stealing in a real serving pool is a race: an idle server grabs work
//! from a loaded peer's queue, and which request moves depends on thread
//! timing. Replayed in virtual time it becomes a *plan*: a deterministic
//! discrete-event simulation over the recorded [`ArrivalTrace`] decides,
//! before any rank spawns, which server executes each arrival and in what
//! service order. The SPMD executor (`apc-core`'s `replay_serving`) then
//! realizes the plan over real endpoints — so two runs of the same trace
//! steal the identical requests, byte for byte, under any `ExecPolicy`.
//!
//! The simulation is intentionally simple queueing: each server is a
//! single virtual worker with a premium queue and a free queue. An
//! arrival joins its primary's tier queue (or starts immediately on an
//! idle primary). On completion a server pops its own premium queue
//! first, then its own free queue; under
//! [`RouteMode::RoutedStealing`] an idle server with nothing of its own
//! steals the *newest* queued request (free tier first) from the
//! most-loaded peer — classic tail stealing.
//!
//! Tail stealing can hand one server two requests of the same client in
//! reverse issue order, but a client's endpoint stream to a server is
//! FIFO — so the executor does not put the plan's service order on the
//! wire directly. Instead [`PoolPlan::pair_slots`] fixes the per-(client,
//! executor) wire contract to issue order, and the server walks its
//! [`PoolPlan::server_order`] *attributing* each step to the next
//! unconsumed slot of that step's client pair (a cursor per pair). The
//! cross-client interleaving the plan chose survives; the per-pair FIFO
//! the endpoints require is restored.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::route::{primary_for, RouteMode};
use crate::trace::{ArrivalTrace, QosTier};

/// Extra virtual seconds a stolen request pays (queue migration): the
/// planner's completion estimate and the executor's charge.
pub const STEAL_OVERHEAD: f64 = 5e-5;

/// Pool shape and virtual cost knobs of a replay run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolParams {
    /// Server ranks in the pool.
    pub nservers: usize,
    /// Routing mode.
    pub mode: RouteMode,
    /// Byte budget of each server's `ServeCore` frame cache (0 disables
    /// caching).
    pub cache_bytes: usize,
    /// Virtual seconds of per-request service work (decode, resolve,
    /// reply assembly).
    pub service_base: f64,
    /// Virtual seconds of fixed storage-tier latency per cache-missed
    /// frame read. Deliberately *not* `NetModel::ingest` — the store is a
    /// storage tier with its own latency floor, and the stock
    /// interconnect models price ingest at or near zero.
    pub miss_read: f64,
    /// Virtual seconds per byte of a cache-missed frame read (a
    /// disk-bandwidth model).
    pub read_per_byte: f64,
}

impl PoolParams {
    pub fn new(nservers: usize, mode: RouteMode) -> Self {
        assert!(nservers >= 1, "need at least one replay server");
        Self {
            nservers,
            mode,
            cache_bytes: 1 << 20,
            service_base: 1e-4,
            miss_read: 2e-3,
            read_per_byte: 1e-8,
        }
    }

    /// Set each server's cache byte budget (0 disables caching).
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }
}

/// Where one arrival ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Trace slot this assignment is for.
    pub slot: usize,
    /// The issuing client's tier (which queue the arrival joined).
    pub tier: QosTier,
    /// The arrival's routed primary server.
    pub primary: usize,
    /// The server that actually executes it.
    pub executor: usize,
    /// Whether a steal moved it off its primary.
    pub stolen: bool,
}

/// The complete, deterministic execution plan of one replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolPlan {
    /// Per-arrival assignment, in trace-slot order.
    pub assignments: Vec<Assignment>,
    /// Per-server service-start order (trace slots), the order the
    /// executor's server ranks process their work in.
    pub server_order: Vec<Vec<usize>>,
    /// Requests a steal moved off their primary.
    pub stolen_total: usize,
}

/// Discrete-event state of one planned server.
#[derive(Debug, Default)]
struct ServerState {
    busy: bool,
    premium: VecDeque<usize>,
    free: VecDeque<usize>,
}

impl ServerState {
    fn queued(&self) -> usize {
        self.premium.len() + self.free.len()
    }
}

/// One planner event. Completions sort before arrivals at equal times so
/// a freed server can pick up a request arriving that same instant; ties
/// within a kind go by id.
#[derive(Debug, PartialEq)]
struct Ev {
    time: f64,
    /// 0 = completion, 1 = arrival.
    kind: u8,
    /// Completion: server index. Arrival: trace slot.
    id: usize,
}

impl Eq for Ev {}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first. f64 keys
        // are compared with total_cmp — the times are virtual-clock
        // arithmetic, never NaN, and total order keeps the heap lawful.
        other
            .time
            .total_cmp(&self.time)
            .then(other.kind.cmp(&self.kind))
            .then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PoolPlan {
    /// Plan `trace` over a pool described by `params`, routing against
    /// the run's `iterations` list. `est_cost[slot]` is the caller's
    /// estimate of each arrival's service time (the executor uses a
    /// pessimistic all-miss estimate); it shapes steal decisions only —
    /// the executor's real charges replace it.
    ///
    /// The trace must be in canonical order, as [`ArrivalTrace::generate`]
    /// records it: arrival times non-decreasing and every `slot` equal to
    /// its position (panics otherwise). The planner then walks the
    /// arrivals in slot order and merges them with a heap of at most
    /// `nservers` pending completions: the same event order as heaping
    /// every arrival, on a heap of `nservers` entries instead of one per
    /// arrival.
    pub fn plan(
        trace: &ArrivalTrace,
        params: &PoolParams,
        iterations: &[usize],
        est_cost: &[f64],
    ) -> Self {
        assert_eq!(
            est_cost.len(),
            trace.len(),
            "one cost estimate per recorded arrival"
        );
        assert!(
            trace.arrivals.iter().enumerate().all(|(i, a)| a.slot == i),
            "trace slots must be their positions"
        );
        assert!(
            trace
                .arrivals
                .windows(2)
                .all(|w| w[0].time.total_cmp(&w[1].time).is_le()),
            "trace arrival times must be non-decreasing"
        );
        let n = params.nservers;
        let mut assignments: Vec<Assignment> = trace
            .arrivals
            .iter()
            .map(|a| {
                let primary = primary_for(params.mode, a, n, iterations);
                Assignment {
                    slot: a.slot,
                    tier: a.tier,
                    primary,
                    executor: primary,
                    stolen: false,
                }
            })
            .collect();

        // Pending completions only: a server has at most one in flight.
        // Arrivals are merged in from the trace, already in event order.
        let mut heap: BinaryHeap<Ev> = BinaryHeap::with_capacity(n);
        let mut next_arrival = 0usize;
        let mut servers: Vec<ServerState> = (0..n).map(|_| ServerState::default()).collect();

        let mut server_order: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut stolen_total = 0usize;

        // Start `slot` on server `s` at `now`.
        let mut start = |s: usize,
                         slot: usize,
                         stolen: bool,
                         now: f64,
                         servers: &mut Vec<ServerState>,
                         heap: &mut BinaryHeap<Ev>,
                         assignments: &mut Vec<Assignment>,
                         server_order: &mut Vec<Vec<usize>>| {
            servers[s].busy = true;
            assignments[slot].executor = s;
            assignments[slot].stolen = stolen;
            server_order[s].push(slot);
            if stolen {
                stolen_total += 1;
            }
            let cost = est_cost[slot] + if stolen { STEAL_OVERHEAD } else { 0.0 };
            heap.push(Ev {
                time: now + cost,
                kind: 0,
                id: s,
            });
        };

        loop {
            let arrival = trace.arrivals.get(next_arrival).map(|a| Ev {
                time: a.time,
                kind: 1,
                id: a.slot,
            });
            // `Ev` orders earliest-first as *greatest*: a completion that
            // compares greater than the next arrival happens before it.
            let ev = match (arrival, heap.peek()) {
                (Some(a), Some(c)) if *c > a => heap.pop(),
                (Some(a), _) => {
                    next_arrival += 1;
                    Some(a)
                }
                (None, _) => heap.pop(),
            };
            let Some(ev) = ev else { break };
            match ev.kind {
                1 => {
                    // Arrival: join the primary, or start immediately if
                    // it is idle.
                    let slot = ev.id;
                    let a = &trace.arrivals[slot];
                    let p = assignments[slot].primary;
                    if servers[p].busy {
                        match a.tier {
                            QosTier::Premium => servers[p].premium.push_back(slot),
                            QosTier::Free => servers[p].free.push_back(slot),
                        }
                    } else {
                        start(
                            p,
                            slot,
                            false,
                            ev.time,
                            &mut servers,
                            &mut heap,
                            &mut assignments,
                            &mut server_order,
                        );
                    }
                }
                _ => {
                    // Completion: pop own work (premium first), else
                    // steal under RoutedStealing.
                    let s = ev.id;
                    servers[s].busy = false;
                    let next = servers[s]
                        .premium
                        .pop_front()
                        .or_else(|| servers[s].free.pop_front());
                    if let Some(slot) = next {
                        start(
                            s,
                            slot,
                            false,
                            ev.time,
                            &mut servers,
                            &mut heap,
                            &mut assignments,
                            &mut server_order,
                        );
                    } else if params.mode.steals() {
                        // Victim: the most-loaded peer, ties to the
                        // lowest index. Steal the newest queued request,
                        // free tier before premium (paying work stays on
                        // its cache-affine primary longest).
                        let victim = (0..n)
                            .filter(|&v| v != s && servers[v].queued() > 0)
                            .max_by(|&a, &b| {
                                servers[a]
                                    .queued()
                                    .cmp(&servers[b].queued())
                                    .then(b.cmp(&a))
                            });
                        if let Some(v) = victim {
                            let next = servers[v]
                                .free
                                .pop_back()
                                .or_else(|| servers[v].premium.pop_back());
                            if let Some(slot) = next {
                                start(
                                    s,
                                    slot,
                                    true,
                                    ev.time,
                                    &mut servers,
                                    &mut heap,
                                    &mut assignments,
                                    &mut server_order,
                                );
                            }
                        }
                    }
                }
            }
        }

        debug_assert!(
            servers.iter().all(|s| !s.busy && s.queued() == 0),
            "plan drained every queue"
        );
        Self {
            assignments,
            server_order,
            stolen_total,
        }
    }

    /// `pair_slots[s][c]`: trace slots executed by server `s` for client
    /// `c`, in the client's issue order — the per-(client, server) wire
    /// contract both the client's send loop and the server's receive
    /// attribution follow. Built in one pass over `issue`
    /// ([`ArrivalTrace::issue_order`]).
    pub fn pair_slots(&self, issue: &[Vec<usize>]) -> Vec<Vec<Vec<usize>>> {
        let mut pairs = vec![vec![Vec::new(); issue.len()]; self.server_order.len()];
        for (c, slots) in issue.iter().enumerate() {
            for &slot in slots {
                pairs[self.assignments[slot].executor][c].push(slot);
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSpec;
    use apc_serve::{FrameRequest, RunManifest};
    use apc_store::CodecKind;

    fn manifest() -> RunManifest {
        RunManifest {
            run_id: "plan-test".into(),
            n_stagers: 4,
            width: 8,
            height: 8,
            codec: CodecKind::Raw,
            iterations: vec![100, 200, 300, 400, 500, 600, 700, 800],
            shard_chunks: None,
        }
    }

    /// The planner as it was before the merge: every arrival pushed onto
    /// one heap up front. Kept as the oracle `PoolPlan::plan` must match
    /// plan for plan.
    fn all_arrivals_heaped(
        trace: &ArrivalTrace,
        params: &PoolParams,
        iterations: &[usize],
        est_cost: &[f64],
    ) -> PoolPlan {
        assert_eq!(
            est_cost.len(),
            trace.len(),
            "one cost estimate per recorded arrival"
        );
        let n = params.nservers;
        let mut assignments: Vec<Assignment> = trace
            .arrivals
            .iter()
            .map(|a| {
                let primary = primary_for(params.mode, a, n, iterations);
                Assignment {
                    slot: a.slot,
                    tier: a.tier,
                    primary,
                    executor: primary,
                    stolen: false,
                }
            })
            .collect();

        let mut heap: BinaryHeap<Ev> = BinaryHeap::with_capacity(trace.len() + n);
        let mut servers: Vec<ServerState> = (0..n).map(|_| ServerState::default()).collect();
        for a in &trace.arrivals {
            heap.push(Ev {
                time: a.time,
                kind: 1,
                id: a.slot,
            });
        }

        let mut server_order: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut stolen_total = 0usize;

        // Start `slot` on server `s` at `now`.
        let mut start = |s: usize,
                         slot: usize,
                         stolen: bool,
                         now: f64,
                         servers: &mut Vec<ServerState>,
                         heap: &mut BinaryHeap<Ev>,
                         assignments: &mut Vec<Assignment>,
                         server_order: &mut Vec<Vec<usize>>| {
            servers[s].busy = true;
            assignments[slot].executor = s;
            assignments[slot].stolen = stolen;
            server_order[s].push(slot);
            if stolen {
                stolen_total += 1;
            }
            let cost = est_cost[slot] + if stolen { STEAL_OVERHEAD } else { 0.0 };
            heap.push(Ev {
                time: now + cost,
                kind: 0,
                id: s,
            });
        };

        while let Some(ev) = heap.pop() {
            match ev.kind {
                1 => {
                    // Arrival: join the primary, or start immediately if
                    // it is idle.
                    let slot = ev.id;
                    let a = &trace.arrivals[slot];
                    let p = assignments[slot].primary;
                    if servers[p].busy {
                        match a.tier {
                            QosTier::Premium => servers[p].premium.push_back(slot),
                            QosTier::Free => servers[p].free.push_back(slot),
                        }
                    } else {
                        start(
                            p,
                            slot,
                            false,
                            ev.time,
                            &mut servers,
                            &mut heap,
                            &mut assignments,
                            &mut server_order,
                        );
                    }
                }
                _ => {
                    // Completion: pop own work (premium first), else
                    // steal under RoutedStealing.
                    let s = ev.id;
                    servers[s].busy = false;
                    let next = servers[s]
                        .premium
                        .pop_front()
                        .or_else(|| servers[s].free.pop_front());
                    if let Some(slot) = next {
                        start(
                            s,
                            slot,
                            false,
                            ev.time,
                            &mut servers,
                            &mut heap,
                            &mut assignments,
                            &mut server_order,
                        );
                    } else if params.mode.steals() {
                        // Victim: the most-loaded peer, ties to the
                        // lowest index. Steal the newest queued request,
                        // free tier before premium (paying work stays on
                        // its cache-affine primary longest).
                        let victim = (0..n)
                            .filter(|&v| v != s && servers[v].queued() > 0)
                            .max_by(|&a, &b| {
                                servers[a]
                                    .queued()
                                    .cmp(&servers[b].queued())
                                    .then(b.cmp(&a))
                            });
                        if let Some(v) = victim {
                            let next = servers[v]
                                .free
                                .pop_back()
                                .or_else(|| servers[v].premium.pop_back());
                            if let Some(slot) = next {
                                start(
                                    s,
                                    slot,
                                    true,
                                    ev.time,
                                    &mut servers,
                                    &mut heap,
                                    &mut assignments,
                                    &mut server_order,
                                );
                            }
                        }
                    }
                }
            }
        }

        debug_assert!(
            servers.iter().all(|s| !s.busy && s.queued() == 0),
            "plan drained every queue"
        );
        PoolPlan {
            assignments,
            server_order,
            stolen_total,
        }
    }

    /// Per-slot cost estimates that vary with the request, so steals and
    /// queue orders depend on more than arrival order.
    fn varied_costs(trace: &ArrivalTrace) -> Vec<f64> {
        trace
            .arrivals
            .iter()
            .map(|a| match a.request {
                FrameRequest::Range { start, end } => 1e-3 * (1 + (end - start) / 100) as f64,
                FrameRequest::Latest => 4e-4,
                FrameRequest::AtIteration(it) => 2e-4 * (1 + it % 5) as f64,
            })
            .collect()
    }

    const MODES: [RouteMode; 3] = [
        RouteMode::Pinned,
        RouteMode::Routed,
        RouteMode::RoutedStealing,
    ];

    #[test]
    fn plan_matches_the_all_arrivals_heap_oracle() {
        let m = manifest();
        for seed in [1, 7, 42] {
            for (clients, nservers) in [(12, 4), (40, 16)] {
                let spec = TraceSpec::new(clients, 24, seed).with_intervals(1e-2, 5e-4);
                let trace = ArrivalTrace::generate(&spec, &m);
                assert!(
                    trace.tiers.contains(&QosTier::Premium) && trace.tiers.contains(&QosTier::Free),
                    "seed {seed}, {clients} clients: want both tiers"
                );
                let est = varied_costs(&trace);
                for mode in MODES {
                    let params = PoolParams::new(nservers, mode);
                    let plan = PoolPlan::plan(&trace, &params, &m.iterations, &est);
                    let oracle = all_arrivals_heaped(&trace, &params, &m.iterations, &est);
                    assert_eq!(plan, oracle, "seed {seed}, {clients} clients, {mode:?}");
                    if mode.steals() && clients == 40 {
                        assert!(
                            plan.stolen_total > 0,
                            "seed {seed}: the oracle saw no steal"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plan_matches_the_oracle_when_completions_and_arrivals_tie() {
        // Arrival times and costs on one dyadic grid: completions land
        // exactly on arrival instants, and many arrivals share one.
        const GRID: f64 = 1.0 / 512.0;
        let m = manifest();
        let spec = TraceSpec::new(8, 64, 9).with_intervals(2e-2, 5e-3);
        let mut trace = ArrivalTrace::generate(&spec, &m);
        for a in &mut trace.arrivals {
            a.time = (a.time / GRID).floor() * GRID;
        }
        let est: Vec<f64> = trace
            .arrivals
            .iter()
            .map(|a| GRID * (1 + a.slot % 3) as f64)
            .collect();
        let shared = trace.arrivals.windows(2).filter(|w| w[0].time == w[1].time);
        assert!(shared.count() > 0, "no two arrivals share an instant");
        for mode in MODES {
            let params = PoolParams::new(4, mode);
            let plan = PoolPlan::plan(&trace, &params, &m.iterations, &est);
            let oracle = all_arrivals_heaped(&trace, &params, &m.iterations, &est);
            assert_eq!(plan, oracle, "{mode:?}");
            if mode.steals() {
                continue;
            }
            // Without steals a server starts each job at the later of its
            // arrival and the previous job's completion: count the jobs
            // that arrived the instant their server's previous job ended.
            let ties: usize = plan
                .server_order
                .iter()
                .map(|order| {
                    let (mut free_at, mut ties) = (f64::NEG_INFINITY, 0);
                    for &slot in order {
                        let arrived = trace.arrivals[slot].time;
                        ties += usize::from(arrived == free_at);
                        free_at = arrived.max(free_at) + est[slot];
                    }
                    ties
                })
                .sum();
            assert!(ties > 0, "{mode:?}: no completion met an arrival");
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn plan_rejects_a_trace_out_of_time_order() {
        let m = manifest();
        let mut trace = ArrivalTrace::generate(&TraceSpec::new(4, 8, 3), &m);
        let last = trace.len() - 1;
        trace.arrivals.swap(0, last);
        for (slot, a) in trace.arrivals.iter_mut().enumerate() {
            a.slot = slot;
        }
        let est = vec![1e-3; trace.len()];
        PoolPlan::plan(
            &trace,
            &PoolParams::new(2, RouteMode::Routed),
            &m.iterations,
            &est,
        );
    }

    #[test]
    #[should_panic(expected = "slots must be their positions")]
    fn plan_rejects_a_trace_whose_slots_are_not_positions() {
        let m = manifest();
        let mut trace = ArrivalTrace::generate(&TraceSpec::new(4, 8, 3), &m);
        trace.arrivals[1].slot = 0;
        let est = vec![1e-3; trace.len()];
        PoolPlan::plan(
            &trace,
            &PoolParams::new(2, RouteMode::Routed),
            &m.iterations,
            &est,
        );
    }

    fn plan_for(mode: RouteMode, clients: usize, seed: u64) -> (ArrivalTrace, PoolPlan) {
        let m = manifest();
        let trace = ArrivalTrace::generate(&TraceSpec::new(clients, 16, seed), &m);
        let params = PoolParams::new(4, mode);
        let est: Vec<f64> = trace.arrivals.iter().map(|_| 1e-3).collect();
        let plan = PoolPlan::plan(&trace, &params, &m.iterations, &est);
        (trace, plan)
    }

    #[test]
    fn plan_is_deterministic() {
        let (_, a) = plan_for(RouteMode::RoutedStealing, 12, 5);
        let (_, b) = plan_for(RouteMode::RoutedStealing, 12, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn every_arrival_is_executed_exactly_once() {
        for mode in [
            RouteMode::Pinned,
            RouteMode::Routed,
            RouteMode::RoutedStealing,
        ] {
            let (trace, plan) = plan_for(mode, 10, 9);
            let mut seen = vec![false; trace.len()];
            for order in &plan.server_order {
                for &slot in order {
                    assert!(!seen[slot], "slot {slot} started twice");
                    seen[slot] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "every slot starts");
            assert_eq!(
                plan.assignments.iter().filter(|a| a.stolen).count(),
                plan.stolen_total
            );
        }
    }

    #[test]
    fn non_stealing_modes_never_move_work() {
        for mode in [RouteMode::Pinned, RouteMode::Routed] {
            let (_, plan) = plan_for(mode, 10, 11);
            assert_eq!(plan.stolen_total, 0);
            assert!(plan
                .assignments
                .iter()
                .all(|a| a.executor == a.primary && !a.stolen));
        }
    }

    #[test]
    fn stealing_moves_work_under_load() {
        // Bursty arrivals over a hashed primary distribution leave some
        // servers idle while others queue — stealing must fire.
        let (_, plan) = plan_for(RouteMode::RoutedStealing, 24, 3);
        assert!(plan.stolen_total > 0, "expected steals under burst load");
        for a in &plan.assignments {
            if a.stolen {
                assert_ne!(a.executor, a.primary, "a steal moves work");
            } else {
                assert_eq!(a.executor, a.primary);
            }
        }
    }

    #[test]
    fn pair_slots_preserve_issue_order() {
        let (trace, plan) = plan_for(RouteMode::RoutedStealing, 16, 21);
        let pairs = plan.pair_slots(&trace.issue_order());
        assert_eq!(pairs.iter().flatten().flatten().count(), trace.len());
        for (s, clients) in pairs.iter().enumerate() {
            for (c, slots) in clients.iter().enumerate() {
                assert!(slots.iter().all(|&sl| {
                    plan.assignments[sl].executor == s && trace.arrivals[sl].client == c
                }));
                let idxs: Vec<usize> = slots.iter().map(|&sl| trace.arrivals[sl].index).collect();
                let mut sorted = idxs.clone();
                sorted.sort_unstable();
                assert_eq!(idxs, sorted, "pair ({c}, {s}) out of issue order");
            }
        }
    }
}
