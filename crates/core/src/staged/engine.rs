//! The staged frame engine: the SPMD program both rank roles execute.
//!
//! The rank group is split by a static [`Partition`] (the Damaris
//! "dedicated cores" idea): out of `nranks` ranks, the first
//! `nranks − viz` are **simulation ranks** and the last `viz` are
//! **staging ranks**. One call to [`run_staged`] runs `nframes` frames of
//! dedicated-core in situ over the calling rank:
//!
//! * a **simulation rank** loops: `produce` the frame (the caller charges
//!   the virtual simulation + analysis cost inside the closure), then
//!   enqueue one payload per stager into its bounded queues and move
//!   straight on to the next frame. Under credit flow the enqueue stalls —
//!   in virtual time — exactly when the queue is full, which is the
//!   paper-style overlap model: visualization cost only reaches the
//!   simulation's critical path as queue backpressure.
//! * a **staging rank** loops: take frame `k`'s slice from every
//!   simulation rank (in rank order — the receive pattern is fixed, so OS
//!   scheduling cannot reorder anything observable), then `process` the
//!   surviving slices (the caller charges the virtual visualization cost
//!   inside the closure).
//!
//! Under [`crate::BackpressurePolicy::DropOldest`] the staging side
//! pulls slices with deferred clock accounting, only as far as the
//! current frame's service start requires, and replays the bounded queue
//! in virtual time. The rule: *slice `k` of a producer is dropped iff its
//! slice `k + queue_depth` arrived by frame `k`'s service start.* A dropped
//! payload is freed as soon as that arrival is seen, so the stager holds
//! at most `queue_depth + 1` payloads per producer, like the queue it
//! models. All of that is pure arithmetic over recorded virtual arrival
//! timestamps, so the outcome is deterministic no matter how the OS
//! schedules the threads.
//!
//! The engine is generic over the frame payload and returns per-frame
//! logs ([`SimFrameLog`] / [`StageFrameLog`]) from which the staged
//! drivers assemble reports; it never performs collectives, so simulation
//! ranks and staging ranks stay fully decoupled during a run.

use std::collections::VecDeque;

use apc_comm::{Dequeued, FlowControl, Meter, QueueReceiver, QueueSender, Rank};

use crate::config::StagedParams;

/// A static sim:viz split of `nranks` ranks: simulation ranks first,
/// staging ranks last. [`StagedParams::new`] and
/// [`StagedParams::validate`] check that each side keeps a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Partition {
    nranks: usize,
    viz: usize,
}

impl Partition {
    /// Dedicate the last `viz` of `nranks` ranks to staging.
    pub(crate) fn new(nranks: usize, viz: usize) -> Self {
        Self { nranks, viz }
    }

    /// Number of simulation ranks.
    pub(crate) fn n_sim(&self) -> usize {
        self.nranks - self.viz
    }

    /// Number of staging ranks.
    pub(crate) fn n_stage(&self) -> usize {
        self.viz
    }

    /// Global rank id of staging slot `slot`.
    pub(crate) fn stage_rank(&self, slot: usize) -> usize {
        self.n_sim() + slot
    }
}

/// Per-frame virtual-time record of a simulation rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SimFrameLog {
    /// Clock when the frame's production started.
    pub(crate) start: f64,
    /// Clock when `produce` returned (simulation + analysis done).
    pub(crate) produced: f64,
    /// Stall incurred enqueueing (queue-full wait; 0 under `DropOldest`).
    pub(crate) stall: f64,
    /// Clock when every slice of the frame was enqueued.
    pub(crate) end: f64,
}

impl SimFrameLog {
    /// Everything the simulation saw of this frame: produce + enqueue +
    /// stall.
    pub(crate) fn visible(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-frame virtual-time record of a staging rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StageFrameLog {
    /// Virtual time at which the frame's last slice arrived, dropped ones
    /// included.
    pub(crate) arrival: f64,
    /// Clock when `process` was entered (arrivals merged, ingest charged).
    pub(crate) start: f64,
    /// How long the completed frame sat in the queue before the stager got
    /// to it (0 when the stager was idle and waiting for it).
    pub(crate) queued_for: f64,
    /// Clock when `process` returned.
    pub(crate) finish: f64,
    /// Slices of this frame evicted by `DropOldest` (one per overflowed
    /// producer queue).
    pub(crate) slices_dropped: usize,
}

/// What one rank contributes to a staged run: its role-specific per-frame
/// log, carrying the caller's own per-frame payloads (`S` from `produce`,
/// `R` from `process`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RankLog<S, R> {
    Sim(Vec<(S, SimFrameLog)>),
    Stage(Vec<(R, StageFrameLog)>),
}

/// Run `nframes` staged frames on this rank of `partition`, whose queues
/// hold `params.queue_depth` waiting slices under `params.policy`. See the
/// module docs; both closures are invoked only for the rank's own role.
/// `process` receives the frame index, the surviving `(producer slot,
/// payload)` slices and the percentage-point reduction boost the policy
/// asks for on this frame (non-zero only under `DegradeHarder` while the
/// frame sat in the queue).
pub(crate) fn run_staged<M, S, R>(
    rank: &mut Rank,
    params: &StagedParams,
    partition: Partition,
    nframes: usize,
    mut produce: impl FnMut(&mut Rank, usize) -> (Vec<M>, S),
    mut process: impl FnMut(&mut Rank, usize, Vec<(usize, M)>, f64) -> R,
) -> RankLog<S, R>
where
    M: Meter + Send + 'static,
{
    // `<=` rather than `==`: a session may co-schedule ranks *outside*
    // the staged partition (the serving executor runs frame clients on
    // the ranks past it); the engine only requires that its own rank is
    // covered.
    assert!(
        partition.nranks <= rank.nranks(),
        "partition must fit inside the rank group"
    );
    assert!(
        rank.rank() < partition.nranks,
        "rank {} out of range",
        rank.rank()
    );
    if rank.rank() < partition.n_sim() {
        RankLog::Sim(run_sim(rank, params, partition, nframes, &mut produce))
    } else {
        RankLog::Stage(run_stage(rank, params, partition, nframes, &mut process))
    }
}

fn run_sim<M, S>(
    rank: &mut Rank,
    params: &StagedParams,
    partition: Partition,
    nframes: usize,
    produce: &mut impl FnMut(&mut Rank, usize) -> (Vec<M>, S),
) -> Vec<(S, SimFrameLog)>
where
    M: Meter + Send + 'static,
{
    let flow = params.policy.flow();
    let mut txs: Vec<QueueSender> = (0..partition.n_stage())
        .map(|g| QueueSender::new(partition.stage_rank(g), params.queue_depth, flow))
        .collect();
    let mut log = Vec::with_capacity(nframes);
    for k in 0..nframes {
        let start = rank.clock();
        let (batches, aux) = produce(rank, k);
        assert_eq!(
            batches.len(),
            txs.len(),
            "produce must emit one payload per stager"
        );
        let produced = rank.clock();
        let mut stall = 0.0;
        for (tx, msg) in txs.iter_mut().zip(batches) {
            stall += tx.enqueue(rank, msg);
        }
        log.push((
            aux,
            SimFrameLog {
                start,
                produced,
                stall,
                end: rank.clock(),
            },
        ));
    }
    log
}

/// One producer's queue as the stager sees it. Credit flow only dequeues
/// from `rx`; lossy flow replays the bounded queue in `slices`.
struct Window<M> {
    rx: QueueReceiver,
    /// The producer's pulled slices from the frame in service on: each
    /// slice's arrival and, until it is evicted, its payload and metered
    /// size.
    slices: VecDeque<(f64, Option<(M, usize)>)>,
    /// Monotone-arrival clamp: the envelope layer is FIFO per `(src,
    /// lane)`, so a slice cannot become *available* before its predecessor
    /// even if the wire model would land it earlier.
    last_arrival: f64,
}

impl<M: Send + 'static> Window<M> {
    /// Receive the producer's next slice without touching the clock.
    fn pull(&mut self, rank: &mut Rank) {
        let d: Dequeued<M> = self.rx.dequeue_deferred(rank);
        self.last_arrival = d.arrival.max(self.last_arrival);
        self.slices
            .push_back((self.last_arrival, Some((d.msg, d.bytes))));
    }

    /// The arrival of the slice in service, received first if need be.
    fn front_arrival(&mut self, rank: &mut Rank) -> f64 {
        if self.slices.is_empty() {
            self.pull(rank);
        }
        self.slices[0].0
    }

    /// Take the slice in service at `service_at`: its payload and metered
    /// size, or `None` when it was dropped. Pulls until one slice past
    /// `service_at` is held, or the run's last one (`left` counts the
    /// slices from the front to the end of the run); each slice that
    /// arrived by `service_at` evicts the slice `depth` places before it.
    fn take(
        &mut self,
        rank: &mut Rank,
        service_at: f64,
        depth: usize,
        left: usize,
    ) -> Option<(M, usize)> {
        let mut i = 0;
        while i < left {
            if i == self.slices.len() {
                self.pull(rank);
            }
            if self.slices[i].0 > service_at {
                break;
            }
            if i >= depth {
                self.slices[i - depth].1 = None;
            }
            i += 1;
        }
        self.slices.pop_front().and_then(|(_, slice)| slice)
    }
}

fn run_stage<M, R>(
    rank: &mut Rank,
    params: &StagedParams,
    partition: Partition,
    nframes: usize,
    process: &mut impl FnMut(&mut Rank, usize, Vec<(usize, M)>, f64) -> R,
) -> Vec<(R, StageFrameLog)>
where
    M: Meter + Send + 'static,
{
    let n_sim = partition.n_sim();
    let flow = params.policy.flow();
    let mut windows: Vec<Window<M>> = (0..n_sim)
        .map(|i| Window {
            rx: QueueReceiver::new(i, flow),
            slices: VecDeque::new(),
            last_arrival: f64::NEG_INFINITY,
        })
        .collect();
    let mut log = Vec::with_capacity(nframes);
    for k in 0..nframes {
        let before = rank.clock();
        let mut arrival = f64::NEG_INFINITY;
        let mut parts = Vec::with_capacity(n_sim);
        let mut slices_dropped = 0;
        match flow {
            FlowControl::Credit => {
                for (slot, w) in windows.iter_mut().enumerate() {
                    let d: Dequeued<M> = w.rx.dequeue(rank);
                    arrival = arrival.max(d.arrival);
                    parts.push((slot, d.msg));
                }
            }
            // Receiving blocks only until the producer sends (lossy
            // producers never wait on us, so this cannot deadlock), and the
            // merge and ingest charges land when a slice enters service.
            // The service start never depends on the drops: a dropped
            // slice arrived before the one that evicted it.
            FlowControl::Lossy => {
                for w in &mut windows {
                    arrival = arrival.max(w.front_arrival(rank));
                }
                let service_at = before.max(arrival);
                for (slot, w) in windows.iter_mut().enumerate() {
                    match w.take(rank, service_at, params.queue_depth, nframes - k) {
                        Some((msg, bytes)) => {
                            rank.merge_clock_to(service_at);
                            let ingest = rank.net().ingest(bytes);
                            rank.advance(ingest);
                            parts.push((slot, msg));
                        }
                        None => slices_dropped += 1,
                    }
                }
                rank.merge_clock_to(service_at); // all slices dropped: still wait
            }
        }
        let queued_for = (before - arrival).max(0.0);
        let start = rank.clock();
        let boost = if queued_for > 0.0 {
            params.policy.degrade_boost()
        } else {
            0.0
        };
        let out = process(rank, k, parts, boost);
        log.push((
            out,
            StageFrameLog {
                arrival,
                start,
                queued_for,
                finish: rank.clock(),
                slices_dropped,
            },
        ));
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackpressurePolicy;
    use apc_comm::{NetModel, Runtime};

    #[test]
    fn roles_split_sims_then_stagers() {
        let p = Partition::new(6, 2);
        assert_eq!(p.n_sim(), 4);
        assert_eq!(p.n_stage(), 2);
        assert_eq!(p.stage_rank(0), 4);
        assert_eq!(p.stage_rank(1), 5);
    }

    fn spec(
        nranks: usize,
        viz: usize,
        depth: usize,
        policy: BackpressurePolicy,
    ) -> (StagedParams, Partition) {
        (
            StagedParams::new(viz, depth, policy),
            Partition::new(nranks, viz),
        )
    }

    /// Run a synthetic staged workload: sims spend `sim_cost` per frame
    /// producing, the stager spends `stage_cost` per frame processing.
    fn synthetic(
        nranks: usize,
        viz: usize,
        depth: usize,
        policy: BackpressurePolicy,
        nframes: usize,
        sim_cost: f64,
        stage_cost: f64,
    ) -> Vec<RankLog<(), (usize, f64)>> {
        let (params, partition) = spec(nranks, viz, depth, policy);
        Runtime::new(nranks, NetModel::free()).run(|rank| {
            run_staged(
                rank,
                &params,
                partition,
                nframes,
                |rank, _k| {
                    rank.advance(sim_cost);
                    ((0..partition.n_stage()).map(|g| g as u64).collect(), ())
                },
                |rank, _k, parts, _boost| {
                    rank.advance(stage_cost);
                    (parts.len(), rank.clock())
                },
            )
        })
    }

    fn stage_log(
        logs: &[RankLog<(), (usize, f64)>],
        rank: usize,
    ) -> &[((usize, f64), StageFrameLog)] {
        match &logs[rank] {
            RankLog::Stage(v) => v,
            RankLog::Sim(_) => panic!("rank {rank} is not a stager"),
        }
    }

    fn sim_log(logs: &[RankLog<(), (usize, f64)>], rank: usize) -> &[((), SimFrameLog)] {
        match &logs[rank] {
            RankLog::Sim(v) => v,
            RankLog::Stage(_) => panic!("rank {rank} is not a sim"),
        }
    }

    /// A fast stager overlaps completely: the simulation never stalls and
    /// every frame is serviced the moment it arrives.
    #[test]
    fn perfect_overlap_has_zero_stall() {
        let logs = synthetic(3, 1, 2, BackpressurePolicy::Block, 8, 1.0, 0.25);
        for sim in 0..2 {
            for (_, f) in sim_log(&logs, sim) {
                assert_eq!(f.stall, 0.0, "no stall when the stager keeps up");
                assert!(
                    (f.visible() - 1.0).abs() < 1e-9,
                    "visible time is the sim cost"
                );
            }
        }
        for (_, f) in stage_log(&logs, 2) {
            assert_eq!(f.queued_for, 0.0, "the stager is never backlogged");
        }
    }

    /// A slow stager fills the queue; the simulation absorbs the surplus
    /// as stall, and the stall equals the service deficit in steady state.
    #[test]
    fn block_policy_stalls_at_service_deficit() {
        let logs = synthetic(2, 1, 2, BackpressurePolicy::Block, 12, 1.0, 3.0);
        let sims = sim_log(&logs, 0);
        assert_eq!(sims[0].1.stall, 0.0, "queue starts empty");
        let late: Vec<f64> = sims[6..].iter().map(|(_, f)| f.stall).collect();
        for s in &late {
            assert!(
                (s - 2.0).abs() < 1e-9,
                "steady-state stall = 3 − 1 = 2 s, got {s}"
            );
        }
        let stage = stage_log(&logs, 1);
        assert!(
            stage.iter().skip(3).all(|(_, f)| f.queued_for > 0.0),
            "backlog builds"
        );
        assert!(
            stage.iter().all(|(_, f)| f.slices_dropped == 0),
            "Block never drops"
        );
    }

    /// DropOldest keeps the simulation stall-free and sheds frames when
    /// the stager cannot keep up.
    #[test]
    fn drop_oldest_sheds_load_without_stalling() {
        let logs = synthetic(2, 1, 1, BackpressurePolicy::DropOldest, 20, 0.1, 1.0);
        let sims = sim_log(&logs, 0);
        assert!(
            sims.iter().all(|(_, f)| f.stall == 0.0),
            "lossy sims never stall"
        );
        let stage = stage_log(&logs, 1);
        let dropped: usize = stage.iter().map(|(_, f)| f.slices_dropped).sum();
        assert!(
            dropped > 0,
            "a 10× service deficit with depth 1 must drop frames"
        );
        // Dropped frames contribute no parts to process.
        for ((nparts, _), f) in stage {
            assert_eq!(
                *nparts,
                1 - f.slices_dropped,
                "dropped slices are not processed"
            );
        }
        // Frames still service in order and clocks are monotone.
        let finishes: Vec<f64> = stage.iter().map(|(_, f)| f.finish).collect();
        assert!(finishes.windows(2).all(|w| w[1] >= w[0]));
    }

    /// DropOldest under a fast stager drops nothing and matches Block's
    /// service timeline.
    #[test]
    fn drop_oldest_is_lossless_when_unpressured() {
        let lossy = synthetic(3, 1, 2, BackpressurePolicy::DropOldest, 8, 1.0, 0.25);
        let block = synthetic(3, 1, 2, BackpressurePolicy::Block, 8, 1.0, 0.25);
        let sl = stage_log(&lossy, 2);
        let sb = stage_log(&block, 2);
        assert_eq!(sl.len(), sb.len());
        for ((_, l), (_, b)) in sl.iter().zip(sb) {
            assert_eq!(l.slices_dropped, 0);
            assert!((l.finish - b.finish).abs() < 1e-9, "same service timeline");
        }
    }

    /// DegradeHarder surfaces the boost exactly while backlogged.
    #[test]
    fn degrade_boost_tracks_backlog() {
        let (params, partition) = spec(2, 1, 1, BackpressurePolicy::DegradeHarder { boost: 25.0 });
        let boosts = Runtime::new(2, NetModel::free()).run(|rank| {
            run_staged(
                rank,
                &params,
                partition,
                10,
                |rank, _| {
                    rank.advance(0.5);
                    (vec![0u64], ())
                },
                |rank, _, _parts, boost| {
                    rank.advance(2.0);
                    boost
                },
            )
        });
        let stage_boosts = match &boosts[1] {
            RankLog::Stage(v) => v.iter().map(|(b, _)| *b).collect::<Vec<f64>>(),
            RankLog::Sim(_) => unreachable!(),
        };
        assert_eq!(stage_boosts[0], 0.0, "first frame finds an empty queue");
        assert!(
            stage_boosts.iter().skip(2).all(|&b| b == 25.0),
            "backlogged frames carry the boost: {stage_boosts:?}"
        );
    }

    /// The whole engine is deterministic: repeated runs produce identical
    /// logs, bit for bit.
    #[test]
    fn repeated_runs_are_identical() {
        for policy in [
            BackpressurePolicy::Block,
            BackpressurePolicy::DropOldest,
            BackpressurePolicy::DegradeHarder { boost: 10.0 },
        ] {
            let a = synthetic(4, 2, 2, policy, 9, 0.7, 1.3);
            let b = synthetic(4, 2, 2, policy, 9, 0.7, 1.3);
            assert_eq!(a, b, "staged runs must replay identically under {policy:?}");
        }
    }

    /// The DropOldest contract, checked against the logs: slice k of a
    /// producer is dropped iff its slice k + depth arrived by frame k's
    /// service start. On a free network a slice arrives the moment its
    /// producer's `produce` returns, and the service start is the frame's
    /// `start`.
    #[test]
    fn drop_oldest_drops_exactly_the_overtaken_slices() {
        let nframes = 24;
        for depth in 1..=3 {
            for n_sim in [1, 3] {
                let (params, partition) = spec(n_sim + 1, 1, depth, BackpressurePolicy::DropOldest);
                let logs = Runtime::new(n_sim + 1, NetModel::free()).run(|rank| {
                    run_staged(
                        rank,
                        &params,
                        partition,
                        nframes,
                        |rank, k| {
                            let i = rank.rank();
                            rank.advance(0.1 + 0.3 * ((7 * k + 3 * i) % 5) as f64);
                            (vec![k as u64], ())
                        },
                        |rank, k, parts, _boost| {
                            rank.advance(0.4 + 0.5 * ((5 * k) % 4) as f64);
                            (parts.len(), rank.clock())
                        },
                    )
                });
                let stage = stage_log(&logs, n_sim);
                for (k, ((nparts, _), f)) in stage.iter().enumerate() {
                    let expected = (0..n_sim)
                        .filter(|&i| {
                            k + depth < nframes
                                && sim_log(&logs, i)[k + depth].1.produced <= f.start
                        })
                        .count();
                    assert_eq!(
                        f.slices_dropped, expected,
                        "depth {depth}, {n_sim} producers, frame {k}"
                    );
                    assert_eq!(
                        *nparts,
                        n_sim - expected,
                        "frame {k}: parts are the survivors"
                    );
                }
                assert!(
                    stage.iter().any(|(_, f)| f.slices_dropped > 0),
                    "depth {depth}, {n_sim} producers: the case must exercise drops"
                );
            }
        }
    }
}
