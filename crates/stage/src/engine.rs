//! The staged frame engine: the SPMD program both rank roles execute.
//!
//! One call to [`run_staged`] runs `nframes` frames of dedicated-core in
//! situ over the calling rank:
//!
//! * a **simulation rank** loops: `produce` the frame (the caller charges
//!   the virtual simulation + analysis cost inside the closure), then
//!   enqueue one payload per stager into its bounded queues and move
//!   straight on to the next frame. Under credit flow the enqueue stalls —
//!   in virtual time — exactly when the queue is full, which is the
//!   paper-style overlap model: visualization cost only reaches the
//!   simulation's critical path as queue backpressure.
//! * a **staging rank** loops: dequeue frame `k`'s slices from every
//!   simulation rank (in rank order — the receive pattern is fixed, so OS
//!   scheduling cannot reorder anything observable), then `process` them
//!   (the caller charges the virtual visualization cost inside the
//!   closure).
//!
//! Under [`BackpressurePolicy::DropOldest`] the staging side instead
//! pulls slices with deferred clock accounting — only as far as the
//! current frame's service time requires — and replays the bounded queue
//! in virtual time: a slice is dropped exactly when, at some arrival
//! instant, its per-producer queue held more than `queue_depth` waiting
//! slices and it was the oldest (so the stager holds at most
//! `queue_depth + 1` payloads per producer, like the queue it models).
//! All of that is pure arithmetic over recorded virtual arrival
//! timestamps, so the outcome is deterministic no matter how the OS
//! schedules the threads.
//!
//! The engine returns per-frame logs ([`SimFrameLog`] / [`StageFrameLog`])
//! from which callers assemble reports; it never performs collectives, so
//! simulation ranks and staging ranks stay fully decoupled during a run.

use std::collections::VecDeque;

use apc_comm::{Dequeued, FlowControl, Meter, QueueReceiver, QueueSender, Rank};

use crate::partition::{Partition, Role};
use crate::policy::BackpressurePolicy;

/// Configuration of one staged run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagedSpec {
    pub partition: Partition,
    /// Waiting-slot capacity of each (simulation rank → stager) queue,
    /// beyond the frame the stager is currently servicing.
    pub queue_depth: usize,
    pub policy: BackpressurePolicy,
}

impl StagedSpec {
    pub fn new(partition: Partition, queue_depth: usize, policy: BackpressurePolicy) -> Self {
        assert!(queue_depth >= 1, "queue depth must be at least one");
        Self {
            partition,
            queue_depth,
            policy,
        }
    }
}

/// Per-frame virtual-time record of a simulation rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFrameLog {
    /// Clock when the frame's production started.
    pub start: f64,
    /// Clock when `produce` returned (simulation + analysis done).
    pub produced: f64,
    /// Stall incurred enqueueing (queue-full wait; 0 under `DropOldest`).
    pub stall: f64,
    /// Clock when every slice of the frame was enqueued.
    pub end: f64,
}

impl SimFrameLog {
    /// Everything the simulation saw of this frame: produce + enqueue +
    /// stall.
    pub fn visible(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-frame virtual-time record of a staging rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageFrameLog {
    /// Virtual time at which the frame's last surviving slice arrived.
    pub arrival: f64,
    /// Clock when `process` was entered (arrivals merged, ingest charged).
    pub start: f64,
    /// How long the completed frame sat in the queue before the stager got
    /// to it (0 when the stager was idle and waiting for it).
    pub queued_for: f64,
    /// Clock when `process` returned.
    pub finish: f64,
    /// Slices of this frame evicted by `DropOldest` (one per overflowed
    /// producer queue).
    pub slices_dropped: usize,
}

/// Context handed to the staging-side `process` closure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameCtx {
    /// Frame index in `0..nframes`.
    pub frame: usize,
    /// How long the completed frame waited in the queue (backlog signal).
    pub queued_for: f64,
    /// Percentage-point reduction boost the policy asks for on this frame
    /// (non-zero only under `DegradeHarder` while backlogged).
    pub degrade_boost: f64,
}

/// What one rank contributes to a staged run: its role-specific per-frame
/// log, carrying the caller's own per-frame payloads (`S` from `produce`,
/// `R` from `process`).
#[derive(Debug, Clone, PartialEq)]
pub enum RankLog<S, R> {
    Sim(Vec<(S, SimFrameLog)>),
    Stage(Vec<(R, StageFrameLog)>),
}

/// Run `nframes` staged frames on this rank. See the module docs; both
/// closures are invoked only for the rank's own role.
pub fn run_staged<M, S, R>(
    rank: &mut Rank,
    spec: &StagedSpec,
    nframes: usize,
    mut produce: impl FnMut(&mut Rank, usize) -> (Vec<M>, S),
    mut process: impl FnMut(&mut Rank, usize, Vec<(usize, M)>, &FrameCtx) -> R,
) -> RankLog<S, R>
where
    M: Meter + Send + 'static,
{
    // `<=` rather than `==`: a session may co-schedule ranks *outside*
    // the staged partition (apc-core's serving executor runs frame
    // clients on the ranks past it); the engine only requires that its
    // own rank is covered.
    assert!(
        spec.partition.nranks() <= rank.nranks(),
        "partition must fit inside the rank group"
    );
    match spec.partition.role(rank.rank()) {
        Role::Sim { .. } => RankLog::Sim(run_sim(rank, spec, nframes, &mut produce)),
        Role::Stage { .. } => match spec.policy.flow() {
            FlowControl::Credit => {
                RankLog::Stage(run_stage_credit(rank, spec, nframes, &mut process))
            }
            FlowControl::Lossy => {
                RankLog::Stage(run_stage_lossy(rank, spec, nframes, &mut process))
            }
        },
    }
}

fn run_sim<M, S>(
    rank: &mut Rank,
    spec: &StagedSpec,
    nframes: usize,
    produce: &mut impl FnMut(&mut Rank, usize) -> (Vec<M>, S),
) -> Vec<(S, SimFrameLog)>
where
    M: Meter + Send + 'static,
{
    let flow = spec.policy.flow();
    let mut txs: Vec<QueueSender> = (0..spec.partition.n_stage())
        .map(|g| QueueSender::new(spec.partition.stage_rank(g), 0, spec.queue_depth, flow))
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

fn run_stage_credit<M, R>(
    rank: &mut Rank,
    spec: &StagedSpec,
    nframes: usize,
    process: &mut impl FnMut(&mut Rank, usize, Vec<(usize, M)>, &FrameCtx) -> R,
) -> Vec<(R, StageFrameLog)>
where
    M: Meter + Send + 'static,
{
    let n_sim = spec.partition.n_sim();
    let mut rxs: Vec<QueueReceiver> = (0..n_sim)
        .map(|i| QueueReceiver::new(spec.partition.sim_rank(i), 0, FlowControl::Credit))
        .collect();
    let mut log = Vec::with_capacity(nframes);
    for k in 0..nframes {
        let before = rank.clock();
        let mut arrival = f64::NEG_INFINITY;
        let mut parts = Vec::with_capacity(n_sim);
        for (slot, rx) in rxs.iter_mut().enumerate() {
            let d: Dequeued<M> = rx.dequeue(rank);
            arrival = arrival.max(d.arrival);
            parts.push((slot, d.msg));
        }
        let queued_for = (before - arrival).max(0.0);
        let start = rank.clock();
        let boost = if queued_for > 0.0 {
            spec.policy.degrade_boost()
        } else {
            0.0
        };
        let ctx = FrameCtx {
            frame: k,
            queued_for,
            degrade_boost: boost,
        };
        let out = process(rank, k, parts, &ctx);
        log.push((
            out,
            StageFrameLog {
                arrival,
                start,
                queued_for,
                finish: rank.clock(),
                slices_dropped: 0,
            },
        ));
    }
    log
}

/// Per-producer state of the lossy (DropOldest) replay. Slices are pulled
/// from the wire **incrementally** — only as far as the current service
/// time requires — so the stager buffers at most `queue_depth` waiting
/// payloads plus one lookahead per producer, matching the bounded queue it
/// models (evicted payloads are freed at eviction, not at end of run).
struct LossyQueue<M> {
    rx: QueueReceiver,
    /// Next frame index not yet received from the wire.
    next_pull: usize,
    /// Monotone-arrival clamp: the envelope layer is FIFO per `(src,
    /// tag)`, so a slice cannot become *available* before its predecessor
    /// even if the wire model would land it earlier.
    last_arrival: f64,
    /// Received but not yet admitted (its arrival postdates the horizon
    /// admitted so far): `(frame, arrival, payload, bytes)`.
    lookahead: Option<(usize, f64, M, usize)>,
    /// Admitted, waiting slices in frame order; never longer than the
    /// queue depth (admitting past it evicts the front).
    pending: VecDeque<(usize, f64, M, usize)>,
    /// Arrival times of evicted, not-yet-serviced slices (payloads are
    /// freed at eviction; the timestamps stay so the frame's completeness
    /// time is computed exactly as if nothing had been dropped).
    evicted: VecDeque<(usize, f64)>,
}

impl<M: Meter + Send + 'static> LossyQueue<M> {
    fn pull(&mut self, rank: &mut Rank) -> (usize, f64, M, usize) {
        let d: Dequeued<M> = self.rx.dequeue_deferred(rank);
        let arrival = d.arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        let frame = self.next_pull;
        self.next_pull += 1;
        (frame, arrival, d.msg, d.bytes)
    }

    /// Admit every slice that has arrived by `horizon`, evicting the
    /// oldest waiting slice whenever the queue overflows (the DropOldest
    /// contract). Returns how many slices were evicted.
    fn admit_until(
        &mut self,
        rank: &mut Rank,
        horizon: f64,
        nframes: usize,
        depth: usize,
    ) -> usize {
        let mut evicted = 0;
        loop {
            let slice = match self.lookahead.take() {
                Some(s) => s,
                None if self.next_pull < nframes => self.pull(rank),
                None => break,
            };
            if slice.1 > horizon {
                self.lookahead = Some(slice);
                break;
            }
            self.pending.push_back(slice);
            if self.pending.len() > depth {
                // Dropped: the payload is freed here, never ingested; only
                // the arrival timestamp survives.
                #[expect(
                    clippy::expect_used,
                    reason = "`pending.len() > depth >= 0` on this branch, so the queue is non-empty"
                )]
                let (frame, arrival, ..) = self.pending.pop_front().expect("overfull queue");
                self.evicted.push_back((frame, arrival));
                evicted += 1;
            }
        }
        evicted
    }

    /// The arrival time of `frame`'s slice; pulls the wire forward to it
    /// if needed (admission of the pulled slices happens via
    /// [`LossyQueue::admit_until`], which is always called with a horizon
    /// at or past this arrival).
    fn arrival_of(&mut self, rank: &mut Rank, frame: usize) -> f64 {
        // Timestamps of frames already serviced are dead — prune.
        while self.evicted.front().is_some_and(|&(f, _)| f < frame) {
            self.evicted.pop_front();
        }
        while self.next_pull <= frame && self.lookahead.is_none() {
            self.lookahead = Some(self.pull(rank));
        }
        if let Some((f, arrival, ..)) = &self.lookahead {
            if *f == frame {
                return *arrival;
            }
        }
        // Already pulled past it: admitted slices keep their arrival in
        // `pending`, evicted ones in `evicted`.
        if let Some(&(_, arrival, ..)) = self.pending.iter().find(|(f, ..)| *f == frame) {
            return arrival;
        }
        #[expect(
            clippy::expect_used,
            reason = "admission accounting — every admitted frame lands in exactly one of the three queues"
        )]
        self.evicted
            .iter()
            .find(|&&(f, _)| f == frame)
            .map(|&(_, arrival)| arrival)
            .expect("every pulled slice is in lookahead, pending, or evicted")
    }
}

fn run_stage_lossy<M, R>(
    rank: &mut Rank,
    spec: &StagedSpec,
    nframes: usize,
    process: &mut impl FnMut(&mut Rank, usize, Vec<(usize, M)>, &FrameCtx) -> R,
) -> Vec<(R, StageFrameLog)>
where
    M: Meter + Send + 'static,
{
    let n_sim = spec.partition.n_sim();
    let depth = spec.queue_depth;
    let mut queues: Vec<LossyQueue<M>> = (0..n_sim)
        .map(|i| LossyQueue {
            rx: QueueReceiver::new(spec.partition.sim_rank(i), 0, FlowControl::Lossy),
            next_pull: 0,
            last_arrival: f64::NEG_INFINITY,
            lookahead: None,
            pending: VecDeque::new(),
            evicted: VecDeque::new(),
        })
        .collect();

    // The bounded queues are replayed in virtual time, one serviced frame
    // at a time. Receiving a slice blocks only until its producer sends it
    // (producers never wait on us — lossy flow has no credits — so this
    // cannot deadlock), and clock accounting is deferred: the merge and
    // the ingest charges land when a slice enters service. A frame's
    // service time never depends on the drop decisions: an evicted slice
    // had, by construction, already arrived before the arrivals that
    // evicted it, so it cannot be the one the service start waits for.
    let mut log = Vec::with_capacity(nframes);
    for k in 0..nframes {
        let mut arrival = f64::NEG_INFINITY;
        for q in queues.iter_mut() {
            arrival = arrival.max(q.arrival_of(rank, k));
        }
        let before = rank.clock();
        let service_at = before.max(arrival);
        let mut slices_dropped = 0;
        let mut parts = Vec::with_capacity(n_sim);
        for (i, q) in queues.iter_mut().enumerate() {
            q.admit_until(rank, service_at, nframes, depth);
            match q.pending.front() {
                Some(&(frame, ..)) if frame == k => {
                    #[expect(
                        clippy::expect_used,
                        reason = "the match arm above just saw `pending.front()` return Some"
                    )]
                    let (_, _, msg, bytes) = q.pending.pop_front().expect("front exists");
                    rank.merge_clock_to(service_at);
                    let ingest = rank.net().ingest(bytes);
                    rank.advance(ingest);
                    parts.push((i, msg));
                }
                front => {
                    debug_assert!(
                        front.is_none_or(|&(frame, ..)| frame > k),
                        "service order broke"
                    );
                    slices_dropped += 1;
                }
            }
        }
        rank.merge_clock_to(service_at); // all slices dropped: still wait
        let queued_for = (before - arrival).max(0.0);
        let start = rank.clock();
        let ctx = FrameCtx {
            frame: k,
            queued_for,
            degrade_boost: 0.0,
        };
        let out = process(rank, k, parts, &ctx);
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
    use apc_comm::{NetModel, Runtime};

    fn spec(nranks: usize, viz: usize, depth: usize, policy: BackpressurePolicy) -> StagedSpec {
        StagedSpec::new(Partition::new(nranks, viz), depth, policy)
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
        let spec = spec(nranks, viz, depth, policy);
        Runtime::new(nranks, NetModel::free()).run(|rank| {
            run_staged(
                rank,
                &spec,
                nframes,
                |rank, _k| {
                    rank.advance(sim_cost);
                    (
                        (0..spec.partition.n_stage()).map(|g| g as u64).collect(),
                        (),
                    )
                },
                |rank, _k, parts, _ctx| {
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
        let spec = spec(2, 1, 1, BackpressurePolicy::DegradeHarder { boost: 25.0 });
        let boosts = Runtime::new(2, NetModel::free()).run(|rank| {
            run_staged(
                rank,
                &spec,
                10,
                |rank, _| {
                    rank.advance(0.5);
                    (vec![0u64], ())
                },
                |rank, _, _parts, ctx| {
                    rank.advance(2.0);
                    ctx.degrade_boost
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

    #[test]
    #[should_panic(expected = "queue depth must be at least one")]
    fn zero_depth_rejected() {
        let _ = StagedSpec::new(Partition::new(2, 1), 0, BackpressurePolicy::Block);
    }
}
