//! Point-to-point messaging: tagged and typed.
//!
//! Semantics mirror MPI: messages between a (sender, receiver) pair on the
//! same lane are non-overtaking; receives are selective on `(source, lane)`.
//! Sends are buffered (the virtual network has unbounded eager buffers), so
//! `send` never blocks — matching the paper's use of non-blocking
//! sends/receives for block redistribution (§IV-D).
//!
//! Underneath, every rank owns one mailbox (`crate::runtime`, "Who wakes
//! whom"): [`Rank::send`] puts the envelope into the destination's, in the
//! FIFO of its own rank, and wakes the destination only if it is parked on
//! exactly that `(source, lane)`; a receive looks in its own mailbox and
//! parks only if the message is not there yet. A receive from a rank whose
//! thread has died fails at once, naming it, unless the message was
//! delivered first; one that can never be matched fails the moment the
//! run stalls; a send to a dead rank panics "destination rank hung up".

use std::any::Any;

use crate::meter::Meter;
use crate::runtime::Rank;

/// User message tag: every `u32` is free for [`Rank::send`] / [`Rank::recv`].
/// The stage queues and serve endpoints of [`crate::bounded`] travel on
/// lanes of their own, so no user tag can reach them. No collective travels
/// by tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u32);

/// What a receive matches on besides its source: a user tag, a
/// [`crate::bounded`] stage queue's data or credits, or one direction of a
/// serve endpoint on its channel. Distinct variants never match, so the
/// kinds of traffic cannot collide whatever the tag or channel values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    User(Tag),
    StageData,
    StageCredit,
    Request(u32),
    Reply(u32),
}

pub(crate) struct Envelope {
    pub src: usize,
    pub lane: Lane,
    /// Session run (epoch) that produced the message; receives only match
    /// envelopes from their own run, so session runs cannot interfere.
    pub epoch: u64,
    /// Sender's virtual clock when the message left.
    pub ts: f64,
    pub bytes: usize,
    pub payload: Box<dyn Any + Send>,
}

impl Rank {
    /// Send `msg` to `dst` with `tag`. Never blocks (eager buffering).
    /// Charges the sender the per-message software overhead.
    pub fn send<M: Meter + Send + 'static>(&mut self, dst: usize, tag: Tag, msg: M) {
        self.send_on(dst, Lane::User(tag), msg);
    }

    /// [`Rank::send`] on any lane.
    pub(crate) fn send_on<M: Meter + Send + 'static>(&mut self, dst: usize, lane: Lane, msg: M) {
        assert!(dst < self.nranks(), "invalid destination rank {dst}");
        let bytes = msg.nbytes();
        self.clock += self.net().send_overhead;
        let env = Envelope {
            src: self.id,
            lane,
            epoch: self.epoch,
            ts: self.clock,
            bytes,
            payload: Box::new(msg),
        };
        self.shared.deliver(dst, env);
    }

    /// Blocking receive of a message from `src` with `tag`. Merges the
    /// sender's clock plus the modeled transfer time into this rank's clock.
    pub fn recv<M: Send + 'static>(&mut self, src: usize, tag: Tag) -> M {
        let (msg, arrival, bytes) = self.recv_with_arrival(src, Lane::User(tag));
        self.charge_receive(arrival, bytes);
        msg
    }

    /// What receiving a `bytes`-sized message that arrived at `arrival`
    /// does to the clock: wait for it, then pay the receiver-side software
    /// cost (deserialization/ingest). Additive, so a rank receiving many
    /// messages pays for each of them.
    pub(crate) fn charge_receive(&mut self, arrival: f64, bytes: usize) {
        self.merge_clock_to(arrival);
        self.advance(self.net().ingest(bytes));
    }

    /// Blocking receive that does **not** touch the consumer's clock:
    /// returns the payload together with its virtual arrival time
    /// (sender timestamp plus modeled wire time) and its metered size.
    /// Callers that defer clock accounting — the lossy stage queues in
    /// [`crate::bounded`] pull messages ahead of the consumer clock and settle
    /// when a frame is actually consumed — charge the merge and the ingest
    /// cost themselves.
    pub(crate) fn recv_with_arrival<M: Send + 'static>(
        &mut self,
        src: usize,
        lane: Lane,
    ) -> (M, f64, usize) {
        assert!(src < self.nranks(), "invalid source rank {src}");
        let env = self.pop_matching(src, lane);
        let arrival = env.ts + self.net().p2p(env.bytes);
        let bytes = env.bytes;
        #[expect(
            clippy::panic,
            reason = "a lane/type mismatch is a protocol bug in rank code, not recoverable input"
        )]
        let msg = *env.payload.downcast::<M>().unwrap_or_else(|_| {
            panic!(
                "rank {} received type mismatch from rank {src} lane={lane:?} \
                 (expected {})",
                self.id,
                std::any::type_name::<M>()
            )
        });
        (msg, arrival, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::NetModel;
    use crate::runtime::Runtime;

    #[test]
    fn ping_pong() {
        let out = Runtime::new(2, NetModel::blue_waters()).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(1), vec![1.0f32, 2.0, 3.0]);
                rank.recv::<Vec<f32>>(1, Tag(2))
            } else {
                let v = rank.recv::<Vec<f32>>(0, Tag(1));
                let doubled: Vec<f32> = v.iter().map(|x| x * 2.0).collect();
                rank.send(0, Tag(2), doubled.clone());
                doubled
            }
        });
        assert_eq!(out[0], vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn selective_receive_by_tag() {
        let out = Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(10), 111u32);
                rank.send(1, Tag(20), 222u32);
                0
            } else {
                // Receive in the opposite order of sending.
                let b = rank.recv::<u32>(0, Tag(20));
                let a = rank.recv::<u32>(0, Tag(10));
                assert_eq!((a, b), (111, 222));
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn same_tag_messages_are_non_overtaking() {
        let out = Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 0 {
                for i in 0..10u32 {
                    rank.send(1, Tag(5), i);
                }
                vec![]
            } else {
                (0..10)
                    .map(|_| rank.recv::<u32>(0, Tag(5)))
                    .collect::<Vec<u32>>()
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn recv_advances_clock_by_latency_and_bandwidth() {
        let net = NetModel {
            latency: 1e-3,
            bandwidth: 1e6,
            ..NetModel::free()
        };
        let clocks = Runtime::new(2, net).run(|rank| {
            if rank.rank() == 0 {
                // 4000-byte message: 1 ms latency + 4 ms transfer.
                rank.send(1, Tag(0), vec![0.0f32; 1000]);
            } else {
                let _ = rank.recv::<Vec<f32>>(0, Tag(0));
            }
            rank.clock()
        });
        assert!((clocks[1] - 0.005).abs() < 1e-9, "clock = {}", clocks[1]);
    }

    #[test]
    fn receiver_later_than_sender_keeps_its_clock() {
        let net = NetModel {
            latency: 1e-3,
            ..NetModel::free()
        };
        let clocks = Runtime::new(2, net).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), 1u8);
            } else {
                rank.advance(10.0); // receiver is already far in the future
                let _ = rank.recv::<u8>(0, Tag(0));
            }
            rank.clock()
        });
        assert_eq!(clocks[1], 10.0);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(0), 1.0f32);
            } else {
                let _ = rank.recv::<u64>(0, Tag(0));
            }
        });
    }
}
