//! Bounded stage queues: the flow-controlled point-to-point channels that
//! dedicated-core staging is built on (`apc-core`'s staged frame engine).
//!
//! A queue connects one producer rank (a simulation rank) to one consumer
//! rank (a staging rank). Data rides the ordinary epoch-stamped envelope
//! layer — non-overtaking per `(src, lane)`, isolated per session run — on
//! the data and credit lanes, which no user tag can reach, so
//! *what* moves is exactly a normal message; what the queue adds is
//! **capacity semantics in virtual time**:
//!
//! * **Credit flow** ([`FlowControl::Credit`]): the producer may have at
//!   most `depth` messages enqueued beyond the one the consumer is
//!   servicing. Before enqueueing message `k ≥ depth` it receives the
//!   consumer's credit for message `k − depth`; the ordinary clock-merge
//!   semantics of [`Rank::recv`] turn that receive into exactly the right
//!   virtual-time behavior — if the credit's arrival predates the
//!   producer's clock the wait costs nothing (the queue had room), and if
//!   it postdates it the merge *is* the producer's stall. Backpressure
//!   policies that block or degrade are built on this flow.
//! * **Lossy flow** ([`FlowControl::Lossy`]): no credits — the producer
//!   never stalls, and the consumer decides (in virtual time, from the
//!   recorded arrival timestamps) which messages overflowed the queue and
//!   were dropped. [`QueueReceiver::dequeue_deferred`] supports this by
//!   receiving *without* touching the consumer clock; the caller settles
//!   the clock via [`Rank::merge_clock_to`] plus the ingest charge when a
//!   surviving message actually enters service.
//!
//! Every blocking wait here goes through the runtime's receive path, so
//! its failure story applies unchanged: a producer stranded on a credit
//! because its consumer panicked fails loudly — at once, naming the dead
//! consumer, or the moment the run stalls when the peer is alive but never
//! answers — and poisons the session, exactly like any other stranded
//! receive (guarded by the stager-panic case in `tests/session_stress.rs`).
//!
//! On request and reply lanes of their own the module also provides
//! **request/reply endpoints** ([`ServeClient`] / [`ServeServer`]): a
//! client sends a typed request and blocks for the typed reply; the server
//! receives requests selectively per client (so a fixed service order is
//! deterministic no matter how the OS schedules the client threads) and
//! answers when it
//! chooses — immediately, or deferred to a later point of its own
//! timeline, which is how `apc-serve` models replies that wait for a frame
//! still being produced. Requests and replies are ordinary envelopes, so
//! the same clock-merge arithmetic that prices queue traffic prices the
//! round trip, and the same machinery fails a stranded side loudly when
//! its peer dies mid-request.

use crate::meter::Meter;
use crate::p2p::Lane;
use crate::runtime::Rank;

/// How a queue bounds its capacity. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowControl {
    /// Credit-based: the producer stalls (in virtual time) when the queue
    /// is full.
    Credit,
    /// No flow control: the producer never stalls; the consumer accounts
    /// overflow drops itself from the deferred arrival timestamps.
    Lossy,
}

/// Producer half of a bounded queue to `dst`.
#[derive(Debug)]
pub struct QueueSender {
    dst: usize,
    depth: usize,
    flow: FlowControl,
    seq: u64,
}

impl QueueSender {
    /// A queue of `depth` waiting slots toward `dst` (one logical queue
    /// per `(producer, consumer)` pair).
    pub fn new(dst: usize, depth: usize, flow: FlowControl) -> Self {
        assert!(depth >= 1, "queue depth must be at least one");
        Self {
            dst,
            depth,
            flow,
            seq: 0,
        }
    }

    /// Enqueue `msg`, returning the virtual stall this enqueue cost the
    /// producer (always `0.0` under [`FlowControl::Lossy`]; under credit
    /// flow it is the queue-full wait — the time the producer spent ahead
    /// of the credit's arrival — exactly zero whenever the queue had
    /// room). The fixed software cost of receiving the credit (its ingest
    /// charge) is still paid on the clock, but counts as enqueue overhead,
    /// not stall.
    pub fn enqueue<M: Meter + Send + 'static>(&mut self, rank: &mut Rank, msg: M) -> f64 {
        let mut stall = 0.0;
        if self.flow == FlowControl::Credit && self.seq >= self.depth as u64 {
            let expect = self.seq - self.depth as u64;
            let before = rank.clock();
            let (ack, arrival, bytes) = rank.recv_with_arrival::<u64>(self.dst, Lane::StageCredit);
            debug_assert_eq!(ack, expect, "stage credit out of sequence");
            stall = (arrival - before).max(0.0);
            rank.charge_receive(arrival, bytes);
        }
        rank.send_on(self.dst, Lane::StageData, msg);
        self.seq += 1;
        stall
    }
}

/// One dequeued message plus its virtual-time coordinates.
#[derive(Debug)]
pub struct Dequeued<M> {
    pub msg: M,
    /// Virtual time at which the message finished arriving (producer
    /// timestamp + modeled wire time).
    pub arrival: f64,
    /// Metered payload size (what the ingest charge is based on).
    pub bytes: usize,
}

/// Consumer half of a bounded queue from `src`.
#[derive(Debug)]
pub struct QueueReceiver {
    src: usize,
    flow: FlowControl,
    seq: u64,
}

impl QueueReceiver {
    pub fn new(src: usize, flow: FlowControl) -> Self {
        Self { src, flow, seq: 0 }
    }

    /// Blocking dequeue: merges the arrival into the consumer's clock,
    /// charges the ingest cost, and — under credit flow — releases the
    /// slot by sending the credit back (stamped with the consumer's clock,
    /// which is what makes a stalled producer resume at the right virtual
    /// time).
    pub fn dequeue<M: Send + 'static>(&mut self, rank: &mut Rank) -> Dequeued<M> {
        let d = self.dequeue_deferred(rank);
        rank.charge_receive(d.arrival, d.bytes);
        if self.flow == FlowControl::Credit {
            rank.send_on(self.src, Lane::StageCredit, self.seq - 1);
        }
        d
    }

    /// Dequeue without touching the consumer's clock and without releasing
    /// a credit — the lossy drain primitive. The caller settles virtual
    /// time itself ([`Rank::merge_clock_to`] to the service start, then
    /// [`Rank::advance`] by `rank.net().ingest(bytes)` for the messages it
    /// actually consumes).
    pub fn dequeue_deferred<M: Send + 'static>(&mut self, rank: &mut Rank) -> Dequeued<M> {
        let (msg, arrival, bytes) = rank.recv_with_arrival(self.src, Lane::StageData);
        self.seq += 1;
        Dequeued {
            msg,
            arrival,
            bytes,
        }
    }
}

/// Client half of a request/reply endpoint toward `server`. One endpoint
/// per `(client, server, channel)` triple; requests on an endpoint are
/// answered in order.
#[derive(Debug)]
pub struct ServeClient {
    server: usize,
    channel: u32,
    sent: u64,
    answered: u64,
}

impl ServeClient {
    pub fn new(server: usize, channel: u32) -> Self {
        Self {
            server,
            channel,
            sent: 0,
            answered: 0,
        }
    }

    /// Post a request (never blocks — eager buffering, like any send).
    pub fn send_request<Q: Meter + Send + 'static>(&mut self, rank: &mut Rank, request: Q) {
        rank.send_on(self.server, Lane::Request(self.channel), request);
        self.sent += 1;
    }

    /// Block for the next reply: merges its arrival into the client's
    /// clock and charges the ingest cost, so `rank.clock()` before the
    /// request and after this call bracket the full virtual round trip —
    /// including however long the server chose to sit on the reply.
    pub fn recv_reply<R: Send + 'static>(&mut self, rank: &mut Rank) -> Dequeued<R> {
        assert!(
            self.answered < self.sent,
            "no outstanding request to receive a reply for"
        );
        let (msg, arrival, bytes) = rank.recv_with_arrival(self.server, Lane::Reply(self.channel));
        rank.charge_receive(arrival, bytes);
        self.answered += 1;
        Dequeued {
            msg,
            arrival,
            bytes,
        }
    }
}

/// Server half of a request/reply endpoint from `client`. A server rank
/// holds one of these per client it serves; receiving from them in a
/// fixed order is what makes multi-client service deterministic.
#[derive(Debug)]
pub struct ServeServer {
    client: usize,
    channel: u32,
    taken: u64,
    replied: u64,
}

impl ServeServer {
    pub fn new(client: usize, channel: u32) -> Self {
        Self {
            client,
            channel,
            taken: 0,
            replied: 0,
        }
    }

    /// Block for the client's next request, merging its arrival into the
    /// server's clock and charging the ingest cost.
    pub fn recv_request<Q: Send + 'static>(&mut self, rank: &mut Rank) -> Dequeued<Q> {
        let (msg, arrival, bytes) =
            rank.recv_with_arrival(self.client, Lane::Request(self.channel));
        rank.charge_receive(arrival, bytes);
        self.taken += 1;
        Dequeued {
            msg,
            arrival,
            bytes,
        }
    }

    /// Answer the oldest unanswered request. The reply is stamped with the
    /// server's *current* clock, so deferring this call is exactly how a
    /// server makes a client wait in virtual time.
    pub fn send_reply<R: Meter + Send + 'static>(&mut self, rank: &mut Rank, reply: R) {
        assert!(self.replied < self.taken, "no received request to reply to");
        rank.send_on(self.client, Lane::Reply(self.channel), reply);
        self.replied += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::NetModel;
    use crate::p2p::Tag;
    use crate::runtime::Runtime;

    /// A producer that is faster than its consumer must stall once the
    /// queue fills, and the steady-state stall equals the service surplus.
    #[test]
    fn credit_flow_stalls_fast_producer() {
        let depth = 2;
        let frames = 12;
        let out = Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 0 {
                let mut tx = QueueSender::new(1, depth, FlowControl::Credit);
                let mut stalls = Vec::new();
                for k in 0..frames {
                    rank.advance(1.0); // produce: 1 s/frame
                    stalls.push(tx.enqueue(rank, k as u64));
                }
                (stalls, rank.clock())
            } else {
                let mut rx = QueueReceiver::new(0, FlowControl::Credit);
                for _ in 0..frames {
                    let _ = rx.dequeue::<u64>(rank);
                    rank.advance(3.0); // service: 3 s/frame
                }
                (Vec::new(), rank.clock())
            }
        });
        let (stalls, _) = &out[0];
        // First `depth + 1` frames ride free (depth waiting + one in
        // service); after that the producer pays the 2 s/frame surplus.
        assert_eq!(stalls[0], 0.0);
        assert_eq!(stalls[1], 0.0);
        for s in &stalls[4..] {
            assert!((s - 2.0).abs() < 1e-9, "steady-state stall 2 s, got {s}");
        }
        let total: f64 = stalls.iter().sum();
        assert!(total > 0.0);
    }

    /// A consumer faster than its producer never induces a stall.
    #[test]
    fn credit_flow_free_when_consumer_keeps_up() {
        let out = Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 0 {
                let mut tx = QueueSender::new(1, 1, FlowControl::Credit);
                let mut total = 0.0;
                for k in 0..10u64 {
                    rank.advance(1.0);
                    total += tx.enqueue(rank, k);
                }
                total
            } else {
                let mut rx = QueueReceiver::new(0, FlowControl::Credit);
                for _ in 0..10 {
                    let _ = rx.dequeue::<u64>(rank);
                    rank.advance(0.25);
                }
                0.0
            }
        });
        assert_eq!(out[0], 0.0, "no stall when the consumer keeps up");
    }

    /// Lossy flow never stalls the producer, and deferred dequeues leave
    /// the consumer clock untouched until it settles them itself.
    #[test]
    fn lossy_flow_never_stalls_and_defers_clock() {
        let out = Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 0 {
                let mut tx = QueueSender::new(1, 1, FlowControl::Lossy);
                let mut total = 0.0;
                for k in 0..20u64 {
                    rank.advance(0.01);
                    total += tx.enqueue(rank, k);
                }
                total
            } else {
                let mut rx = QueueReceiver::new(0, FlowControl::Lossy);
                let mut arrivals = Vec::new();
                for _ in 0..20 {
                    let d = rx.dequeue_deferred::<u64>(rank);
                    arrivals.push(d.arrival);
                    assert_eq!(
                        rank.clock(),
                        0.0,
                        "deferred dequeue must not move the clock"
                    );
                }
                assert!(
                    arrivals.windows(2).all(|w| w[1] >= w[0]),
                    "arrivals are monotone"
                );
                rank.merge_clock_to(*arrivals.last().unwrap());
                rank.clock()
            }
        });
        assert_eq!(out[0], 0.0, "lossy producers never stall");
    }

    /// Messages keep their payloads and order through the queue, and the
    /// wire/ingest charges follow the ordinary NetModel accounting.
    #[test]
    fn queue_charges_netmodel_costs() {
        let net = NetModel {
            latency: 1e-3,
            bandwidth: 1e6,
            ..NetModel::free()
        };
        let out = Runtime::new(2, net).run(|rank| {
            if rank.rank() == 0 {
                let mut tx = QueueSender::new(1, 4, FlowControl::Credit);
                for k in 0..3 {
                    tx.enqueue(rank, vec![k as f32; 1000]); // 4000 B each
                }
                Vec::new()
            } else {
                let mut rx = QueueReceiver::new(0, FlowControl::Credit);
                (0..3)
                    .map(|_| rx.dequeue::<Vec<f32>>(rank).msg[0])
                    .collect::<Vec<f32>>()
            }
        });
        assert_eq!(out[1], vec![0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "queue depth must be at least one")]
    fn zero_depth_rejected() {
        let _ = QueueSender::new(0, 0, FlowControl::Credit);
    }

    /// A request/reply round trip prices the full virtual path: the
    /// client's clock after the reply reflects the server's service time.
    #[test]
    fn serve_round_trip_accounts_service_time() {
        let out = Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 0 {
                let mut ep = ServeClient::new(1, 0);
                let t0 = rank.clock();
                ep.send_request(rank, 7u64);
                let d = ep.recv_reply::<u64>(rank);
                assert_eq!(d.msg, 14);
                rank.clock() - t0
            } else {
                let mut ep = ServeServer::new(0, 0);
                let q = ep.recv_request::<u64>(rank);
                rank.advance(3.0); // service time
                ep.send_reply(rank, q.msg * 2);
                0.0
            }
        });
        assert!(
            (out[0] - 3.0).abs() < 1e-9,
            "round-trip latency must carry the 3 s service time, got {}",
            out[0]
        );
    }

    /// A server deferring its reply makes the client wait in virtual time.
    #[test]
    fn deferred_replies_cost_the_client_virtual_time() {
        let out = Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 0 {
                let mut ep = ServeClient::new(1, 0);
                ep.send_request(rank, ());
                ep.send_request(rank, ());
                let a = ep.recv_reply::<u64>(rank);
                let t_first = rank.clock();
                let b = ep.recv_reply::<u64>(rank);
                assert_eq!((a.msg, b.msg), (0, 1));
                (t_first, rank.clock())
            } else {
                let mut ep = ServeServer::new(0, 0);
                let _ = ep.recv_request::<()>(rank);
                let _ = ep.recv_request::<()>(rank);
                ep.send_reply(rank, 0u64);
                rank.advance(10.0); // sit on the second reply
                ep.send_reply(rank, 1u64);
                (0.0, 0.0)
            }
        });
        let (t_first, t_second) = out[0];
        assert!(t_first < 1.0, "first reply is immediate");
        assert!(
            t_second >= 10.0,
            "deferred reply must arrive 10 virtual seconds later, got {t_second}"
        );
    }

    /// Two clients of one server stay isolated: each sees only its own
    /// replies, and the server's fixed receive order is deterministic.
    #[test]
    fn serve_clients_are_isolated() {
        let out = Runtime::new(3, NetModel::free()).run(|rank| {
            if rank.rank() < 2 {
                let mut ep = ServeClient::new(2, 0);
                ep.send_request(rank, rank.rank() as u64);
                ep.recv_reply::<u64>(rank).msg
            } else {
                let mut eps: Vec<ServeServer> = (0..2).map(|c| ServeServer::new(c, 0)).collect();
                // Fixed order: client 1 first, then client 0.
                let q1 = eps[1].recv_request::<u64>(rank).msg;
                eps[1].send_reply(rank, q1 * 100);
                let q0 = eps[0].recv_request::<u64>(rank).msg;
                eps[0].send_reply(rank, q0 * 100);
                0
            }
        });
        assert_eq!(&out[..2], &[0, 100]);
    }

    #[test]
    #[should_panic(expected = "no received request to reply to")]
    fn reply_without_request_rejected() {
        Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 1 {
                let mut ep = ServeServer::new(0, 0);
                ep.send_reply(rank, 1u64);
            }
        });
    }

    /// Serve endpoints, stage queues and user messages between the same
    /// pair of ranks never cross: user tags at the top of the `u32` space
    /// and a serve channel of `u32::MAX` each reach only their own receiver.
    #[test]
    fn lanes_never_cross() {
        let (top, below) = (Tag(u32::MAX - 2), Tag(u32::MAX - 3));
        let out = Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 0 {
                // Sent first, so each sits ahead of the lane traffic.
                rank.send(1, top, 1000u64);
                rank.send(1, below, 2000u64);
                let mut tx = QueueSender::new(1, 1, FlowControl::Credit);
                let mut ep = ServeClient::new(1, 0);
                let mut wide = ServeClient::new(1, u32::MAX);
                wide.send_request(rank, 6u64);
                ep.send_request(rank, 5u64);
                tx.enqueue(rank, 77u64);
                tx.enqueue(rank, 78u64); // waits for the first credit
                vec![
                    ep.recv_reply::<u64>(rank).msg,
                    wide.recv_reply::<u64>(rank).msg,
                    rank.recv::<u64>(1, below),
                    rank.recv::<u64>(1, top),
                ]
            } else {
                rank.send(0, below, 3000u64);
                rank.send(0, top, 4000u64);
                let mut rx = QueueReceiver::new(0, FlowControl::Credit);
                let mut ep = ServeServer::new(0, 0);
                let mut wide = ServeServer::new(0, u32::MAX);
                let d0 = rx.dequeue::<u64>(rank).msg;
                let d1 = rx.dequeue::<u64>(rank).msg;
                let q = ep.recv_request::<u64>(rank).msg;
                let w = wide.recv_request::<u64>(rank).msg;
                ep.send_reply(rank, q + d0);
                wide.send_reply(rank, w + d1);
                vec![
                    d0,
                    d1,
                    q,
                    w,
                    rank.recv::<u64>(0, top),
                    rank.recv::<u64>(0, below),
                ]
            }
        });
        assert_eq!(out[0], vec![82, 84, 3000, 4000]);
        assert_eq!(out[1], vec![77, 78, 5, 6, 1000, 2000]);
    }
}
