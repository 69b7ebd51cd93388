//! A threaded, MPI-like message-passing runtime with virtual-time accounting.
//!
//! The paper runs its pipeline over Cray MPI on Blue Waters at 64 and 400
//! ranks. The Rust MPI ecosystem is thin and no 400-core allocation exists
//! here, so this crate substitutes a *simulated* communicator:
//!
//! * **Ranks are OS threads.** [`Runtime::run`] spawns one thread per rank;
//!   each receives a [`Rank`] handle exposing point-to-point messaging
//!   (`send`/`recv` with tags) and the four collectives the
//!   pipeline needs (barrier, allgather, allreduce, alltoallv).
//! * **Reusable rank sessions.** [`Runtime::session`] spawns the rank
//!   threads once and executes a series of closures over them
//!   ([`Session::run`]) — the substrate of parameter sweeps, which replay
//!   many configurations over the same ranks. Runs are isolated by
//!   epoch-stamped envelopes and collective contributions plus a per-run
//!   virtual-clock reset, so a session run is observationally identical to
//!   a one-shot `Runtime::run` (which is itself implemented as a
//!   single-run session).
//! * **Virtual time.** Every rank owns a virtual clock ([`Rank::clock`]).
//!   Local compute charges the clock through [`Rank::advance`]; messages and
//!   collectives charge it through a latency+bandwidth [`NetModel`].
//!   Collectives max-synchronize clocks, so "the step is as slow as the
//!   slowest rank" holds exactly as on a real machine, while wall-clock
//!   execution stays laptop-scale and deterministic. A barrier is its
//!   charge paid before a meeting, so a step boundary followed by a
//!   collective takes that collective's meeting clock ([`Rank::met_at`]).
//! * **One rendezvous under every collective** ([`collectives`]): a single
//!   phase — each rank deposits its contribution and is counted under one
//!   lock, the last arriver releases all of them into every other rank's
//!   mailbox, where each waits for the release as for a message, and every
//!   rank reads what it needs with no lock held. `alltoallv` is a
//!   metered shared-memory exchange through it: one deposit per sender
//!   (its items in destination order), one `Vec` per receiver, and the
//!   paper's §IV-D sends and receives are what its *clock* replays,
//!   unchanged.
//! * **One mailbox per rank under every wait** ([`p2p`]): a sender locks
//!   only the destination's mailbox and wakes its owner only for the
//!   `(source, lane)` it is blocked on; a receiver locks only its own, and
//!   fails at once when the rank it waits for has died or the whole run
//!   has stalled (every rank parked or finished).
//! * **Distributed sorting** ([`sort`]): the paper's gather-sort-broadcast
//!   (§IV-C) — one rendezvous, one sort shared by every rank, which is
//!   also the meeting of the step boundary before it — plus a real
//!   parallel sample sort used as an ablation. Both leave every rank at
//!   the same clock.
//! * **Bounded stage queues and serve endpoints** ([`bounded`]):
//!   flow-controlled producer → consumer channels (credit-based or lossy)
//!   whose capacity semantics live in virtual time — the substrate of
//!   `apc-stage`'s dedicated-core asynchronous in situ mode — plus
//!   request/reply endpoints ([`ServeClient`] / [`ServeServer`]), the
//!   substrate of `apc-serve`'s frame serving protocol. Queues and
//!   endpoints travel on lanes of their own, which no user [`Tag`] reaches.
//!
//! ```
//! use apc_comm::{NetModel, Runtime};
//!
//! let sums = Runtime::new(4, NetModel::blue_waters()).run(|rank| {
//!     let contribution = (rank.rank() + 1) as u64;
//!     rank.allreduce(contribution, |a, b| a + b)
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

#![warn(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod bounded;
pub mod collectives;
pub mod meter;
pub mod netmodel;
pub mod p2p;
pub mod runtime;
pub mod sort;

pub use bounded::{Dequeued, FlowControl, QueueReceiver, QueueSender, ServeClient, ServeServer};
pub use meter::Meter;
pub use netmodel::NetModel;
pub use p2p::Tag;
pub use runtime::{Rank, Runtime, Session};
