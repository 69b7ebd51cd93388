//! The rank runtime: one OS thread per rank, one shared `Rendezvous` under
//! every collective, one `Mailbox` per rank under every point-to-point
//! message.
//!
//! Two entry points share the same machinery:
//!
//! * [`Runtime::run`] — one-shot SPMD execution (spawn, run, join), the
//!   original API;
//! * [`Runtime::session`] — a persistent [`Session`] that spawns the rank
//!   threads **once** and executes a series of closures over them. This is
//!   the substrate of parameter sweeps: a fig07-style sweep at 400 ranks
//!   replays dozens of configurations, and re-spawning 400 threads per
//!   configuration is pure overhead the session removes.
//!
//! Runs inside one session are isolated from each other by an **epoch**:
//! every envelope and collective contribution is stamped with the epoch of
//! the run that produced it, and each run starts by resetting the rank's
//! virtual clock and discarding the stale-epoch messages in its mailbox.
//! A closure that leaks unconsumed messages therefore cannot corrupt the
//! next run. `Runtime::run` is implemented as a single-run session, so the
//! two paths produce byte-identical results by construction.
//!
//! # Who wakes whom
//!
//! A rank blocks in exactly two places, both bounded by the deadlock
//! timeout: `Rendezvous::meet` (collectives) and `Rank::pop_matching`
//! (receives). A mailbox is a mutex over one FIFO per source rank plus the
//! `(source, lane)` its owner is parked on, and a condvar only the owner
//! ever waits on. A sender locks the *destination's* mailbox, appends to
//! its own FIFO there and wakes the owner only if that is the very message
//! it is parked on — after unlocking, so the owner does not wake into a
//! held lock; a receiver locks *its own* mailbox once, and a message that
//! is already there costs it no system call at all. A message a rank
//! cannot use yet therefore costs its sender no wake-up and its receiver
//! no context switch — with 272 ranks on two cores, wake-ups that end in
//! "not mine, back to sleep" were most of what a replay client did. No
//! thread ever holds two mailbox locks, so there is no lock order, and
//! nothing panics while holding one.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::netmodel::NetModel;
use crate::p2p::{Envelope, Lane};

/// Default for how long a blocking receive — or a wait in a collective's
/// rendezvous — lasts before declaring the program deadlocked. Generous enough
/// for oversubscribed CI machines, small enough that a buggy pipeline
/// fails a test instead of hanging it forever. Override with
/// `APC_RECV_TIMEOUT` (seconds, float) — the workspace-level
/// `.cargo/config.toml` sets 120 s for everything cargo runs here, so a
/// deadlock regression fails CI in two minutes; full-scale runs on
/// heavily oversubscribed machines can raise it per invocation
/// (`APC_RECV_TIMEOUT=300 APC_SCALE=full cargo run ...`).
const RECV_TIMEOUT_DEFAULT: Duration = Duration::from_secs(300);

/// Parse an `APC_RECV_TIMEOUT` value (seconds, float). Garbage is rejected
/// loudly: a typo that silently restored the 5-minute default would defeat
/// the point of setting the variable.
pub fn parse_recv_timeout(var: Option<&str>) -> Duration {
    match var {
        None => RECV_TIMEOUT_DEFAULT,
        Some(s) => {
            let secs: f64 = s.trim().parse().unwrap_or_else(|_| {
                // apc-lint: allow(unwrap-in-lib): documented contract — a garbage timeout value must fail loudly, not default
                panic!("APC_RECV_TIMEOUT must be a number of seconds, got {s:?}")
            });
            assert!(
                secs.is_finite() && secs > 0.0,
                "APC_RECV_TIMEOUT must be a positive number of seconds, got {s:?}"
            );
            Duration::from_secs_f64(secs)
        }
    }
}

/// The effective receive timeout (read from the environment once).
fn recv_timeout() -> Duration {
    static TIMEOUT: OnceLock<Duration> = OnceLock::new();
    *TIMEOUT.get_or_init(|| parse_recv_timeout(std::env::var("APC_RECV_TIMEOUT").ok().as_deref()))
}

/// A deposited collective contribution: `(epoch, virtual clock, payload)`.
/// The epoch pins the contribution to the session run that deposited it.
pub(crate) type Contribution = (u64, f64, Box<dyn Any + Send + Sync>);

/// What one completed rendezvous hands every participant: the
/// contributions by rank and the latest of their clocks. Shared, so ranks
/// read it concurrently with no lock held; the payloads are freed once
/// the last reader is done and the next rendezvous has completed.
#[derive(Default)]
pub(crate) struct Released {
    pub deposits: Vec<Contribution>,
    pub max_clock: f64,
}

struct Meeting {
    /// Contributions to the generation still assembling, by rank.
    pending: Vec<Option<Contribution>>,
    arrived: usize,
    generation: u64,
    /// What the last completed generation released.
    released: Arc<Released>,
}

/// The single-phase meeting point under every collective: each rank takes
/// the one mutex once, to deposit its contribution *and* be counted; the
/// last arriver moves the deposits into a fresh [`Released`], bumps the
/// generation, drops the lock and only then wakes the others (waking them
/// under the lock would park all of them on it again, to be handed it one
/// context switch at a time).
///
/// One phase is enough. Generation *g + 1* can complete only after every
/// rank arrived at it, and a rank arrives at *g + 1* only after it woke
/// from *g* and cloned `released` under the lock — so `released` is never
/// replaced while a rank of *g* still has to pick it up, and the `pending`
/// deposits of *g + 1* never mix with the released ones of *g*. Spurious
/// wake-ups loop on the generation.
///
/// A wait gives up after `timeout`, the configured receive timeout.
/// `std::sync::Barrier` waits forever, which turns "one rank panicked
/// before its collective" into every *other* rank blocking eternally — and
/// with it the whole run. Here the stranded ranks panic with a diagnostic
/// instead, so the run fails loudly within the timeout and the original
/// panic still propagates. Nothing panics while the lock is held: epoch
/// and type checks run on every rank after the release, so a mismatch is
/// a diagnostic on every rank rather than a poisoned mutex.
pub(crate) struct Rendezvous {
    n: usize,
    state: Mutex<Meeting>,
    cvar: Condvar,
}

impl Rendezvous {
    fn new(n: usize) -> Self {
        Self {
            n,
            state: Mutex::new(Meeting {
                pending: (0..n).map(|_| None).collect(),
                arrived: 0,
                generation: 0,
                released: Arc::default(),
            }),
            cvar: Condvar::new(),
        }
    }

    /// Deposit rank `id`'s contribution and wait, at most `timeout`, for
    /// everyone else's.
    pub(crate) fn meet(&self, id: usize, mine: Contribution, timeout: Duration) -> Arc<Released> {
        // apc-lint: allow(unwrap-in-lib): nothing panics under this mutex; poisoning means a rank thread was killed mid-update, propagate the abort
        let mut state = self.state.lock().unwrap();
        state.pending[id] = Some(mine);
        state.arrived += 1;
        if state.arrived == self.n {
            let deposits: Vec<Contribution> =
                state.pending.iter_mut().filter_map(Option::take).collect();
            let max_clock = deposits.iter().fold(f64::MIN, |max, d| max.max(d.1));
            let released = Arc::new(Released {
                deposits,
                max_clock,
            });
            // The previous generation's payloads are freed below, after
            // the unlock and the wake-up.
            let _previous = std::mem::replace(&mut state.released, Arc::clone(&released));
            state.arrived = 0;
            state.generation += 1;
            drop(state);
            self.cvar.notify_all();
            return released;
        }
        let generation = state.generation;
        #[expect(
            clippy::disallowed_methods,
            reason = "deadlock-timeout machinery only: the real clock bounds how long we wait for dead peers and never reaches virtual time or results"
        )]
        let deadline = Instant::now() + timeout;
        while state.generation == generation {
            #[expect(
                clippy::disallowed_methods,
                reason = "deadlock-timeout machinery (see above)"
            )]
            let remaining = deadline.saturating_duration_since(Instant::now());
            // apc-lint: allow(unwrap-in-lib): nothing panics under this mutex (see above); propagate the abort
            let (guard, result) = self.cvar.wait_timeout(state, remaining).unwrap();
            state = guard;
            if result.timed_out() && state.generation == generation {
                let arrived = state.arrived;
                // Release the lock before unwinding so fellow waiters see
                // their own timeout diagnostic, not a poisoned mutex.
                drop(state);
                // apc-lint: allow(unwrap-in-lib): a collective deadlock is unrecoverable; the panic is the diagnostic
                panic!(
                    "deadlocked in a collective barrier after {:.1} s: only {arrived} \
                     of {} ranks arrived (a peer died or diverged)",
                    timeout.as_secs_f64(),
                    self.n
                );
            }
        }
        Arc::clone(&state.released)
    }
}

/// What a mailbox's mutex guards.
#[derive(Default)]
struct Inbox {
    /// Undelivered envelopes, one FIFO per source rank, grown to a source's
    /// index on its first delivery (a rank that only ever hears from a few
    /// low ranks never holds n of them).
    from: Vec<VecDeque<Envelope>>,
    /// The `(source, lane)` the owner is parked on, if it is parked. A
    /// delivery of exactly that clears it and wakes the owner.
    waiting: Option<(usize, Lane)>,
    /// How often the owner parked and was woken (by a delivery, a dying
    /// peer or spuriously — not by its own timeout).
    wakeups: u64,
}

impl Inbox {
    /// Remove the first envelope of run `epoch` that `src` sent on `lane`
    /// (non-overtaking per `(source, lane)`, selective otherwise).
    fn pop(&mut self, src: usize, lane: Lane, epoch: u64) -> Option<Envelope> {
        let fifo = self.from.get_mut(src)?;
        // Runs are serialized by the session and `begin_run` dropped what
        // earlier ones leaked, so an envelope of another run cannot be
        // here; the epoch test keeps a violation of that from crossing runs.
        let pos = fifo
            .iter()
            .position(|e| e.lane == lane && e.epoch == epoch)?;
        fifo.remove(pos)
    }
}

/// One rank's incoming point-to-point messages. See "Who wakes whom" in
/// the module docs for the protocol.
#[derive(Default)]
pub(crate) struct Mailbox {
    inbox: Mutex<Inbox>,
    /// Signalled when the envelope the owner is parked on arrives, or when
    /// the rank it is parked on dies. Only the owner waits on it.
    arrived: Condvar,
    /// Set once, when the owner's thread exits: nothing will ever be taken
    /// from this mailbox or sent by its owner again. Outside the mutex so a
    /// receiver can read its *source's* flag while holding only its own
    /// lock.
    dead: AtomicBool,
}

impl Mailbox {
    /// Nothing panics while holding this lock, and every update under it
    /// is a single push, removal or store, so even a poisoned lock guards a
    /// valid inbox — which also keeps [`HangUp`]'s `drop` from panicking.
    fn lock(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `env` to its source's FIFO and wake the owner if it is parked
    /// on exactly this `(source, lane)`. The one place a message is
    /// delivered. Panics if the owner's thread is gone.
    pub(crate) fn deliver(&self, env: Envelope) {
        assert!(
            !self.dead.load(Ordering::SeqCst),
            "destination rank hung up"
        );
        let mut inbox = self.lock();
        let wake = inbox
            .waiting
            .take_if(|w| *w == (env.src, env.lane))
            .is_some();
        if inbox.from.len() <= env.src {
            inbox.from.resize_with(env.src + 1, VecDeque::new);
        }
        inbox.from[env.src].push_back(env);
        drop(inbox);
        if wake {
            // After the unlock, or the owner would wake into a held lock;
            // `notify_one` because only the owner ever waits here.
            self.arrived.notify_one();
        }
    }
}

pub(crate) struct Shared {
    pub nranks: usize,
    pub net: NetModel,
    /// Where every collective meets.
    pub rendezvous: Rendezvous,
    /// Where every point-to-point message waits for its receiver, by
    /// destination rank.
    pub mailboxes: Vec<Mailbox>,
    /// How long receives and rendezvous waits block before declaring
    /// deadlock (from `APC_RECV_TIMEOUT`, overridable per runtime).
    pub timeout: Duration,
}

/// Lives on a rank thread's stack: when the thread exits — its job loop
/// ended, or something unwound past it — the rank's mailbox is closed and
/// every rank parked on a message from it is woken to fail at once,
/// naming it, instead of after the deadlock timeout.
struct HangUp {
    shared: Arc<Shared>,
    id: usize,
}

impl Drop for HangUp {
    fn drop(&mut self) {
        let mailboxes = &self.shared.mailboxes;
        // Flag first, then one mailbox lock at a time (see `Rank::pop_matching`).
        mailboxes[self.id].dead.store(true, Ordering::SeqCst);
        for mailbox in mailboxes {
            let waits_for_me = matches!(mailbox.lock().waiting, Some((src, _)) if src == self.id);
            if waits_for_me {
                mailbox.arrived.notify_one();
            }
        }
    }
}

/// Launch configuration: number of ranks and network model.
#[derive(Debug, Clone)]
pub struct Runtime {
    nranks: usize,
    net: NetModel,
    stack_size: usize,
    timeout: Option<Duration>,
}

impl Runtime {
    pub fn new(nranks: usize, net: NetModel) -> Self {
        assert!(nranks > 0, "need at least one rank");
        Self {
            nranks,
            net,
            stack_size: 4 << 20,
            timeout: None,
        }
    }

    /// Per-rank thread stack size (default 4 MiB).
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Override the deadlock timeout (receives and rendezvous waits) for
    /// runtimes built from this configuration; defaults to
    /// `APC_RECV_TIMEOUT` / 300 s.
    // apc-lint: allow(dead-pub): deadlock tests (runtime, sort, session_stress) shorten the watchdog
    pub fn deadlock_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Spawn the rank threads once and return a reusable [`Session`].
    /// Each [`Session::run`] executes one SPMD closure over the same
    /// threads; the network model and rank count are fixed for the
    /// session's lifetime.
    pub fn session(&self) -> Session {
        let n = self.nranks;
        let timeout = self.timeout.unwrap_or_else(recv_timeout);
        let shared = Arc::new(Shared {
            nranks: n,
            net: self.net,
            rendezvous: Rendezvous::new(n),
            mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
            timeout,
        });

        let mut job_txs = Vec::with_capacity(n);
        let mut status_rxs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for id in 0..n {
            let (job_tx, job_rx) = channel::<RawJob>();
            let (status_tx, status_rx) = channel::<RunStatus>();
            let shared = Arc::clone(&shared);
            #[expect(
                clippy::disallowed_methods,
                reason = "the runtime's own rank threads: this is where every rank is spawned"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("rank-{id}"))
                .stack_size(self.stack_size)
                .spawn(move || {
                    // A rank that stops (panic) makes sends to it and
                    // receives from it fail loudly instead of waiting.
                    let _hang_up = HangUp {
                        shared: Arc::clone(&shared),
                        id,
                    };
                    let mut rank = Rank {
                        id,
                        epoch: 0,
                        clock: 0.0,
                        shared,
                    };
                    // The job loop: run each dispatched closure, report its
                    // outcome, and stop on the first panic (the session is
                    // poisoned then — the shared rendezvous may be out of
                    // step) or when the session is dropped.
                    while let Ok(job) = job_rx.recv() {
                        rank.begin_run(job.epoch);
                        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            // SAFETY: `Session::run` keeps the closure and
                            // result buffer alive until every rank has
                            // reported its status for this job.
                            unsafe { (job.call)(job.data.0, &mut rank) }
                        }));
                        let failed = result.is_err();
                        if status_tx.send(result).is_err() || failed {
                            break;
                        }
                    }
                })
                // apc-lint: allow(unwrap-in-lib): OS refusing to spawn a rank thread is unrecoverable at session start
                .expect("failed to spawn rank thread");
            job_txs.push(job_tx);
            status_rxs.push(status_rx);
            handles.push(handle);
        }
        Session {
            nranks: n,
            epoch: 0,
            poisoned: false,
            job_txs,
            status_rxs,
            handles,
        }
    }

    /// Run `f` on every rank concurrently; returns the per-rank results in
    /// rank order. Panics in any rank propagate.
    ///
    /// This is the one-shot wrapper over [`Runtime::session`]: it spawns a
    /// fresh session, executes `f` once, and tears the threads down. Use a
    /// session directly when running many closures over the same ranks.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Sync,
    {
        self.session().run(f)
    }
}

/// Type-erased SPMD job sent to a rank thread. `data` points at the
/// dispatching [`Session::run`] frame (closure + result buffer); `call`
/// reconstitutes the types. Erasure keeps the worker channels free of the
/// caller's lifetimes, which is what lets `Session::run` accept borrowing
/// closures exactly like scoped threads do.
struct RawJob {
    epoch: u64,
    data: SendPtr,
    call: unsafe fn(*const (), &mut Rank),
}

struct SendPtr(*const ());
// SAFETY: the pointee is a `RunCtx` on the dispatching thread's stack; the
// dispatcher blocks until every worker reports completion, so the pointer
// never dangles while a worker can still use it.
unsafe impl Send for SendPtr {}

type RunStatus = std::thread::Result<()>;

/// Per-run bridge between `Session::run` and the rank threads: the shared
/// closure and the raw result slots (one per rank, disjoint writes).
struct RunCtx<T, F> {
    f: *const F,
    results: *mut Option<T>,
}

unsafe fn call_spmd<T, F>(data: *const (), rank: &mut Rank)
where
    T: Send,
    F: Fn(&mut Rank) -> T + Sync,
{
    let ctx = &*(data as *const RunCtx<T, F>);
    let out = (&*ctx.f)(rank);
    // Disjoint per-rank slot; `None` in place, so plain assignment is fine.
    *ctx.results.add(rank.id) = Some(out);
}

/// A persistent group of rank threads created by [`Runtime::session`].
///
/// Each [`Session::run`] call executes one SPMD closure across all ranks
/// and blocks until every rank finishes, so consecutive runs are fully
/// serialized — combined with epoch-stamped envelopes and contributions,
/// messages from different runs can never cross. Per run, every rank's
/// virtual clock restarts at zero and its mailbox drops what earlier runs
/// leaked, so a session run is observationally identical to a fresh
/// [`Runtime::run`].
///
/// A panic in any rank propagates out of [`Session::run`] with the original
/// payload and **poisons** the session (the shared rendezvous may be out
/// of step); later runs panic immediately. Dropping the session joins the
/// threads.
///
/// ```
/// use apc_comm::{NetModel, Runtime};
///
/// let mut session = Runtime::new(4, NetModel::free()).session();
/// let a = session.run(|rank| rank.allreduce(1u64, |x, y| x + y));
/// let b = session.run(|rank| rank.rank() * 2); // same threads, fresh clocks
/// assert_eq!(a, vec![4; 4]);
/// assert_eq!(b, vec![0, 2, 4, 6]);
/// ```
pub struct Session {
    nranks: usize,
    epoch: u64,
    poisoned: bool,
    job_txs: Vec<Sender<RawJob>>,
    status_rxs: Vec<Receiver<RunStatus>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Session {
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Whether an earlier run panicked, making the session unusable.
    // apc-lint: allow(dead-pub): session_stress and runtime tests assert a panic poisons the session
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Run `f` on every rank concurrently; returns the per-rank results in
    /// rank order. Blocks until all ranks finish. Panics in any rank
    /// propagate (lowest rank's payload first, matching the one-shot
    /// join order) and poison the session.
    pub fn run<T, F>(&mut self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Sync,
    {
        assert!(
            !self.poisoned,
            "session poisoned by a panic in an earlier run"
        );
        self.epoch += 1;
        let n = self.nranks;
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let ctx = RunCtx::<T, F> {
            f: &f,
            results: results.as_mut_ptr(),
        };
        let data = &ctx as *const RunCtx<T, F> as *const ();

        let mut dispatch_failed = false;
        let mut dispatched = 0;
        for tx in &self.job_txs {
            let job = RawJob {
                epoch: self.epoch,
                data: SendPtr(data),
                call: call_spmd::<T, F>,
            };
            if tx.send(job).is_err() {
                // Worker thread gone without poisoning us first — should be
                // unreachable; fail loudly after draining the ranks that did
                // get the job (they must not outlive `ctx`).
                dispatch_failed = true;
                break;
            }
            dispatched += 1;
        }

        // Wait for every dispatched rank before touching the results (or
        // unwinding!) — the workers borrow `f` and `results` until then.
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        for rx in &self.status_rxs[..dispatched] {
            match rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(payload)) => {
                    self.poisoned = true;
                    first_panic.get_or_insert(payload);
                }
                Err(_) => {
                    self.poisoned = true;
                    dispatch_failed = true;
                }
            }
        }
        if let Some(payload) = first_panic {
            // Re-raise with the original payload so callers (and
            // #[should_panic] tests) see the rank's own message.
            std::panic::resume_unwind(payload);
        }
        if dispatch_failed {
            self.poisoned = true;
            // apc-lint: allow(unwrap-in-lib): a dead rank thread poisons the session; failing the run loudly is the contract
            panic!("a rank thread died outside a run; session unusable");
        }
        results
            .into_iter()
            // apc-lint: allow(unwrap-in-lib): the panic/dispatch checks above returned early on any failure
            .map(|r| r.expect("every rank reported success, so every slot is filled"))
            .collect()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Closing the job channels ends the worker loops; then join.
        self.job_txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Per-rank communicator handle, passed to the closure given to
/// [`Runtime::run`] / [`Session::run`]. All point-to-point and collective
/// operations live here (collectives are in [`crate::collectives`],
/// implemented on this type).
pub struct Rank {
    pub(crate) id: usize,
    /// The session run this rank is currently executing; stamps every
    /// envelope and collective contribution so runs cannot interfere.
    pub(crate) epoch: u64,
    pub(crate) clock: f64,
    /// The session's meeting points: the rendezvous, and every rank's
    /// mailbox — this rank takes from `mailboxes[id]` and delivers into its
    /// destinations'.
    pub(crate) shared: Arc<Shared>,
}

impl Rank {
    /// Reset per-run state at the start of a session run: fresh virtual
    /// clock, and any *stale-epoch* envelopes still sitting in the mailbox
    /// — leftovers from a run that did not consume all of its messages,
    /// exactly the cross-run leak the epoch tag exists to stop — are
    /// discarded. Current-epoch envelopes are kept — a peer that started
    /// this run earlier may already have sent to us.
    fn begin_run(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.clock = 0.0;
        let mut inbox = self.shared.mailboxes[self.id].lock();
        for fifo in &mut inbox.from {
            fifo.retain(|env| env.epoch == epoch);
        }
    }

    /// This rank's id in `0..nranks`.
    pub fn rank(&self) -> usize {
        self.id
    }

    pub fn nranks(&self) -> usize {
        self.shared.nranks
    }

    pub fn net(&self) -> NetModel {
        self.shared.net
    }

    /// Current virtual time (seconds since the run started).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Charge `dt` seconds of local compute to the virtual clock.
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "cannot advance clock backwards");
        self.clock += dt;
    }

    /// Advance the clock to at least `t` (no-op if the clock is already
    /// past it). This is the "wait until" primitive: every receive waits
    /// for its arrival with it, and consumers that account arrival times
    /// themselves — the staging engine settles a lossy queue's deferred
    /// arrivals with it when a frame enters service — call it directly.
    pub fn merge_clock_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Block until the first message of this run that `src` sent on
    /// `lane` is in this rank's mailbox, and remove it. The one place a
    /// receive blocks. Gives up — with the lock released — when `src` has
    /// died without delivering it, or the deadlock timeout after the call
    /// started: the deadline is per receive, so traffic the rank is not
    /// waiting for cannot postpone the diagnostic.
    pub(crate) fn pop_matching(&mut self, src: usize, lane: Lane) -> Envelope {
        let shared = &*self.shared;
        let mailbox = &shared.mailboxes[self.id];
        let mut inbox = mailbox.lock();
        let mut deadline = None;
        let died = loop {
            if let Some(env) = inbox.pop(src, lane, self.epoch) {
                return env;
            }
            // After the FIFO: what a peer delivered before dying still
            // wins. Before parking and after every wake: the dying peer
            // sets its flag and then takes this lock to look at `waiting`,
            // so either this load sees the flag or that look sees us.
            if shared.mailboxes[src].dead.load(Ordering::SeqCst) {
                break true;
            }
            // The clock is read only on the way to parking, never on the
            // path that finds its message.
            #[expect(
                clippy::disallowed_methods,
                reason = "deadlock-timeout machinery only: the real clock bounds how long we wait for dead peers and never reaches virtual time or results"
            )]
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + shared.timeout);
            if now >= deadline {
                break false;
            }
            inbox.waiting = Some((src, lane));
            let (guard, result) = mailbox
                .arrived
                .wait_timeout(inbox, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inbox = guard;
            inbox.waiting = None;
            inbox.wakeups += u64::from(!result.timed_out());
        };
        let stashed: usize = inbox.from.iter().map(VecDeque::len).sum();
        drop(inbox);
        let me = self.id;
        if died {
            // apc-lint: allow(unwrap-in-lib): the peer is gone and the message will never come; the panic is the diagnostic
            panic!(
                "rank {me} waiting for message (src={src}, lane={lane:?}) from rank {src}, \
                 which died; {stashed} stashed envelopes"
            );
        }
        // apc-lint: allow(unwrap-in-lib): a recv deadlock is unrecoverable; the panic is the diagnostic
        panic!(
            "rank {me} deadlocked waiting for message (src={src}, lane={lane:?}); \
             {stashed} stashed envelopes"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p2p::Tag;

    #[test]
    fn run_returns_results_in_rank_order() {
        let out = Runtime::new(5, NetModel::free()).run(|rank| rank.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn clocks_start_at_zero_and_advance() {
        let clocks = Runtime::new(3, NetModel::free()).run(|rank| {
            assert_eq!(rank.clock(), 0.0);
            rank.advance(1.5);
            rank.advance(0.5);
            rank.clock()
        });
        assert_eq!(clocks, vec![2.0; 3]);
    }

    #[test]
    fn single_rank_works() {
        let out = Runtime::new(1, NetModel::blue_waters()).run(|rank| rank.nranks());
        assert_eq!(out, vec![1]);
    }

    #[test]
    #[should_panic(expected = "need at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Runtime::new(0, NetModel::free());
    }

    #[test]
    fn many_ranks_spawn() {
        // Sanity check that a 400-rank run (the paper's larger scale) is
        // feasible as plain threads.
        let out = Runtime::new(400, NetModel::free()).run(|rank| rank.rank());
        assert_eq!(out.len(), 400);
        assert_eq!(out[399], 399);
    }

    #[test]
    fn session_reuses_threads_across_runs() {
        let mut session = Runtime::new(4, NetModel::free()).session();
        let names_a = session.run(|_| std::thread::current().name().map(str::to_owned));
        let sums = session.run(|rank| rank.allreduce(rank.rank() as u64, |a, b| a + b));
        let names_b = session.run(|_| std::thread::current().name().map(str::to_owned));
        assert_eq!(sums, vec![6; 4]);
        assert_eq!(names_a, names_b, "the same OS threads serve every run");
        assert_eq!(names_a[2].as_deref(), Some("rank-2"));
    }

    #[test]
    fn session_resets_clocks_per_run() {
        let mut session = Runtime::new(3, NetModel::free()).session();
        let first = session.run(|rank| {
            rank.advance(5.0);
            rank.clock()
        });
        let second = session.run(|rank| rank.clock());
        assert_eq!(first, vec![5.0; 3]);
        assert_eq!(
            second,
            vec![0.0; 3],
            "each run starts from a fresh virtual clock"
        );
    }

    #[test]
    fn stale_messages_cannot_cross_runs() {
        // Run 1 leaks a message (rank 2 sends to rank 0, never received).
        // Run 2 sends a different value on the same (src, tag): the epoch
        // tag must make rank 0 see run 2's message, not run 1's leftover.
        let mut session = Runtime::new(3, NetModel::free()).session();
        session.run(|rank| {
            if rank.rank() == 2 {
                rank.send(0, Tag(9), 111u32);
            }
        });
        let out = session.run(|rank| {
            if rank.rank() == 2 {
                rank.send(0, Tag(9), 222u32);
            }
            if rank.rank() == 0 {
                rank.recv::<u32>(2, Tag(9))
            } else {
                0
            }
        });
        assert_eq!(out[0], 222, "run 2 must not see run 1's leaked message");
    }

    /// Wake accounting: only the message a rank is parked on wakes it. A
    /// design that signals the owner on every arrival counts one wake-up
    /// per noise message here.
    #[test]
    fn only_the_awaited_message_wakes_a_parked_receiver() {
        const NOISE: u32 = 1_000;
        let (awaited, noise, go) = (Tag(1), Tag(2), Tag(3));
        let out = Runtime::new(3, NetModel::free()).run(|rank| match rank.rank() {
            0 => {
                let got = rank.recv::<u32>(2, awaited);
                let woken = rank.shared.mailboxes[0].lock().wakeups;
                let drained: Vec<u32> = (0..NOISE).map(|_| rank.recv(1, noise)).collect();
                assert_eq!(
                    drained,
                    (0..NOISE).collect::<Vec<_>>(),
                    "rank 1's stream must arrive in order"
                );
                assert_eq!(
                    rank.shared.mailboxes[0].lock().wakeups,
                    woken,
                    "a receive that finds its message must not park"
                );
                (got, woken)
            }
            1 => {
                // Not before rank 0 is parked on rank 2's message:
                // `waiting` is published under the lock the wait releases.
                while rank.shared.mailboxes[0].lock().waiting != Some((2, Lane::User(awaited))) {
                    std::thread::yield_now();
                }
                (0..NOISE).for_each(|i| rank.send(0, noise, i));
                rank.send(2, go, ());
                (0, 0)
            }
            _ => {
                rank.recv::<()>(1, go);
                rank.send(0, awaited, 7u32);
                (0, 0)
            }
        });
        let (got, woken) = out[0];
        assert_eq!(got, 7);
        assert!(
            (1..10).contains(&woken),
            "rank 0 parked once and {NOISE} messages it was not waiting for \
             arrived meanwhile; it was woken {woken} times"
        );
    }

    #[test]
    fn a_receive_takes_the_first_match_of_its_tag_in_the_sources_fifo() {
        const N: u32 = 30;
        let (a, b, last) = (Tag(1), Tag(2), Tag(3));
        let is_a = |i: &u32| i.is_multiple_of(3);
        let out = Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 0 {
                (0..N).for_each(|i| rank.send(1, if is_a(&i) { a } else { b }, i));
                rank.send(1, last, ());
                Vec::new()
            } else {
                // Taken from behind all the others: both tags now sit
                // interleaved in rank 0's FIFO.
                rank.recv::<()>(0, last);
                let mut got: Vec<u32> = (0..N)
                    .filter(|i| !is_a(i))
                    .map(|_| rank.recv(0, b))
                    .collect();
                got.extend((0..N).filter(is_a).map(|_| rank.recv::<u32>(0, a)));
                got
            }
        });
        let expect: Vec<u32> = (0..N)
            .filter(|i| !is_a(i))
            .chain((0..N).filter(is_a))
            .collect();
        assert_eq!(out[1], expect, "each tag's stream in sending order");
    }

    #[test]
    #[should_panic(expected = "destination rank hung up")]
    fn send_to_a_rank_whose_thread_has_exited_panics() {
        Runtime::new(2, NetModel::free()).run(|rank| {
            if rank.rank() == 1 {
                panic!("rank 1 exits");
            }
            while !rank.shared.mailboxes[1].dead.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // Rank 0's panic is the one `run` re-raises.
            rank.send(1, Tag(0), 0u8);
        });
    }

    #[test]
    fn what_a_rank_delivered_before_dying_is_still_received() {
        let first = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Runtime::new(2, NetModel::free())
                .deadlock_timeout(Duration::from_secs(30))
                .run(|rank| {
                    if rank.rank() == 1 {
                        rank.send(0, Tag(0), 5u8);
                        panic!("rank 1 exits");
                    }
                    while !rank.shared.mailboxes[1].dead.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    first.store(rank.recv::<u8>(1, Tag(0)) == 5, Ordering::SeqCst);
                    rank.recv::<u8>(1, Tag(0)) // never sent
                });
        }));
        let payload = caught.expect_err("the second receive must fail");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(first.load(Ordering::SeqCst), "the delivered message wins");
        assert!(
            msg.contains("from rank 1, which died"),
            "the failed receive must name the dead peer, got: {msg}"
        );
    }

    #[test]
    fn session_panic_propagates_and_poisons() {
        let mut session = Runtime::new(2, NetModel::free()).session();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            session.run(|rank| {
                if rank.rank() == 1 {
                    panic!("rank 1 exploded");
                }
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "rank 1 exploded", "original payload preserved");
        assert!(session.is_poisoned());
        let next = std::panic::catch_unwind(AssertUnwindSafe(|| session.run(|_| ())));
        assert!(next.is_err(), "poisoned session refuses further runs");
    }

    #[test]
    fn panic_next_to_a_collective_fails_the_run_instead_of_hanging() {
        // Rank 2 panics before its allreduce contribution; ranks 0 and 1
        // are stranded in the collective's rendezvous. With std's Barrier
        // they would block forever and the run would hang; the timed wait
        // fails them loudly and the run terminates with a panic within
        // the deadlock timeout.
        #[expect(
            clippy::disallowed_methods,
            reason = "times the deadlock timeout, which is wall-clock by design"
        )]
        let t0 = Instant::now();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Runtime::new(3, NetModel::free())
                .deadlock_timeout(Duration::from_millis(300))
                .run(|rank| {
                    if rank.rank() == 2 {
                        panic!("scorer blew up");
                    }
                    rank.allreduce(1u64, |a, b| a + b)
                });
        }));
        assert!(caught.is_err(), "the run must fail, not hang");
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the failure must arrive within the deadlock timeout, not hang CI"
        );
    }

    #[test]
    fn barrier_timeout_panic_is_diagnostic() {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Runtime::new(2, NetModel::free())
                .deadlock_timeout(Duration::from_millis(200))
                .run(|rank| {
                    if rank.rank() == 0 {
                        rank.barrier(); // rank 1 never joins
                    }
                });
        }));
        let payload = caught.expect_err("stranded barrier must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("deadlocked in a collective barrier"),
            "diagnostic panic expected, got: {msg}"
        );
    }

    #[test]
    fn session_matches_one_shot_run() {
        let runtime = Runtime::new(4, NetModel::blue_waters());
        let job = |rank: &mut Rank| {
            rank.advance(0.25 * (rank.rank() as f64 + 1.0));
            let sum = rank.allreduce(rank.rank() as u64, |a, b| a + b);
            rank.barrier();
            (sum, rank.clock())
        };
        let one_shot = runtime.run(job);
        let mut session = runtime.session();
        for _ in 0..3 {
            assert_eq!(
                session.run(job),
                one_shot,
                "session runs mirror one-shot runs"
            );
        }
    }

    #[test]
    fn recv_timeout_parsing() {
        assert_eq!(parse_recv_timeout(None), RECV_TIMEOUT_DEFAULT);
        assert_eq!(
            parse_recv_timeout(Some("2.5")),
            Duration::from_secs_f64(2.5)
        );
        assert_eq!(parse_recv_timeout(Some(" 30 ")), Duration::from_secs(30));
    }

    #[test]
    #[should_panic(expected = "APC_RECV_TIMEOUT must be a number")]
    fn recv_timeout_rejects_garbage() {
        let _ = parse_recv_timeout(Some("five minutes"));
    }

    #[test]
    #[should_panic(expected = "positive number")]
    fn recv_timeout_rejects_nonpositive() {
        let _ = parse_recv_timeout(Some("0"));
    }
}
