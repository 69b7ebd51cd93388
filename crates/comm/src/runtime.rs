//! The rank runtime: one OS thread per rank, one `Mailbox` per rank under
//! every wait, point-to-point message and collective alike.
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
//! A rank blocks in exactly one place, `Shared::park`: on its own mailbox,
//! for a message or for the release of the collective it arrived at. A
//! mailbox is a mutex over one FIFO per source rank, the owner's release
//! slot and the `Wait` it is parked on, plus a condvar only the owner
//! waits on. A sender — or a collective's last arriver, handing out the
//! release — locks the *destination's* mailbox, puts its item there and
//! wakes the owner only if that is the very thing it is parked on, after
//! unlocking, so the owner does not wake into a held lock. What is already
//! there costs the owner no system call at all, so a message a rank
//! cannot use yet costs its sender no wake-up and its receiver no context
//! switch — with 272 ranks on two cores, wake-ups that end in "not mine,
//! back to sleep" were most of what a replay client did. No thread ever
//! holds two of the runtime's locks, so there is no lock order, and
//! nothing panics while holding one.
//!
//! # When a run is stuck
//!
//! Sends never block, so a run is stuck exactly when every rank is parked
//! or has finished this run's closure (returned or died).
//! `Shared::progress` counts both; a waker uncounts the rank it wakes
//! before unlocking its mailbox, and is itself running, so the count
//! reaches n only when no rank can run. Whoever makes it reach n — by
//! parking or finishing — raises the stuck flag and wakes every parked
//! rank, and each panics naming its own wait: stderr holds the wait-for
//! graph the moment the run stops, with no timeout and no real clock.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::netmodel::NetModel;
use crate::p2p::{Envelope, Lane};

/// A deposited collective contribution: `(epoch, virtual clock, payload)`.
/// The epoch pins the contribution to the session run that deposited it.
pub(crate) type Contribution = (u64, f64, Box<dyn Any + Send + Sync>);

/// What one completed collective hands every participant: the
/// contributions by rank and the latest of their clocks. Shared, so ranks
/// read it concurrently with no lock held; the payloads are freed by the
/// last rank to drop it.
pub(crate) struct Released {
    pub deposits: Vec<Contribution>,
    pub max_clock: f64,
}

/// The meeting point under every collective: each rank takes its mutex
/// once, to deposit its contribution *and* be counted; the last arriver
/// moves the deposits into a fresh [`Released`], drops the lock and only
/// then hands it to every other rank's mailbox ([`Wait::Collective`]).
///
/// No round counter is needed: collective *k + 1* completes only after
/// every rank arrived at it, and a rank arrives there only after it took
/// *k*'s release, so a release slot is never refilled while full and
/// `pending` never mixes two collectives' deposits.
///
/// Unlike `std::sync::Barrier`, a rank stranded here — a peer died before
/// the collective — panics with a diagnostic the moment the run stalls.
/// Nothing panics under the lock: epoch and type checks run on every rank
/// after the release, so a mismatch fails every rank, not the mutex.
struct Meeting {
    /// Contributions to the collective still assembling, by rank.
    pending: Vec<Option<Contribution>>,
    arrived: usize,
    /// How many collectives completed here over the session's life.
    held: u64,
}

/// What a parked rank waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// The first message of this run that this source sent on this lane.
    Message(usize, Lane),
    /// The release of the collective the rank arrived at.
    Collective,
}

/// What a mailbox's mutex guards.
#[derive(Default)]
struct Inbox {
    /// Undelivered envelopes, one FIFO per source rank, grown to a source's
    /// index on its first delivery (a rank that only ever hears from a few
    /// low ranks never holds n of them).
    from: Vec<VecDeque<Envelope>>,
    /// The release of the collective the owner arrived at, until taken.
    released: Option<Arc<Released>>,
    /// What the owner is parked on; set exactly while the owner is counted
    /// parked. Whoever clears it — a delivery of exactly that, or the
    /// awaited source dying — uncounts the owner and wakes it.
    waiting: Option<Wait>,
    /// How often the owner woke from parking: by a delivery, a dying peer,
    /// the stuck flag or spuriously.
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

/// One rank's incoming messages and collective releases. See "Who wakes
/// whom" in the module docs for the protocol.
#[derive(Default)]
pub(crate) struct Mailbox {
    inbox: Mutex<Inbox>,
    /// Signalled when what the owner is parked on arrives, or when the rank
    /// it awaits a message from dies. Only the owner waits on it.
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
}

pub(crate) struct Shared {
    pub nranks: usize,
    pub net: NetModel,
    /// Where every collective meets.
    meeting: Mutex<Meeting>,
    /// Where every rank waits, by rank.
    pub mailboxes: Vec<Mailbox>,
    /// This run's ranks parked in a wait (`PARKED`, the low 32 bits) and
    /// done with its closure (`FINISHED`, the next 31), and the `STUCK`
    /// flag (bit 63). See "When a run is stuck" in the module docs.
    progress: AtomicU64,
}

/// One rank in either field of `Shared::progress`, and its stuck flag.
const PARKED: u64 = 1;
const FINISHED: u64 = 1 << 32;
const STUCK: u64 = 1 << 63;

impl Shared {
    /// Count one rank into `progress` as `PARKED` or `FINISHED`. True iff
    /// that left every rank parked or finished, at least one parked: this
    /// call then raised the stuck flag, and the caller must
    /// `Shared::wake_all` once it holds no lock.
    fn count(&self, one: u64) -> bool {
        let word = self.progress.fetch_add(one, Ordering::SeqCst) + one;
        let (parked, finished) = (word % FINISHED, (word & !STUCK) / FINISHED);
        parked > 0
            && parked + finished == self.nranks as u64
            && self.progress.fetch_or(STUCK, Ordering::SeqCst) & STUCK == 0
    }

    /// Clear `inbox.waiting` if `wakes` picks it, and uncount its owner —
    /// under the mailbox lock, so the owner never runs counted parked.
    fn unpark(&self, inbox: &mut Inbox, wakes: impl FnOnce(&mut Wait) -> bool) -> bool {
        let woke = inbox.waiting.take_if(wakes).is_some();
        if woke {
            self.progress.fetch_sub(PARKED, Ordering::SeqCst);
        }
        woke
    }

    fn stuck(&self) -> bool {
        self.progress.load(Ordering::SeqCst) & STUCK != 0
    }

    /// Count a rank that returned from, or died in, this run's closure.
    fn finish(&self) {
        if self.count(FINISHED) {
            self.wake_all();
        }
    }

    /// Wake every parked rank to find the stuck flag, one mailbox lock at
    /// a time. Each lock is taken after the flag was raised, so a rank
    /// between reading the flag and parking is woken.
    fn wake_all(&self) {
        for mailbox in &self.mailboxes {
            drop(mailbox.lock());
            mailbox.arrived.notify_one();
        }
    }

    /// Let `put` fill `dst`'s inbox, and wake `dst` if it is parked on
    /// exactly `wait`. The one place a rank is handed what it waits for.
    fn hand(&self, dst: usize, wait: Wait, put: impl FnOnce(&mut Inbox)) {
        let mailbox = &self.mailboxes[dst];
        let mut inbox = mailbox.lock();
        put(&mut inbox);
        let wake = self.unpark(&mut inbox, |w| *w == wait);
        drop(inbox);
        if wake {
            // After the unlock, or the owner would wake into a held lock;
            // `notify_one` because only the owner ever waits here.
            mailbox.arrived.notify_one();
        }
    }

    /// Nothing panics under this lock, so even a poisoned one guards a
    /// valid meeting.
    fn lock_meeting(&self) -> MutexGuard<'_, Meeting> {
        self.meeting.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deposit rank `id`'s contribution and wait for everyone else's.
    pub(crate) fn meet(&self, id: usize, mine: Contribution) -> Arc<Released> {
        let mut meeting = self.lock_meeting();
        meeting.pending[id] = Some(mine);
        meeting.arrived += 1;
        if meeting.arrived < self.nranks {
            drop(meeting);
            return self.park(id, Wait::Collective, |inbox| inbox.released.take());
        }
        let deposits: Vec<Contribution> = meeting
            .pending
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        meeting.arrived = 0;
        meeting.held += 1;
        drop(meeting);
        let max_clock = deposits.iter().fold(f64::MIN, |max, d| max.max(d.1));
        let released = Arc::new(Released {
            deposits,
            max_clock,
        });
        for dst in (0..self.nranks).filter(|&dst| dst != id) {
            self.hand(dst, Wait::Collective, |inbox| {
                inbox.released = Some(Arc::clone(&released));
            });
        }
        released
    }

    /// Append `env` to its source's FIFO in `dst`'s mailbox and wake `dst`
    /// if it is parked on exactly this `(source, lane)`. The one place a
    /// message is delivered. Panics if `dst`'s thread is gone.
    pub(crate) fn deliver(&self, dst: usize, env: Envelope) {
        assert!(
            !self.mailboxes[dst].dead.load(Ordering::SeqCst),
            "destination rank hung up"
        );
        self.hand(dst, Wait::Message(env.src, env.lane), |inbox| {
            if inbox.from.len() <= env.src {
                inbox.from.resize_with(env.src + 1, VecDeque::new);
            }
            inbox.from[env.src].push_back(env);
        });
    }

    /// Block rank `id` until `take` finds what it `wait`s for in its own
    /// mailbox, and return that. The one place a rank blocks. Gives up —
    /// with the lock released — when the run is stuck, or when the source
    /// of an awaited message has died without delivering it.
    fn park<T>(&self, id: usize, wait: Wait, mut take: impl FnMut(&mut Inbox) -> Option<T>) -> T {
        let mailbox = &self.mailboxes[id];
        let mut inbox = mailbox.lock();
        let mut flagged = false;
        let stuck = loop {
            if let Some(found) = take(&mut inbox) {
                return found;
            }
            // After the inbox: what a peer delivered before dying still
            // wins. Before parking and after every wake: whoever raises
            // the stuck flag or a dead flag then takes this lock, so either
            // this load sees the flag or that lock sees us parked. Stuck
            // first: in a cycle the flagging rank's own panic kills it, and
            // its peer must still report the stall, not the death.
            if self.stuck() {
                break true;
            }
            if let Wait::Message(src, _) = wait {
                if self.mailboxes[src].dead.load(Ordering::SeqCst) {
                    break false;
                }
            }
            // Set `waiting` means counted parked: a spurious wake-up parks
            // again without counting twice.
            if inbox.waiting.is_none() {
                inbox.waiting = Some(wait);
                flagged = self.count(PARKED);
                if flagged {
                    break true;
                }
            }
            inbox = mailbox
                .arrived
                .wait(inbox)
                .unwrap_or_else(PoisonError::into_inner);
            inbox.wakeups += 1;
        };
        // Still counted parked if no waker cleared `waiting`.
        self.unpark(&mut inbox, |_| true);
        let stashed: usize = inbox.from.iter().map(VecDeque::len).sum();
        drop(inbox);
        if flagged {
            self.wake_all();
        }
        #[expect(
            clippy::panic,
            reason = "what the rank waits for will never come; the panic is the diagnostic"
        )]
        match wait {
            Wait::Collective => {
                let arrived = self.lock_meeting().arrived;
                panic!(
                    "deadlocked in a collective barrier: only {arrived} of {} ranks \
                     arrived (a peer died, returned or diverged)",
                    self.nranks
                )
            }
            Wait::Message(src, lane) => {
                let (stalled, died) = if stuck {
                    ("deadlocked ", String::new())
                } else {
                    ("", format!(" from rank {src}, which died"))
                };
                panic!(
                    "rank {id} {stalled}waiting for message (src={src}, lane={lane:?}){died}; \
                     {stashed} stashed envelopes"
                )
            }
        }
    }
}

/// Lives on a rank thread's stack: when the thread exits — its job loop
/// ended, or something unwound past it — the rank's mailbox is closed,
/// every rank parked on a message from it is woken to fail at once,
/// naming it, and only then is the rank counted finished.
struct HangUp {
    shared: Arc<Shared>,
    id: usize,
}

impl Drop for HangUp {
    fn drop(&mut self) {
        let shared = &*self.shared;
        // Flag first, then one mailbox lock at a time (see `Shared::park`).
        shared.mailboxes[self.id].dead.store(true, Ordering::SeqCst);
        for mailbox in &shared.mailboxes {
            let awaits_me = |w: &mut Wait| matches!(*w, Wait::Message(src, _) if src == self.id);
            if shared.unpark(&mut mailbox.lock(), awaits_me) {
                mailbox.arrived.notify_one();
            }
        }
        // Last, so the ranks woken above report the death, not a stall.
        shared.finish();
    }
}

/// Launch configuration: number of ranks and network model.
#[derive(Debug, Clone)]
pub struct Runtime {
    nranks: usize,
    net: NetModel,
    stack_size: usize,
}

impl Runtime {
    pub fn new(nranks: usize, net: NetModel) -> Self {
        assert!(nranks > 0, "need at least one rank");
        Self {
            nranks,
            net,
            stack_size: 4 << 20,
        }
    }

    /// Per-rank thread stack size (default 4 MiB).
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
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
        let shared = Arc::new(Shared {
            nranks: n,
            net: self.net,
            meeting: Mutex::new(Meeting {
                pending: (0..n).map(|_| None).collect(),
                arrived: 0,
                held: 0,
            }),
            mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
            progress: AtomicU64::new(0),
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
            #[expect(
                clippy::expect_used,
                reason = "OS refusing to spawn a rank thread is unrecoverable at session start"
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
                        met_at: 0.0,
                        shared,
                    };
                    // The job loop: run each dispatched closure, report its
                    // outcome, and stop on the first panic (the session is
                    // poisoned then — the collectives' meeting may be out
                    // of step) or when the session is dropped.
                    while let Ok(job) = job_rx.recv() {
                        rank.begin_run(job.epoch);
                        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            // SAFETY: `Session::run` keeps the closure and
                            // result buffer alive until every rank has
                            // reported its status for this job.
                            unsafe { (job.call)(job.data.0, &mut rank) }
                        }));
                        let failed = result.is_err();
                        if !failed {
                            // Before the status: once every status is in,
                            // `Session::run` may zero the count.
                            rank.shared.finish();
                        }
                        if status_tx.send(result).is_err() || failed {
                            break;
                        }
                    }
                })
                .expect("failed to spawn rank thread");
            job_txs.push(job_tx);
            status_rxs.push(status_rx);
            handles.push(handle);
        }
        Session {
            shared,
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

/// # Safety
///
/// `data` must point at a live `RunCtx<T, F>` whose `results` holds a slot
/// for `rank.id` that no other thread touches meanwhile.
unsafe fn call_spmd<T, F>(data: *const (), rank: &mut Rank)
where
    T: Send,
    F: Fn(&mut Rank) -> T + Sync,
{
    // SAFETY: by the contract above, `data` is a live `RunCtx<T, F>` (the
    // dispatching `Session::run`'s, whose closure and result buffer outlive
    // every rank's report) and `rank.id`'s slot is in bounds and this
    // rank's alone; it holds `None`, so plain assignment drops nothing.
    unsafe {
        let ctx = &*(data as *const RunCtx<T, F>);
        let out = (&*ctx.f)(rank);
        *ctx.results.add(rank.id) = Some(out);
    }
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
/// payload and **poisons** the session (the collectives' meeting may be
/// out of step); later runs panic immediately. Dropping the session joins the
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
    shared: Arc<Shared>,
    epoch: u64,
    poisoned: bool,
    job_txs: Vec<Sender<RawJob>>,
    status_rxs: Vec<Receiver<RunStatus>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Session {
    pub fn nranks(&self) -> usize {
        self.shared.nranks
    }

    /// Whether an earlier run panicked, making the session unusable.
    // apc-lint: allow(dead-pub): session_stress and runtime tests assert a panic poisons the session
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// How many collectives, barriers included, the ranks have met for
    /// since the session was spawned.
    // apc-lint: allow(dead-pub): the sort, collective and pipeline tests pin meetings per call
    pub fn meetings(&self) -> u64 {
        self.shared.lock_meeting().held
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
        // No rank is in a run: each counted itself finished before its
        // status came in, and a run that panicked poisoned the session.
        self.shared.progress.store(0, Ordering::SeqCst);
        let n = self.shared.nranks;
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
        #[expect(
            clippy::panic,
            reason = "a dead rank thread poisons the session; failing the run loudly is the contract"
        )]
        if dispatch_failed {
            self.poisoned = true;
            panic!("a rank thread died outside a run; session unusable");
        }
        #[expect(
            clippy::expect_used,
            reason = "the panic/dispatch checks above returned early on any failure"
        )]
        results
            .into_iter()
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
    /// See [`Rank::met_at`].
    pub(crate) met_at: f64,
    /// The session's meeting points: the collectives' meeting, and every
    /// rank's mailbox — this rank takes from `mailboxes[id]` and delivers
    /// into its destinations'.
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
        self.met_at = 0.0;
        let mut inbox = self.shared.mailboxes[self.id].lock();
        for fifo in &mut inbox.from {
            fifo.retain(|env| env.epoch == epoch);
        }
        // Every rank that arrived at an earlier run's collective took its
        // release before that run ended, and no collective of this run can
        // complete before this rank arrives at it.
        let stale = inbox.released.is_some();
        drop(inbox);
        debug_assert!(!stale, "a release outlived its run");
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

    /// The clock this rank's last collective met at: the latest clock any
    /// rank arrived there with, before the collective's own charge (0
    /// before the run's first). Point-to-point traffic leaves it alone.
    pub fn met_at(&self) -> f64 {
        self.met_at
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
    /// `lane` is in this rank's mailbox, and remove it (see `Shared::park`).
    pub(crate) fn pop_matching(&mut self, src: usize, lane: Lane) -> Envelope {
        let epoch = self.epoch;
        self.shared
            .park(self.id, Wait::Message(src, lane), |inbox| {
                inbox.pop(src, lane, epoch)
            })
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

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
                while rank.shared.mailboxes[0].lock().waiting
                    != Some(Wait::Message(2, Lane::User(awaited)))
                {
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
            Runtime::new(2, NetModel::free()).run(|rank| {
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
        // they would block forever and the run would hang; here the dying
        // rank's count stalls the run and fails them at once.
        #[expect(
            clippy::disallowed_methods,
            reason = "test-only wall clock: bounds how long the stall takes to surface"
        )]
        let t0 = Instant::now();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Runtime::new(3, NetModel::free()).run(|rank| {
                if rank.rank() == 2 {
                    panic!("scorer blew up");
                }
                rank.allreduce(1u64, |a, b| a + b)
            });
        }));
        assert!(caught.is_err(), "the run must fail, not hang");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the failure must arrive when the run stalls, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn stranded_barrier_panic_is_diagnostic() {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Runtime::new(2, NetModel::free()).run(|rank| {
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
}
