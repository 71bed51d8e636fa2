//! Per-layer counters and the wrappers that feed them.
//!
//! Every wrapper sits on a seam the crates already expose — the
//! `ba_fmine::Eligibility` oracle, a node's `ba_sim::Protocol`, the
//! `ba_sim::Transport` and the `ba_sim::Adversary` — and times the calls
//! crossing it. Nothing inside the crates is instrumented.
//!
//! Totals are process-wide atomics (one process runs one workload). Self
//! time needs nesting: an adversary or a protocol step can call into the
//! oracle, so each thread also keeps its own running sums, and a wrapper
//! subtracts the oracle time that accrued on its thread while it ran.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use ba_fmine::{Eligibility, MineTag, Ticket};
use ba_sim::{
    AdvCtx, Adversary, Envelope, FaultStats, Incoming, Message, NodeId, Outbox, Protocol,
    Recipient, Round, Transport, TransportStats,
};

use crate::arith::self_time;

/// Calls into one layer and the nanoseconds they took.
pub struct Timed {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Timed {
    const fn new() -> Timed {
        Timed { calls: AtomicU64::new(0), ns: AtomicU64::new(0) }
    }

    fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.ns.load(Relaxed) as f64 * 1e-9
    }
}

pub static WOULD_MINE: Timed = Timed::new();
pub static WOULD_MINE_HITS: AtomicU64 = AtomicU64::new(0);
pub static MINE: Timed = Timed::new();
pub static VERIFY: Timed = Timed::new();
pub static VERIFY_BATCH: Timed = Timed::new();
pub static VERIFY_BATCH_ITEMS: AtomicU64 = AtomicU64::new(0);
/// Trusted-setup constructors (eligibility backends, keychains,
/// forward-secure key services).
pub static SETUP: Timed = Timed::new();
/// Protocol steps; `ns` is self time (oracle time inside the step removed).
pub static STEP: Timed = Timed::new();
pub static STEP_MAX_NS: AtomicU64 = AtomicU64::new(0);
/// Transport submit + deliver; `calls` counts delivered copies.
pub static TRANSPORT: Timed = Timed::new();
/// Adversary hooks; `ns` is self time (oracle time inside removed).
pub static ADVERSARY: Timed = Timed::new();
/// Whole executions; `ns` is the engine's self time (everything not spent
/// in a step, the transport, the adversary or the oracle on this thread).
pub static ENGINE: Timed = Timed::new();
pub static EXEC_NS: AtomicU64 = AtomicU64::new(0);

/// Per-thread running sums of the time already charged to a layer, used
/// to take nested spans out of their parents.
#[derive(Clone, Copy)]
struct Local {
    fmine: u64,
    charged: u64,
}

thread_local! {
    static LOCAL: Cell<Local> = const { Cell::new(Local { fmine: 0, charged: 0 }) };
}

fn local() -> Local {
    LOCAL.with(Cell::get)
}

fn nanos(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Times one oracle call.
fn fmine<T>(layer: &Timed, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let ns = nanos(start);
    layer.add(ns);
    LOCAL.with(|l| {
        let mut v = l.get();
        v.fmine += ns;
        v.charged += ns;
        l.set(v);
    });
    out
}

/// Times a call whose own span may contain oracle calls; charges its self
/// time to `layer` and returns the self time.
fn with_self_time<T>(layer: &Timed, f: impl FnOnce() -> T) -> (T, u64) {
    let before = local().fmine;
    let start = Instant::now();
    let out = f();
    let own = self_time(nanos(start), local().fmine - before);
    layer.add(own);
    LOCAL.with(|l| {
        let mut v = l.get();
        v.charged += own;
        l.set(v);
    });
    (out, own)
}

/// Times one trusted-setup constructor.
pub fn setup<T>(f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    SETUP.add(nanos(start));
    out
}

/// Times one whole execution on the calling thread and charges what no
/// wrapped layer on this thread accounts for to the engine.
pub fn execution<T>(f: impl FnOnce() -> T) -> T {
    let before = local().charged;
    let start = Instant::now();
    let out = f();
    let total = nanos(start);
    EXEC_NS.fetch_add(total, Relaxed);
    ENGINE.add(self_time(total, local().charged - before));
    out
}

/// An [`Eligibility`] backend that counts and times every call.
pub struct TracedElig(pub Arc<dyn Eligibility>);

impl Eligibility for TracedElig {
    fn mine(&self, node: NodeId, tag: &MineTag) -> Option<Ticket> {
        fmine(&MINE, || self.0.mine(node, tag))
    }

    fn would_mine(&self, node: NodeId, tag: &MineTag) -> bool {
        let hit = fmine(&WOULD_MINE, || self.0.would_mine(node, tag));
        if hit {
            WOULD_MINE_HITS.fetch_add(1, Relaxed);
        }
        hit
    }

    fn verify(&self, node: NodeId, tag: &MineTag, ticket: &Ticket) -> bool {
        fmine(&VERIFY, || self.0.verify(node, tag, ticket))
    }

    fn verify_batch(&self, items: &[(NodeId, &MineTag, &Ticket)]) -> bool {
        VERIFY_BATCH_ITEMS.fetch_add(items.len() as u64, Relaxed);
        fmine(&VERIFY_BATCH, || self.0.verify_batch(items))
    }

    fn supports_batch(&self) -> bool {
        self.0.supports_batch()
    }

    fn lambda(&self) -> f64 {
        self.0.lambda()
    }

    fn n(&self) -> usize {
        self.0.n()
    }
}

/// A node whose steps are counted and timed.
pub struct TracedNode<P>(pub P);

impl<M, P: Protocol<M>> Protocol<M> for TracedNode<P> {
    fn step(&mut self, round: Round, inbox: &[Incoming<M>], out: &mut Outbox<M>) {
        let ((), own) = with_self_time(&STEP, || self.0.step(round, inbox, out));
        STEP_MAX_NS.fetch_max(own, Relaxed);
    }

    fn output(&self) -> Option<ba_sim::Bit> {
        self.0.output()
    }

    fn halted(&self) -> bool {
        self.0.halted()
    }
}

/// A delivery backend whose submit/deliver calls are timed and whose
/// delivered copies are counted.
pub struct TracedTransport<M>(pub Box<dyn Transport<M>>);

impl<M: Message> Transport<M> for TracedTransport<M> {
    fn submit(&mut self, round: Round, envelopes: Vec<Envelope<M>>) {
        let start = Instant::now();
        self.0.submit(round, envelopes);
        charge_transport(nanos(start), 0);
    }

    fn deliver(&mut self, round: Round, inboxes: &mut [Vec<Incoming<M>>]) {
        let start = Instant::now();
        let before: usize = inboxes.iter().map(Vec::len).sum();
        self.0.deliver(round, inboxes);
        let after: usize = inboxes.iter().map(Vec::len).sum();
        charge_transport(nanos(start), (after - before) as u64);
    }

    fn in_flight(&self) -> usize {
        self.0.in_flight()
    }

    fn finish(&mut self, rounds_used: u64) -> Option<TransportStats> {
        self.0.finish(rounds_used)
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        self.0.fault_stats()
    }
}

fn charge_transport(ns: u64, copies: u64) {
    TRANSPORT.calls.fetch_add(copies, Relaxed);
    TRANSPORT.ns.fetch_add(ns, Relaxed);
    LOCAL.with(|l| {
        let mut v = l.get();
        v.charged += ns;
        l.set(v);
    });
}

/// An adversary whose hooks are counted and timed.
pub struct TracedAdversary<M>(pub Box<dyn Adversary<M> + Send>);

impl<M: Message> Adversary<M> for TracedAdversary<M> {
    fn setup(&mut self, ctx: &mut AdvCtx<'_, M>) {
        with_self_time(&ADVERSARY, || self.0.setup(ctx));
    }

    fn filter_corrupt_inbox(
        &mut self,
        node: NodeId,
        inbox: Vec<Incoming<M>>,
        round: Round,
    ) -> Vec<Incoming<M>> {
        with_self_time(&ADVERSARY, || self.0.filter_corrupt_inbox(node, inbox, round)).0
    }

    fn corrupt_outbox(
        &mut self,
        node: NodeId,
        planned: Vec<(Recipient, M)>,
        round: Round,
    ) -> Vec<(Recipient, M)> {
        with_self_time(&ADVERSARY, || self.0.corrupt_outbox(node, planned, round)).0
    }

    fn intervene(&mut self, ctx: &mut AdvCtx<'_, M>) {
        with_self_time(&ADVERSARY, || self.0.intervene(ctx));
    }
}
