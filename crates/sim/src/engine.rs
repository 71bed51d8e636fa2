//! The synchronous round-driving engine.
//!
//! One [`Sim`] = one execution of a protocol `Π` with an environment-supplied
//! input vector, an adversary `A`, and a corruption model — a sample of the
//! paper's `EXEC_Π(A, Z, κ)`. [`Sim::run`] is the only round loop and
//! `step_round` the only round body in this crate.
//!
//! # Population policies
//!
//! Which node instances exist is a policy inside the one `Sim`:
//!
//! * **dense** — all `n` nodes are built up front, their inboxes are
//!   recycled buffers swapped every round, and delivery goes through the
//!   [`Transport`] seam;
//! * **sparse** ([`crate::population`]) — only live nodes exist; two ghosts
//!   and a retained multicast history stand in for the silent majority.
//!
//! Setup, honest and corrupt stepping, the node-id-order merge, send
//! metering, intervention and envelope validation are shared. The sparse
//! policy adds four hooks: round-start activation, the live set as the
//! nodes to step, ghost mirroring plus late materialization (after the merge
//! and after `intervene`), and its own delivery and `peak_*` gauges.
//!
//! # In-execution parallelism
//!
//! Each round runs in three phases: honest nodes step on up to
//! [`SimConfig::threads`] scoped worker threads (their steps are
//! independent — each touches only its own state and inbox), corrupt nodes
//! step serially through the one mutable adversary in node-id order, and the
//! per-node results merge back in node-id order (message ids, metrics,
//! output bookkeeping). Per-node protocol randomness is derived from the run
//! seed at construction, never from ambient entropy, so reports are
//! **byte-identical at every thread count** — the knob only buys wall-clock
//! on large-`n` executions with real cryptography.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::{AdvCtx, AdvWorld, Adversary, CorruptionModel};
use crate::ids::{Bit, NodeId, Round};
use crate::message::{Envelope, Incoming, Message, MsgId, Outbox, Recipient};
use crate::metrics::Metrics;
use crate::population::{PopulationMode, Sparse};
use crate::protocol::Protocol;
use crate::transport::fault::FaultyTransport;
use crate::transport::latency::LatencyTransport;
use crate::transport::lockstep::LockstepTransport;
use crate::transport::{finalize_latency, BaseTransport, Transport, TransportSpec};

/// The per-node deterministic seed handed to protocol factories — shared by
/// both population policies so a lazily materialized node draws exactly the
/// randomness its dense twin drew.
pub(crate) fn node_seed(run_seed: u64, node: usize) -> u64 {
    run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(node as u64)
}

/// Builds one of the base delivery backends `ba-sim` can construct itself
/// (shared by the bare dispatch in [`Sim::new`] and the fault wrapper's
/// inner-backend construction).
fn build_base_transport<M: Message + Send + Sync + 'static>(
    config: &SimConfig,
    base: BaseTransport,
) -> Box<dyn Transport<M>> {
    match base {
        BaseTransport::Lockstep => Box::new(LockstepTransport::new()),
        BaseTransport::Latency { round_ms, gst_ms, dist } => {
            Box::new(LatencyTransport::new(config.n, round_ms, gst_ms, dist, config.seed))
        }
        BaseTransport::Tcp => panic!(
            "the TCP transport needs real sockets, which live outside ba-sim; \
             construct the execution through ba-net (or Sim::new_with_transport)"
        ),
    }
}

/// Static configuration of an execution.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of nodes `n`.
    pub n: usize,
    /// Corruption budget `f`.
    pub f: usize,
    /// Corruption model in force.
    pub model: CorruptionModel,
    /// Hard round cap (executions that run this long are termination
    /// failures).
    pub max_rounds: u64,
    /// Seed for the adversary's randomness.
    pub seed: u64,
    /// Worker threads stepping honest nodes *within* each round of this one
    /// execution (`1` = fully serial). A pure wall-clock knob: outboxes are
    /// merged in node-id order and per-node randomness is derived from
    /// `seed` at construction, so every value produces byte-identical
    /// reports. Worth raising for large `n` with real cryptography; the
    /// per-round fork/join overhead dominates on small executions.
    pub threads: usize,
    /// Population policy requested for this execution. Like
    /// [`SimConfig::threads`] this is a resource knob, not a protocol
    /// parameter: both policies run through the same [`Sim`] round loop,
    /// the sparse one adding activation, mirroring and its own delivery
    /// (see [`crate::population`]). Wherever a protocol family supports
    /// the sparse policy the report is byte-identical to dense mode, and
    /// families that cannot run sparsely (full-participation regimes,
    /// id-dependent leader oracles) silently fall back to dense.
    pub population: PopulationMode,
    /// Delivery backend for this execution (see [`crate::transport`]). The
    /// default lockstep backend reproduces the pre-seam engine
    /// byte-for-byte; the latency backend changes *when* messages arrive
    /// and is therefore a protocol-visible parameter, not a resource knob.
    pub transport: TransportSpec,
}

impl SimConfig {
    /// Convenience constructor with the given model and an adversary seed.
    pub fn new(n: usize, f: usize, model: CorruptionModel, seed: u64) -> SimConfig {
        SimConfig {
            n,
            f,
            model,
            max_rounds: 10_000,
            seed,
            threads: 1,
            population: PopulationMode::Dense,
            transport: TransportSpec::Lockstep,
        }
    }

    /// Sets the in-execution worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> SimConfig {
        self.threads = threads.max(1);
        self
    }

    /// Sets the population policy (builder style).
    pub fn with_population(mut self, population: PopulationMode) -> SimConfig {
        self.population = population;
        self
    }

    /// Sets the delivery backend (builder style).
    pub fn with_transport(mut self, transport: TransportSpec) -> SimConfig {
        self.transport = transport;
        self
    }
}

/// Everything recorded about one finished execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Per-node decided outputs (index = node id).
    pub outputs: Vec<Option<Bit>>,
    /// Round at which each node first reported an output.
    pub output_rounds: Vec<Option<Round>>,
    /// Round at which each node was corrupted (`None` = forever honest).
    pub corrupt_at: Vec<Option<Round>>,
    /// Whether each node halted before the round cap.
    pub halted: Vec<bool>,
    /// Communication and adversary-action counters.
    pub metrics: Metrics,
    /// Rounds actually executed.
    pub rounds_used: u64,
    /// The inputs the environment supplied (echoed for verdict evaluation).
    pub inputs: Vec<Bit>,
}

impl RunReport {
    /// Iterator over forever-honest node indices.
    pub fn forever_honest(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.corrupt_at.iter().enumerate().filter(|(_, c)| c.is_none()).map(|(i, _)| NodeId(i))
    }
}

/// A type-erased protocol instance that can cross thread boundaries (sweep
/// harnesses build whole executions on worker threads).
pub type BoxedProtocol<M> = Box<dyn Protocol<M> + Send>;

/// A single synchronous execution.
///
/// # Examples
///
/// ```
/// use ba_sim::adversary::{CorruptionModel, Passive};
/// use ba_sim::engine::{Sim, SimConfig};
/// use ba_sim::ids::{Bit, NodeId, Round};
/// use ba_sim::message::{Incoming, Message, Outbox};
/// use ba_sim::protocol::Protocol;
///
/// // A one-round "echo my input" protocol.
/// #[derive(Clone, Debug)]
/// struct Vote(Bit);
/// impl Message for Vote {
///     fn size_bits(&self) -> usize { 1 }
/// }
/// struct Echo { input: Bit, done: Option<Bit> }
/// impl Protocol<Vote> for Echo {
///     fn step(&mut self, round: Round, inbox: &[Incoming<Vote>], out: &mut Outbox<Vote>) {
///         match round.0 {
///             0 => out.multicast(Vote(self.input)),
///             _ => {
///                 let ones = inbox.iter().filter(|m| m.msg.0).count();
///                 self.done = Some(ones * 2 > inbox.len());
///             }
///         }
///     }
///     fn output(&self) -> Option<Bit> { self.done }
///     fn halted(&self) -> bool { self.done.is_some() }
/// }
///
/// let config = SimConfig::new(4, 0, CorruptionModel::Static, 7);
/// let inputs = vec![true, true, true, false];
/// let report = Sim::run_protocol(&config, inputs.clone(), Passive, |id, _seed| {
///     Box::new(Echo { input: inputs[id.index()], done: None })
/// });
/// assert!(report.outputs.iter().all(|o| *o == Some(true)));
/// ```
pub struct Sim<M, A> {
    population: Population<M>,
    world: AdvWorld<M>,
    adversary: A,
    metrics: Metrics,
    output_rounds: Vec<Option<Round>>,
    max_rounds: u64,
    /// In-execution worker count (see [`SimConfig::threads`]).
    threads: usize,
    rng: StdRng,
}

/// The node set of an execution (see the module docs).
pub(crate) enum Population<M> {
    /// Every node materialized up front.
    Dense {
        nodes: Vec<BoxedProtocol<M>>,
        /// Inboxes being filled for the next round.
        inboxes: Vec<Vec<Incoming<M>>>,
        /// Recycled buffers holding the round currently being consumed;
        /// swapped with `inboxes` each round so no per-round allocation
        /// happens at steady state.
        current: Vec<Vec<Incoming<M>>>,
        /// Delivery backend (see [`crate::transport`]). The engine
        /// validates envelopes (removal flags, unicast ranges) and meters
        /// them; the transport alone decides arrival rounds.
        transport: Box<dyn Transport<M>>,
    },
    /// Live nodes only; ghosts mirror the silent majority.
    Sparse(Sparse<M>),
}

/// One node's place in a round: its id, its state and inbox (borrowed from
/// the population), and what its step produced. Honest steps fill their own
/// seat on worker threads; the merge then reads the seats in node-id order.
struct Seat<'a, M> {
    id: usize,
    node: &'a mut BoxedProtocol<M>,
    inbox: &'a mut Vec<Incoming<M>>,
    step: Option<NodeStep<M>>,
}

/// What one node's step produced.
struct NodeStep<M> {
    /// The node's (possibly adversary-rewritten) sends, in outbox order.
    sends: Vec<(Recipient, M)>,
    /// Whether the node was so-far-honest when it stepped.
    honest: bool,
    /// `output()` after the step (honest nodes only).
    output: Option<Bit>,
    /// `halted()` after the step (honest nodes only).
    halted: bool,
}

/// Records an honest node's `output()`/`halted()` after its step in `round`
/// as reported to the environment: the first output sticks, with its round.
pub(crate) fn record_honest<M>(
    world: &mut AdvWorld<M>,
    output_rounds: &mut [Option<Round>],
    i: usize,
    output: Option<Bit>,
    halted: bool,
    round: Round,
) {
    if let Some(bit) = output {
        if world.outputs[i].is_none() {
            world.outputs[i] = Some(bit);
            output_rounds[i] = Some(round);
        }
    }
    world.halted[i] = halted;
}

impl<M: Message + Send + Sync + 'static> Population<M> {
    /// Round start: dense swaps the filled inboxes into the recycled
    /// buffers (cleared, capacity retained, last round); sparse activates
    /// the oracle's candidates.
    fn begin_round(&mut self, round: Round, n: usize) {
        match self {
            Population::Dense { inboxes, current, .. } => std::mem::swap(inboxes, current),
            Population::Sparse(sparse) => sparse.activate(round, n),
        }
    }

    /// The nodes to step this round, in node-id order.
    fn seats(&mut self) -> Vec<Seat<'_, M>> {
        let seat = |(id, node, inbox)| Seat { id, node, inbox, step: None };
        match self {
            Population::Dense { nodes, current, .. } => nodes
                .iter_mut()
                .zip(current.iter_mut())
                .enumerate()
                .map(|(id, (node, inbox))| seat((id, node, inbox)))
                .collect(),
            Population::Sparse(sparse) => sparse.live_nodes().map(seat).collect(),
        }
    }

    /// Hands the round's validated envelopes to the recipients and returns
    /// the messages now resident (queued for next round or in flight).
    fn deliver(&mut self, round: Round, envelopes: Vec<Envelope<M>>) -> u64 {
        match self {
            Population::Dense { inboxes, transport, .. } => {
                transport.submit(round, envelopes);
                transport.deliver(round.next(), inboxes);
                inboxes.iter().map(|b| b.len() as u64).sum::<u64>() + transport.in_flight() as u64
            }
            Population::Sparse(sparse) => sparse.deliver(round, envelopes),
        }
    }

    /// Materialized protocol instances (ghosts excluded). Never shrinks
    /// during a run, so its final value is the high-water mark.
    fn live(&self) -> usize {
        match self {
            Population::Dense { nodes, .. } => nodes.len(),
            Population::Sparse(sparse) => sparse.live(),
        }
    }
}

impl<M: Message + Send + Sync + 'static, A: Adversary<M>> Sim<M, A> {
    /// Builds an execution. `factory(id, seed)` constructs node `id`'s
    /// protocol instance; `seed` is a per-node deterministic seed derived
    /// from `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != config.n` or `config.f >= config.n`.
    pub fn new(
        config: &SimConfig,
        inputs: Vec<Bit>,
        adversary: A,
        factory: impl FnMut(NodeId, u64) -> BoxedProtocol<M>,
    ) -> Sim<M, A> {
        let transport: Box<dyn Transport<M>> = match config.transport {
            TransportSpec::Lockstep => build_base_transport(config, BaseTransport::Lockstep),
            TransportSpec::Latency { round_ms, gst_ms, dist } => {
                build_base_transport(config, BaseTransport::Latency { round_ms, gst_ms, dist })
            }
            TransportSpec::Tcp => build_base_transport(config, BaseTransport::Tcp),
            TransportSpec::Faulty { inner, plan } => Box::new(FaultyTransport::new(
                build_base_transport(config, inner),
                plan,
                config.n,
                config.seed,
            )),
        };
        Sim::new_with_transport(config, inputs, adversary, factory, transport)
    }

    /// Like [`Sim::new`], with a caller-provided delivery backend — the
    /// injection point for transports `ba-sim` cannot build itself (real
    /// I/O, e.g. `ba-net`'s TCP loopback backend).
    pub fn new_with_transport(
        config: &SimConfig,
        inputs: Vec<Bit>,
        adversary: A,
        mut factory: impl FnMut(NodeId, u64) -> BoxedProtocol<M>,
        transport: Box<dyn Transport<M>>,
    ) -> Sim<M, A> {
        let n = config.n;
        Sim::with_population(config, inputs, adversary, || Population::Dense {
            nodes: (0..n).map(|i| factory(NodeId(i), node_seed(config.seed, i))).collect(),
            inboxes: vec![Vec::new(); n],
            current: vec![Vec::new(); n],
            transport,
        })
    }

    /// Builds an execution over the node set `population()` returns.
    pub(crate) fn with_population(
        config: &SimConfig,
        inputs: Vec<Bit>,
        adversary: A,
        population: impl FnOnce() -> Population<M>,
    ) -> Sim<M, A> {
        assert_eq!(inputs.len(), config.n, "one input per node");
        assert!(config.f < config.n, "corruption budget must leave one honest node");
        let world = AdvWorld {
            model: config.model,
            f: config.f,
            round: Round::ZERO,
            in_setup: false,
            corrupt_at: vec![None; config.n],
            pending: Vec::new(),
            injected: Vec::new(),
            next_msg_id: 0,
            inputs,
            outputs: vec![None; config.n],
            halted: vec![false; config.n],
            removals: 0,
        };
        Sim {
            population: population(),
            world,
            adversary,
            metrics: Metrics::default(),
            output_rounds: vec![None; config.n],
            max_rounds: config.max_rounds,
            threads: config.threads.max(1),
            rng: StdRng::seed_from_u64(config.seed ^ 0xAD5E_55A1_D0BE_EF00),
        }
    }

    /// Convenience: build and run to completion in one call. With a `Send`
    /// factory and adversary the whole call can be captured in a
    /// `FnOnce + Send` closure and dispatched onto a worker thread — how
    /// sweep harnesses fan executions out (*across*-run parallelism;
    /// [`SimConfig::threads`] controls the *within*-run worker count).
    pub fn run_protocol(
        config: &SimConfig,
        inputs: Vec<Bit>,
        adversary: A,
        factory: impl FnMut(NodeId, u64) -> BoxedProtocol<M>,
    ) -> RunReport {
        Sim::new(config, inputs, adversary, factory).run()
    }

    /// Builds with an injected delivery backend and runs to completion (see
    /// [`Sim::new_with_transport`]).
    pub fn run_with_transport(
        config: &SimConfig,
        inputs: Vec<Bit>,
        adversary: A,
        factory: impl FnMut(NodeId, u64) -> BoxedProtocol<M>,
        transport: Box<dyn Transport<M>>,
    ) -> RunReport {
        Sim::new_with_transport(config, inputs, adversary, factory, transport).run()
    }

    /// Runs the execution to completion (all honest nodes halted, or the
    /// round cap reached) and returns the report.
    pub fn run(mut self) -> RunReport {
        // Setup phase: static adversaries corrupt here.
        self.world.in_setup = true;
        {
            let mut ctx = AdvCtx { world: &mut self.world, rng: &mut self.rng };
            self.adversary.setup(&mut ctx);
        }
        self.world.in_setup = false;
        // Setup-corrupted sparse nodes are live from the start (no rounds
        // to replay yet).
        if let Population::Sparse(sparse) = &mut self.population {
            sparse.materialize_corrupt(&self.world.corrupt_at, 0);
        }

        let mut rounds_used = 0;
        for r in 0..self.max_rounds {
            let round = Round(r);
            self.world.round = round;
            rounds_used = r + 1;
            self.step_round(round);
            // Execution ends when every so-far-honest node has halted.
            let all_honest_halted = (0..self.n())
                .filter(|&i| self.world.corrupt_at[i].is_none())
                .all(|i| self.world.halted[i]);
            if all_honest_halted {
                break;
            }
        }

        self.metrics.rounds = rounds_used;
        self.metrics.corruptions =
            self.world.corrupt_at.iter().filter(|c| c.is_some()).count() as u64;
        self.metrics.removals = self.world.removals as u64;
        self.metrics.peak_live_nodes = self.population.live() as u64;
        if let Population::Dense { transport, .. } = &mut self.population {
            self.metrics.latency = transport
                .finish(rounds_used)
                .map(|stats| finalize_latency(stats, &self.output_rounds, &self.world.corrupt_at));
            // Read after finish(): still-held copies have been folded into
            // the fault wrapper's undelivered count by then.
            self.metrics.faults = transport.fault_stats();
        }
        RunReport {
            outputs: self.world.outputs,
            output_rounds: self.output_rounds,
            corrupt_at: self.world.corrupt_at,
            halted: self.world.halted,
            metrics: self.metrics,
            rounds_used,
            inputs: self.world.inputs,
        }
    }

    fn n(&self) -> usize {
        self.world.corrupt_at.len()
    }

    fn step_round(&mut self, round: Round) {
        let n = self.n();
        // 1. Round start (dense inbox swap, sparse activation).
        self.population.begin_round(round, n);
        let mut seats = self.population.seats();

        // 2a. Step every so-far-honest node, on worker threads when
        // configured. Corruption only happens in `setup`/`intervene`, so the
        // corrupt set is frozen for the whole phase, honest steps touch
        // nothing but their own node state and inbox, and each result lands
        // in its node's seat — the later merge is order-independent.
        {
            let corrupt_at = &self.world.corrupt_at;
            let halted = &self.world.halted;
            let step_honest = |seat: &mut Seat<'_, M>| {
                if corrupt_at[seat.id].is_some() {
                    return; // stepped serially in phase 2b
                }
                if halted[seat.id] {
                    seat.inbox.clear();
                    return; // halted honest nodes stay silent
                }
                let mut outbox = Outbox::new();
                seat.node.step(round, seat.inbox, &mut outbox);
                seat.inbox.clear();
                seat.step = Some(NodeStep {
                    sends: outbox.take(),
                    honest: true,
                    output: seat.node.output(),
                    halted: seat.node.halted(),
                });
            };
            let workers = self.threads.min(seats.len()).max(1);
            if workers <= 1 {
                seats.iter_mut().for_each(step_honest);
            } else {
                let chunk = seats.len().div_ceil(workers);
                std::thread::scope(|scope| {
                    for part in seats.chunks_mut(chunk) {
                        let step_honest = &step_honest;
                        scope.spawn(move || part.iter_mut().for_each(step_honest));
                    }
                });
            }
        }

        // 2b. Step corrupt nodes serially, in node-id order: the adversary
        // is one mutable strategy object, and keeping its inbox-filter /
        // outbox-rewrite call sequence identical to the serial engine is
        // part of the byte-identity contract.
        for seat in seats.iter_mut().filter(|s| self.world.corrupt_at[s.id].is_some()) {
            let node = NodeId(seat.id);
            let inbox = std::mem::take(seat.inbox);
            let mut filtered = self.adversary.filter_corrupt_inbox(node, inbox, round);
            let mut outbox = Outbox::new();
            seat.node.step(round, &filtered, &mut outbox);
            // Recycle whichever buffer the adversary handed back so corrupt
            // nodes keep their inbox capacity too.
            filtered.clear();
            *seat.inbox = filtered;
            let sends = self.adversary.corrupt_outbox(node, outbox.take(), round);
            seat.step = Some(NodeStep { sends, honest: false, output: None, halted: false });
        }

        // 2c. Merge in node-id order: message ids, envelopes, and
        // output/halt bookkeeping come out exactly as the serial
        // interleaving produced them. Sparse silent nodes have no sends by
        // definition, so skipping them leaves the message-id sequence as the
        // dense policy assigns it.
        let mut pending: Vec<Envelope<M>> = Vec::new();
        for seat in seats {
            let Some(step) = seat.step else { continue };
            for (to, msg) in step.sends {
                let id = MsgId(self.world.next_msg_id);
                self.world.next_msg_id += 1;
                pending.push(Envelope {
                    id,
                    from: NodeId(seat.id),
                    to,
                    round,
                    honest_send: step.honest,
                    removed: false,
                    msg: Arc::new(msg),
                });
            }
            if step.honest {
                let (world, rounds) = (&mut self.world, &mut self.output_rounds);
                record_honest(world, rounds, seat.id, step.output, step.halted, round);
            }
        }
        if let Population::Sparse(sparse) = &mut self.population {
            sparse.mirror(round, &mut self.world, &mut self.output_rounds);
        }

        // 3. Meter sends (Definition 7 counts messages *sent* by honest
        // nodes, regardless of later removal).
        for env in &pending {
            match (env.honest_send, env.to) {
                (true, Recipient::All) => {
                    self.metrics.honest_multicasts += 1;
                    self.metrics.honest_multicast_bits += env.msg.size_bits() as u64;
                    self.metrics.honest_cert_bits += env.msg.cert_bits() as u64;
                }
                (true, Recipient::One(_)) => {
                    self.metrics.honest_unicasts += 1;
                    self.metrics.honest_unicast_bits += env.msg.size_bits() as u64;
                    self.metrics.honest_cert_bits += env.msg.cert_bits() as u64;
                }
                (false, _) => {
                    self.metrics.corrupt_sends += 1;
                    self.metrics.corrupt_bits += env.msg.size_bits() as u64;
                }
            }
        }

        // 4. Adversary intervention: observe, corrupt, remove, inject.
        self.world.pending = pending;
        {
            let mut ctx = AdvCtx { world: &mut self.world, rng: &mut self.rng };
            self.adversary.intervene(&mut ctx);
        }
        let injected = std::mem::take(&mut self.world.injected);
        for env in &injected {
            self.metrics.corrupt_sends += 1;
            self.metrics.corrupt_bits += env.msg.size_bits() as u64;
            self.metrics.injected_sends += 1;
            debug_assert!(!env.honest_send);
        }
        let mut deliverable = std::mem::take(&mut self.world.pending);
        deliverable.extend(injected);
        // A sparse node corrupted this round while silent stepped honestly
        // through round `r` in its dense twin, so its replay includes `r`.
        if let Population::Sparse(sparse) = &mut self.population {
            sparse.materialize_corrupt(&self.world.corrupt_at, round.0 + 1);
        }

        // 5. Validate what survived and deliver it. Dense hands it to the
        // transport, which alone decides each copy's arrival round, then
        // drains everything arriving by the start of the next round into the
        // inboxes (under lockstep that is the entire submission; a multicast
        // still shares one `Arc` across all n recipients — no payload
        // deep-clone in the fan-out). Sparse fans out to the live set.
        let mut dropped = 0u64;
        deliverable.retain(|env| {
            if env.removed {
                return false;
            }
            if let Recipient::One(target) = env.to {
                if target.index() >= n {
                    // Out-of-range unicasts cannot be delivered. Honest
                    // protocol code addressing a nonexistent node is a bug,
                    // not a modelling choice; adversarial injections may aim
                    // anywhere, and are merely counted instead of being lost
                    // without a trace.
                    debug_assert!(
                        !env.honest_send,
                        "honest node {:?} unicast to out-of-range node {:?}",
                        env.from, target
                    );
                    dropped += 1;
                    return false;
                }
            }
            true
        });
        self.metrics.dropped_sends += dropped;
        let resident = self.population.deliver(round, deliverable);
        self.metrics.peak_resident_msgs = self.metrics.peak_resident_msgs.max(resident);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Passive;
    use crate::population::{run_sparse, ActivationOracle, SparseSpec};

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u64);

    impl Message for Ping {
        fn size_bits(&self) -> usize {
            64
        }
    }

    /// Multicasts in round 0; decides on round 1 message count.
    struct CountVotes {
        input: Bit,
        seen: usize,
        done: bool,
    }

    impl Protocol<Ping> for CountVotes {
        fn step(&mut self, round: Round, inbox: &[Incoming<Ping>], out: &mut Outbox<Ping>) {
            match round.0 {
                0 => out.multicast(Ping(self.input as u64)),
                1 => {
                    self.seen = inbox.len();
                    self.done = true;
                }
                _ => {}
            }
        }

        fn output(&self) -> Option<Bit> {
            if self.done {
                Some(self.seen > 0)
            } else {
                None
            }
        }

        fn halted(&self) -> bool {
            self.done
        }
    }

    fn count_votes(_: NodeId, _: u64) -> BoxedProtocol<Ping> {
        Box::new(CountVotes { input: true, seen: 0, done: false })
    }

    fn config(n: usize, f: usize, model: CorruptionModel) -> SimConfig {
        SimConfig::new(n, f, model, 42)
    }

    /// Never sends, never halts: the ghosts of [`run_both`]'s sparse runs,
    /// which stand in for nobody (every node is live from round 0).
    struct Mute;

    impl Protocol<Ping> for Mute {
        fn step(&mut self, _round: Round, _inbox: &[Incoming<Ping>], _out: &mut Outbox<Ping>) {}

        fn output(&self) -> Option<Bit> {
            None
        }

        fn halted(&self) -> bool {
            false
        }
    }

    /// Names every node in round 0, which covers every round-0 speaker of
    /// this module's protocols.
    struct EveryoneAtRoundZero(usize);

    impl ActivationOracle for EveryoneAtRoundZero {
        fn candidates(&mut self, round: Round) -> Vec<NodeId> {
            match round {
                Round::ZERO => (0..self.0).map(NodeId).collect(),
                _ => Vec::new(),
            }
        }
    }

    /// Runs one execution under both population policies, asserts the
    /// reports are equal, and returns the dense one.
    fn run_both<A: Adversary<Ping>>(
        cfg: &SimConfig,
        inputs: Vec<Bit>,
        adversary: impl Fn() -> A,
        factory: fn(NodeId, u64) -> BoxedProtocol<Ping>,
    ) -> RunReport {
        let dense = Sim::run_protocol(cfg, inputs.clone(), adversary(), factory);
        let spec = SparseSpec {
            factory: Box::new(factory),
            ghosts: [Box::new(Mute), Box::new(Mute)],
            oracle: Box::new(EveryoneAtRoundZero(cfg.n)),
        };
        let sparse = run_sparse(cfg, inputs, adversary(), spec);
        assert_eq!(sparse, dense, "the sparse policy changed the execution");
        dense
    }

    #[test]
    fn honest_execution_delivers_all_multicasts() {
        let cfg = config(5, 0, CorruptionModel::Static);
        let report = Sim::run_protocol(&cfg, vec![true; 5], Passive, |_, _| {
            Box::new(CountVotes { input: true, seen: 0, done: false })
        });
        assert!(report.outputs.iter().all(|o| *o == Some(true)));
        assert_eq!(report.metrics.honest_multicasts, 5);
        assert_eq!(report.metrics.honest_multicast_bits, 5 * 64);
        assert_eq!(report.metrics.classical_messages(5), 25);
        assert_eq!(report.rounds_used, 2);
        assert_eq!(report.forever_honest().count(), 5);
    }

    /// Adversary that corrupts node 0 at setup; its outbox is silenced.
    struct SilenceNodeZero;

    impl Adversary<Ping> for SilenceNodeZero {
        fn setup(&mut self, ctx: &mut AdvCtx<'_, Ping>) {
            ctx.corrupt(NodeId(0)).expect("budget");
        }

        fn corrupt_outbox(
            &mut self,
            _node: NodeId,
            _planned: Vec<(Recipient, Ping)>,
            _round: Round,
        ) -> Vec<(Recipient, Ping)> {
            Vec::new()
        }
    }

    #[test]
    fn corrupt_node_sends_do_not_count_as_honest() {
        let cfg = config(5, 1, CorruptionModel::Static);
        let report = run_both(&cfg, vec![true; 5], || SilenceNodeZero, count_votes);
        assert_eq!(report.metrics.honest_multicasts, 4);
        // Honest nodes saw only 4 messages.
        assert!(report.forever_honest().all(|i| report.outputs[i.index()] == Some(true)));
        assert_eq!(report.corrupt_at[0], Some(Round::ZERO));
    }

    /// Strongly adaptive adversary: observes round-0 traffic, corrupts every
    /// sender and erases everything (the "committee eraser" in miniature).
    struct EraseEverything;

    impl Adversary<Ping> for EraseEverything {
        fn intervene(&mut self, ctx: &mut AdvCtx<'_, Ping>) {
            if ctx.round().0 != 0 {
                return;
            }
            let pend: Vec<(MsgId, NodeId)> = ctx.pending().iter().map(|e| (e.id, e.from)).collect();
            for (id, from) in pend {
                if !ctx.is_corrupt(from) {
                    if ctx.budget_left() == 0 {
                        break; // out of corruptions; remaining messages survive
                    }
                    ctx.corrupt(from).expect("budget checked");
                }
                ctx.remove(id).expect("strongly adaptive removal");
            }
        }
    }

    #[test]
    fn strongly_adaptive_removal_starves_receivers() {
        let cfg = config(5, 4, CorruptionModel::StronglyAdaptive);
        let report = run_both(&cfg, vec![true; 5], || EraseEverything, count_votes);
        // Only node 4 stays honest (f = 4 < 5 senders; the adversary erases
        // the first four senders' messages but runs out of budget for the
        // fifth... node ordering means nodes 0..3 get corrupted).
        let honest: Vec<_> = report.forever_honest().collect();
        assert_eq!(honest.len(), 1);
        // The one honest node received only the one surviving multicast (its
        // own plus the non-erased one, if any). With budget 4 all four other
        // senders were erased, so it sees exactly 1 message (its own).
        assert_eq!(report.outputs[honest[0].index()], Some(true));
        assert_eq!(report.metrics.removals, 4);
        // Definition 7: removed messages still count as honest multicasts.
        assert_eq!(report.metrics.honest_multicasts, 5);
    }

    #[test]
    fn removal_rejected_in_adaptive_model() {
        struct TryRemove;
        impl Adversary<Ping> for TryRemove {
            fn intervene(&mut self, ctx: &mut AdvCtx<'_, Ping>) {
                if ctx.round().0 == 0 {
                    let first = ctx.pending()[0].id;
                    let from = ctx.pending()[0].from;
                    ctx.corrupt(from).unwrap();
                    assert!(ctx.remove(first).is_err());
                }
            }
        }
        let cfg = config(3, 2, CorruptionModel::Adaptive);
        let report = run_both(
            &cfg,
            vec![false; 3],
            || TryRemove,
            |_, _| Box::new(CountVotes { input: false, seen: 0, done: false }),
        );
        assert_eq!(report.metrics.removals, 0);
        // The corrupted node's round-0 message still went out (it was sent
        // while honest and cannot be erased).
        assert!(report.forever_honest().all(|i| report.outputs[i.index()] == Some(true)));
    }

    #[test]
    fn injection_delivered_next_round() {
        struct InjectExtra;
        impl Adversary<Ping> for InjectExtra {
            fn setup(&mut self, ctx: &mut AdvCtx<'_, Ping>) {
                ctx.corrupt(NodeId(0)).unwrap();
            }
            fn intervene(&mut self, ctx: &mut AdvCtx<'_, Ping>) {
                if ctx.round().0 == 0 {
                    // Equivocation: extra unicast only to node 1.
                    ctx.inject(NodeId(0), Recipient::One(NodeId(1)), Ping(99)).unwrap();
                }
            }
        }
        struct Recorder {
            seen: Vec<u64>,
            done: bool,
        }
        impl Protocol<Ping> for Recorder {
            fn step(&mut self, round: Round, inbox: &[Incoming<Ping>], _out: &mut Outbox<Ping>) {
                if round.0 == 1 {
                    self.seen = inbox.iter().map(|m| m.msg.0).collect();
                    self.done = true;
                }
            }
            fn output(&self) -> Option<Bit> {
                self.done.then_some(true)
            }
            fn halted(&self) -> bool {
                self.done
            }
        }
        let cfg = config(3, 1, CorruptionModel::Static);
        let report = run_both(
            &cfg,
            vec![true; 3],
            || InjectExtra,
            |_, _| Box::new(Recorder { seen: Vec::new(), done: false }),
        );
        // Recorders never send, so the only traffic is the injected unicast.
        assert_eq!(report.metrics.corrupt_sends, 1);
        assert_eq!(report.metrics.injected_sends, 1);
        assert_eq!(report.metrics.corrupt_bits, 64);
        assert_eq!(report.metrics.honest_multicasts, 0);
    }

    #[test]
    fn out_of_range_injection_counted_not_lost() {
        struct InjectBeyondN;
        impl Adversary<Ping> for InjectBeyondN {
            fn setup(&mut self, ctx: &mut AdvCtx<'_, Ping>) {
                ctx.corrupt(NodeId(0)).unwrap();
            }
            fn intervene(&mut self, ctx: &mut AdvCtx<'_, Ping>) {
                if ctx.round().0 == 0 {
                    // Unicast aimed past the last node: undeliverable.
                    ctx.inject(NodeId(0), Recipient::One(NodeId(64)), Ping(1)).unwrap();
                    ctx.inject(NodeId(0), Recipient::One(NodeId(1)), Ping(2)).unwrap();
                }
            }
        }
        let cfg = config(3, 1, CorruptionModel::Static);
        let report = run_both(&cfg, vec![true; 3], || InjectBeyondN, count_votes);
        // Node 0's own round-0 multicast plus the two injections are
        // corrupt sends, but only the in-range injection was deliverable;
        // the out-of-range one is accounted as dropped.
        assert_eq!(report.metrics.corrupt_sends, 3);
        assert_eq!(report.metrics.injected_sends, 2);
        assert_eq!(report.metrics.dropped_sends, 1);
    }

    #[test]
    fn run_boxed_executes_on_worker_thread() {
        let cfg = config(5, 0, CorruptionModel::Static);
        let handle = std::thread::spawn(move || {
            Sim::run_protocol(&cfg, vec![true; 5], Passive, |_, _| {
                Box::new(CountVotes { input: true, seen: 0, done: false })
            })
        });
        let report = handle.join().expect("worker thread");
        assert!(report.outputs.iter().all(|o| *o == Some(true)));
        assert_eq!(report.metrics.honest_multicasts, 5);
    }

    #[test]
    fn round_cap_reported_as_non_termination() {
        struct Forever;
        impl Protocol<Ping> for Forever {
            fn step(&mut self, _round: Round, _inbox: &[Incoming<Ping>], out: &mut Outbox<Ping>) {
                out.multicast(Ping(0));
            }
            fn output(&self) -> Option<Bit> {
                None
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let mut cfg = config(3, 0, CorruptionModel::Static);
        cfg.max_rounds = 5;
        let report = run_both(&cfg, vec![true; 3], || Passive, |_, _| Box::new(Forever));
        assert_eq!(report.rounds_used, 5);
        assert!(report.halted.iter().all(|h| !h));
        assert!(report.outputs.iter().all(|o| o.is_none()));
    }

    #[test]
    #[should_panic(expected = "one input per node")]
    fn mismatched_inputs_panic() {
        let cfg = config(3, 0, CorruptionModel::Static);
        let _ = Sim::run_protocol(&cfg, vec![true; 2], Passive, |_, _| {
            Box::new(CountVotes { input: true, seen: 0, done: false })
        });
    }

    /// In-execution parallelism must be observationally free: the whole
    /// report (outputs, rounds, per-message metrics, corruption schedule)
    /// is byte-identical at every worker count, including counts above `n`,
    /// under both population policies.
    #[test]
    fn within_run_thread_count_never_changes_report() {
        for f in [0usize, 4] {
            let mut cfg = config(9, f, CorruptionModel::StronglyAdaptive);
            cfg.max_rounds = 6;
            let run = |threads: usize| {
                let cfg = cfg.clone().with_threads(threads);
                run_both(&cfg, vec![true; 9], || EraseEverything, count_votes)
            };
            let serial = run(1);
            for threads in [2usize, 3, 8, 64] {
                assert_eq!(run(threads), serial, "threads={threads} f={f} changed the execution");
            }
        }
    }

    /// Same identity through the injection path (adversary-added envelopes
    /// must interleave with node sends exactly as in the serial engine).
    #[test]
    fn within_run_threads_identical_with_injection() {
        struct InjectEveryRound;
        impl Adversary<Ping> for InjectEveryRound {
            fn setup(&mut self, ctx: &mut AdvCtx<'_, Ping>) {
                ctx.corrupt(NodeId(0)).unwrap();
            }
            fn intervene(&mut self, ctx: &mut AdvCtx<'_, Ping>) {
                let r = ctx.round().0;
                ctx.inject(NodeId(0), Recipient::One(NodeId((r as usize + 1) % 5)), Ping(r))
                    .unwrap();
            }
        }
        let run = |threads: usize| {
            let cfg = config(5, 1, CorruptionModel::Static).with_threads(threads);
            run_both(&cfg, vec![true; 5], || InjectEveryRound, count_votes)
        };
        let serial = run(1);
        assert_eq!(run(4), serial);
        assert_eq!(serial.metrics.injected_sends, serial.rounds_used);
    }

    #[test]
    fn per_node_seeds_differ() {
        let cfg = config(3, 0, CorruptionModel::Static);
        let mut seeds = Vec::new();
        let _ = Sim::run_protocol(&cfg, vec![true; 3], Passive, |_, seed| {
            seeds.push(seed);
            Box::new(CountVotes { input: true, seen: 0, done: false })
        });
        assert_eq!(seeds.len(), 3);
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds[1], seeds[2]);
    }
}
