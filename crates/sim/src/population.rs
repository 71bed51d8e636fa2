//! The sparse population policy: materialize only active nodes, stream the
//! rest.
//!
//! The paper's subquadratic protocols have a structural property the dense
//! policy ignores: in any round, only `O(λ · polylog n)` nodes *speak* —
//! committee members elected through `F_mine` — while the silent majority
//! merely listens to multicasts and updates identical local state. At
//! `n = 10^5..10^6` the dense policy pays `O(n)` memory for protocol
//! instances and `O(n · multicasts)` for inbox fan-out, which caps feasible
//! grid sizes long before the paper's asymptotics become visible.
//!
//! [`run_sparse`] drives the same [`crate::engine::Sim`] round loop as a
//! dense run, with a node set that keeps three things instead of `n` live
//! nodes:
//!
//! * a **live set** (`BTreeMap` keyed by node id, so the engine's merge
//!   iterates it in node-id order): committee members named by the
//!   [`ActivationOracle`], every corrupt node, and any node that has
//!   received a targeted message;
//! * a **multicast history** `delivered[r]` — the messages every silent node
//!   would hold at the start of round `r`. One retained copy stands in for
//!   `n - live` identical inboxes;
//! * two **ghost instances**, one per input bit, that replay the silent
//!   majority's state machine. A silent node's observable bookkeeping
//!   (output, output round, halted flag) is mirrored from the ghost carrying
//!   its input.
//!
//! The engine calls this module's hooks at four points of its round:
//! activation at round start, the live set as the nodes to step, ghost
//! mirroring after the merge plus late materialization after `intervene`,
//! and delivery with the `peak_*` gauges.
//!
//! When a silent node is touched — the oracle names it, the adversary
//! corrupts it, or a unicast/injection reaches it — it is **lazily
//! materialized**: a fresh instance is built with the same per-node seed the
//! dense policy would have used ([`crate::engine`]'s `node_seed`), replayed
//! through the multicast history, and inserted into the live set. The replay
//! asserts the node stayed silent in every replayed round; a protocol whose
//! oracle under-approximates its speakers fails loudly instead of silently
//! diverging.
//!
//! # Byte-identity
//!
//! Wherever a protocol family supports sparse execution, a sparse run's
//! [`RunReport`] is **equal** to the dense run's at every thread count: same
//! outputs, rounds, corruption schedule, and every protocol observable in
//! [`crate::metrics::Metrics`]. The only fields that differ are the
//! engine-memory gauges (`peak_live_nodes`, `peak_resident_msgs`), which are
//! excluded from `Metrics` equality by design. Families that cannot run
//! sparsely (regimes where every node speaks, or id-dependent oracles with
//! per-node side effects) simply do not offer a sparse spec and fall back to
//! the dense policy.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::adversary::{AdvWorld, Adversary};
use crate::engine::{
    node_seed, record_honest, BoxedProtocol, Population, RunReport, Sim, SimConfig,
};
use crate::ids::{Bit, NodeId, Round};
use crate::message::{Envelope, Incoming, Message, Outbox, Recipient};

/// Which node set drives an execution. A resource knob, not a protocol
/// parameter: reports are byte-identical wherever both policies run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PopulationMode {
    /// Materialize all `n` protocol instances up front (the classic engine).
    #[default]
    Dense,
    /// Materialize only active nodes; mirror the silent majority through
    /// ghosts and a retained multicast history. Falls back to dense for
    /// protocol configurations that cannot run sparsely.
    Sparse,
}

impl PopulationMode {
    /// Canonical lowercase name (CLI/wire encoding).
    pub fn as_str(&self) -> &'static str {
        match self {
            PopulationMode::Dense => "dense",
            PopulationMode::Sparse => "sparse",
        }
    }
}

impl std::fmt::Display for PopulationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for PopulationMode {
    type Err = String;

    fn from_str(s: &str) -> Result<PopulationMode, String> {
        match s {
            "dense" => Ok(PopulationMode::Dense),
            "sparse" => Ok(PopulationMode::Sparse),
            other => Err(format!("unknown population mode '{other}' (want dense|sparse)")),
        }
    }
}

/// Names the nodes that may speak (or otherwise need real state) in a round.
///
/// Implementations answer *before* the round runs, typically by probing the
/// eligibility backend's side-effect-free `would_mine`. Over-approximation is
/// safe — activating a node that stays silent costs memory, never
/// observables — but **under-approximation is not**: a node that would have
/// spoken while unmaterialized trips the replay assertion.
pub trait ActivationOracle: Send {
    /// Node ids that must be live when `round` steps. Already-live and
    /// out-of-range ids are ignored; order and duplicates don't matter.
    fn candidates(&mut self, round: Round) -> Vec<NodeId>;
}

/// Everything a protocol family provides to run under the sparse policy.
pub struct SparseSpec<M> {
    /// Builds node `id`'s protocol instance from its per-node seed — the
    /// *same* factory the dense policy uses, so lazily materialized nodes
    /// draw exactly the randomness their dense twins drew.
    pub factory: Box<dyn FnMut(NodeId, u64) -> BoxedProtocol<M> + Send>,
    /// One representative silent node per input bit (`ghosts[0]` holds input
    /// `false`, `ghosts[1]` input `true`), built so that it can never mine a
    /// committee seat (e.g. with a `NeverMine`-wrapped eligibility) and with
    /// an out-of-range id so any accidental send is detectable. Silent
    /// honest nodes mirror the ghost carrying their input.
    pub ghosts: [BoxedProtocol<M>; 2],
    /// Names each round's speakers ahead of the round.
    pub oracle: Box<dyn ActivationOracle>,
}

/// A materialized node: its protocol instance plus its private inbox (the
/// sparse policy has no `n`-wide inbox vectors to index into).
struct LiveNode<M> {
    proto: BoxedProtocol<M>,
    inbox: Vec<Incoming<M>>,
}

/// A ghost: the shared state machine of every silent node with one input bit.
struct Ghost<M> {
    proto: BoxedProtocol<M>,
    /// Set once the ghost halts *and* its halt has been mirrored — from then
    /// on the silent nodes it represents are frozen, exactly as the dense
    /// policy freezes halted honest nodes.
    done: bool,
}

/// The sparse node set of a [`Sim`]; storage is sized to the live set.
pub(crate) struct Sparse<M> {
    live: BTreeMap<usize, LiveNode<M>>,
    seed: u64,
    factory: Box<dyn FnMut(NodeId, u64) -> BoxedProtocol<M> + Send>,
    ghosts: [Ghost<M>; 2],
    oracle: Box<dyn ActivationOracle>,
    /// `delivered[r]` = the multicasts every silent honest node holds at the
    /// start of round `r` (so `delivered[0]` is empty). Retained for the
    /// whole run: it is the replay tape for late activations.
    delivered: Vec<Arc<Vec<Incoming<M>>>>,
    /// Total messages in `delivered` (for the resident-message gauge).
    history_msgs: u64,
}

/// Runs one execution under the sparse population policy and returns a
/// report byte-identical to what [`Sim::run_protocol`] produces for the same
/// `(config, inputs, adversary, factory)` — modulo the two engine-memory
/// gauges, which `Metrics` equality ignores.
///
/// # Panics
///
/// Panics if `inputs.len() != config.n` or `config.f >= config.n` (like the
/// dense policy), and if the spec's oracle under-approximates the active set
/// (a replayed node or a ghost attempts to send).
pub fn run_sparse<M: Message + Send + Sync + 'static, A: Adversary<M>>(
    config: &SimConfig,
    inputs: Vec<Bit>,
    adversary: A,
    spec: SparseSpec<M>,
) -> RunReport {
    let [g0, g1] = spec.ghosts;
    let sparse = Sparse {
        live: BTreeMap::new(),
        seed: config.seed,
        factory: spec.factory,
        ghosts: [Ghost { proto: g0, done: false }, Ghost { proto: g1, done: false }],
        oracle: spec.oracle,
        // Round 0 starts with empty inboxes everywhere.
        delivered: vec![Arc::new(Vec::new())],
        history_msgs: 0,
    };
    Sim::with_population(config, inputs, adversary, || Population::Sparse(sparse)).run()
}

impl<M: Message + Send + Sync> Sparse<M> {
    /// Builds node `i` from its dense-identical per-node seed and replays it
    /// through rounds `0..steps` of the multicast history, asserting it stays
    /// silent throughout (a send during replay means the activation oracle
    /// missed a speaker — observables would already have diverged).
    fn materialize(&mut self, i: usize, steps: u64) -> &mut LiveNode<M> {
        debug_assert!(!self.live.contains_key(&i), "node {i} is already live");
        let mut proto = (self.factory)(NodeId(i), node_seed(self.seed, i));
        let mut out = Outbox::new();
        for t in 0..steps {
            if proto.halted() {
                break; // the dense policy stops stepping halted honest nodes
            }
            proto.step(Round(t), &self.delivered[t as usize], &mut out);
            assert!(
                out.take().is_empty(),
                "sparse activation: node {i} sent while replaying round {t}; \
                 the activation oracle under-approximated the active set"
            );
        }
        self.live.entry(i).or_insert(LiveNode { proto, inbox: Vec::new() })
    }

    /// Round-start activation: every node the oracle names as a potential
    /// speaker this round is replayed to the present and primed with the
    /// silent-majority inbox `delivered[r]`.
    pub(crate) fn activate(&mut self, round: Round, n: usize) {
        for id in self.oracle.candidates(round) {
            let i = id.index();
            if i < n && !self.live.contains_key(&i) {
                let inbox = self.delivered[round.0 as usize].as_ref().clone();
                self.materialize(i, round.0).inbox = inbox;
            }
        }
    }

    /// The live set, in node-id order, as `(id, instance, inbox)`.
    pub(crate) fn live_nodes(
        &mut self,
    ) -> impl Iterator<Item = (usize, &mut BoxedProtocol<M>, &mut Vec<Incoming<M>>)> {
        self.live.iter_mut().map(|(&i, node)| (i, &mut node.proto, &mut node.inbox))
    }

    /// Materialized protocol instances (ghosts excluded: they are engine
    /// bookkeeping, not protocol participants).
    pub(crate) fn live(&self) -> usize {
        self.live.len()
    }

    /// Late materialization: every corrupt node not yet live joins the live
    /// set, replayed through `steps` rounds.
    pub(crate) fn materialize_corrupt(&mut self, corrupt_at: &[Option<Round>], steps: u64) {
        for (i, c) in corrupt_at.iter().enumerate() {
            if c.is_some() && !self.live.contains_key(&i) {
                self.materialize(i, steps);
            }
        }
    }

    /// After the merge: steps the ghosts with the silent-majority inbox and
    /// mirrors their bookkeeping onto silent honest nodes, with the set-once
    /// output rule and halt freezing the merge applies to live nodes.
    pub(crate) fn mirror(
        &mut self,
        round: Round,
        world: &mut AdvWorld<M>,
        output_rounds: &mut [Option<Round>],
    ) {
        // Ghosts were built never to win a committee seat, so a send here
        // means the protocol configuration is not sparse-safe.
        let inbox = &self.delivered[round.0 as usize];
        for (b, g) in self.ghosts.iter_mut().enumerate().filter(|(_, g)| !g.done) {
            let mut out = Outbox::new();
            g.proto.step(round, inbox, &mut out);
            assert!(
                out.take().is_empty(),
                "sparse ghost (input bit {b}) attempted to send in round {}; \
                 this protocol configuration is not sparse-safe",
                round.0
            );
        }
        for i in 0..world.corrupt_at.len() {
            if world.corrupt_at[i].is_some() || self.live.contains_key(&i) {
                continue;
            }
            let g = &self.ghosts[usize::from(world.inputs[i])];
            if !g.done {
                let (output, halted) = (g.proto.output(), g.proto.halted());
                record_honest(world, output_rounds, i, output, halted, round);
            }
        }
        for g in self.ghosts.iter_mut() {
            g.done = g.proto.halted();
        }
    }

    /// Delivery. Multicasts fan out to live inboxes and are retained once
    /// in the history; a targeted message reaching a silent node activates
    /// it mid-loop with exactly the inbox its dense twin holds at that point
    /// (all multicasts delivered so far, in envelope order — earlier
    /// unicasts to it would have activated it already). Returns the
    /// resident messages: live inboxes plus the retained history standing
    /// in for silent inboxes.
    pub(crate) fn deliver(&mut self, round: Round, envelopes: Vec<Envelope<M>>) -> u64 {
        let mut mcasts: Vec<Incoming<M>> = Vec::new();
        for env in envelopes {
            match env.to {
                Recipient::All => {
                    let inc = Incoming { from: env.from, msg: Arc::clone(&env.msg) };
                    for node in self.live.values_mut() {
                        node.inbox.push(inc.clone());
                    }
                    mcasts.push(inc);
                }
                Recipient::One(target) => {
                    let t = target.index();
                    if !self.live.contains_key(&t) {
                        self.materialize(t, round.0 + 1).inbox = mcasts.clone();
                    }
                    let inbox = &mut self.live.get_mut(&t).expect("live").inbox;
                    inbox.push(Incoming { from: env.from, msg: env.msg });
                }
            }
        }
        self.history_msgs += mcasts.len() as u64;
        self.delivered.push(Arc::new(mcasts));
        let live_resident: u64 = self.live.values().map(|node| node.inbox.len() as u64).sum();
        live_resident + self.history_msgs
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdvCtx, CorruptionModel, Passive};
    use crate::protocol::Protocol;

    #[derive(Clone, Debug)]
    struct Vote(u64);

    impl Message for Vote {
        fn size_bits(&self) -> usize {
            64
        }
    }

    /// A sparse-safe toy: a fixed committee multicasts its input in round 0,
    /// everyone tallies in round 1 and halts. Nodes outside the committee
    /// never send, and their state depends only on the multicast stream —
    /// exactly the structure the real subquadratic protocols have.
    struct CommitteeVote {
        input: Bit,
        speaks: bool,
        decided: Option<Bit>,
        /// When poked by a targeted `Vote(99)`, echo a multicast next round
        /// (exercises delivery-time activation followed by live sends).
        poked: bool,
    }

    impl CommitteeVote {
        fn new(input: Bit, speaks: bool) -> CommitteeVote {
            CommitteeVote { input, speaks, decided: None, poked: false }
        }
    }

    impl Protocol<Vote> for CommitteeVote {
        fn step(&mut self, round: Round, inbox: &[Incoming<Vote>], out: &mut Outbox<Vote>) {
            if inbox.iter().any(|m| m.msg.0 == 99) {
                self.poked = true;
            }
            match round.0 {
                0 if self.speaks => {
                    out.multicast(Vote(self.input as u64));
                }
                1 => {
                    if self.poked {
                        out.multicast(Vote(7));
                    }
                    let ones = inbox.iter().filter(|m| m.msg.0 == 1).count();
                    let zeros = inbox.iter().filter(|m| m.msg.0 == 0).count();
                    self.decided = Some(ones >= zeros);
                }
                _ => {}
            }
        }

        fn output(&self) -> Option<Bit> {
            self.decided
        }

        fn halted(&self) -> bool {
            self.decided.is_some()
        }
    }

    const COMMITTEE: usize = 4;

    fn committee_factory(
        inputs: Vec<Bit>,
    ) -> impl FnMut(NodeId, u64) -> BoxedProtocol<Vote> + Send {
        move |id: NodeId, _seed: u64| -> BoxedProtocol<Vote> {
            let input = inputs.get(id.index()).copied().unwrap_or(false);
            Box::new(CommitteeVote::new(input, id.index() < COMMITTEE))
        }
    }

    struct CommitteeOracle;

    impl ActivationOracle for CommitteeOracle {
        fn candidates(&mut self, _round: Round) -> Vec<NodeId> {
            (0..COMMITTEE).map(NodeId).collect()
        }
    }

    fn spec_for(inputs: &[Bit]) -> SparseSpec<Vote> {
        SparseSpec {
            factory: Box::new(committee_factory(inputs.to_vec())),
            ghosts: [
                Box::new(CommitteeVote::new(false, false)),
                Box::new(CommitteeVote::new(true, false)),
            ],
            oracle: Box::new(CommitteeOracle),
        }
    }

    fn mixed_inputs(n: usize) -> Vec<Bit> {
        (0..n).map(|i| i % 3 == 0).collect()
    }

    #[test]
    fn sparse_report_byte_identical_to_dense_passive() {
        let n = 64;
        let inputs = mixed_inputs(n);
        let cfg = SimConfig::new(n, 0, CorruptionModel::Static, 11);
        let dense =
            Sim::run_protocol(&cfg, inputs.clone(), Passive, committee_factory(inputs.clone()));
        let sparse = run_sparse(&cfg, inputs.clone(), Passive, spec_for(&inputs));
        assert_eq!(sparse, dense);
        // The point of the exercise: far fewer live nodes.
        assert!(sparse.metrics.peak_live_nodes <= COMMITTEE as u64);
        assert_eq!(dense.metrics.peak_live_nodes, n as u64);
        assert!(sparse.metrics.peak_resident_msgs < dense.metrics.peak_resident_msgs);
    }

    /// Corrupts a *silent* node mid-run and injects a unicast at a silent
    /// target (delivery-time activation).
    struct PokeSilent;

    impl Adversary<Vote> for PokeSilent {
        fn intervene(&mut self, ctx: &mut AdvCtx<'_, Vote>) {
            if ctx.round().0 == 0 {
                // Node 30 is far outside the committee: silent until now.
                ctx.corrupt(NodeId(30)).expect("budget");
                ctx.inject(NodeId(30), Recipient::One(NodeId(25)), Vote(99)).expect("inject");
            }
        }
    }

    #[test]
    fn sparse_matches_dense_under_silent_corruption_and_injection() {
        let n = 40;
        let inputs = mixed_inputs(n);
        let cfg = SimConfig::new(n, 1, CorruptionModel::Adaptive, 5);
        let dense =
            Sim::run_protocol(&cfg, inputs.clone(), PokeSilent, committee_factory(inputs.clone()));
        let sparse = run_sparse(&cfg, inputs.clone(), PokeSilent, spec_for(&inputs));
        assert_eq!(sparse, dense);
        // The poked node (25) echoed a multicast after delivery-time
        // activation.
        assert_eq!(sparse.metrics.injected_sends, 1);
        assert!(sparse.metrics.honest_multicasts > COMMITTEE as u64);
    }

    /// An oracle that misses a speaker must fail the replay assertion, not
    /// silently drop that node's messages.
    #[test]
    #[should_panic(expected = "under-approximated")]
    fn under_approximating_oracle_panics() {
        struct MissesNodeZero;
        impl ActivationOracle for MissesNodeZero {
            fn candidates(&mut self, _round: Round) -> Vec<NodeId> {
                (1..COMMITTEE).map(NodeId).collect()
            }
        }
        let n = 16;
        let inputs = mixed_inputs(n);
        let cfg = SimConfig::new(n, 1, CorruptionModel::Adaptive, 2);
        // Corrupting node 0 at round 1 forces its late materialization; the
        // replay of round 0 catches the send the oracle hid.
        struct CorruptZeroLate;
        impl Adversary<Vote> for CorruptZeroLate {
            fn intervene(&mut self, ctx: &mut AdvCtx<'_, Vote>) {
                if ctx.round().0 == 1 {
                    ctx.corrupt(NodeId(0)).expect("budget");
                }
            }
        }
        let spec = SparseSpec {
            factory: Box::new(committee_factory(inputs.clone())),
            ghosts: [
                Box::new(CommitteeVote::new(false, false)),
                Box::new(CommitteeVote::new(true, false)),
            ],
            oracle: Box::new(MissesNodeZero),
        };
        let _ = run_sparse(&cfg, inputs, CorruptZeroLate, spec);
    }

    /// A ghost that would speak (mis-built spec) must also fail loudly.
    #[test]
    #[should_panic(expected = "not sparse-safe")]
    fn speaking_ghost_panics() {
        let n = 8;
        let inputs = mixed_inputs(n);
        let cfg = SimConfig::new(n, 0, CorruptionModel::Static, 1);
        let spec = SparseSpec {
            factory: Box::new(committee_factory(inputs.clone())),
            // Wrong: ghosts built as committee members.
            ghosts: [
                Box::new(CommitteeVote::new(false, true)),
                Box::new(CommitteeVote::new(true, true)),
            ],
            oracle: Box::new(CommitteeOracle),
        };
        let _ = run_sparse(&cfg, inputs, Passive, spec);
    }

    #[test]
    fn population_mode_round_trips_through_str() {
        for mode in [PopulationMode::Dense, PopulationMode::Sparse] {
            let parsed: PopulationMode = mode.as_str().parse().expect("round trip");
            assert_eq!(parsed, mode);
        }
        assert!("ultra".parse::<PopulationMode>().is_err());
        assert_eq!(PopulationMode::default(), PopulationMode::Dense);
    }
}
