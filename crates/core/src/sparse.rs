//! What the two mined families (`iter`, `epoch`) share to run under
//! `ba-sim`'s sparse population policy: the one dense-or-sparse dispatch,
//! the memoized committee sweep their activation oracles probe, and the
//! `NeverMine` ghosts.

use std::collections::HashMap;
use std::sync::Arc;

use ba_fmine::{Eligibility, MineTag, NeverMine};
use ba_sim::{
    run_sparse, ActivationOracle, Adversary, Bit, BoxedProtocol, Message, NodeId, PopulationMode,
    RunReport, SimConfig, SparseSpec, TransportSpec,
};

use crate::auth::Auth;

/// A protocol family whose mined configurations can run sparsely.
pub(crate) trait SparseFamily: Clone + Send + 'static {
    /// The family's message type.
    type Msg: Message + Send + Sync + 'static;
    /// XORed into the run seed to seed the ghosts (distinct per family).
    const GHOST_SALT: u64;
    /// Number of nodes.
    fn n(&self) -> usize;
    /// The authentication regime.
    fn auth(&self) -> &Auth;
    /// This configuration with another authentication regime.
    fn with_auth(&self, auth: Auth) -> Self;
    /// Whether the configuration's speakers can be predicted ahead of each
    /// round (the family's public `supports_sparse`).
    fn supports_sparse(&self) -> bool;
    /// Builds node `id` with the given input and per-node seed.
    fn node(&self, id: NodeId, input: Bit, seed: u64) -> BoxedProtocol<Self::Msg>;
    /// The family's round schedule over the probed committees.
    fn oracle(&self, committees: Committees) -> Box<dyn ActivationOracle>;
}

/// Runs one execution of `cfg` under `sim`. Sparse-capable configurations
/// honor [`SimConfig::population`] (byte-identical report); everything else
/// runs dense through [`ba_net::execute`], which realizes whatever
/// [`SimConfig::transport`] names.
pub(crate) fn execute<F: SparseFamily, A: Adversary<F::Msg> + Send>(
    cfg: &F,
    sim: &SimConfig,
    inputs: Vec<Bit>,
    adversary: A,
) -> RunReport {
    let factory = {
        let (cfg, inputs) = (cfg.clone(), inputs.clone());
        move |id: NodeId, seed: u64| cfg.node(id, inputs[id.index()], seed)
    };
    // The sparse policy is lockstep-only. The latency transport draws each
    // copy's delay from `link_delay_ms(seed, msg, receiver)`, so silent
    // nodes with the same input no longer hold the same inbox and a single
    // ghost per input bit cannot stand in for them; a fault plan drops and
    // reorders per link the same way, and TCP delivers through the
    // `Transport` seam's n-wide inboxes, which the sparse policy does not
    // keep.
    let spec = match (sim.population, sim.transport) {
        (PopulationMode::Sparse, TransportSpec::Lockstep) => {
            sparse_spec(cfg, sim.seed, factory.clone())
        }
        _ => None,
    };
    match spec {
        Some(spec) => run_sparse(sim, inputs, adversary, spec),
        None => ba_net::execute(sim, inputs, adversary, factory),
    }
}

/// Builds the sparse spec for `cfg`, or `None` when it cannot run sparsely.
fn sparse_spec<F: SparseFamily>(
    cfg: &F,
    seed: u64,
    factory: impl FnMut(NodeId, u64) -> BoxedProtocol<F::Msg> + Send + 'static,
) -> Option<SparseSpec<F::Msg>> {
    if !cfg.supports_sparse() {
        return None;
    }
    let Auth::Mined { elig, bit_specific, keychain } = cfg.auth() else {
        return None;
    };
    // Ghosts can never win a committee seat (NeverMine) but verify exactly
    // like real nodes, and carry the out-of-range id `n` so any accidental
    // send is detectable. Their seed only feeds the leader-coin DRBG, whose
    // draws a never-eligible node never exposes.
    let ghost_cfg = cfg.with_auth(Auth::Mined {
        elig: Arc::new(NeverMine(Arc::clone(elig))),
        bit_specific: *bit_specific,
        keychain: keychain.clone(),
    });
    let ghost_seed = seed ^ F::GHOST_SALT;
    let ghost = |bit: Bit| ghost_cfg.node(NodeId(cfg.n()), bit, ghost_seed ^ bit as u64);
    let committees = Committees {
        n: cfg.n(),
        bit_specific: *bit_specific,
        elig: Arc::clone(elig),
        memo: HashMap::new(),
    };
    Some(SparseSpec {
        factory: Box::new(factory),
        ghosts: [ghost(false), ghost(true)],
        oracle: cfg.oracle(committees),
    })
}

/// The `F_mine` committees an activation oracle probes through the
/// eligibility backend's side-effect-free `would_mine`, memoized per probed
/// tag, so each tag costs one `O(n)` sweep over the whole run.
pub(crate) struct Committees {
    n: usize,
    /// Mirrors [`Auth::Mined`]'s flag: shared committees probe the
    /// bit-erased tag, exactly as `attest` mines it.
    bit_specific: bool,
    elig: Arc<dyn Eligibility>,
    memo: HashMap<MineTag, Vec<NodeId>>,
}

impl Committees {
    /// The nodes that would mine `tag`.
    pub(crate) fn committee(&mut self, tag: MineTag) -> &[NodeId] {
        let probe = if self.bit_specific { tag } else { tag.sharedized() };
        let (n, elig) = (self.n, &self.elig);
        self.memo
            .entry(probe)
            .or_insert_with(|| (0..n).map(NodeId).filter(|&i| elig.would_mine(i, &probe)).collect())
    }
}
