//! The traced re-execution of a [`Scenario`]: the same execution
//! `Scenario::run_seed` performs, rebuilt from the crates' public API
//! (`ba_core::{iter, epoch, momose_ren, cks}` and
//! `ba_sim::Sim::run_with_transport`) so that the eligibility oracle, every
//! node, the transport and the adversary can be wrapped by [`crate::trace`].
//!
//! The rebuild must stay observationally identical to the scenario layer;
//! the traced run checks that by comparing each report, verdict and
//! adversary probe counter against an untraced execution of the same
//! (cell, seed).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ba_adversary::{
    AdaptiveEclipse, CertForger, CommitteeEraser, CrashAt, EclipseBurst, EquivocationSpammer,
    SilenceThenBurst, VoteFlipper,
};
use ba_bench::{AdversarySpec, EligMode, EligSeed, ProtocolSpec, Scenario};
use ba_core::auth::FsService;
use ba_core::cks::{CksConfig, CksNode};
use ba_core::epoch::{EpochConfig, EpochMsg, EpochNode};
use ba_core::iter::{self, IterConfig, IterNode};
use ba_core::momose_ren::{MrConfig, MrNode};
use ba_fmine::{Eligibility, IdealMine, Keychain, MineParams, RealMine, SigMode};
use ba_sim::transport::lockstep::LockstepTransport;
use ba_sim::{
    evaluate, AdvCtx, Adversary, Bit, Message, NodeId, Passive, PopulationMode, Problem, Protocol,
    RunReport, Sim, SimConfig, TransportSpec, Verdict,
};

use crate::trace::{self, TracedAdversary, TracedElig, TracedNode, TracedTransport};

/// Above this population the scenario layer builds the real VRF backend
/// without per-node fixed-base tables; the rebuild must do the same.
const REAL_ELIG_UNTABLED_N: usize = 4096;

/// The trusted setup one (cell, seed) execution needs.
#[derive(Default)]
pub struct Setup {
    pub elig: Option<Arc<dyn Eligibility>>,
    pub keychain: Option<Arc<Keychain>>,
    pub fs: Option<Arc<FsService>>,
}

/// Builds the trusted setup of `sc` under `seed`, with every constructor
/// timed by [`trace::setup`]. Mirrors what `Scenario::run_seed` builds
/// internally, so timing it from outside measures the same work.
pub fn trusted_setup(sc: &Scenario, seed: u64) -> Setup {
    assert_eq!(sc.elig_seed, EligSeed::PerRun, "{}: only per-run setups are benchmarked", sc.label);
    let elig = |lambda: f64| -> Option<Arc<dyn Eligibility>> {
        let params = MineParams::new(sc.n, lambda);
        Some(trace::setup(|| -> Arc<dyn Eligibility> {
            match sc.elig {
                EligMode::Ideal => Arc::new(IdealMine::new(seed, params)),
                EligMode::Real if sc.n >= REAL_ELIG_UNTABLED_N => {
                    Arc::new(RealMine::from_seed_untabled(seed, params))
                }
                EligMode::Real => Arc::new(RealMine::from_seed(seed, params)),
            }
        }))
    };
    let keychain =
        || Some(trace::setup(|| Arc::new(Keychain::from_seed(seed, sc.n, SigMode::Ideal))));
    match &sc.protocol {
        ProtocolSpec::SubqHalf { lambda, .. } | ProtocolSpec::SubqThird { lambda, .. } => {
            Setup { elig: elig(*lambda), ..Setup::default() }
        }
        ProtocolSpec::QuadraticHalf
        | ProtocolSpec::WarmupThird { .. }
        | ProtocolSpec::MomoseRenHalf { .. }
        | ProtocolSpec::CksAdaptive { .. } => Setup { keychain: keychain(), ..Setup::default() },
        ProtocolSpec::SubqShared { lambda, .. } => {
            Setup { elig: elig(*lambda), keychain: keychain(), fs: None }
        }
        ProtocolSpec::ChenMicali { lambda, epochs, .. } => {
            let slots = *epochs as usize + 1;
            let fs = Some(trace::setup(|| Arc::new(FsService::from_seed(seed, sc.n, slots))));
            Setup { elig: elig(*lambda), keychain: None, fs }
        }
        other => panic!("{}: {other:?} is in no workload", sc.label),
    }
}

/// What a traced execution produced: the raw report and verdict, plus the
/// adversary probe counters the scenario layer records as extras.
pub struct Outcome {
    pub report: RunReport,
    pub verdict: Verdict,
    pub extras: Vec<(&'static str, f64)>,
}

/// Executes `sc` under `seed` with every seam wrapped. The trusted setup is
/// built first (timed as setup), then the execution itself is timed by
/// [`trace::execution`].
pub fn run_traced(sc: &Scenario, seed: u64) -> Outcome {
    assert!(sc.fault_plan.is_none(), "{}: fault plans are in no workload", sc.label);
    assert_eq!(sc.transport, TransportSpec::Lockstep, "{}: lockstep only", sc.label);
    let setup = trusted_setup(sc, seed);
    let traced_elig = || -> Arc<dyn Eligibility> {
        Arc::new(TracedElig(setup.elig.clone().expect("mined family has an eligibility backend")))
    };
    let keychain = || setup.keychain.clone().expect("signed family has a keychain");
    let sim = SimConfig::new(sc.n.max(1), sc.f, sc.model, seed)
        .with_threads(sc.sim_threads)
        .with_population(sc.population);
    let inputs = sc.inputs.generate(sc.n, seed);
    trace::execution(|| match &sc.protocol {
        ProtocolSpec::SubqHalf { max_iters, .. } => {
            let mut cfg =
                IterConfig::subq_half(sc.n, traced_elig()).with_cert_encoding(sc.cert_encoding);
            if let Some(mi) = max_iters {
                cfg.max_iters = *mi;
            }
            run_iter(sc, cfg, &sim, inputs)
        }
        ProtocolSpec::QuadraticHalf => {
            let cfg = IterConfig::quadratic_half(sc.n, keychain(), seed)
                .with_cert_encoding(sc.cert_encoding);
            run_iter(sc, cfg, &sim, inputs)
        }
        ProtocolSpec::SubqThird { epochs, .. } => {
            run_epoch(sc, EpochConfig::subq_third(sc.n, *epochs, traced_elig()), &sim, inputs)
        }
        ProtocolSpec::WarmupThird { epochs } => {
            run_epoch(sc, EpochConfig::warmup_third(sc.n, *epochs, keychain()), &sim, inputs)
        }
        ProtocolSpec::SubqShared { epochs, .. } => {
            let cfg = EpochConfig::subq_shared(sc.n, *epochs, traced_elig(), keychain());
            run_epoch(sc, cfg, &sim, inputs)
        }
        ProtocolSpec::ChenMicali { epochs, erasure, .. } => {
            let fs = setup.fs.clone().expect("Chen-Micali has a forward-secure key service");
            let cfg = EpochConfig::chen_micali(sc.n, *epochs, traced_elig(), fs, *erasure);
            run_epoch(sc, cfg, &sim, inputs)
        }
        ProtocolSpec::MomoseRenHalf { views } => {
            let cfg = MrConfig::half(sc.n, *views, keychain()).with_cert_encoding(sc.cert_encoding);
            let mut sim = sim.clone();
            sim.max_rounds = sim.max_rounds.min(cfg.total_rounds() + 2);
            let adv = agnostic(sc, Some(cfg.quorum));
            dense(&sim, inputs, adv, move |id, b, s| MrNode::new(cfg.clone(), id, b, s))
        }
        ProtocolSpec::CksAdaptive { phases } => {
            let cfg =
                CksConfig::adaptive(sc.n, *phases, keychain()).with_cert_encoding(sc.cert_encoding);
            let mut sim = sim.clone();
            sim.max_rounds = sim.max_rounds.min(cfg.total_rounds() + 2);
            let adv = agnostic(sc, Some(cfg.quorum));
            dense(&sim, inputs, adv, move |id, b, s| CksNode::new(cfg.clone(), id, b, s))
        }
        other => panic!("{}: {other:?} is in no workload", sc.label),
    })
}

fn run_iter(sc: &Scenario, cfg: IterConfig, sim: &SimConfig, inputs: Vec<Bit>) -> Outcome {
    let (adv, extras): (TracedAdversary<_>, Extras) = match sc.adversary {
        AdversarySpec::CertForger { target } => {
            let forger = CertForger::new(sc.n, sc.f, target, cfg.quorum, cfg.auth.clone())
                .with_encoding(cfg.effective_cert_encoding());
            let stats = forger.stats();
            let extras: Extras = Box::new(move || {
                vec![
                    ("cert_forge_attempts", stats.attempts() as f64),
                    ("cert_forge_blocked", stats.blocked() as f64),
                ]
            });
            (TracedAdversary(Box::new(forger)), extras)
        }
        _ => (agnostic(sc, Some(cfg.quorum)), Box::new(Vec::new)),
    };
    if sc.population == PopulationMode::Sparse && cfg.supports_sparse() {
        // The sparse engine builds its nodes internally and has no
        // transport: only the oracle and the adversary are wrapped, and the
        // protocol steps land in the engine's self time.
        let (report, verdict) = iter::run(&cfg, sim, inputs, adv);
        return Outcome { report, verdict, extras: extras() };
    }
    let mut sim = sim.clone();
    sim.max_rounds = sim.max_rounds.min(cfg.total_rounds() + 2);
    let mut out = dense(&sim, inputs, adv, move |id, b, s| IterNode::new(cfg.clone(), id, b, s));
    out.extras = extras();
    out
}

fn run_epoch(sc: &Scenario, cfg: EpochConfig, sim: &SimConfig, inputs: Vec<Bit>) -> Outcome {
    assert_eq!(sc.population, PopulationMode::Dense, "{}: epoch cells run dense", sc.label);
    let (adv, extras): (TracedAdversary<EpochMsg>, Extras) = match sc.adversary {
        AdversarySpec::VoteFlipper => {
            let counters = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
            let flipper = FlipMirror {
                inner: VoteFlipper::new(cfg.auth.clone(), cfg.quorum),
                out: counters.clone(),
            };
            let extras: Extras = Box::new(move || {
                vec![
                    ("flips_injected", counters[0].load(Ordering::Relaxed) as f64),
                    ("flips_blocked", counters[1].load(Ordering::Relaxed) as f64),
                ]
            });
            (TracedAdversary(Box::new(flipper)), extras)
        }
        AdversarySpec::EquivocationSpammer => {
            let spammer = EquivocationSpammer::new(sc.n, sc.f, cfg.auth.clone());
            let stats = spammer.stats();
            let extras: Extras = Box::new(move || {
                vec![
                    ("equivocations", stats.equivocations() as f64),
                    ("equiv_blocked", stats.blocked() as f64),
                ]
            });
            (TracedAdversary(Box::new(spammer)), extras)
        }
        _ => (agnostic(sc, Some(cfg.quorum)), Box::new(Vec::new)),
    };
    let mut sim = sim.clone();
    sim.max_rounds = sim.max_rounds.max(cfg.total_rounds() + 1);
    let mut out = dense(&sim, inputs, adv, move |id, b, s| EpochNode::new(cfg.clone(), id, b, s));
    out.extras = extras();
    out
}

type Extras = Box<dyn FnOnce() -> Vec<(&'static str, f64)>>;

/// Runs a dense execution with every node, the lockstep transport and the
/// adversary wrapped, then evaluates the agreement verdict — what each
/// family's `run` does through `ba_net::execute` for a lockstep transport.
fn dense<M, P>(
    sim: &SimConfig,
    inputs: Vec<Bit>,
    adv: TracedAdversary<M>,
    make: impl Fn(NodeId, Bit, u64) -> P,
) -> Outcome
where
    M: Message + Send + Sync + 'static,
    P: Protocol<M> + Send + 'static,
{
    let node_inputs = inputs.clone();
    let transport = Box::new(TracedTransport(Box::new(LockstepTransport::<M>::new())));
    let report = Sim::run_with_transport(
        sim,
        inputs,
        adv,
        |id, seed| Box::new(TracedNode(make(id, node_inputs[id.index()], seed))),
        transport,
    );
    let verdict = evaluate(Problem::Agreement, &report);
    Outcome { report, verdict, extras: Vec::new() }
}

/// The family-agnostic adversaries, built exactly as the scenario layer
/// builds them.
fn agnostic<M: Message + Send + Sync + 'static>(
    sc: &Scenario,
    quorum: Option<usize>,
) -> TracedAdversary<M> {
    let (n, f) = (sc.n, sc.f);
    TracedAdversary(match sc.adversary {
        AdversarySpec::Passive => Box::new(Passive),
        AdversarySpec::CommitteeEraser => Box::new(CommitteeEraser::new()),
        AdversarySpec::StarveQuorum => Box::new(CommitteeEraser::starve_quorum(
            quorum.expect("starve_quorum needs a quorum-bearing protocol"),
        )),
        AdversarySpec::CrashTail { at_round } => {
            Box::new(CrashAt { nodes: (n - f..n).map(NodeId).collect(), at_round })
        }
        AdversarySpec::SilenceThenBurst { at_round } => {
            Box::new(SilenceThenBurst::tail(n, f, at_round))
        }
        AdversarySpec::AdaptiveEclipse { per_round: 0 } => Box::new(AdaptiveEclipse::new()),
        AdversarySpec::AdaptiveEclipse { per_round } => Box::new(AdaptiveEclipse::paced(per_round)),
        AdversarySpec::EclipseBurst { at_round } => Box::new(EclipseBurst::tail(n, f, at_round)),
        other => panic!("{}: {other:?} does not attack this family", sc.label),
    })
}

/// Forwards to a [`VoteFlipper`] and mirrors its statistics after every
/// intervention (the flipper itself is consumed by the engine).
struct FlipMirror {
    inner: VoteFlipper,
    out: Arc<[AtomicU64; 2]>,
}

impl Adversary<EpochMsg> for FlipMirror {
    fn intervene(&mut self, ctx: &mut AdvCtx<'_, EpochMsg>) {
        self.inner.intervene(ctx);
        self.out[0].store(self.inner.flips_injected, Ordering::Relaxed);
        self.out[1].store(self.inner.flips_blocked, Ordering::Relaxed);
    }
}
