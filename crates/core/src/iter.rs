//! The iteration-based BA family (Appendix C of the paper) — the headline
//! construction.
//!
//! * **Quadratic** (C.1, after Abraham et al. \[1\]): `n = 2f + 1`, signed
//!   messages, a public random-leader oracle, quorum `f + 1`, expected O(1)
//!   iterations, `Θ(n)` multicasts per round.
//! * **Subquadratic** (C.2): the same machine compiled with `F_mine`/VRF
//!   **bit-specific** eligibility — quorum `λ/2`, leader self-election at
//!   difficulty `1/(2n)`, polylog multicasts, resilience `f < (1/2 − ε)n`,
//!   still expected O(1) iterations. This is Theorem 2's protocol.
//!
//! ## Iteration structure (4 synchronous rounds; iteration 1 skips the
//! first two)
//!
//! 1. **Status** — every (eligible) node reports its highest certified bit
//!    with the certificate attached.
//! 2. **Propose** — the leader picks the bit with the highest certificate it
//!    has seen (ties arbitrary; no certificate ranks lowest) and proposes it
//!    with the certificate attached.
//! 3. **Vote** — a node votes for the proposal `b` unless it knows a
//!    strictly higher certificate for `1 − b`. Votes attach the leader
//!    proposal that justifies them (footnote 11: the justification is *not*
//!    part of certificates). Iteration-1 votes are for the node's input and
//!    need no justification.
//! 4. **Commit** — on `quorum` iteration-`r` votes for `b` and **no**
//!    (justified) iteration-`r` vote for `1 − b`, commit `b` with the newly
//!    formed certificate attached.
//!
//! **Terminate** (any round): on `quorum` commits for the same `(r, b)`,
//! multicast `(Terminate, b)` carrying the commit quorum, output `b`, halt.
//! Receivers of a valid `Terminate` adopt, (conditionally) relay, output,
//! and halt in the next round.

use std::collections::HashMap;
use std::sync::Arc;

use ba_crypto::hmac::HmacDrbg;
use ba_fmine::{Eligibility, Keychain, MineTag, MsgKind};
use ba_sim::{
    evaluate, ActivationOracle, Adversary, Bit, BoxedProtocol, Incoming, Message, NodeId, Outbox,
    Problem, Protocol, Round, RunReport, SimConfig, Verdict,
};

use crate::auth::{Auth, Evidence};
use crate::cert::{
    AggregateQuorum, CertBody, CertEncoding, Certificate, CommitQuorum, CommitRef, VoteRef,
};
use crate::runnable::Runnable;
use crate::sparse::{self, Committees, SparseFamily};

/// Reference to a leader proposal, attached to votes as justification.
#[derive(Clone, Debug, PartialEq)]
pub struct ProposalRef {
    /// The proposer.
    pub from: NodeId,
    /// Evidence for `(Propose, iter, bit)` (bit taken from the vote).
    pub ev: Evidence,
}

/// Messages of the iteration family.
#[derive(Clone, Debug, PartialEq)]
pub enum IterMsg {
    /// `(Status, r, b, C)` — highest certified bit so far (`None` = ⊥).
    Status {
        /// Iteration.
        iter: u64,
        /// Reported bit, `None` when the node has no certificate.
        bit: Option<Bit>,
        /// The certificate justifying `bit` (present iff `bit` is).
        cert: Option<Certificate>,
        /// Authorization evidence.
        ev: Evidence,
    },
    /// `(Propose, r, b)` with the highest certificate attached.
    Propose {
        /// Iteration.
        iter: u64,
        /// Proposed bit.
        bit: Bit,
        /// Highest certificate for `bit` (absent = iteration-0 rank).
        cert: Option<Certificate>,
        /// Authorization evidence.
        ev: Evidence,
    },
    /// `(Vote, r, b)` justified by a leader proposal (except iteration 1).
    Vote {
        /// Iteration.
        iter: u64,
        /// Voted bit.
        bit: Bit,
        /// The proposal justifying this vote (`None` only in iteration 1).
        just: Option<ProposalRef>,
        /// Authorization evidence.
        ev: Evidence,
    },
    /// `(Commit, r, b)` with the iteration-`r` certificate attached.
    Commit {
        /// Iteration.
        iter: u64,
        /// Committed bit.
        bit: Bit,
        /// The certificate formed from this iteration's votes.
        cert: Certificate,
        /// Authorization evidence.
        ev: Evidence,
    },
    /// `(Terminate, b)` with a quorum of commits attached.
    Terminate {
        /// Iteration whose commits are attached.
        iter: u64,
        /// Decided bit.
        bit: Bit,
        /// Quorum of commits for `(iter, bit)`, in the sender's encoding.
        commits: CommitQuorum,
        /// Authorization evidence for `(Terminate, b)`.
        ev: Evidence,
    },
}

impl Message for IterMsg {
    fn size_bits(&self) -> usize {
        let header = 8 + 64 + 2;
        match self {
            IterMsg::Status { ev, .. } | IterMsg::Propose { ev, .. } => {
                header + self.cert_bits() + ev.size_bits()
            }
            IterMsg::Vote { just, ev, .. } => {
                header + just.as_ref().map_or(0, |j| 32 + j.ev.size_bits()) + ev.size_bits()
            }
            IterMsg::Commit { ev, .. } | IterMsg::Terminate { ev, .. } => {
                header + self.cert_bits() + ev.size_bits()
            }
        }
    }

    /// The certificate share of the wire size: attached vote certificates
    /// and commit quorums. Vote justifications are *not* certificates
    /// (footnote 11) and don't count.
    fn cert_bits(&self) -> usize {
        match self {
            IterMsg::Status { cert, .. } | IterMsg::Propose { cert, .. } => {
                cert.as_ref().map_or(0, |c| c.size_bits())
            }
            IterMsg::Vote { .. } => 0,
            IterMsg::Commit { cert, .. } => cert.size_bits(),
            IterMsg::Terminate { commits, .. } => commits.size_bits(),
        }
    }
}

/// Leader election for the iteration family.
#[derive(Clone, Debug)]
pub enum IterLeaderMode {
    /// C.1's idealized oracle: a public random leader per iteration, derived
    /// from a shared seed (known to everyone, including the adversary).
    Oracle {
        /// The shared oracle seed.
        seed: u64,
    },
    /// C.2: private self-election by mining `(Propose, r, b)`.
    Mined,
}

/// Configuration of one iteration-family instance.
#[derive(Clone, Debug)]
pub struct IterConfig {
    /// Number of nodes.
    pub n: usize,
    /// Certificate/commit quorum (`f + 1` or `λ/2`).
    pub quorum: usize,
    /// Authentication regime.
    pub auth: Auth,
    /// Leader election mechanism.
    pub leader: IterLeaderMode,
    /// Iteration cap (liveness safety net; expected O(1) needed).
    pub max_iters: u64,
    /// Requested wire encoding for certificates and commit quorums. The
    /// encoding actually used is [`IterConfig::effective_cert_encoding`]:
    /// regimes that cannot aggregate fall back to the vector transcript.
    pub cert_encoding: CertEncoding,
}

impl IterConfig {
    /// Appendix C.1: quadratic, signed, `f < n/2`.
    pub fn quadratic_half(n: usize, keychain: Arc<Keychain>, leader_seed: u64) -> IterConfig {
        IterConfig {
            n,
            quorum: n / 2 + 1,
            auth: Auth::Signed { keychain },
            leader: IterLeaderMode::Oracle { seed: leader_seed },
            max_iters: 64,
            cert_encoding: CertEncoding::Vector,
        }
    }

    /// Appendix C.2: subquadratic with bit-specific eligibility (Theorem 2).
    pub fn subq_half(n: usize, elig: Arc<dyn Eligibility>) -> IterConfig {
        let lambda = elig.lambda();
        IterConfig {
            n,
            quorum: (lambda / 2.0).ceil() as usize,
            auth: Auth::Mined { elig, bit_specific: true, keychain: None },
            leader: IterLeaderMode::Mined,
            max_iters: 64,
            cert_encoding: CertEncoding::Vector,
        }
    }

    /// Requests a certificate encoding (builder style).
    pub fn with_cert_encoding(mut self, encoding: CertEncoding) -> IterConfig {
        self.cert_encoding = encoding;
        self
    }

    /// The encoding certificates are actually built with: the requested
    /// [`IterConfig::cert_encoding`] when the regime supports aggregation
    /// ([`Auth::supports_aggregation`]), else [`CertEncoding::Vector`].
    /// Mined tickets prove eligibility and cannot be jointly signed, so
    /// requesting `aggregate` under a mined regime is a silent no-op — the
    /// differential suite relies on the fallback being byte-identical.
    pub fn effective_cert_encoding(&self) -> CertEncoding {
        if self.auth.supports_aggregation() {
            self.cert_encoding
        } else {
            CertEncoding::Vector
        }
    }

    /// The oracle's leader for `iter` (oracle mode only).
    pub fn oracle_leader(&self, iter: u64) -> Option<NodeId> {
        match &self.leader {
            IterLeaderMode::Oracle { seed } => {
                let mut material = [0u8; 16];
                material[..8].copy_from_slice(&seed.to_be_bytes());
                material[8..].copy_from_slice(&iter.to_be_bytes());
                let mut drbg = HmacDrbg::new(&material, b"iter-leader-oracle");
                Some(NodeId((drbg.next_u64() % self.n as u64) as usize))
            }
            IterLeaderMode::Mined => None,
        }
    }

    /// Synchronous rounds consumed by `max_iters` iterations.
    pub fn total_rounds(&self) -> u64 {
        2 + (self.max_iters.saturating_sub(1)) * 4 + 2
    }

    /// Whether this configuration can run under the sparse population
    /// engine: speakers must be predictable by probing the eligibility
    /// backend, which requires mined (committee-subsampled) authentication
    /// and mined leader self-election. Signed regimes (everyone speaks every
    /// round) and the public-leader oracle (id-dependent schedule with full
    /// Status/Vote participation) fall back to the dense engine.
    pub fn supports_sparse(&self) -> bool {
        matches!(self.leader, IterLeaderMode::Mined) && matches!(self.auth, Auth::Mined { .. })
    }
}

/// The round-to-phase schedule: iteration 1 runs Vote/Commit in rounds 0–1;
/// iterations `r >= 2` run Status/Propose/Vote/Commit in rounds
/// `2 + 4(r-2) .. 5 + 4(r-2)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Status,
    Propose,
    Vote,
    Commit,
}

fn schedule(round: u64) -> (u64, Phase) {
    if round < 2 {
        (1, if round == 0 { Phase::Vote } else { Phase::Commit })
    } else {
        let iter = 2 + (round - 2) / 4;
        let phase = match (round - 2) % 4 {
            0 => Phase::Status,
            1 => Phase::Propose,
            2 => Phase::Vote,
            _ => Phase::Commit,
        };
        (iter, phase)
    }
}

/// One node of the iteration protocol.
pub struct IterNode {
    cfg: IterConfig,
    id: NodeId,
    input: Bit,
    /// Highest verified certificate per bit.
    best: [Option<Certificate>; 2],
    /// Deduplicated valid votes per `(iter, bit)`.
    votes: HashMap<(u64, bool), Vec<VoteRef>>,
    /// Deduplicated valid commits per `(iter, bit)`.
    commits: HashMap<(u64, bool), Vec<CommitRef>>,
    /// Verified aggregate-encoded commit quorums received in `Terminate`
    /// messages. An aggregate carries no individual commit evidence to
    /// record into `commits`, so the quorum itself is kept for relaying.
    term_quorums: HashMap<(u64, bool), CommitQuorum>,
    /// Per-iteration highest proposal rank per bit, `None` = no proposal.
    proposals: HashMap<u64, [Option<u64>; 2]>,
    /// The proposal evidence to attach as vote justification.
    proposal_refs: HashMap<(u64, bool), ProposalRef>,
    coins: HmacDrbg,
    output: Option<Bit>,
    done: bool,
    /// Set when a commit quorum or Terminate message was observed.
    decided: Option<(u64, Bit)>,
}

impl IterNode {
    /// Creates a node with its input bit and per-node seed.
    pub fn new(cfg: IterConfig, id: NodeId, input: Bit, seed: u64) -> IterNode {
        IterNode {
            cfg,
            id,
            input,
            best: [None, None],
            votes: HashMap::new(),
            commits: HashMap::new(),
            term_quorums: HashMap::new(),
            proposals: HashMap::new(),
            proposal_refs: HashMap::new(),
            coins: HmacDrbg::new(&seed.to_be_bytes(), b"iter-coins"),
            output: None,
            done: false,
            decided: None,
        }
    }

    fn adopt_cert(&mut self, cert: &Certificate) {
        if !cert.verify(&self.cfg.auth, self.cfg.quorum) {
            return;
        }
        let slot = &mut self.best[cert.bit as usize];
        if Certificate::rank(slot) < cert.iter {
            *slot = Some(cert.clone());
        }
    }

    /// `(bit, rank)` of the overall highest certificate, `None` if no
    /// certificate is known. Ties prefer bit 1 (arbitrary, deterministic).
    fn best_bit(&self) -> Option<(Bit, u64)> {
        let r0 = Certificate::rank(&self.best[0]);
        let r1 = Certificate::rank(&self.best[1]);
        if r0 == 0 && r1 == 0 {
            None
        } else if r1 >= r0 {
            Some((true, r1))
        } else {
            Some((false, r0))
        }
    }

    /// Compresses a sorted, deduplicated quorum of evidence into an
    /// [`AggregateQuorum`] under the effective aggregate encoding.
    fn aggregate_quorum(
        &self,
        tag: &MineTag,
        refs: &[(NodeId, &Evidence)],
    ) -> Option<AggregateQuorum> {
        let n = self.cfg.auth.aggregation_domain()?;
        let agg = self.cfg.auth.aggregate(tag, refs)?;
        Some(AggregateQuorum { n, signers: refs.iter().map(|(id, _)| *id).collect(), agg })
    }

    /// Builds the certificate for a sorted quorum prefix of votes, in the
    /// effective encoding. Falls back to the vector transcript if
    /// aggregation unexpectedly fails (it cannot for honest evidence under
    /// a signed regime, which is the only regime that reaches the
    /// aggregate arm).
    fn build_certificate(&self, iter: u64, bit: Bit, votes: &[VoteRef]) -> Certificate {
        if self.cfg.effective_cert_encoding() == CertEncoding::Aggregate {
            let tag = MineTag::new(MsgKind::Vote, iter, bit);
            let refs: Vec<(NodeId, &Evidence)> = votes.iter().map(|v| (v.from, &v.ev)).collect();
            if let Some(q) = self.aggregate_quorum(&tag, &refs) {
                return Certificate { iter, bit, body: CertBody::Aggregate(q) };
            }
        }
        Certificate::from_votes(iter, bit, votes.to_vec())
    }

    /// Builds the commit quorum for a `Terminate` message from a sorted
    /// quorum of commit references, in the effective encoding.
    fn build_commit_quorum(&self, iter: u64, bit: Bit, commits: &[CommitRef]) -> CommitQuorum {
        if self.cfg.effective_cert_encoding() == CertEncoding::Aggregate {
            let tag = MineTag::new(MsgKind::Commit, iter, bit);
            let refs: Vec<(NodeId, &Evidence)> = commits.iter().map(|c| (c.from, &c.ev)).collect();
            if let Some(q) = self.aggregate_quorum(&tag, &refs) {
                return CommitQuorum::Aggregate(q);
            }
        }
        CommitQuorum::Vector(commits.to_vec())
    }

    fn record_vote(&mut self, iter: u64, bit: Bit, from: NodeId, ev: Evidence) {
        let quorum = self.cfg.quorum;
        let pool = self.votes.entry((iter, bit)).or_default();
        if pool.iter().all(|v| v.from != from) {
            pool.push(VoteRef { from, ev });
        }
        // A quorum of votes IS a certificate — adopt it immediately. Sort
        // the pool in place (order is irrelevant to dedup) and copy only
        // the quorum prefix instead of cloning the whole pool.
        if pool.len() >= quorum && Certificate::rank(&self.best[bit as usize]) < iter {
            pool.sort_by_key(|v| v.from);
            let votes = pool[..quorum].to_vec();
            self.best[bit as usize] = Some(self.build_certificate(iter, bit, &votes));
        }
    }

    fn record_commit(&mut self, iter: u64, bit: Bit, from: NodeId, ev: Evidence) {
        let pool = self.commits.entry((iter, bit)).or_default();
        if pool.iter().all(|c| c.from != from) {
            pool.push(CommitRef { from, ev });
        }
        if self.commits[&(iter, bit)].len() >= self.cfg.quorum && self.decided.is_none() {
            self.decided = Some((iter, bit));
        }
    }

    /// Whether a vote's justification is acceptable.
    fn vote_justified(&self, iter: u64, bit: Bit, just: &Option<ProposalRef>) -> bool {
        if iter == 1 {
            return true; // iteration-1 votes are input votes
        }
        let Some(j) = just else { return false };
        if let Some(leader) = self.cfg.oracle_leader(iter) {
            if j.from != leader {
                return false;
            }
        }
        let tag = MineTag::new(MsgKind::Propose, iter, bit);
        self.cfg.auth.verify(j.from, &tag, &j.ev)
    }

    /// Collects every authentication claim an inbox carries — top-level
    /// message evidence, certificate votes, commit quorums, and vote
    /// justifications — and verifies them in one [`Auth::verify_batch`]
    /// call. The per-message logic afterwards re-asks the same questions
    /// and hits the services' statement caches.
    fn batch_verify_inbox(&self, inbox: &[Incoming<IterMsg>]) {
        if !self.cfg.auth.supports_batch() {
            return;
        }
        fn push_cert<'a>(claims: &mut Vec<(NodeId, MineTag, &'a Evidence)>, cert: &'a Certificate) {
            // Aggregate bodies carry no individual evidence; they verify
            // through their own fast path (one Straus check + claim cache).
            let CertBody::Vector(votes) = &cert.body else { return };
            let tag = MineTag::new(MsgKind::Vote, cert.iter, cert.bit);
            for v in votes {
                claims.push((v.from, tag, &v.ev));
            }
        }
        let mut claims: Vec<(NodeId, MineTag, &Evidence)> = Vec::new();
        for m in inbox {
            match &*m.msg {
                IterMsg::Status { iter, bit, cert, ev } => {
                    let tag = match bit {
                        Some(b) => MineTag::new(MsgKind::Status, *iter, *b),
                        None => MineTag::bot(MsgKind::Status, *iter),
                    };
                    claims.push((m.from, tag, ev));
                    if let Some(c) = cert {
                        push_cert(&mut claims, c);
                    }
                }
                IterMsg::Propose { iter, bit, cert, ev } => {
                    claims.push((m.from, MineTag::new(MsgKind::Propose, *iter, *bit), ev));
                    if let Some(c) = cert {
                        push_cert(&mut claims, c);
                    }
                }
                IterMsg::Vote { iter, bit, just, ev } => {
                    claims.push((m.from, MineTag::new(MsgKind::Vote, *iter, *bit), ev));
                    if let Some(j) = just {
                        claims.push((j.from, MineTag::new(MsgKind::Propose, *iter, *bit), &j.ev));
                    }
                }
                IterMsg::Commit { iter, bit, cert, ev } => {
                    claims.push((m.from, MineTag::new(MsgKind::Commit, *iter, *bit), ev));
                    push_cert(&mut claims, cert);
                }
                IterMsg::Terminate { iter, bit, commits, ev } => {
                    claims.push((m.from, MineTag::terminate(*bit), ev));
                    if let CommitQuorum::Vector(refs) = commits {
                        let tag = MineTag::new(MsgKind::Commit, *iter, *bit);
                        for c in refs {
                            claims.push((c.from, tag, &c.ev));
                        }
                    }
                }
            }
        }
        let _ = self.cfg.auth.verify_batch(&claims);
    }

    fn ingest(&mut self, inbox: &[Incoming<IterMsg>]) {
        self.batch_verify_inbox(inbox);
        for m in inbox {
            match &*m.msg {
                IterMsg::Status { iter, bit, cert, ev } => {
                    let tag = match bit {
                        Some(b) => MineTag::new(MsgKind::Status, *iter, *b),
                        None => MineTag::bot(MsgKind::Status, *iter),
                    };
                    if !self.cfg.auth.verify(m.from, &tag, ev) {
                        continue;
                    }
                    if let (Some(b), Some(c)) = (bit, cert) {
                        if c.bit == *b {
                            self.adopt_cert(c);
                        }
                    }
                }
                IterMsg::Propose { iter, bit, cert, ev } => {
                    let tag = MineTag::new(MsgKind::Propose, *iter, *bit);
                    if !self.cfg.auth.verify(m.from, &tag, ev) {
                        continue;
                    }
                    if let Some(leader) = self.cfg.oracle_leader(*iter) {
                        if m.from != leader {
                            continue;
                        }
                    }
                    // Rank of the attached certificate; it must certify the
                    // proposed bit and verify, else the proposal counts as
                    // rank 0 (which is still a valid certificate-less
                    // proposal).
                    let rank = match cert {
                        Some(c) if c.bit == *bit && c.verify(&self.cfg.auth, self.cfg.quorum) => {
                            self.adopt_cert(c);
                            c.iter
                        }
                        Some(_) => continue, // malformed attachment: drop
                        None => 0,
                    };
                    let entry = self.proposals.entry(*iter).or_insert([None, None]);
                    let slot = &mut entry[*bit as usize];
                    if slot.is_none_or(|old| old < rank) {
                        *slot = Some(rank);
                    }
                    self.proposal_refs
                        .entry((*iter, *bit))
                        .or_insert_with(|| ProposalRef { from: m.from, ev: ev.clone() });
                }
                IterMsg::Vote { iter, bit, just, ev } => {
                    let tag = MineTag::new(MsgKind::Vote, *iter, *bit);
                    if !self.cfg.auth.verify(m.from, &tag, ev) {
                        continue;
                    }
                    if !self.vote_justified(*iter, *bit, just) {
                        continue;
                    }
                    self.record_vote(*iter, *bit, m.from, ev.clone());
                }
                IterMsg::Commit { iter, bit, cert, ev } => {
                    let tag = MineTag::new(MsgKind::Commit, *iter, *bit);
                    if !self.cfg.auth.verify(m.from, &tag, ev) {
                        continue;
                    }
                    if cert.iter != *iter
                        || cert.bit != *bit
                        || !cert.verify(&self.cfg.auth, self.cfg.quorum)
                    {
                        continue;
                    }
                    self.adopt_cert(cert);
                    self.record_commit(*iter, *bit, m.from, ev.clone());
                }
                IterMsg::Terminate { iter, bit, commits, ev } => {
                    let tag = MineTag::terminate(*bit);
                    if !self.cfg.auth.verify(m.from, &tag, ev) {
                        continue;
                    }
                    if !commits.verify(*iter, *bit, &self.cfg.auth, self.cfg.quorum) {
                        continue;
                    }
                    match commits {
                        CommitQuorum::Vector(refs) => {
                            for c in refs {
                                self.record_commit(*iter, *bit, c.from, c.ev.clone());
                            }
                        }
                        CommitQuorum::Aggregate(_) => {
                            // No individual evidence to record; keep the
                            // verified quorum for relaying in `finish`.
                            self.term_quorums
                                .entry((*iter, *bit))
                                .or_insert_with(|| commits.clone());
                        }
                    }
                    if self.decided.is_none() {
                        self.decided = Some((*iter, *bit));
                    }
                }
            }
        }
    }

    /// Emits `(Terminate, b)`, outputs, and halts.
    fn finish(&mut self, iter: u64, bit: Bit, out: &mut Outbox<IterMsg>) {
        let tag = MineTag::terminate(bit);
        if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
            let mut commits = self.commits.get(&(iter, bit)).cloned().unwrap_or_default();
            commits.sort_by_key(|c| c.from);
            commits.truncate(self.cfg.quorum);
            if commits.len() >= self.cfg.quorum {
                let quorum = self.build_commit_quorum(iter, bit, &commits);
                out.multicast(IterMsg::Terminate { iter, bit, commits: quorum, ev });
            } else if let Some(stashed) = self.term_quorums.get(&(iter, bit)) {
                // An aggregate-encoded Terminate carried no individual
                // commit evidence to rebuild a quorum from; relay the
                // verified quorum as received. (Under vector encoding this
                // branch is unreachable: ingesting a Terminate records its
                // commits, so the pool above already holds a quorum.)
                out.multicast(IterMsg::Terminate { iter, bit, commits: stashed.clone(), ev });
            }
        }
        self.output = Some(bit);
        self.done = true;
    }
}

impl Protocol<IterMsg> for IterNode {
    fn step(&mut self, round: Round, inbox: &[Incoming<IterMsg>], out: &mut Outbox<IterMsg>) {
        if self.done {
            return;
        }
        self.ingest(inbox);
        if let Some((iter, bit)) = self.decided {
            self.finish(iter, bit, out);
            return;
        }
        let (iter, phase) = schedule(round.0);
        if iter > self.cfg.max_iters {
            return; // out of schedule; non-termination will be reported
        }
        match phase {
            Phase::Status => {
                let (bit, cert) = match self.best_bit() {
                    Some((b, _)) => (Some(b), self.best[b as usize].clone()),
                    None => (None, None),
                };
                let tag = match bit {
                    Some(b) => MineTag::new(MsgKind::Status, iter, b),
                    None => MineTag::bot(MsgKind::Status, iter),
                };
                if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
                    out.multicast(IterMsg::Status { iter, bit, cert, ev });
                }
            }
            Phase::Propose => {
                let is_candidate = match &self.cfg.leader {
                    IterLeaderMode::Oracle { .. } => self.cfg.oracle_leader(iter) == Some(self.id),
                    IterLeaderMode::Mined => true,
                };
                if !is_candidate {
                    return;
                }
                let (bit, cert) = match self.best_bit() {
                    Some((b, _)) => (b, self.best[b as usize].clone()),
                    None => (self.coins.next_byte() & 1 == 1, None),
                };
                let tag = MineTag::new(MsgKind::Propose, iter, bit);
                if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
                    out.multicast(IterMsg::Propose { iter, bit, cert, ev });
                }
            }
            Phase::Vote => {
                let (bit, just) = if iter == 1 {
                    (Some(self.input), None)
                } else {
                    let ranks = self.proposals.get(&iter).copied().unwrap_or([None, None]);
                    match ranks {
                        [Some(rank), None] if rank >= Certificate::rank(&self.best[1]) => {
                            (Some(false), self.proposal_refs.get(&(iter, false)).cloned())
                        }
                        [None, Some(rank)] if rank >= Certificate::rank(&self.best[0]) => {
                            (Some(true), self.proposal_refs.get(&(iter, true)).cloned())
                        }
                        // No valid proposal, conflicting proposals, or a
                        // proposal losing to a higher opposite certificate:
                        // abstain.
                        _ => (None, None),
                    }
                };
                if let Some(b) = bit {
                    if iter > 1 && just.is_none() {
                        return; // cannot justify the vote; abstain
                    }
                    let tag = MineTag::new(MsgKind::Vote, iter, b);
                    if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
                        // Record our own vote so our commit tally sees it.
                        self.record_vote(iter, b, self.id, ev.clone());
                        out.multicast(IterMsg::Vote { iter, bit: b, just, ev });
                    }
                }
            }
            Phase::Commit => {
                for bit in [false, true] {
                    let for_count = self.votes.get(&(iter, bit)).map_or(0, |v| v.len());
                    let against = self.votes.get(&(iter, !bit)).map_or(0, |v| v.len());
                    if for_count >= self.cfg.quorum && against == 0 {
                        // Build the iteration-r certificate from the vote
                        // pool (best[bit] may hold a higher-ranked one);
                        // sort in place and copy only the quorum prefix.
                        let pool = self.votes.get_mut(&(iter, bit)).expect("nonempty pool");
                        pool.sort_by_key(|v| v.from);
                        let votes = pool[..self.cfg.quorum].to_vec();
                        let cert = self.build_certificate(iter, bit, &votes);
                        let tag = MineTag::new(MsgKind::Commit, iter, bit);
                        if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
                            self.record_commit(iter, bit, self.id, ev.clone());
                            out.multicast(IterMsg::Commit { iter, bit, cert, ev });
                        }
                        break;
                    }
                }
            }
        }
    }

    fn output(&self) -> Option<Bit> {
        self.output
    }

    fn halted(&self) -> bool {
        self.done
    }
}

/// Predicts each round's possible speakers for the sparse population policy
/// by probing every tag the round's schedule lets a node attest — plus the
/// Terminate tags, which `finish` can fire in **any** round once a node
/// decides.
struct IterOracle {
    max_iters: u64,
    committees: Committees,
}

impl ActivationOracle for IterOracle {
    fn candidates(&mut self, round: Round) -> Vec<NodeId> {
        let mut tags = vec![MineTag::terminate(false), MineTag::terminate(true)];
        let (iter, phase) = schedule(round.0);
        if iter <= self.max_iters {
            match phase {
                Phase::Status => tags.extend([
                    MineTag::new(MsgKind::Status, iter, false),
                    MineTag::new(MsgKind::Status, iter, true),
                    MineTag::bot(MsgKind::Status, iter),
                ]),
                Phase::Propose => tags.extend([
                    MineTag::new(MsgKind::Propose, iter, false),
                    MineTag::new(MsgKind::Propose, iter, true),
                ]),
                Phase::Vote => tags.extend([
                    MineTag::new(MsgKind::Vote, iter, false),
                    MineTag::new(MsgKind::Vote, iter, true),
                ]),
                Phase::Commit => tags.extend([
                    MineTag::new(MsgKind::Commit, iter, false),
                    MineTag::new(MsgKind::Commit, iter, true),
                ]),
            }
        }
        let mut out = Vec::new();
        for tag in tags {
            out.extend_from_slice(self.committees.committee(tag));
        }
        out
    }
}

impl SparseFamily for IterConfig {
    type Msg = IterMsg;
    const GHOST_SALT: u64 = 0x6057_1A5E_1D0C_0DE0;

    fn n(&self) -> usize {
        self.n
    }

    fn auth(&self) -> &Auth {
        &self.auth
    }

    fn with_auth(&self, auth: Auth) -> IterConfig {
        IterConfig { auth, ..self.clone() }
    }

    fn supports_sparse(&self) -> bool {
        IterConfig::supports_sparse(self)
    }

    fn node(&self, id: NodeId, input: Bit, seed: u64) -> BoxedProtocol<IterMsg> {
        Box::new(IterNode::new(self.clone(), id, input, seed))
    }

    fn oracle(&self, committees: Committees) -> Box<dyn ActivationOracle> {
        Box::new(IterOracle { max_iters: self.max_iters, committees })
    }
}

/// Runs one execution of an iteration-family protocol and evaluates the
/// agreement verdict. Honors [`SimConfig::population`] where the
/// configuration supports the sparse policy (see
/// [`IterConfig::supports_sparse`]); delivery of dense runs goes through
/// [`ba_net::execute`], which realizes whatever [`SimConfig::transport`]
/// names.
pub fn run<A: Adversary<IterMsg> + Send>(
    cfg: &IterConfig,
    sim: &SimConfig,
    inputs: Vec<Bit>,
    adversary: A,
) -> (RunReport, Verdict) {
    let mut sim_cfg = sim.clone();
    sim_cfg.max_rounds = sim_cfg.max_rounds.min(cfg.total_rounds() + 2);
    let report = sparse::execute(cfg, &sim_cfg, inputs, adversary);
    let verdict = evaluate(Problem::Agreement, &report);
    (report, verdict)
}

/// Packages one iteration-family execution as a thread-dispatchable
/// [`Runnable`] (the uniform constructor sweep harnesses dispatch over).
pub fn runnable<A: Adversary<IterMsg> + Send + 'static>(
    cfg: &IterConfig,
    inputs: Vec<Bit>,
    adversary: A,
) -> Runnable {
    let cfg = cfg.clone();
    Runnable::new(move |sim| run(&cfg, sim, inputs, adversary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_fmine::{IdealMine, MineParams, SigMode};
    use ba_sim::{CorruptionModel, Passive, PopulationMode};

    fn quad_cfg(n: usize, seed: u64) -> IterConfig {
        IterConfig::quadratic_half(n, Arc::new(Keychain::from_seed(seed, n, SigMode::Ideal)), seed)
    }

    fn subq_cfg(n: usize, lambda: f64, seed: u64) -> IterConfig {
        IterConfig::subq_half(n, Arc::new(IdealMine::new(seed, MineParams::new(n, lambda))))
    }

    #[test]
    fn schedule_mapping() {
        assert_eq!(schedule(0), (1, Phase::Vote));
        assert_eq!(schedule(1), (1, Phase::Commit));
        assert_eq!(schedule(2), (2, Phase::Status));
        assert_eq!(schedule(3), (2, Phase::Propose));
        assert_eq!(schedule(4), (2, Phase::Vote));
        assert_eq!(schedule(5), (2, Phase::Commit));
        assert_eq!(schedule(6), (3, Phase::Status));
    }

    #[test]
    fn quadratic_validity_unanimous() {
        for bit in [false, true] {
            let cfg = quad_cfg(7, 1);
            let sim = SimConfig::new(7, 0, CorruptionModel::Static, 1);
            let (report, verdict) = run(&cfg, &sim, vec![bit; 7], Passive);
            assert!(verdict.all_ok(), "bit={bit}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(bit)));
            // Unanimous inputs decide in iteration 1: vote round 0, commit
            // round 1, terminate by round ~3.
            assert!(report.rounds_used <= 5, "rounds={}", report.rounds_used);
        }
    }

    #[test]
    fn quadratic_consistency_mixed_inputs() {
        for seed in 0..10 {
            let cfg = quad_cfg(9, seed);
            let sim = SimConfig::new(9, 0, CorruptionModel::Static, seed);
            let inputs: Vec<Bit> = (0..9).map(|i| i % 2 == 0).collect();
            let (report, verdict) = run(&cfg, &sim, inputs, Passive);
            assert!(verdict.all_ok(), "seed={seed}: {verdict:?}");
            // All honest leaders: termination within a few iterations.
            assert!(report.rounds_used < 20, "seed={seed} rounds={}", report.rounds_used);
        }
    }

    #[test]
    fn subq_validity_unanimous() {
        for seed in 0..5 {
            let cfg = subq_cfg(80, 24.0, seed);
            let sim = SimConfig::new(80, 0, CorruptionModel::Static, seed);
            let (report, verdict) = run(&cfg, &sim, vec![true; 80], Passive);
            assert!(verdict.all_ok(), "seed={seed}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(true)), "seed={seed}");
        }
    }

    #[test]
    fn subq_consistency_mixed_inputs() {
        let mut ok = 0;
        for seed in 0..10 {
            let cfg = subq_cfg(80, 24.0, seed);
            let sim = SimConfig::new(80, 0, CorruptionModel::Static, seed);
            let inputs: Vec<Bit> = (0..80).map(|i| i < 40).collect();
            let (_report, verdict) = run(&cfg, &sim, inputs, Passive);
            if verdict.all_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 8, "only {ok}/10 mixed-input subq runs fully succeeded");
    }

    #[test]
    fn subq_multicasts_do_not_scale_with_n() {
        let lambda = 20.0;
        let count = |n: usize| -> u64 {
            let cfg = subq_cfg(n, lambda, 3);
            let sim = SimConfig::new(n, 0, CorruptionModel::Static, 3);
            let inputs: Vec<Bit> = (0..n).map(|i| i % 2 == 0).collect();
            let (report, verdict) = run(&cfg, &sim, inputs, Passive);
            assert!(verdict.consistent, "n={n}");
            report.metrics.honest_multicasts
        };
        let small = count(64);
        let large = count(512);
        let ratio = large as f64 / small as f64;
        assert!(
            ratio < 3.0,
            "multicasts should be ~n-independent: n=64 -> {small}, n=512 -> {large}"
        );
    }

    #[test]
    fn quadratic_has_linear_multicasts_per_round() {
        let cfg = quad_cfg(21, 2);
        let sim = SimConfig::new(21, 0, CorruptionModel::Static, 2);
        let (report, _) = run(&cfg, &sim, vec![true; 21], Passive);
        // Everyone votes in round 0: at least n multicasts in the run.
        assert!(report.metrics.honest_multicasts >= 21);
    }

    #[test]
    fn oracle_leader_is_deterministic_and_varies() {
        let cfg = quad_cfg(11, 5);
        let l1 = cfg.oracle_leader(1).unwrap();
        let l1b = cfg.oracle_leader(1).unwrap();
        assert_eq!(l1, l1b);
        let distinct: std::collections::HashSet<_> =
            (1..20).map(|r| cfg.oracle_leader(r).unwrap()).collect();
        assert!(distinct.len() > 3, "20 draws should hit several leaders");
        assert!(subq_cfg(8, 4.0, 0).oracle_leader(1).is_none());
    }

    #[test]
    fn sparse_subq_byte_identical_to_dense() {
        for seed in 0..4 {
            let cfg = subq_cfg(96, 24.0, seed);
            let inputs: Vec<Bit> = (0..96).map(|i| i % 3 != 0).collect();
            let dense_sim = SimConfig::new(96, 0, CorruptionModel::Static, seed);
            let sparse_sim = dense_sim.clone().with_population(PopulationMode::Sparse);
            let (dense, dv) = run(&cfg, &dense_sim, inputs.clone(), Passive);
            let (sparse, sv) = run(&cfg, &sparse_sim, inputs.clone(), Passive);
            assert_eq!(sparse, dense, "seed={seed}");
            assert_eq!(format!("{sv:?}"), format!("{dv:?}"), "seed={seed}");
        }
    }

    #[test]
    fn sparse_materializes_committees_not_population() {
        // The memory win needs lambda << n: with per-tag eligibility
        // probability 16/512, the union of all phase committees over a short
        // run stays well below n.
        let n = 512;
        let cfg = subq_cfg(n, 16.0, 5);
        let inputs = vec![true; n]; // unanimous: decides in iteration 1
        let sim = SimConfig::new(n, 0, CorruptionModel::Static, 5)
            .with_population(PopulationMode::Sparse);
        let (report, verdict) = run(&cfg, &sim, inputs, Passive);
        assert!(verdict.all_ok(), "{verdict:?}");
        assert!(
            report.metrics.peak_live_nodes < (n / 2) as u64,
            "peak_live={} should be far below n={n}",
            report.metrics.peak_live_nodes
        );
    }

    #[test]
    fn sparse_falls_back_to_dense_for_signed_regime() {
        let cfg = quad_cfg(9, 4);
        assert!(!cfg.supports_sparse());
        let dense_sim = SimConfig::new(9, 0, CorruptionModel::Static, 4);
        let sparse_sim = dense_sim.clone().with_population(PopulationMode::Sparse);
        let inputs: Vec<Bit> = (0..9).map(|i| i % 2 == 0).collect();
        let (dense, _) = run(&cfg, &dense_sim, inputs.clone(), Passive);
        let (fallback, _) = run(&cfg, &sparse_sim, inputs, Passive);
        assert_eq!(fallback, dense);
        // Dense fallback materializes everyone.
        assert_eq!(fallback.metrics.peak_live_nodes, 9);
    }

    #[test]
    fn expected_constant_iterations_quadratic() {
        // Mean termination round over seeds should be far below the cap —
        // the expected-O(1)-rounds claim (Corollary 16).
        let mut total_rounds = 0u64;
        let runs = 20;
        for seed in 0..runs {
            let cfg = quad_cfg(9, seed);
            let sim = SimConfig::new(9, 0, CorruptionModel::Static, seed);
            let inputs: Vec<Bit> = (0..9).map(|i| i % 3 == 0).collect();
            let (report, verdict) = run(&cfg, &sim, inputs, Passive);
            assert!(verdict.terminated, "seed={seed}");
            total_rounds += report.rounds_used;
        }
        let mean = total_rounds as f64 / runs as f64;
        assert!(mean < 16.0, "mean rounds {mean} should be small (expected O(1) iterations)");
    }
}
