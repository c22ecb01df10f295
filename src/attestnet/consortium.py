"""Deterministic simulator of a consortium permissioned blockchain where node
attestation verdicts gate validator selection, governance adapts to node
diversity, and policy/audit digests are anchored on a hash-linked ledger.

A domain's audit log holds the current epoch only: each earlier epoch lives on
the ledger as its `audit_digest`, so the simulator's memory does not grow with
the audit bytes of a long run. Ledger records and blocks are slotted value
types (no instance dict), since a run keeps every block.

`run_epoch` attests the nodes in batches, in node order: it draws a batch's
challenges (per node, the domain verifier's first), signs its evidence, queues
its signature checks for the helper process if the epoch has more batches to
overlap them with, then appraises the previous batch. The first batch is a
quarter of the others, so that the helper starts sooner, and the verifiers'
endorsements are queued before it. When a batch's first appraisal finds the
helper's answers not in yet, this process verifies the batch from its tail
until it meets a check the helper took (`model.check_signatures`), so it
never waits out a whole batch. Appraisal draws no randomness, so every
challenge, audit entry and ledger record is that of attesting node by node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Optional, Sequence

from .attester import AttestingEnvironment, TargetEnvironment
from .conveyance import VerifierContext
from .model import (
    BLOB,
    DIGEST,
    F64,
    TEXT,
    U64,
    AttestationResult,
    Digest,
    EvidencePolicy,
    GeoFence,
    GeoPoint,
    ModelError,
    Table,
    Verdict,
    ZERO_DIGEST,
    check_signatures,
    decode,
    digest,
    encode,
    pair,
    seq,
)

GENESIS_PREV = Digest(ZERO_DIGEST)
_GOVERNANCE = pair(U64, F64)  # a governance record's payload: the new majority, the diversity
_AUDIT = pair(TEXT, seq(BLOB))  # the domain id and its epoch's audit entries


class SimError(ValueError):
    """Raised on invalid simulator configuration or state."""


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LedgerRecord:
    kind: str  # policy_digest | policy.conflict | result_digest | audit_digest
    #            | governance | no_eligible
    payload: bytes


@dataclass(frozen=True, slots=True)
class LedgerBlock:
    height: int
    prev_digest: Digest
    records: tuple[LedgerRecord, ...]
    forger: str
    tick: int
    block_digest: Digest

    @classmethod
    def seal(cls, height: int, prev_digest: Digest, records: tuple[LedgerRecord, ...],
             forger: str, tick: int) -> "LedgerBlock":
        """The block over these fields, built once, with the digest of one
        encode of its fields."""
        fields = SimpleNamespace(height=height, prev_digest=prev_digest, records=records,
                                 forger=forger, tick=tick)
        return cls(**vars(fields), block_digest=digest(encode(_BLOCK, fields)))

    def content_bytes(self) -> bytes:
        return encode(_BLOCK, self)

    def to_bytes(self) -> bytes:
        return self.content_bytes() + self.block_digest.value

    @staticmethod
    def from_bytes(data: bytes) -> "LedgerBlock":
        return decode(_BLOCK, data)


_BLOCK = Table(
    LedgerBlock,
    ("height", U64),
    ("prev_digest", DIGEST),
    ("records", seq(Table(LedgerRecord, ("kind", TEXT), ("payload", BLOB)))),
    ("forger", TEXT),
    ("tick", U64),
    trailer=DIGEST,
)


def verify_chain(blocks: Sequence[LedgerBlock]) -> Optional[str]:
    """None if the chain verifies; otherwise a description of the first fault."""
    prev = GENESIS_PREV
    for i, block in enumerate(blocks):
        if block.height != i:
            return f"block {i}: height {block.height} not dense"
        if block.prev_digest != prev:
            return f"block {i}: broken prev link"
        if digest(block.content_bytes()) != block.block_digest:
            return f"block {i}: block digest mismatch"
        prev = block.block_digest
    return None


# ---------------------------------------------------------------------------
# Network entities
# ---------------------------------------------------------------------------


@dataclass
class Node:
    node_id: str
    domain_id: str
    attesting_env: AttestingEnvironment
    target_env: TargetEnvironment
    last_result: Optional[AttestationResult] = None


@dataclass
class Domain:
    """A domain and its verifier. `audit_log` holds the epoch in progress only:
    `run_epoch` clears it when an epoch starts, and anchors it as the epoch's
    `audit_digest` when the epoch ends. `last_audit_tick` outlives the clear,
    so the log stays tick-ordered across epochs (ticks are never negative)."""

    domain_id: str
    domain_verifier: VerifierContext
    audit_log: list[tuple[int, bytes]] = field(default_factory=list)
    last_audit_tick: int = 0

    def append_audit(self, tick: int, entry: bytes):
        if tick < self.last_audit_tick:
            raise SimError("audit log must be tick-ordered")
        self.last_audit_tick = tick
        self.audit_log.append((tick, entry))


@dataclass
class ConsortiumConfig:
    consortium_verifier: VerifierContext
    majority_parameter: int = 51
    diversity_threshold: float = 0.5
    raised_majority: int = 70
    geo_fence: Optional[GeoFence] = None
    epoch_length: int = 10

    def __post_init__(self):
        if not 50 < self.majority_parameter <= 100:
            raise ModelError("majority parameter must be in (50, 100]")
        if self.raised_majority < self.majority_parameter:
            raise ModelError("raised majority must be >= majority parameter")
        if not 0 < self.diversity_threshold <= 1:
            raise ModelError("diversity threshold must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class FaultInjection:
    tick: int
    node_id: str
    mutation: str  # flip_sw_byte | change_fw | move_geo | clone_config
    lat: float = 0.0
    lon: float = 0.0
    fw_version: int = 0
    from_node: str = ""


@dataclass
class EpochReport:
    epoch: int
    tick: int
    verdicts: dict[str, str]
    domain_verdicts: dict[str, str]
    validator: Optional[str]
    diversity: float
    majority: int
    block_digest: Optional[Digest]

    def render(self) -> str:
        lines = [
            f"epoch {self.epoch} tick {self.tick}",
            f"  diversity {self.diversity:.4f} majority {self.majority}",
            f"  validator {self.validator or '(none eligible)'}",
        ]
        for node_id in sorted(self.verdicts):
            lines.append(
                f"  node {node_id}: consortium={self.verdicts[node_id]}"
                f" domain={self.domain_verdicts[node_id]}"
            )
        if self.block_digest is not None:
            lines.append(f"  block {self.block_digest.hex()}")
        return "\n".join(lines)


class Universe:
    """All simulation state; fully determined by the scenario seed."""

    def __init__(self, config: ConsortiumConfig, seed: int):
        self.config = config
        self.rng = random.Random(seed)
        self.clock = 0
        self.domains: dict[str, Domain] = {}
        self.nodes: dict[str, Node] = {}
        self.ledger: list[LedgerBlock] = []
        self.pending_records: list[LedgerRecord] = []
        self.effective_majority = config.majority_parameter
        # faults not yet applied, in (tick, node_id) order; `run_epoch` pops the due ones
        self.faults: list[FaultInjection] = []
        self.epoch_index = 0
        self._recorded_policy_digests: set[bytes] = set()

    def add_domain(self, domain: Domain):
        if domain.domain_id in self.domains:
            raise SimError(f"duplicate domain id {domain.domain_id}")
        self.domains[domain.domain_id] = domain

    def add_node(self, node: Node):
        if node.node_id in self.nodes:
            raise SimError(f"duplicate node id {node.node_id}")
        if node.domain_id not in self.domains:
            raise SimError(f"node {node.node_id} references unknown domain {node.domain_id}")
        self.nodes[node.node_id] = node

    def sorted_nodes(self) -> list[Node]:
        return [self.nodes[nid] for nid in sorted(self.nodes)]


# ---------------------------------------------------------------------------
# Policy distribution
# ---------------------------------------------------------------------------


def distribute_policies(universe: Universe):
    """Anchor the consortium and domain policy digests on the ledger
    (idempotent by digest). A domain rule conflicting with a consortium rule
    is recorded and loses: the domain verifier gets the consortium's copy.
    A scenario's policies share one rule set, so only a domain's
    fw_min_version override conflicts; a shared rule is matched by identity."""
    consortium_policy = universe.config.consortium_verifier.policy
    _record_policy_digest(universe, consortium_policy)
    by_id = {r.rule_id: r for r in consortium_policy.rules}
    for domain in universe.domains.values():
        dv = domain.domain_verifier
        resolved = tuple(by_id.get(r.rule_id, r) for r in dv.policy.rules)
        for rule, winner in zip(dv.policy.rules, resolved):
            if winner is not rule and winner != rule:
                universe.pending_records.append(
                    LedgerRecord("policy.conflict", f"{domain.domain_id}:{rule.rule_id}".encode())
                )
        if resolved != dv.policy.rules:
            dv.policy = replace(dv.policy, rules=resolved)
        _record_policy_digest(universe, dv.policy)


def _record_policy_digest(universe: Universe, policy: EvidencePolicy):
    d = policy.digest()
    if d.value not in universe._recorded_policy_digests:
        universe._recorded_policy_digests.add(d.value)
        universe.pending_records.append(LedgerRecord("policy_digest", d.value))


# ---------------------------------------------------------------------------
# Faults
# ---------------------------------------------------------------------------


def faulted(env_of, fault: FaultInjection) -> TargetEnvironment:
    """The environment that `fault` gives its node, where `env_of(node_id)` is a
    node's environment before it: for `run_epoch` and `check_faults` alike."""
    env = env_of(fault.node_id)
    if fault.mutation == "flip_sw_byte":
        if not env.sw_images:
            raise SimError(f"fault on {fault.node_id}: flip_sw_byte at tick {fault.tick} "
                           "finds no sw images to flip")
        name, image = env.sw_images[0]
        flipped = bytes([image[0] ^ 0x01]) + image[1:]
        return replace(env, sw_images=((name, flipped),) + env.sw_images[1:])
    if fault.mutation == "change_fw":
        return replace(env, fw_version=fault.fw_version)
    if fault.mutation == "move_geo":
        return replace(env, geo=GeoPoint(fault.lat, fault.lon, env.geo.altitude))
    if fault.mutation == "clone_config":
        return env_of(fault.from_node)
    raise SimError(f"unknown fault mutation {fault.mutation!r}")


def _apply_fault(universe: Universe, fault: FaultInjection):
    nodes = universe.nodes
    nodes[fault.node_id].target_env = faulted(lambda node_id: nodes[node_id].target_env, fault)


def check_faults(universe: Universe):
    """Dry-run the pending faults, in `run_epoch`'s order, over a copy of the
    nodes' environments: a fault that cannot apply fails before any epoch runs."""
    envs = {node_id: node.target_env for node_id, node in universe.nodes.items()}
    for fault in universe.faults:
        envs[fault.node_id] = faulted(envs.__getitem__, fault)


# ---------------------------------------------------------------------------
# Epoch machinery
# ---------------------------------------------------------------------------


def diversity_metric(universe: Universe) -> float:
    nodes = universe.sorted_nodes()
    if not nodes:
        raise SimError("diversity metric requires at least one node")
    distinct = {n.target_env.config_digest().value for n in nodes}
    return len(distinct) / len(nodes)


def update_governance(universe: Universe, diversity: float) -> int:
    """Evaluate the diversity rule on this epoch's `diversity_metric` and
    switch the effective majority parameter."""
    cfg = universe.config
    new = cfg.raised_majority if diversity < cfg.diversity_threshold else cfg.majority_parameter
    if new != universe.effective_majority:
        universe.effective_majority = new
        universe.pending_records.append(
            LedgerRecord("governance", encode(_GOVERNANCE, (new, diversity)))
        )
    return universe.effective_majority


def eligible_nodes(universe: Universe) -> list[Node]:
    """Nodes whose latest consortium result is compliant, fresh, and from
    inside the geo fence: the only nodes that may forge a block."""
    cfg = universe.config
    return [
        node for node in universe.sorted_nodes()
        if node.last_result is not None
        and node.last_result.verdict == Verdict.COMPLIANT
        and universe.clock - node.last_result.created_at <= cfg.epoch_length
        and (cfg.geo_fence is None or cfg.geo_fence.contains(node.target_env.geo))
    ]


def select_validator(universe: Universe, round_seed: int) -> Optional[str]:
    """Stake-weighted pick among attestation-eligible nodes; None = no_eligible."""
    candidates = [n for n in eligible_nodes(universe) if n.target_env.stake > 0]
    if not candidates:
        return None
    total = sum(n.target_env.stake for n in candidates)
    draw = random.Random(round_seed).random() * total
    acc = 0
    for node in candidates:  # already in ascending node_id order
        acc += node.target_env.stake
        if draw < acc:
            return node.node_id
    return candidates[-1].node_id


def forge_block(universe: Universe, validator: str, records: Sequence[LedgerRecord]) -> LedgerBlock:
    prev = universe.ledger[-1].block_digest if universe.ledger else GENESIS_PREV
    block = LedgerBlock.seal(len(universe.ledger), prev, tuple(records), validator,
                             universe.clock)
    universe.ledger.append(block)
    return block


# Nodes per batch of `run_epoch`. On a 2-vCPU host (unscaled benchmark wall
# time, two rounds of 6 s runs), with 8, 16, 32 and 64: the 40-node
# sim-catalog took 0.071, 0.068-0.090, 0.084-0.108 and 0.125 s (64 is one
# batch per epoch, checked in process), and the 600-node sim-fleet 0.60-0.71,
# 0.57-0.59, 0.55-0.62 and 0.54-0.67 s.
BATCH_NODES = 16


def run_epoch(universe: Universe) -> EpochReport:
    """One attestation epoch: apply scheduled faults, attest every node to its
    domain and the consortium verifier, anchor audit digests, re-evaluate
    governance, select a validator, and forge the epoch's block."""
    cfg = universe.config
    clock = universe.clock
    faults = universe.faults
    while faults and faults[0].tick < clock + cfg.epoch_length:
        _apply_fault(universe, faults.pop(0))

    verdicts: dict[str, str] = {}
    domain_verdicts: dict[str, str] = {}
    for domain in universe.domains.values():
        domain.audit_log.clear()  # earlier epochs live on the ledger as audit digests
    cv = cfg.consortium_verifier
    nodes = universe.sorted_nodes()
    overlap = len(nodes) > BATCH_NODES  # a lone batch has nothing to overlap its checks with
    if overlap:  # checked before the first appraisal merges them
        check_signatures([end for v in (cv, *(d.domain_verifier for d in universe.domains.values()))
                          for end in v.endorsements])
    # a short first batch, so that the helper starts sooner; the last is empty
    bounds = [0, *range(BATCH_NODES // 4, len(nodes) + 2 * BATCH_NODES, BATCH_NODES)]
    attested = []
    for start, end in zip(bounds, bounds[1:]):
        previous, attested = attested, []
        for node in nodes[start:end]:
            dv = universe.domains[node.domain_id].domain_verifier
            nonces = (dv.issue_challenge(clock), cv.issue_challenge(clock))
            evidences = tuple(node.attesting_env.generate_evidence(node.target_env, nonce, clock)
                              for nonce in nonces)
            attested.append((node, dv, nonces, evidences))
        if overlap:
            check_signatures([ev for *_, evs in attested for ev in evs])
        for node, dv, (dv_nonce, cv_nonce), (dv_evidence, cv_evidence) in previous:
            dv_result = dv.appraise(dv_evidence, dv_nonce, clock)
            cv_result = cv.appraise(cv_evidence, cv_nonce, clock)

            node.last_result = cv_result
            verdicts[node.node_id] = cv_result.verdict.value
            domain_verdicts[node.node_id] = dv_result.verdict.value

            cv_result_bytes = cv_result.to_bytes()
            for entry in (dv_evidence.to_bytes(), dv_result.to_bytes(),
                          cv_evidence.to_bytes(), cv_result_bytes):
                universe.domains[node.domain_id].append_audit(clock, entry)
            universe.pending_records.append(
                LedgerRecord("result_digest", digest(cv_result_bytes).value)
            )

    for domain_id in sorted(universe.domains):
        entries = [entry for _, entry in universe.domains[domain_id].audit_log]
        if entries:
            universe.pending_records.append(
                LedgerRecord("audit_digest", audit_digest(domain_id, entries).value)
            )

    diversity = diversity_metric(universe)
    majority = update_governance(universe, diversity)

    round_seed = universe.rng.getrandbits(64)
    validator = select_validator(universe, round_seed)
    block = None
    if validator is None:
        universe.pending_records.append(LedgerRecord("no_eligible", b""))
    else:
        block = forge_block(universe, validator, universe.pending_records)
        universe.pending_records = []

    report = EpochReport(
        epoch=universe.epoch_index,
        tick=clock,
        verdicts=verdicts,
        domain_verdicts=domain_verdicts,
        validator=validator,
        diversity=diversity,
        majority=majority,
        block_digest=block.block_digest if block else None,
    )
    universe.epoch_index += 1
    universe.clock += cfg.epoch_length
    return report


def audit_digest(domain_id: str, entries: Sequence[bytes]) -> Digest:
    return digest(encode(_AUDIT, (domain_id, entries)))


# ---------------------------------------------------------------------------
# Ledger export
# ---------------------------------------------------------------------------


def export_ledger(blocks: Sequence[LedgerBlock]) -> str:
    """One canonical-encoded block per line, hex."""
    return "\n".join(b.to_bytes().hex() for b in blocks) + ("\n" if blocks else "")


def import_ledger(text: str) -> list[LedgerBlock]:
    blocks = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            try:
                data = bytes.fromhex(line)
            except ValueError as exc:
                raise ModelError(f"ledger export line is not hex: {exc}") from exc
            blocks.append(LedgerBlock.from_bytes(data))
    return blocks


def render_block(block: LedgerBlock) -> str:
    lines = [
        f"block {block.height} tick {block.tick} forger {block.forger or '(none)'}",
        f"  prev   {block.prev_digest.hex()}",
        f"  digest {block.block_digest.hex()}",
    ]
    for rec in block.records:
        payload = rec.payload.hex()
        if len(payload) > 64:
            payload = payload[:64] + "..."
        lines.append(f"  record {rec.kind} {payload}")
    return "\n".join(lines)
