"""Deterministic simulator of a consortium permissioned blockchain where node
attestation verdicts gate validator selection, governance adapts to node
diversity, and policy/audit digests are anchored on a hash-linked ledger.

The universe reads its parameters from the scenario that
`scenario.parse_scenario` checked, which owns every check on their values; the
simulator itself refuses only a fault that cannot apply (`faulted`).

Ledger records and blocks are slotted value types (no instance dict), since a
run keeps every block.
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
    """Raised for a fault that cannot apply, and on simulator state that breaks
    an invariant (an audit entry out of tick order)."""


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
    # what `seal` hashed; none if not sealed (decoded, or copied by `replace`)
    _content: bytes = field(default=b"", init=False, repr=False, compare=False)

    @classmethod
    def seal(cls, height: int, prev_digest: Digest, records: tuple[LedgerRecord, ...],
             forger: str, tick: int) -> "LedgerBlock":
        """The block over these fields, built once, holding the one encode of
        its fields that its digest hashes and its export writes."""
        fields = SimpleNamespace(height=height, prev_digest=prev_digest, records=records,
                                 forger=forger, tick=tick)
        block = cls(**vars(fields), block_digest=digest(content := encode(_BLOCK, fields)))
        object.__setattr__(block, "_content", content)  # the dataclass is frozen
        return block

    def content_bytes(self) -> bytes:
        return self._content or encode(_BLOCK, self)

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
    """A domain and its verifier. `audit_log` holds the epoch in progress only,
    so that a long run's memory does not grow with its audit bytes:
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


@dataclass(frozen=True, slots=True)
class FaultInjection:
    tick: int
    node_id: str
    mutation: str  # one that `faulted` knows
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
    """All simulation state, fully determined by the scenario. `config` is the
    `scenario.ScenarioConfig` that `parse_scenario` checked, kept as it is;
    `scenario.build_universe` fills `domains` and `nodes` from it."""

    def __init__(self, config, consortium_verifier: VerifierContext):
        self.config = config
        self.consortium_verifier = consortium_verifier
        self.rng = random.Random(config.seed)
        self.clock = 0
        self.domains: dict[str, Domain] = {}
        self.nodes: dict[str, Node] = {}
        self.ledger: list[LedgerBlock] = []
        self.pending_records: list[LedgerRecord] = []
        self.effective_majority = config.majority_parameter
        # faults not yet applied, in (tick, node_id) order; `run_epoch` pops the due ones
        self.faults: list[FaultInjection] = list(config.faults)
        self.epoch_index = 0

    def sorted_nodes(self) -> list[Node]:
        return [self.nodes[nid] for nid in sorted(self.nodes)]


# ---------------------------------------------------------------------------
# Policy distribution
# ---------------------------------------------------------------------------


def distribute_policies(universe: Universe):
    """Anchor the consortium's policy digest, then each domain's in scenario
    order, once per universe. The consortium sets its domains' policy, so each
    verifier holds its rules from the start (`scenario._rules`); a domain's own
    fw_min_version other than the scenario's is recorded, before that domain's
    digest, as a `policy.conflict` that loses."""
    cfg, anchor = universe.config, universe.pending_records.append
    anchor(LedgerRecord("policy_digest", universe.consortium_verifier.policy.digest().value))
    for domain_id, domain in universe.domains.items():
        if cfg.domains[domain_id].fw_min_version not in (None, cfg.fw_min_version):
            anchor(LedgerRecord("policy.conflict", f"{domain_id}:fw.min".encode()))
        anchor(LedgerRecord("policy_digest", domain.domain_verifier.policy.digest().value))


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
    raise SimError(f"fault on {fault.node_id}: unknown mutation {fault.mutation!r}")


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
    """The share of distinct node configurations; a scenario has at least one node."""
    nodes = universe.nodes.values()
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
    for node in candidates:  # ascending node_id; random() < 1, so draw < total and one returns
        acc += node.target_env.stake
        if draw < acc:
            return node.node_id


def forge_block(universe: Universe, validator: str, records: Sequence[LedgerRecord]) -> LedgerBlock:
    prev = universe.ledger[-1].block_digest if universe.ledger else GENESIS_PREV
    block = LedgerBlock.seal(len(universe.ledger), prev, tuple(records), validator,
                             universe.clock)
    universe.ledger.append(block)
    return block


# Nodes per batch of `run_epoch`. The first batch is a quarter of it, so that
# the helper starts sooner: with equal batches, the 600-node sim-fleet's
# scaled benchmark `wall_s` median rose from 0.3163 to 0.3236 s, worse in 6
# of 6 pairs (8 s runs, 2-vCPU host).
BATCH_NODES = 16


def run_epoch(universe: Universe) -> EpochReport:
    """One attestation epoch: apply scheduled faults, attest every node to its
    domain and the consortium verifier, anchor audit digests, re-evaluate
    governance, select a validator, and forge the epoch's block.

    The nodes are attested in batches, in node order: a batch's challenges
    are drawn (per node, the domain verifier's first), its evidence is signed
    and its signature checks are queued for the helper process
    (`model.check_signatures`), then the previous batch is appraised while the
    helper checks this one. The first batch is a quarter of the others, so
    that the helper starts sooner, and the verifiers' endorsements are queued
    with it, so that the first appraisal does not verify them here and no
    batch meets two unread (which `_Helper.send` may decline). An epoch of one
    batch queues nothing: no later batch would overlap its checks. Appraisal
    draws no randomness, so every challenge, audit entry and ledger record is
    that of attesting node by node."""
    cfg = universe.config
    clock = universe.clock
    faults = universe.faults
    while faults and faults[0].tick < clock + cfg.epoch_length:
        _apply_fault(universe, faults.pop(0))

    verdicts: dict[str, str] = {}
    domain_verdicts: dict[str, str] = {}
    for domain in universe.domains.values():
        domain.audit_log.clear()
    cv = universe.consortium_verifier
    nodes = universe.sorted_nodes()
    overlap = len(nodes) > BATCH_NODES
    # a short first batch; the last is empty, to appraise the one before it
    bounds = [0, *range(BATCH_NODES // 4, len(nodes) + 2 * BATCH_NODES, BATCH_NODES)]
    endorsements = [end for v in (cv, *(d.domain_verifier for d in universe.domains.values()))
                    for end in v.endorsements]
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
            check_signatures([*endorsements, *(ev for *_, evs in attested for ev in evs)])
            endorsements = []
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
