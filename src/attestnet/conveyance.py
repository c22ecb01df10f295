"""Attestation conveyance: passport and background-check flows run as message
sequences over an in-memory reliable transport, with nonce replay rejection.

The transport carries messages and judges none of them: the verifier
appraises evidence and the relying party appraises results (RFC 9334, §3 and
§5), so a forged evidence or result is a denied `Decision`, not an error. Both
flows share one verifier exchange (`_exchange`) and one relying-party
decision (`_decide`). In the passport flow the relying party appraises the
signed result that the verifier sent when the attester forwards its bytes
unchanged (decoding is canonical-only, so they would decode to an equal
result), and decodes only a forward with any byte changed.

A signed, accepted, fresh and compliant result is granted only if it names the
requester and echoes the session's challenge (RFC 9334 §5.1), else denied with
`binding`. An accomplice attesting with the requester's key still passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from . import verifier
from .attester import AttestingEnvironment, TargetEnvironment
from .model import (
    AttestationResult,
    ClaimValue,
    Endorsement,
    EntityId,
    Evidence,
    EvidencePolicy,
    ModelError,
    Nonce,
    ResultPolicy,
    SignerIdentity,
    new_nonce,
)
from .verifier import appraise_evidence, appraise_result

RESOURCE_ID = "resource"  # the one resource that the flows request access to


class FlowError(RuntimeError):
    """A closed transport, the one failure that aborts a flow."""


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AccessRequest:
    sender: EntityId
    resource_id: str


@dataclass(frozen=True, slots=True)
class ChallengeNonce:
    sender: EntityId
    nonce: Nonce


@dataclass(frozen=True, slots=True)
class EvidenceMsg:
    sender: EntityId
    evidence: Evidence


@dataclass(frozen=True, slots=True)
class ResultMsg:
    sender: EntityId
    result_bytes: bytes  # canonical encoding; forwarded byte-identical


FlowMessage = Union[AccessRequest, ChallengeNonce, EvidenceMsg, ResultMsg]


@dataclass(frozen=True, slots=True)
class Decision:
    granted: bool
    reasons: tuple[str, ...] = ()


class Transport:
    """Reliable, ordered in-memory channel; records a transcript."""

    def __init__(self):
        self.log: list[FlowMessage] = []
        self._open = True

    def close(self):
        self._open = False

    def send(self, msg: FlowMessage) -> FlowMessage:
        if not self._open:
            raise FlowError("transport closed")
        self.log.append(msg)
        return msg

    def transcript(self) -> str:
        lines = []
        for msg in self.log:
            kind = type(msg).__name__
            lines.append(f"{kind} from {msg.sender.role.value}:{msg.sender.name}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Role contexts
# ---------------------------------------------------------------------------


@dataclass
class VerifierContext:
    """A verifier with its policy, endorsements, nonce source, and replay cache.

    The endorsements are merged into reference claims on the first appraisal
    after `endorsements` changes, not on every appraisal, so each endorsement
    signature is checked and each conflict logged once per endorsement set.
    """

    identity: SignerIdentity
    policy: EvidencePolicy
    endorsements: list[Endorsement]
    rng: object
    seen_nonces: set = field(default_factory=set)
    # (the endorsement objects merged, their merged reference claims), or
    # (None, None) before the first merge
    _merged: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def issue_challenge(self, clock: int) -> Nonce:
        return new_nonce(clock, self.rng)

    def consume_nonce(self, nonce: Nonce) -> bool:
        """Mark a nonce used; False means it was already consumed."""
        if nonce.value in self.seen_nonces:
            return False
        self.seen_nonces.add(nonce.value)
        return True

    def references(self) -> Mapping[str, ClaimValue]:
        endorsements = tuple(self.endorsements)
        merged_from, references = self._merged
        # tuple equality tests identity before ==, so an unchanged endorsement
        # list costs no field comparisons
        if endorsements != merged_from:
            references = verifier.merge_reference_claims(endorsements)
            self._merged = (endorsements, references)
        return references

    def appraise(self, evidence: Evidence, expected_nonce: Nonce, clock: int) -> AttestationResult:
        return appraise_evidence(
            evidence, self.references(), self.policy, expected_nonce, self.identity, clock
        )


@dataclass
class RelyingPartyContext:
    identity: SignerIdentity
    result_policy: ResultPolicy


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------


def _exchange(attester: AttestingEnvironment, env: TargetEnvironment, verifier_ctx: VerifierContext,
              transport: Transport, clock: int, evidence_override: Optional[Evidence],
              relays: tuple[EntityId, ...] = ()) -> Optional[tuple[AttestationResult, ResultMsg, Nonce]]:
    """The verifier's half of a session: the access request; the challenge and
    the evidence, each passed on by `relays` (the relying party in the
    background-check model); the replay check, the appraisal, the result
    message and the challenge. None means the evidence is a replay."""
    transport.send(AccessRequest(attester.identity, RESOURCE_ID))
    challenge = verifier_ctx.issue_challenge(clock)
    for sender in (verifier_ctx.identity.entity, *relays):
        transport.send(ChallengeNonce(sender, challenge))
    evidence = evidence_override or attester.generate_evidence(env, challenge, clock)
    for sender in (attester.identity, *relays):
        transport.send(EvidenceMsg(sender, evidence))
    # only authentic evidence consumes its echo, so forged evidence neither grows
    # the replay cache nor burns a nonce; appraisal reads this stored check
    if evidence.verify_signature() and not verifier_ctx.consume_nonce(evidence.nonce_echo):
        return None
    result = verifier_ctx.appraise(evidence, challenge, clock)
    return result, transport.send(ResultMsg(verifier_ctx.identity.entity, result.to_bytes())), challenge


def _decide(result: AttestationResult, rp_ctx: RelyingPartyContext, clock: int,
            requester: EntityId, challenge: Nonce) -> Decision:
    """The relying party's decision; a forged result gives no reasons of its own."""
    if appraise_result(result, rp_ctx.result_policy, clock):  # then the binding, last
        bound = result.attester == requester and result.appraised_nonce == challenge
        return Decision(bound, () if bound else ("binding",))
    return Decision(False, result.verify_signature() and result.reasons or ("result_rejected",))


_REPLAY = Decision(False, ("replay",))


def run_passport_flow(
    attester: AttestingEnvironment,
    env: TargetEnvironment,
    verifier_ctx: VerifierContext,
    rp_ctx: RelyingPartyContext,
    transport: Transport,
    clock: int,
    evidence_override: Optional[Evidence] = None,
    result_tamper=None,
) -> Decision:
    """Attester obtains a signed result from the verifier and carries it to the
    relying party like a passport. `evidence_override` and `result_tamper` are
    test hooks modelling a misbehaving attester."""
    exchanged = _exchange(attester, env, verifier_ctx, transport, clock, evidence_override)
    if exchanged is None:
        return _REPLAY
    result, carried, challenge = exchanged
    forwarded = result_tamper(carried.result_bytes) if result_tamper else carried.result_bytes
    if forwarded != carried.result_bytes:
        try:
            result = AttestationResult.from_bytes(forwarded)
        except ModelError:
            return Decision(False, ("result_decode",))
    decision = _decide(result, rp_ctx, clock, attester.identity, challenge)
    if decision.granted:
        transport.send(ResultMsg(attester.identity, forwarded))
    return decision


def run_background_check_flow(
    attester: AttestingEnvironment,
    env: TargetEnvironment,
    rp_ctx: RelyingPartyContext,
    verifier_ctx: VerifierContext,
    transport: Transport,
    clock: int,
    evidence_override: Optional[Evidence] = None,
) -> Decision:
    """Relying party forwards the evidence to the verifier and receives the
    result directly; the verifier's challenge reaches the attester via the RP."""
    exchanged = _exchange(attester, env, verifier_ctx, transport, clock, evidence_override,
                          (rp_ctx.identity.entity,))
    if exchanged is None:
        return _REPLAY
    return _decide(exchanged[0], rp_ctx, clock, attester.identity, exchanged[2])
