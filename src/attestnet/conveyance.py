"""Attestation conveyance: passport and background-check flows run as message
sequences over an in-memory reliable transport, with nonce replay rejection.

The verifier's own result message carries the signed result it was built
from (`ResultMsg.of`), so the verifier never decodes bytes it has just
encoded; the transport still checks that result's signature at send time, and
the result stores the check. A result message received as bytes is decoded at
most once: `ResultMsg.result()` stores the decoded result on the message. The
relying party appraises the result message it received, and the passport flow
forwards that same message object, so the transport's send-time check of it
is answered from what the appraisal already stored.

In the passport flow the attester forwards the bytes of the result message
that the transport carried from the verifier (`ResultMsg.forwarded_by`).
Decoding is canonical-only, so equal bytes decode to an equal result whose
signature check gives the same answer: a byte-identical forward shares the
carried message's result and its check, and only a forward with any byte
changed is decoded, and checked anew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
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
    _once,
    new_nonce,
)
from .verifier import appraise_evidence, appraise_result

RESOURCE_ID = "resource"  # the one resource that the flows request access to


class FlowError(RuntimeError):
    """Transport or protocol failure that aborts a flow."""


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


@dataclass(frozen=True)
class ResultMsg:
    sender: EntityId
    result_bytes: bytes  # canonical encoding; forwarded byte-identical

    @staticmethod
    def of(sender: EntityId, result: AttestationResult) -> "ResultMsg":
        """The message conveying the signed `result` from `sender`, which
        carries `result` itself rather than a decode of its bytes."""
        msg = ResultMsg(sender, result.to_bytes())
        _once(msg, "result", lambda: result)
        return msg

    def result(self) -> AttestationResult:
        return _once(self, "result", lambda: AttestationResult.from_bytes(self.result_bytes))

    def forwarded_by(self, sender: EntityId, result_bytes: bytes) -> "ResultMsg":
        """`result_bytes` conveyed on by `sender`; if they equal this message's
        bytes, the forward shares this message's decoded result."""
        forward = ResultMsg(sender, result_bytes)
        if result_bytes == self.result_bytes:
            _once(forward, "result", self.result)
        return forward


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
        if isinstance(msg, EvidenceMsg) and not msg.evidence.verify_signature():
            raise FlowError("evidence message not signature-valid at send time")
        if isinstance(msg, ResultMsg) and not msg.result().verify_signature():
            raise FlowError("result message not signature-valid at send time")
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
    # (the endorsement objects merged, their merged reference claims)
    _merged: tuple[tuple[Endorsement, ...], Mapping[str, ClaimValue]] = field(
        default_factory=lambda: ((), MappingProxyType({})), init=False, repr=False, compare=False
    )

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
    transport.send(AccessRequest(attester.identity, RESOURCE_ID))
    challenge = verifier_ctx.issue_challenge(clock)
    transport.send(ChallengeNonce(verifier_ctx.identity.entity, challenge))

    evidence = evidence_override or attester.generate_evidence(env, challenge, clock)
    transport.send(EvidenceMsg(attester.identity, evidence))

    if not verifier_ctx.consume_nonce(evidence.nonce_echo):
        return Decision(False, ("replay",))
    result = verifier_ctx.appraise(evidence, challenge, clock)
    carried = transport.send(ResultMsg.of(verifier_ctx.identity.entity, result))

    forwarded = result_tamper(carried.result_bytes) if result_tamper else carried.result_bytes
    forward = carried.forwarded_by(attester.identity, forwarded)
    try:
        received = forward.result()
    except ModelError:
        return Decision(False, ("result_decode",))
    granted = appraise_result(received, rp_ctx.result_policy, clock)
    if granted:
        transport.send(forward)
        return Decision(True)
    return Decision(False, received.reasons or ("result_rejected",))


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
    transport.send(AccessRequest(attester.identity, RESOURCE_ID))
    challenge = verifier_ctx.issue_challenge(clock)
    transport.send(ChallengeNonce(verifier_ctx.identity.entity, challenge))
    transport.send(ChallengeNonce(rp_ctx.identity.entity, challenge))  # RP relays

    evidence = evidence_override or attester.generate_evidence(env, challenge, clock)
    transport.send(EvidenceMsg(attester.identity, evidence))  # attester -> RP
    transport.send(EvidenceMsg(rp_ctx.identity.entity, evidence))  # RP -> verifier

    if not verifier_ctx.consume_nonce(evidence.nonce_echo):
        return Decision(False, ("replay",))
    result = verifier_ctx.appraise(evidence, challenge, clock)
    msg = transport.send(ResultMsg.of(verifier_ctx.identity.entity, result))

    received = msg.result()
    granted = appraise_result(received, rp_ctx.result_policy, clock)
    if granted:
        return Decision(True)
    return Decision(False, received.reasons or ("result_rejected",))
