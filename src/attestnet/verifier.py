"""Verifier role: appraises evidence against endorsements and policy, emits
signed attestation results; also the relying-party appraisal of results.

Appraisals take the reference claims already merged from the endorsements
(`merge_reference_claims`), which `conveyance.VerifierContext` merges once
per endorsement set.

The rules are judged from a plan made once per policy object and stored on it
(`_rule_plan`): claim_present, version_at_least and geo_fence rules on every
claim set, and reference_match rules, vacuous on an absent claim, by claim
key, in one walk over the claim set's entries; the reasons keep policy order.
They judge only the claim set, the merged references and the policy, so they
are worked out once per (claim set, reference map, policy) and stored on the
claim set, which every evidence of an unchanged configuration shares, in its
`_rule_reasons` dict keyed by the identities of the map and the policy; but
only when the reference map is a `MappingProxyType`: the read-only view that
`merge_reference_claims` returns over a dict that nothing else holds. (A
caller passing a view of its own must not change the dict under it.) Any other
mapping is evaluated at every appraisal. A changed endorsement set is a new
reference map and a replaced policy a new object, so either is a miss. The
checks that depend on the evidence itself (signature, nonce and staleness, and
the layer chain) run for every evidence.

Reason vocabulary: builtin ids "sig", "nonce" (the echo differs from the
challenge in value or in tick), "stale" (the older of the two ticks is more
than the freshness window ago), "missing_claim:<key>", layer ids "layer.<i>" /
"layer.len" / "layer.no_secret", component ids "component.<i>.<reason>" /
"component.<i>.no_policy", and policy rule ids. A reason carrying the
".no_reference" suffix (or "layer.no_secret") marks a check the verifier could
not judge; if only such reasons occur the verdict is `unknown` rather than
`non_compliant`.
"""

from __future__ import annotations

from functools import partial
from operator import le
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .attester import layer_chain
from .model import (
    AttestationResult,
    ClaimSet,
    ClaimValue,
    Digest,
    Endorsement,
    Evidence,
    EvidencePolicy,
    Nonce,
    ResultPolicy,
    RuleKind,
    SignerIdentity,
    Verdict,
    _once,
    sign_message,
)

NO_REFERENCE_SUFFIX = ".no_reference"
NO_SECRET_REASON = "layer.no_secret"


def _is_unknown_reason(reason: str) -> bool:
    return reason.endswith(NO_REFERENCE_SUFFIX) or reason == NO_SECRET_REASON


def _verdict_from_reasons(reasons: Sequence[str]) -> Verdict:
    if not reasons:
        return Verdict.COMPLIANT
    if all(_is_unknown_reason(r) for r in reasons):
        return Verdict.UNKNOWN
    return Verdict.NON_COMPLIANT


def _warn(message: str, *args) -> None:
    """Log a warning; `logging` (about 0.6 MiB) is imported only when one is."""
    import logging
    logging.getLogger(__name__).warning(message, *args)


def merge_reference_claims(endorsements: Sequence[Endorsement]) -> Mapping[str, ClaimValue]:
    """Union of reference claims from signature-valid endorsements, as a
    read-only view of a dict that nothing else holds.

    On conflicting values for the same claim key the later issued_at wins;
    the conflict is logged and does not affect the verdict.
    """
    merged: dict[str, tuple[int, ClaimValue]] = {}
    for end in endorsements:
        if not end.verify_signature():
            _warn("discarding endorsement for %s: invalid signature", end.product_id)
            continue
        for key, value in end.reference_claims.items():
            prev = merged.get(key)
            if prev is not None and prev[1] != value:
                _warn("endorsement.conflict on claim %s (product %s)", key, end.product_id)
            if prev is None or end.issued_at >= prev[0]:
                merged[key] = (end.issued_at, value)
    return MappingProxyType({k: v for k, (_, v) in merged.items()})


def _rule_plan(policy: EvidencePolicy) -> tuple[list, dict]:
    """`policy`'s rules, each with its place in the policy: those judged on
    every claim set, as (place, id, claim key, claim kind, test of the value),
    and the reference_match rules by claim key, as (place, id). A node's
    claims reach 4 of the benchmark catalog policy's 61 rules, so the plan
    judges a claim set about 10 times faster than a loop over every rule."""
    every, by_key = [], {}
    for place, rule in enumerate(policy.rules):
        if rule.kind == RuleKind.REFERENCE_MATCH:
            by_key.setdefault(rule.claim_key, []).append((place, rule.rule_id))
        elif rule.kind == RuleKind.VERSION_AT_LEAST:  # value >= bound
            every.append((place, rule.rule_id, rule.claim_key, "int", partial(le, rule.bound)))
        elif rule.kind == RuleKind.GEO_FENCE:
            every.append((place, rule.rule_id, rule.claim_key, "geo", rule.fence.contains))
        elif rule.kind == RuleKind.CLAIM_PRESENT:
            every.append((place, rule.rule_id, rule.claim_key, None, None))
    return every, by_key  # components_all_compliant is judged by appraise_composite


def _evaluate_rules(
    claims: ClaimSet,
    references: Mapping[str, ClaimValue],
    policy: EvidencePolicy,
) -> list[str]:
    reasons = []
    for key in policy.required_claims:
        if key not in claims:
            reasons.append(f"missing_claim:{key}")
    every, by_key = _once(policy, "_rule_plan", _rule_plan)
    failed = []
    for place, rule_id, key, kind, test in every:
        claim = claims.get(key)
        if claim is None or (kind and (claim.kind != kind or not test(claim.value))):
            failed.append((place, rule_id))
    for key, claim in claims.items():
        rules = by_key.get(key)
        if rules:
            ref = references.get(key)
            if ref is None:
                failed += [(place, rule_id + NO_REFERENCE_SUFFIX) for place, rule_id in rules]
            elif claim != ref:
                failed += rules
    if failed:
        failed.sort()  # into policy order
        reasons += [reason for _, reason in failed]
    return reasons


def _rule_reasons(
    claims: ClaimSet,
    references: Mapping[str, ClaimValue],
    policy: EvidencePolicy,
) -> Sequence[str]:
    """The policy rule reasons for `claims`, stored on the claim set when
    `references` is a read-only reference map (see the module docstring)."""
    if type(references) is not MappingProxyType:
        return _evaluate_rules(claims, references, policy)
    # Keyed by identity: each entry holds both objects, so neither id can name
    # another object while the claim set lives.
    stored = claims.__dict__.setdefault("_rule_reasons", {})
    key = (id(references), id(policy))
    if key not in stored:
        stored[key] = (references, policy, tuple(_evaluate_rules(claims, references, policy)))
    return stored[key][2]


def _evaluate_evidence(
    evidence: Evidence,
    references: Mapping[str, ClaimValue],
    policy: EvidencePolicy,
    expected_nonce: Optional[Nonce],
    clock: int,
) -> list[str]:
    """Core checks; expected_nonce=None relaxes nonce and freshness checks."""
    reasons = []
    if not evidence.verify_signature():
        reasons.append("sig")
    if expected_nonce is not None:
        echo = evidence.nonce_echo
        if echo != expected_nonce:
            reasons.append("nonce")
        # from the older tick, so that an echo with a later tick gains no time
        if clock - min(echo.issued_at, expected_nonce.issued_at) > policy.freshness_window:
            reasons.append("stale")
    reasons.extend(_rule_reasons(evidence.target_claims, references, policy))
    return reasons


def _make_result(
    verifier: SignerIdentity,
    evidence: Evidence,
    policy: EvidencePolicy,
    reasons: Sequence[str],
    clock: int,
) -> AttestationResult:
    verdict = _verdict_from_reasons(reasons)
    unsigned = AttestationResult(
        verifier=verifier.entity,
        attester=evidence.attester,
        verdict=verdict,
        policy_digest=policy.digest(),
        appraised_nonce=evidence.nonce_echo,
        reasons=tuple(reasons),
        created_at=clock,
    )
    return sign_message(unsigned, verifier.key)


def appraise_evidence(
    evidence: Evidence,
    references: Mapping[str, ClaimValue],
    policy: EvidencePolicy,
    expected_nonce: Nonce,
    verifier: SignerIdentity,
    clock: int,
) -> AttestationResult:
    """Appraise one piece of evidence against merged reference claims; every
    failure is a verdict, not an error."""
    reasons = _evaluate_evidence(evidence, references, policy, expected_nonce, clock)
    return _make_result(verifier, evidence, policy, reasons, clock)


def appraise_layered(
    evidence: Evidence,
    golden_measurements: Sequence[Digest],
    device_secret_registry: Mapping[str, bytes],
    references: Mapping[str, ClaimValue],
    policy: EvidencePolicy,
    expected_nonce: Nonce,
    verifier: SignerIdentity,
    clock: int,
) -> AttestationResult:
    """Recompute the layer-key chain from the registered device secret and the
    golden measurements; trust in a layer requires all previous layers."""
    reasons: list[str] = []
    chain = evidence.layer_chain or ()
    secret = device_secret_registry.get(evidence.attester.name)
    if secret is None:
        reasons.append(NO_SECRET_REASON)
    elif len(chain) != len(golden_measurements):
        reasons.append("layer.len")
    else:
        for i, (rec, want) in enumerate(zip(chain, layer_chain(secret, golden_measurements))):
            if rec != want:
                reasons.append(f"layer.{i}")
                break
    reasons.extend(_evaluate_evidence(evidence, references, policy, expected_nonce, clock))
    return _make_result(verifier, evidence, policy, reasons, clock)


def appraise_composite(
    evidence: Evidence,
    references: Mapping[str, ClaimValue],
    policy: EvidencePolicy,
    expected_nonce: Nonce,
    verifier: SignerIdentity,
    clock: int,
    component_policies: Optional[Sequence[EvidencePolicy]] = None,
) -> AttestationResult:
    """Appraise lead evidence plus each component against its own policy.

    Component nonces are not independently challenged; components inherit the
    session's freshness through the lead evidence, so only signature and rule
    checks apply to them. Without `component_policies` every component is held
    to the lead policy; a component beyond the end of the list fails with
    "component.<index>.no_policy". Component failures surface as
    "component.<index>.<rule_id>" and gate the verdict only when the lead
    policy contains a components_all_compliant rule.
    """
    reasons = _evaluate_evidence(evidence, references, policy, expected_nonce, clock)
    gate = any(r.kind == RuleKind.COMPONENTS_ALL_COMPLIANT for r in policy.rules)
    if gate:
        for i, comp in enumerate(evidence.components or ()):
            if not component_policies:
                comp_policy = policy
            elif i < len(component_policies):
                comp_policy = component_policies[i]
            else:
                reasons.append(f"component.{i}.no_policy")
                continue
            comp_reasons = _evaluate_evidence(comp, references, comp_policy, None, clock)
            reasons.extend(f"component.{i}.{r}" for r in comp_reasons)
    return _make_result(verifier, evidence, policy, reasons, clock)


def appraise_result(result: AttestationResult, rp_policy: ResultPolicy, clock: int) -> bool:
    """Relying-party decision over a verifier's signed result."""
    if not result.verify_signature():
        return False
    if result.verifier not in rp_policy.accepted_verifiers:
        return False
    if clock - result.created_at > rp_policy.max_result_age:
        return False
    return result.verdict == Verdict.COMPLIANT
