"""Derived values (canonical bytes, digests, signature validity, merged
references, measured claims) are stored on the objects they describe; these tests check that
a stored value never outlives a change to what it was derived from."""

import logging
from dataclasses import replace

import pytest

from attestnet.attester import measure
from attestnet.consortium import FaultInjection, _apply_fault
from attestnet.conveyance import VerifierContext
from attestnet.model import (
    ClaimSet,
    ClaimValue,
    EvidencePolicy,
    PolicyRule,
    Role,
    RuleKind,
    SignerIdentity,
    Verdict,
    digest,
    make_endorsement,
    new_nonce,
)
from attestnet.verifier import appraise_evidence

from .test_consortium import fresh_universe


def _evidence(rng, attester, env, verifier_identity):
    return attester.generate_evidence(env, new_nonce(0, rng), 0)


def _endorsement(rng, attester, env, verifier_identity):
    endorser = SignerIdentity.create(Role.ENDORSER, "memo-endorser", rng)
    return make_endorsement(endorser, "memo-product", ClaimSet({"a": ClaimValue.of_int(1)}), 0)


def _result(rng, attester, env, verifier_identity):
    nonce = new_nonce(0, rng)
    evidence = attester.generate_evidence(env, nonce, 0)
    policy = EvidencePolicy("memo-policy", (), 10)
    return appraise_evidence(evidence, {}, policy, nonce, verifier_identity, 0)


@pytest.mark.parametrize("build", [_evidence, _endorsement, _result])
def test_replaced_signature_fails_after_verification(build, rng, attester, env, verifier_identity):
    message = build(rng, attester, env, verifier_identity)
    fresh = replace(message)  # nothing stored: encodes and verifies anew
    assert message.signing_bytes() == fresh.signing_bytes()
    assert message.to_bytes() == fresh.to_bytes()
    assert message.verify_signature()
    assert message.verify_signature()  # answered from the stored check
    forged = replace(message, signature=bytes(64))
    assert not forged.verify_signature()
    assert forged.to_bytes() != message.to_bytes()
    assert forged.signing_bytes() == message.signing_bytes()


def test_replaced_field_changes_bytes_and_fails(rng, attester, env, verifier_identity):
    result = _result(rng, attester, env, verifier_identity)
    assert result.verify_signature()
    later = replace(result, created_at=result.created_at + 1)
    assert later.signing_bytes() != result.signing_bytes()
    assert not later.verify_signature()


def test_policy_digest_follows_replace():
    policy = EvidencePolicy("memo-policy", (), 10)
    first = policy.digest()
    changed = replace(policy, freshness_window=11)
    assert changed.digest() != first
    assert changed.digest() == digest(changed.to_bytes())
    assert policy.digest() == first == digest(policy.to_bytes())


FAULTS = [
    FaultInjection(0, "n1", "flip_sw_byte"),
    FaultInjection(0, "n1", "change_fw", fw_version=9),
    FaultInjection(0, "n1", "move_geo", lat=10.0, lon=20.0),
    FaultInjection(0, "n1", "clone_config", from_node="n2"),
]


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.mutation)
def test_fault_mutated_environment_gets_new_config_digest(fault):
    universe = fresh_universe()
    before = universe.nodes["n1"].target_env.config_digest()
    _apply_fault(universe, fault)
    after = universe.nodes["n1"].target_env
    assert after.config_digest() != before
    assert after.config_digest() == digest(after.to_bytes())


def test_measure_stores_claims_per_environment(env):
    claims = measure(env)
    assert measure(env) is claims
    same = replace(env)  # an equal environment with nothing stored
    assert measure(same) is not claims
    assert measure(same) == claims
    newer = replace(env, fw_version=env.fw_version + 1)
    changed = dict(measure(newer).items())
    assert changed["fw.version"] == ClaimValue.of_int(env.fw_version + 1)
    assert changed["config.digest"] == ClaimValue.of_digest(newer.config_digest())
    assert measure(env) is claims


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.mutation)
def test_fault_mutated_environment_gets_new_claims(fault):
    universe = fresh_universe()
    before = measure(universe.nodes["n1"].target_env)
    _apply_fault(universe, fault)
    after = universe.nodes["n1"].target_env
    assert measure(after) != before
    assert measure(after).get("config.digest") == ClaimValue.of_digest(after.config_digest())


def _reference_context(rng, env, endorsements):
    rules = tuple(
        PolicyRule(f"ref.{name}", RuleKind.REFERENCE_MATCH, f"sw.{name}.digest")
        for name, _ in env.sw_images
    )
    return VerifierContext(
        SignerIdentity.create(Role.VERIFIER, "memo-verifier", rng),
        EvidencePolicy("memo-policy", rules, 10),
        endorsements,
        rng,
    )


def _endorse_env(rng, env, image_of=lambda image: image):
    endorser = SignerIdentity.create(Role.ENDORSER, "memo-endorser", rng)
    refs = {
        f"sw.{name}.digest": ClaimValue.of_digest(digest(image_of(image)))
        for name, image in env.sw_images
    }
    return make_endorsement(endorser, env.hw_model, ClaimSet(refs), 0)


def _appraise(ctx, attester, env, clock=0):
    nonce = ctx.issue_challenge(clock)
    return ctx.appraise(attester.generate_evidence(env, nonce, clock), nonce, clock)


def test_reassigned_endorsements_change_next_verdict(rng, attester, env):
    ctx = _reference_context(rng, env, [_endorse_env(rng, env)])
    assert _appraise(ctx, attester, env).verdict == Verdict.COMPLIANT
    ctx.endorsements = [_endorse_env(rng, env, image_of=lambda image: b"other " + image)]
    assert _appraise(ctx, attester, env).verdict == Verdict.NON_COMPLIANT
    ctx.endorsements = []
    assert _appraise(ctx, attester, env).verdict == Verdict.UNKNOWN


def test_endorsements_changed_in_place_change_next_verdict(rng, attester, env):
    ctx = _reference_context(rng, env, [])
    assert _appraise(ctx, attester, env).verdict == Verdict.UNKNOWN
    ctx.endorsements.append(_endorse_env(rng, env))
    assert _appraise(ctx, attester, env).verdict == Verdict.COMPLIANT


def test_warnings_logged_once_per_endorsement_set(rng, attester, env, caplog):
    endorser = SignerIdentity.create(Role.ENDORSER, "memo-late", rng)
    other_os = ClaimSet({"sw.os.digest": ClaimValue.of_digest(digest(b"other os"))})
    conflicting = make_endorsement(endorser, env.hw_model, other_os, issued_at=1)
    forged = replace(conflicting, signature=bytes(64))
    ctx = _reference_context(rng, env, [_endorse_env(rng, env), conflicting, forged])
    with caplog.at_level(logging.WARNING, logger="attestnet.verifier"):
        for clock in range(3):
            assert _appraise(ctx, attester, env, clock).reasons == ("ref.os",)
    messages = [r.getMessage() for r in caplog.records]
    assert sum("endorsement.conflict" in m for m in messages) == 1
    assert sum("invalid signature" in m for m in messages) == 1
