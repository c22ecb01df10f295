"""Derived values (canonical bytes, digests, signature validity, merged
references, measured claims, rule reasons) are stored on the objects they describe; these
tests check that a stored value never outlives a change to what it was derived from,
and that the value types which store nothing carry no instance dict."""

import dataclasses
import logging
from dataclasses import replace

import pytest

from attestnet import attester as attester_module
from attestnet import consortium, conveyance, endorsement_ledger, model, verifier
from attestnet.attester import measure
from attestnet.consortium import FaultInjection, _apply_fault, distribute_policies
from attestnet.conveyance import VerifierContext
from attestnet.endorsement_ledger import (
    MANDATORY_LABELS,
    ContentStore,
    EndorsementsLedger,
    register_endorsement,
)
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
from attestnet.scenario import build_universe
from attestnet.verifier import appraise_evidence, merge_reference_claims

from .test_consortium import base_scenario, fresh_universe


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


def test_signing_keeps_the_signing_bytes_and_drops_a_stored_check(rng, attester, env):
    unsigned = model.Evidence(attester.identity, measure(env), new_nonce(0, rng), 0)
    data = unsigned.signing_bytes()
    assert not unsigned.verify_signature()  # the empty signature, checked and stored
    signed = model.sign_message(unsigned, attester.attestation_key)
    assert signed is unsigned
    assert signed.signing_bytes() is data  # the signature is not part of them
    assert signed.verify_signature()
    assert signed.to_bytes() == replace(signed).to_bytes()  # as a fresh encode gives


def _composite(rng, attester, env, verifier_identity):
    component = _evidence(rng, attester, env, verifier_identity)
    return attester.collate_composite(env, [component], new_nonce(0, rng), 0)


@pytest.mark.parametrize("build", [_evidence, _composite, _endorsement, _result])
def test_decoded_message_keeps_the_bytes_it_received(
    build, rng, attester, env, verifier_identity, monkeypatch
):
    message = build(rng, attester, env, verifier_identity)
    decoded = type(message).from_bytes(message.to_bytes())
    fresh = replace(decoded)  # nothing stored: encodes anew
    parts = [decoded] + list(getattr(decoded, "components", None) or ())
    encodes = []
    monkeypatch.setattr(model, "encode", lambda *args: encodes.append(args))
    stored = [part.signing_bytes() for part in parts]
    assert encodes == []  # decoding stored them; nothing was re-encoded
    monkeypatch.undo()
    assert stored[0] == fresh.signing_bytes() == message.signing_bytes()
    assert stored[1:] == [replace(part).signing_bytes() for part in parts[1:]]
    assert decoded.verify_signature()


@pytest.mark.parametrize("signature", [b"", bytes(64), bytes(65)], ids=["empty", "zero", "long"])
@pytest.mark.parametrize("build", [_evidence, _endorsement, _result])
def test_decoded_copy_with_changed_signature_fails(
    build, signature, rng, attester, env, verifier_identity
):
    message = build(rng, attester, env, verifier_identity)
    flipped = bytearray(message.to_bytes())
    flipped[-1] ^= 1
    for data in (bytes(flipped), replace(message, signature=signature).to_bytes()):
        decoded = type(message).from_bytes(data)
        assert decoded.signing_bytes() == message.signing_bytes()
        assert not decoded.verify_signature()


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


# Rule reasons are stored on the claim set per (reference map, policy); every
# test below appraises one claim set, `measure(env)`, throughout.


def _counting_rules(monkeypatch) -> list:
    """The claim sets that policy rules are evaluated against, in call order."""
    calls = []
    evaluate = verifier._evaluate_rules

    def counting(claims, references, policy):
        calls.append(claims)
        return evaluate(claims, references, policy)

    monkeypatch.setattr(verifier, "_evaluate_rules", counting)
    return calls


def test_stored_reasons_follow_endorsement_changes(rng, attester, env, monkeypatch):
    claims = measure(env)
    evaluated = _counting_rules(monkeypatch)
    ctx = _reference_context(rng, env, [_endorse_env(rng, env)])
    for _ in range(2):
        assert _appraise(ctx, attester, env).verdict == Verdict.COMPLIANT
    assert evaluated == [claims]  # the second appraisal used the stored reasons
    ctx.endorsements = [_endorse_env(rng, env, image_of=lambda image: b"other " + image)]
    assert _appraise(ctx, attester, env).reasons == ("ref.bootloader", "ref.os")
    ctx.endorsements.clear()
    assert _appraise(ctx, attester, env).verdict == Verdict.UNKNOWN
    ctx.endorsements.append(_endorse_env(rng, env))
    assert _appraise(ctx, attester, env).verdict == Verdict.COMPLIANT
    assert evaluated == [claims] * 4


def test_policy_replaced_by_distribution_changes_next_verdict(monkeypatch):
    universe = build_universe(base_scenario(domains=[{"domain_id": "d1", "fw_min_version": 9}]))
    node = universe.nodes["n1"]
    dv = universe.domains["d1"].domain_verifier
    evaluated = _counting_rules(monkeypatch)
    assert _appraise(dv, node.attesting_env, node.target_env).reasons == ("fw.min",)
    distribute_policies(universe)  # the consortium's fw.min (bound 2) wins the conflict
    assert _appraise(dv, node.attesting_env, node.target_env).verdict == Verdict.COMPLIANT
    assert evaluated == [measure(node.target_env)] * 2


def test_verifiers_with_different_policies_each_get_their_own_reasons(rng, attester, env):
    endorsements = [_endorse_env(rng, env)]
    lenient = _reference_context(rng, env, endorsements)
    strict = _reference_context(rng, env, endorsements)
    strict.policy = EvidencePolicy(
        "memo-strict", (PolicyRule("fw.min", RuleKind.VERSION_AT_LEAST, "fw.version", 9),), 10
    )
    for _ in range(2):
        assert _appraise(lenient, attester, env).verdict == Verdict.COMPLIANT
        assert _appraise(strict, attester, env).reasons == ("fw.min",)


def test_per_evidence_checks_run_after_reasons_are_stored(rng, attester, env):
    ctx = _reference_context(rng, env, [_endorse_env(rng, env)])
    assert _appraise(ctx, attester, env).verdict == Verdict.COMPLIANT
    nonce = ctx.issue_challenge(0)
    evidence = attester.generate_evidence(env, nonce, 0)
    forged = replace(evidence, signature=bytes(64))
    assert ctx.appraise(forged, nonce, 0).reasons == ("sig",)
    assert ctx.appraise(evidence, ctx.issue_challenge(0), 0).reasons == ("nonce",)
    assert ctx.appraise(evidence, nonce, 11).reasons == ("stale",)
    assert ctx.appraise(evidence, nonce, 10).verdict == Verdict.COMPLIANT


def test_plain_dict_changed_in_place_changes_next_verdict(rng, attester, env, verifier_identity):
    references = dict(merge_reference_claims([_endorse_env(rng, env)]))
    policy = _reference_context(rng, env, []).policy
    nonce = new_nonce(0, rng)
    evidence = attester.generate_evidence(env, nonce, 0)
    verdicts = []
    for _ in range(2):
        verdicts.append(
            appraise_evidence(evidence, references, policy, nonce, verifier_identity, 0).verdict
        )
        references.clear()
    assert verdicts == [Verdict.COMPLIANT, Verdict.UNKNOWN]


# Value types that store derived values keep their instance dict; every other
# frozen dataclass is slotted, so that a long run's many small values carry none.
STORING = {"Evidence", "Endorsement", "AttestationResult", "TargetEnvironment",
           "EvidencePolicy", "ResultMsg"}


def _frozen_value_types() -> set[str]:
    return {
        name for module in (model, attester_module, consortium, conveyance, endorsement_ledger)
        for name, cls in vars(module).items()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    }


def test_value_types_that_store_nothing_have_no_instance_dict(
        rng, attester, env, verifier_identity):
    d = digest(b"slotted")
    nonce = new_nonce(0, rng)
    evidence = attester.generate_evidence(env, nonce, 0)
    record = register_endorsement(
        verifier_identity, "widget", [(label, label.encode()) for label in MANDATORY_LABELS],
        ContentStore(), EndorsementsLedger(), 0)
    values = {
        "Digest": d,
        "Nonce": nonce,
        "GeoPoint": env.geo,
        "ClaimValue": ClaimValue.of_int(1),
        "EntityId": verifier_identity.entity,
        "SignerIdentity": verifier_identity,
        "LayerRecord": model.LayerRecord(0, d, d),
        "GeoFence": model.GeoFence(0.0, 1.0, 0.0, 1.0),
        "PolicyRule": PolicyRule("r", RuleKind.CLAIM_PRESENT, "k"),
        "ResultPolicy": model.ResultPolicy((verifier_identity.entity,), 5),
        "LedgerRecord": consortium.LedgerRecord("audit_digest", d.value),
        "LedgerBlock": consortium.LedgerBlock.seal(0, consortium.GENESIS_PREV, (), "n", 0),
        "FaultInjection": FaultInjection(0, "n", "change_fw"),
        "EndorsementRecord": record,
        "AccessRequest": conveyance.AccessRequest(attester.identity, "resource"),
        "ChallengeNonce": conveyance.ChallengeNonce(verifier_identity.entity, nonce),
        "EvidenceMsg": conveyance.EvidenceMsg(attester.identity, evidence),
        "Decision": conveyance.Decision(True),
    }
    assert set(values) == _frozen_value_types() - STORING  # every such type is listed
    for name, value in values.items():
        assert type(value).__name__ == name
        assert not hasattr(value, "__dict__"), name
