"""Exact counts of the expensive operations: Ed25519 private-key
constructions, signs and verifies, result decodes, policy rule evaluations,
endorsement record encodes, and the signed messages and ledger blocks built.
A change that adds crypto work fails here instead of hiding in benchmark
noise; a change that removes some updates the pinned counts."""

import dataclasses
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from attestnet import consortium, endorsement_ledger, model, verifier as verifier_module
from attestnet.cli import EXIT_OK, main
from attestnet.conveyance import (
    Decision,
    EvidenceMsg,
    ResultMsg,
    Transport,
    run_background_check_flow,
    run_passport_flow,
)
from attestnet.endorsement_ledger import (
    ContentStore,
    EndorsementsLedger,
    register_endorsement,
    verify_product,
)
from attestnet.model import (
    ClaimSet,
    ClaimValue,
    ModelError,
    Role,
    SignerIdentity,
    digest,
    make_endorsement,
    sign_message,
)

from .conftest import NODES_200, ONCE, replace_once, write_generated_scenario
from .test_conveyance import endorse_env, make_contexts, ref_rules

SCENARIO_DIR = Path("src/attestnet/scenarios")


@pytest.fixture
def budget(monkeypatch):
    """Counts the Ed25519 private keys built and the signs and verifies made
    through `attestnet.model`, the `AttestationResult.from_bytes` calls, and
    the evaluations of a policy's rules against a claim set."""
    counts = {"keys": 0, "signs": 0, "verifies": 0, "result_decodes": 0, "rule_evaluations": 0}
    private, public = model.Ed25519PrivateKey, model.Ed25519PublicKey
    sign = model.SigningKey.sign
    decode_result = model.AttestationResult.from_bytes
    evaluate_rules = verifier_module._evaluate_rules

    def counting_key(seed):
        counts["keys"] += 1
        return private.from_private_bytes(seed)

    def counting_sign(key, data):
        counts["signs"] += 1
        return sign(key, data)

    class CountingPublicKey:
        def __init__(self, raw):
            self._key = public.from_public_bytes(raw)

        def verify(self, signature, data):
            counts["verifies"] += 1
            return self._key.verify(signature, data)

    def counting_decode(data):
        counts["result_decodes"] += 1
        return decode_result(data)

    def counting_rules(*args):
        counts["rule_evaluations"] += 1
        return evaluate_rules(*args)

    monkeypatch.setattr(model, "Ed25519PrivateKey", SimpleNamespace(from_private_bytes=counting_key))
    monkeypatch.setattr(model.SigningKey, "sign", counting_sign)
    monkeypatch.setattr(model, "Ed25519PublicKey",
                        SimpleNamespace(from_public_bytes=CountingPublicKey))
    monkeypatch.setattr(model.AttestationResult, "from_bytes", staticmethod(counting_decode))
    monkeypatch.setattr(verifier_module, "_evaluate_rules", counting_rules)
    return counts


SIGNED = (model.Evidence, model.Endorsement, model.AttestationResult)


def _count_copies(monkeypatch, counts, types):
    """Counts in `counts["replace"]` the `dataclasses.replace` calls that
    copy one of `types`, made through `dataclasses` or an attestnet module."""
    replace = dataclasses.replace

    def counting_replace(obj, /, **changes):
        counts["replace"] += isinstance(obj, types)
        return replace(obj, **changes)

    monkeypatch.setattr(dataclasses, "replace", counting_replace)
    for name, module in list(sys.modules.items()):
        if name.startswith("attestnet") and getattr(module, "replace", None) is replace:
            monkeypatch.setattr(module, "replace", counting_replace)


@pytest.fixture
def messages(monkeypatch):
    """Counts the signed messages built, by type (each one built runs its
    `__post_init__` once), and the `dataclasses.replace` calls that copy a
    signed message."""
    counts = dict.fromkeys([cls.__name__ for cls in SIGNED] + ["replace"], 0)
    for cls in SIGNED:
        def counting_post_init(self, post_init=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    _count_copies(monkeypatch, counts, SIGNED)
    return counts


@pytest.fixture
def blocks(monkeypatch):
    """Counts the ledger blocks built (each one runs `__init__` once) and the
    `dataclasses.replace` calls that copy one."""
    counts = {"LedgerBlock": 0, "replace": 0}
    init = consortium.LedgerBlock.__init__

    def counting_init(self, *args, **kwargs):
        counts["LedgerBlock"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(consortium.LedgerBlock, "__init__", counting_init)
    _count_copies(monkeypatch, counts, consortium.LedgerBlock)
    return counts


def _reset(*counters):
    for counts in counters:
        counts.update(dict.fromkeys(counts, 0))


def test_simulate_healthy_4nodes(budget, messages, tmp_path, capsys):
    scenario = SCENARIO_DIR / "healthy-4nodes.json"
    assert main(["simulate", str(scenario), "--out", str(tmp_path)]) == EXIT_OK
    # keys: the endorser, the consortium verifier, the 2 domain verifiers
    # and each node's attestation key (the nodes' transaction keys are never
    # used); rules: each node's configuration, once by its domain verifier
    # and once by the consortium verifier
    assert budget == {"keys": 8, "signs": 68, "verifies": 36, "result_decodes": 0,
                      "rule_evaluations": 8}
    # one object per signed message: an endorsement per product, and per node
    # and epoch an evidence and a result for each of its two verifiers
    doc = json.loads(scenario.read_text())
    node_epochs = len(doc["nodes"]) * doc["epochs"]
    assert messages == {"Evidence": 2 * node_epochs, "Endorsement": len(doc["products"]),
                        "AttestationResult": 2 * node_epochs, "replace": 0}


@pytest.fixture
def helper_checks(monkeypatch):
    """Counts the signature checks queued for the helper, and the helper's
    answers that this process reads: 0 or 1 for a check the helper made, 2
    for one that it left to this process."""
    counts = {"checks": 0, "answers": bytearray()}
    send, read = model._Helper.send, model._Helper._read

    def counting_send(self, batch):
        counts["checks"] += len(batch)
        return send(self, batch)

    def recording_read(self, n):
        data = read(self, n)
        counts["answers"].extend(data)
        return data

    monkeypatch.setattr(model._Helper, "send", counting_send)
    monkeypatch.setattr(model._Helper, "_read", recording_read)
    return counts


def test_simulate_checks_each_evidence_once(budget, helper_checks, monkeypatch, tmp_path,
                                            capsys):
    """With the helper on, every evidence and endorsement signature is queued
    once, and the helper answers each once. Each check is made at least once
    and at most twice: here, by the helper, or by both when both take it at
    once; the helper leaves a check to this process only if it made it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    doc = json.loads((SCENARIO_DIR / "healthy-4nodes.json").read_text())
    doc["nodes"] = [{**doc["nodes"][i % len(doc["nodes"])], "node_id": f"n{i:03d}"}
                    for i in range(2 * consortium.BATCH_NODES + 8)]
    scenario = tmp_path / "fleet.json"
    scenario.write_text(json.dumps(doc))
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "out")]) == EXIT_OK
    # the verifiers share the endorsement objects: each is queued once
    checks = 2 * len(doc["nodes"]) * doc["epochs"] + len(doc["products"])
    answers = helper_checks["answers"]
    assert helper_checks["checks"] == len(answers) == checks
    helper = sum(answer != 2 for answer in answers)
    assert answers.count(2) <= budget["verifies"] <= checks
    assert checks <= budget["verifies"] + helper <= 2 * checks


def test_simulate_builds_each_block_once(blocks, tmp_path, capsys):
    scenario = SCENARIO_DIR / "healthy-4nodes.json"
    assert main(["simulate", str(scenario), "--out", str(tmp_path)]) == EXIT_OK
    forged = len((tmp_path / "ledger.hex").read_text().splitlines())
    assert forged > 0
    assert blocks == {"LedgerBlock": forged, "replace": 0}


def test_simulate_clone_attack(budget, tmp_path, capsys):
    scenario = SCENARIO_DIR / "clone-attack.json"
    assert main(["simulate", str(scenario), "--out", str(tmp_path)]) == EXIT_OK
    # rules: as for healthy-4nodes, plus one: the clones share n1's
    # configuration, which only domain d2's verifier had not yet appraised
    assert budget["rule_evaluations"] == 9


@pytest.fixture
def misses(monkeypatch):
    """Counts, per name, the `_once` requests that find no stored value and
    compute it."""
    counts = {}

    def counting_once(value, name, compute):
        if (value.__dict__.get("_memo") or {}).get(name) is None:
            counts[name] = counts.get(name, 0) + 1
        return ONCE(value, name, compute)

    replace_once(monkeypatch, counting_once)
    return counts


def test_simulate_200_nodes(budget, misses, tmp_path, monkeypatch, capsys):
    """The north-star 200-node case of `test_generated_200_node_tip`, with
    the helper off: 10 epochs of 200 nodes, each appraised by its domain's
    verifier and the consortium's, one flip_sw_byte fault."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    path = write_generated_scenario(tmp_path / "scenario.json", monkeypatch, NODES_200, 11)
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().out.startswith("tip: 4badecaf")
    # keys: the endorser, the consortium verifier, 4 domain verifiers and
    # 200 nodes; per node and epoch, 2 evidences and 2 results signed, and 2
    # evidences verified, plus the 20 endorsements, each signed once and
    # verified once; rules: the 200 configurations and the faulted one, each
    # judged once by its domain's verifier and once by the consortium's
    assert budget == {"keys": 206, "signs": 8020, "verifies": 4020, "result_decodes": 0,
                      "rule_evaluations": 402}
    # each signed message's bytes once, and each evidence's and endorsement's
    # signature check once; claims, their encoding and rule reasons once per
    # configuration (and the encoding of the 20 endorsements' claims); a
    # digest and a rule plan once per policy
    assert misses == {"signing_bytes": 8020, "signature_valid": 4020, "config_digest": 201,
                      "claims": 201, "encoded": 221, "rule_reasons": 201, "digest": 5,
                      "rule_plan": 5}


def _granted_world(rng, env):
    verifier, rp = make_contexts(rng, env, ref_rules(env), [endorse_env(rng, env)])
    verifier.references()  # endorsements merged (and verified) before counting
    return verifier, rp


ONE_EVIDENCE_ONE_RESULT = {"Evidence": 1, "Endorsement": 0, "AttestationResult": 1,
                           "replace": 0}


def test_granted_passport_flow(attester, env, rng, budget, messages):
    verifier, rp = _granted_world(rng, env)
    _reset(budget, messages)
    decision = run_passport_flow(attester, env, verifier, rp, Transport(), clock=0)
    assert decision == Decision(True)
    # evidence and result signed; evidence at send time and the verifier's
    # result message verified, which the byte-identical forward shares; the
    # verifier's message carries its result, so nothing is decoded
    assert budget == {"keys": 0, "signs": 2, "verifies": 2, "result_decodes": 0,
                      "rule_evaluations": 1}
    assert messages == ONE_EVIDENCE_ONE_RESULT


def test_granted_background_check_flow(attester, env, rng, budget, messages):
    verifier, rp = _granted_world(rng, env)
    _reset(budget, messages)
    decision = run_background_check_flow(attester, env, rp, verifier, Transport(), clock=0)
    assert decision == Decision(True)
    assert budget == {"keys": 0, "signs": 2, "verifies": 2, "result_decodes": 0,
                      "rule_evaluations": 1}
    assert messages == ONE_EVIDENCE_ONE_RESULT


def test_replayed_background_check_flow(attester, env, rng, budget, messages):
    verifier, rp = _granted_world(rng, env)
    first = Transport()
    assert run_background_check_flow(attester, env, rp, verifier, first, clock=0).granted
    evidence = next(msg.evidence for msg in first.log if isinstance(msg, EvidenceMsg))
    transport = Transport()
    _reset(budget, messages)
    decision = run_background_check_flow(attester, env, rp, verifier, transport, clock=0,
                                         evidence_override=evidence)
    assert decision == Decision(False, ("replay",))
    assert not any(isinstance(msg, ResultMsg) for msg in transport.log)
    # the replay is refused before any appraisal: no rules, no result signed;
    # the evidence's signature check was stored in the first flow
    assert budget == {"keys": 0, "signs": 0, "verifies": 0, "result_decodes": 0,
                      "rule_evaluations": 0}
    assert messages == {"Evidence": 0, "Endorsement": 0, "AttestationResult": 0, "replace": 0}


def test_make_endorsement_builds_one_message(rng, budget, messages):
    endorser = SignerIdentity.create(Role.ENDORSER, "budget-endorser", rng)
    claims = ClaimSet({"a": ClaimValue.of_int(1)})
    _reset(budget, messages)
    make_endorsement(endorser, "widget-7", claims, issued_at=0)
    assert budget == {"keys": 0, "signs": 1, "verifies": 0, "result_decodes": 0,
                      "rule_evaluations": 0}
    assert messages == {"Evidence": 0, "Endorsement": 1, "AttestationResult": 0, "replace": 0}


def test_signing_a_signed_message_raises(rng, budget):
    endorser = SignerIdentity.create(Role.ENDORSER, "budget-endorser", rng)
    endorsement = make_endorsement(endorser, "widget-7", ClaimSet(), issued_at=0)
    data = endorsement.to_bytes()
    _reset(budget)
    with pytest.raises(ModelError, match="already signed"):
        sign_message(endorsement, endorser.key)
    assert endorsement.to_bytes() == data
    assert budget["signs"] == 0


@pytest.fixture
def record_encodes(monkeypatch):
    """Counts the encodes of an endorsement record's fields."""
    counts = {"record_encodes": 0}
    encode = endorsement_ledger.encode

    def counting_encode(kind, value):
        counts["record_encodes"] += kind is endorsement_ledger._RECORD
        return encode(kind, value)

    monkeypatch.setattr(endorsement_ledger, "encode", counting_encode)
    return counts


def _registration_objects(rng, product: bytes):
    manufacturer = SignerIdentity.create(Role.ENDORSER, "acme", rng)
    claims = ClaimSet({"product.digest": ClaimValue.of_digest(digest(product))})
    endorsement = make_endorsement(manufacturer, "widget-7", claims, issued_at=4)
    return manufacturer, [("endorsement", endorsement.to_bytes()),
                          ("manufacturer_cert", manufacturer.entity.public_key),
                          ("root_cert", b"root-ca-certificate")]


def test_register_endorsement(rng, budget, record_encodes):
    manufacturer, objects = _registration_objects(rng, b"firmware")
    budget.update(dict.fromkeys(budget, 0))
    register_endorsement(manufacturer, "widget-7", objects, ContentStore(), EndorsementsLedger(), 10)
    # the fields are encoded once: those bytes are signed, and they and the
    # signature are what the ledger indexes
    assert {**budget, **record_encodes} == {"keys": 0, "signs": 1, "verifies": 0,
                                            "result_decodes": 0, "rule_evaluations": 0,
                                            "record_encodes": 1}


def test_verify_genuine_product(rng, budget, record_encodes):
    manufacturer, objects = _registration_objects(rng, b"firmware")
    store, ledger = ContentStore(), EndorsementsLedger()
    record = register_endorsement(manufacturer, "widget-7", objects, store, ledger, 10)
    budget.update(dict.fromkeys(budget, 0))
    record_encodes["record_encodes"] = 0
    assert verify_product(b"firmware", record, store, ledger) == (True, None)
    # the ledger lookup and the signature check share one encode of the record
    assert {**budget, **record_encodes} == {"keys": 0, "signs": 0, "verifies": 1,
                                            "result_decodes": 0, "rule_evaluations": 0,
                                            "record_encodes": 1}


def test_verify_the_same_record_again(rng, budget, record_encodes):
    manufacturer, objects = _registration_objects(rng, b"firmware")
    store, ledger = ContentStore(), EndorsementsLedger()
    record = register_endorsement(manufacturer, "widget-7", objects, store, ledger, 10)
    assert verify_product(b"firmware", record, store, ledger) == (True, None)
    _reset(budget, record_encodes)
    assert verify_product(b"firmware", record, store, ledger) == (True, None)
    # the ledger entry holds the signature check under this cert: only the
    # encode for the ledger lookup remains
    assert {**budget, **record_encodes} == {"keys": 0, "signs": 0, "verifies": 0,
                                            "result_decodes": 0, "rule_evaluations": 0,
                                            "record_encodes": 1}
