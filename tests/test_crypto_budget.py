"""Exact counts of the expensive operations: Ed25519 key-pair builds, signs
and verifies, result decodes, policy rule evaluations, stored values
computed, encodes and decodes per table, and the signed messages and ledger
blocks built; for small cases, one benchmark unit of each simulation
workload, and the 200-node case. A change that adds crypto work
fails here instead of hiding in benchmark noise; a change that removes some
updates the pinned counts."""

import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from cryptography.hazmat.primitives.asymmetric import ed25519

import attestnet
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

from .conftest import NODES_200, ONCE, replace_everywhere, replace_once, write_generated_scenario
from .test_bench_bindings import _perfbench_module
from .test_conveyance import endorse_env, make_contexts, ref_rules

SCENARIO_DIR = Path("src/attestnet/scenarios")


@pytest.fixture
def budget(monkeypatch):
    """Counts the Ed25519 key pairs built (`model._key_pair`, whichever
    library builds them) and the signs made through `attestnet.model`, the
    `verify_bytes` calls made through each attestnet module that binds it
    (whichever library answers them), the `AttestationResult.from_bytes`
    calls, and the evaluations of a policy's rules against a claim set."""
    counts = {"keys": 0, "signs": 0, "verifies": 0, "result_decodes": 0, "rule_evaluations": 0}
    key_pair, verify = model._key_pair, model.verify_bytes
    sign = model.SigningKey.sign
    decode_result = model.AttestationResult.from_bytes
    evaluate_rules = verifier_module._evaluate_rules

    def counting_key(seed):
        counts["keys"] += 1
        return key_pair(seed)

    def counting_sign(key, data):
        counts["signs"] += 1
        return sign(key, data)

    def counting_verify(data, signature, public_key):
        counts["verifies"] += 1
        return verify(data, signature, public_key)

    def counting_decode(data):
        counts["result_decodes"] += 1
        return decode_result(data)

    def counting_rules(*args):
        counts["rule_evaluations"] += 1
        return evaluate_rules(*args)

    monkeypatch.setattr(model, "_key_pair", counting_key)
    monkeypatch.setattr(model.SigningKey, "sign", counting_sign)
    replace_everywhere(monkeypatch, "verify_bytes", counting_verify)
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
    """Counts the signature checks queued for the helper (a batch that `send`
    declines queues none), and the helper's answers that this process reads:
    0 or 1 for a check the helper made, 2 for one that it left to this
    process."""
    counts = {"checks": 0, "answers": bytearray()}
    send, read = model._Helper.send, model._Helper._read

    def counting_send(self, batch):
        queued = send(self, batch)
        counts["checks"] += len(batch) if queued else 0
        return queued

    def recording_read(self, n):
        data = read(self, n)
        counts["answers"].extend(data)
        return data

    monkeypatch.setattr(model._Helper, "send", counting_send)
    monkeypatch.setattr(model._Helper, "_read", recording_read)
    return counts


@pytest.mark.parametrize("case", ["small", "200-nodes"])
def test_simulate_checks_each_evidence_once(case, budget, helper_checks, monkeypatch, tmp_path,
                                            capsys):
    """With the helper on, every evidence and endorsement signature is queued
    once, and the helper answers each once. Each check is made at least once
    and at most twice: here, by the helper, or by both when both take it at
    once; the helper leaves a check to this process only if it made it. The
    small case is healthy-4nodes with its nodes repeated to fill two batches
    and part of a third; the other is `test_simulate_200_nodes`' case."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    scenario = tmp_path / "scenario.json"
    if case == "small":
        doc = json.loads((SCENARIO_DIR / "healthy-4nodes.json").read_text())
        doc["nodes"] = [{**doc["nodes"][i % len(doc["nodes"])], "node_id": f"n{i:03d}"}
                        for i in range(2 * consortium.BATCH_NODES + 8)]
        scenario.write_text(json.dumps(doc))
    else:
        write_generated_scenario(scenario, monkeypatch, NODES_200, 11)
        doc = json.loads(scenario.read_text())
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "out")]) == EXIT_OK
    # the verifiers share the endorsement objects: each is queued once
    checks = 2 * len(doc["nodes"]) * doc["epochs"] + len(doc["products"])
    if case == "200-nodes":
        assert capsys.readouterr().out.startswith("tip: 4badecaf")
        assert checks == 4020
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
        if value.__dict__.get(name) is None:
            counts[name] = counts.get(name, 0) + 1
        return ONCE(value, name, compute)

    replace_once(monkeypatch, counting_once)
    return counts


def _count_per_kind(monkeypatch, function: str) -> dict:
    """Counts the calls of `model`'s `function` (`encode` or `decode`) made
    through `model` and each attestnet module that imports it by name, per
    kind, named as the module that defines it names it (`model._EVIDENCE`,
    say)."""
    names = {}
    for name in ["model"] + [info.name for info in pkgutil.iter_modules(attestnet.__path__)]:
        for attribute, value in vars(importlib.import_module(f"attestnet.{name}")).items():
            if isinstance(value, model.Kind):
                names.setdefault(id(value), f"{name}.{attribute}")
    counts, call = {}, getattr(model, function)

    def counting_call(kind, *args):
        name = names.get(id(kind), kind.form)
        counts[name] = counts.get(name, 0) + 1
        return call(kind, *args)

    patched = replace_everywhere(monkeypatch, function, counting_call)
    assert {"model", "attester", "cli", "consortium", "endorsement_ledger"} <= patched
    return counts


@pytest.fixture
def encodes(monkeypatch):
    """Counts the `encode` calls per kind encoded (`_count_per_kind`)."""
    return _count_per_kind(monkeypatch, "encode")


@pytest.fixture
def decodes(monkeypatch):
    """Counts the `decode` calls per kind decoded (`_count_per_kind`)."""
    return _count_per_kind(monkeypatch, "decode")


def _simulate_unit(workload: str, path: Path, monkeypatch, capsys):
    """Simulates one unit of the benchmark's `workload` at seed 1, with the
    helper off, and checks the benchmark's pinned tip."""
    workloads = _perfbench_module("workloads", monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    shape = dataclasses.astuple(workloads.SHAPES[workload])
    write_generated_scenario(path / "scenario.json", monkeypatch, shape, 1)
    assert main(["simulate", str(path / "scenario.json"), "--out", str(path / "out")]) == EXIT_OK
    assert capsys.readouterr().out == f"tip: {workloads.DEFAULT_SEED_TIPS[workload]}\n"


def test_simulate_one_sim_catalog_unit(budget, misses, decodes, tmp_path, monkeypatch, capsys):
    """40 nodes in 4 domains, 20 products of 3 images, 3 epochs, one
    flip_sw_byte fault in the second epoch."""
    _simulate_unit("sim-catalog", tmp_path, monkeypatch, capsys)
    # keys: the endorser, the consortium verifier, 4 domain verifiers and 40
    # nodes; per node and epoch, 2 evidences and 2 results signed and 2
    # evidences verified, plus the 20 endorsements; rules: the 40
    # configurations and the faulted one, each judged by 2 verifiers
    assert budget == {"keys": 46, "signs": 500, "verifies": 260, "result_decodes": 0,
                      "rule_evaluations": 82}
    # claims and their encoding once per configuration (and the encoding of
    # the 20 endorsements' claims); a digest and a rule plan once per policy;
    # a key pair once per key
    assert misses == {"_signing_bytes": 500, "_signature_valid": 260, "_config_digest": 41,
                      "_claims": 41, "_encoded": 61, "_digest": 5, "_rule_plan": 5,
                      "_pair": 46}
    assert decodes == {}  # `simulate` only writes bytes


def test_simulate_one_sim_fleet_unit(budget, misses, decodes, tmp_path, monkeypatch, capsys):
    """600 nodes in 4 domains, 2 products of 1 image, 2 epochs, 360 nodes
    given another node's configuration in the second."""
    _simulate_unit("sim-fleet", tmp_path, monkeypatch, capsys)
    # rules: the 600 configurations, each judged by 2 verifiers; a clone
    # shares its source's configuration object, which only the other 3
    # domains' verifiers had not yet judged
    assert budget == {"keys": 606, "signs": 4802, "verifies": 2402, "result_decodes": 0,
                      "rule_evaluations": 1203}
    assert misses == {"_signing_bytes": 4802, "_signature_valid": 2402, "_config_digest": 600,
                      "_claims": 600, "_encoded": 602, "_digest": 5, "_rule_plan": 5,
                      "_pair": 606}
    assert decodes == {}


def test_simulate_200_nodes(budget, misses, encodes, decodes, tmp_path, monkeypatch, capsys):
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
    # signature check once; claims and their encoding once per configuration
    # (and the encoding of the 20 endorsements' claims); a digest and a rule
    # plan once per policy; a key pair once per key
    assert misses == {"_signing_bytes": 8020, "_signature_valid": 4020, "_config_digest": 201,
                      "_claims": 201, "_encoded": 221, "_digest": 5, "_rule_plan": 5,
                      "_pair": 206}
    # per signed message, its fields once; the claims of each configuration
    # and endorsement, and each configuration's environment, once; each
    # policy once, for its digest; per epoch, each domain's audit log, and
    # each block once: the bytes that its seal hashes are those exported
    assert encodes == {"model._EVIDENCE": 4000, "model._RESULT": 4000, "model._ENDORSEMENT": 20,
                       "model._CLAIM_ENTRIES": 221, "attester._TARGET": 201, "model._POLICY": 5,
                       "consortium._AUDIT": 40, "consortium._BLOCK": 10}
    assert decodes == {}


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
    # evidence and result signed; the evidence verified by the verifier, and
    # the verifier's result by the relying party, which appraises that result
    # itself for a byte-identical forward, so nothing is decoded
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


def test_one_flows_unit(budget, monkeypatch):
    """One unit of the benchmark's flows workload at seed 1: 500 passport and
    background-check flows against one verifier, with replayed, tampered and
    stale shares, checked by the benchmark's own oracle."""
    workloads = _perfbench_module("workloads", monkeypatch)
    tracing = _perfbench_module("tracing", monkeypatch)
    openssl_keys = []
    from_public_bytes = ed25519.Ed25519PublicKey.from_public_bytes
    monkeypatch.setattr(ed25519, "Ed25519PublicKey", SimpleNamespace(
        from_public_bytes=lambda key: openssl_keys.append(key) or from_public_bytes(key)))
    unit = workloads.run_flows(workloads.generate_flows(1), tracing.Tracer())
    assert unit.failed == 0 and unit.tip.startswith("e7b62e23")
    # where libsodium is loaded its verdict is the verdict, for the 25
    # tampered passports too: `cryptography` verifies nothing
    assert len(openssl_keys) == (902 if model._sodium is None else 0)
    # keys: the attester, the endorser, the verifier and the relying party;
    # per flow one evidence and one result signed (a replay neither), the
    # 2 endorsements once, and per appraised flow the evidence and the result
    # verified (a tampered passport's changed result instead of the sent one)
    # plus the endorsements once; a tampered passport's forward decoded; the
    # flows' one configuration judged once
    assert budget == {"keys": 4, "signs": 902, "verifies": 902, "result_decodes": 25,
                      "rule_evaluations": 1}


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


def test_verify_a_product_whose_record_check_is_stored(rng, budget, record_encodes, decodes,
                                                       monkeypatch):
    """One query of a registered record whose signature check the ledger
    holds does each piece of work once: one encode of the record, one decode
    of its endorsement, one `includes` call (whose span the benchmark reads),
    no verify, and 10 SHA-256 hashes: the record's bytes, each of the 3
    objects, 5 for the Merkle root of 3 leaves, and the product."""
    manufacturer, objects = _registration_objects(rng, b"firmware")
    store, ledger = ContentStore(), EndorsementsLedger()
    record = register_endorsement(manufacturer, "widget-7", objects, store, ledger, 10)
    assert verify_product(b"firmware", record, store, ledger) == (True, None)
    _reset(budget, record_encodes)
    decodes.clear()
    counts = {"sha256": 0, "includes": 0}
    sha256, includes = hashlib.sha256, EndorsementsLedger.includes

    def counting_sha256(*args):
        counts["sha256"] += 1
        return sha256(*args)

    def counting_includes(self, key):
        counts["includes"] += 1
        return includes(self, key)

    monkeypatch.setattr(hashlib, "sha256", counting_sha256)  # `model` calls it here
    monkeypatch.setattr(endorsement_ledger, "sha256", counting_sha256)
    monkeypatch.setattr(EndorsementsLedger, "includes", counting_includes)
    assert verify_product(b"firmware", record, store, ledger) == (True, None)
    assert {**budget, **record_encodes, **counts} == {
        "keys": 0, "signs": 0, "verifies": 0, "result_decodes": 0, "rule_evaluations": 0,
        "record_encodes": 1, "sha256": 10, "includes": 1}
    assert decodes == {"model._ENDORSEMENT": 1}
