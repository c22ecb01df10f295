"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time
from pathlib import Path

import pytest

from attestnet.attester import AttestingEnvironment, layer_chain_from_images
from attestnet.cli import EXIT_INTEGRITY, main as cli_main
from attestnet.consortium import (
    distribute_policies,
    export_ledger,
    run_epoch,
    select_validator,
    verify_chain,
)
from attestnet.conveyance import (
    RelyingPartyContext,
    Transport,
    VerifierContext,
    run_background_check_flow,
    run_passport_flow,
)
from attestnet.endorsement_ledger import (
    ContentStore,
    EndorsementsLedger,
    merkle_prove,
    merkle_root,
    merkle_verify,
    register_endorsement,
    verify_product,
)
from attestnet.model import (
    AttestationResult,
    ClaimSet,
    ClaimValue,
    Evidence,
    EvidencePolicy,
    PolicyRule,
    ResultPolicy,
    Role,
    RuleKind,
    SignerIdentity,
    Verdict,
    digest,
    make_endorsement,
    new_nonce,
)
from attestnet.scenario import build_universe, load_scenario, parse_scenario
from attestnet.verifier import (
    appraise_evidence,
    appraise_layered,
    appraise_result,
    merge_reference_claims,
)

from .conftest import random_env
from .oracles import chain_layer_key_ids, evaluate_policy_bruteforce, merkle_root_bruteforce
from .test_verifier import _oracle_view, _random_case

SCENARIO_DIR = Path("src/attestnet/scenarios")


def report(n, text):
    print(f"\nPASS criterion {n}: {text}")


def _bitflip(rng, raw: bytes) -> bytes:
    out = bytearray(raw)
    out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def test_criterion_1_governance_switch():
    start = time.monotonic()
    cfg = load_scenario(SCENARIO_DIR / "clone-attack.json")
    universe = build_universe(cfg)
    distribute_policies(universe)
    majorities, diversities = [], []
    for _ in range(cfg.epochs):
        r = run_epoch(universe)
        majorities.append(r.majority)
        diversities.append(r.diversity)
    first_low = next(i for i, d in enumerate(diversities) if d < cfg.diversity_threshold)
    expected = [51] * first_low + [70] * (cfg.epochs - first_low)
    assert majorities == expected, (majorities, diversities)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"majority {majorities} switches 51->70 at epoch {first_low} ({elapsed:.2f}s)")


def test_criterion_2_consensus_gating():
    start = time.monotonic()
    doc = {
        "seed": 2,
        "epochs": 1,
        "epoch_length": 10,
        "fw_min_version": 1,
        "domains": [{"domain_id": "d1"}],
        "products": [
            {"product_id": f"p{i}", "fw_version": 2, "sw_images": {f"img{i}": f"image {i}"}}
            for i in range(4)
        ],
        "nodes": [
            {"node_id": f"n{i}", "domain_id": "d1", "product_id": f"p{i}", "stake": 1000 if i == 2 else 1}
            for i in range(4)
        ],
        "faults": [{"tick": 0, "node_id": "n2", "mutation": "flip_sw_byte"}],
    }
    universe = build_universe(parse_scenario(json.dumps(doc)))
    distribute_policies(universe)
    r = run_epoch(universe)
    assert r.verdicts["n2"] == "non_compliant"
    rng = random.Random(20)
    selections = [select_validator(universe, rng.getrandbits(64)) for _ in range(10_000)]
    assert selections.count("n2") == 0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(2, f"non-compliant high-stake node selected 0/10000 times ({elapsed:.2f}s)")


def test_criterion_3_stake_proportionality():
    doc = {
        "seed": 3,
        "epochs": 1,
        "epoch_length": 10,
        "fw_min_version": 1,
        "domains": [{"domain_id": "d1"}],
        "products": [
            {"product_id": "pa", "fw_version": 2, "sw_images": {"ia": "a"}},
            {"product_id": "pb", "fw_version": 2, "sw_images": {"ib": "b"}},
        ],
        "nodes": [
            {"node_id": "a", "domain_id": "d1", "product_id": "pa", "stake": 1},
            {"node_id": "b", "domain_id": "d1", "product_id": "pb", "stake": 3},
        ],
    }
    universe = build_universe(parse_scenario(json.dumps(doc)))
    distribute_policies(universe)
    run_epoch(universe)
    rng = random.Random(30)
    hits = {"a": 0, "b": 0}
    for _ in range(10_000):
        hits[select_validator(universe, rng.getrandbits(64))] += 1
    fa, fb = hits["a"] / 10_000, hits["b"] / 10_000
    assert abs(fa - 0.25) < 0.03 and abs(fb - 0.75) < 0.03
    report(3, f"stake 1:3 selected {fa:.3f}/{fb:.3f} (expect 0.25/0.75 within 0.03)")


def test_criterion_4_flow_equivalence():
    rng = random.Random(4)
    endorser = SignerIdentity.create(Role.ENDORSER, "acc-endorser", rng)
    mismatches = 0
    for trial in range(1000):
        env = random_env(rng)
        att = AttestingEnvironment.create(f"acc-{trial}", rng, [])
        refs = {}
        for name, image in env.sw_images:
            honest = rng.random() < 0.7
            value = digest(image) if honest else digest(b"bad" + image)
            refs[f"sw.{name}.digest"] = ClaimValue.of_digest(value)
        ends = [make_endorsement(endorser, env.hw_model, ClaimSet(refs), 0)] if refs else []
        rules = tuple(
            PolicyRule(f"ref.{name}", RuleKind.REFERENCE_MATCH, f"sw.{name}.digest")
            for name, _ in env.sw_images
        )
        policy = EvidencePolicy("acc-flow", rules, 10)

        def contexts():
            v = VerifierContext(
                SignerIdentity.create(Role.VERIFIER, "acc-v", rng), policy, list(ends), rng
            )
            rp = RelyingPartyContext(
                SignerIdentity.create(Role.RELYING_PARTY, "acc-rp", rng),
                ResultPolicy((v.identity.entity,), 10),
            )
            return v, rp

        v1, rp1 = contexts()
        d1 = run_passport_flow(att, env, v1, rp1, Transport(), clock=0)
        v2, rp2 = contexts()
        d2 = run_background_check_flow(att, env, rp2, v2, Transport(), clock=0)
        if d1.granted != d2.granted or d1.reasons != d2.reasons:
            mismatches += 1
    assert mismatches == 0
    report(4, "passport and background-check flows agree on 1000/1000 random triples")


def test_criterion_5_tamper_suite(tmp_path):
    rng = random.Random(5)
    detected = {"evidence": 0, "result": 0, "block": 0, "object": 0}

    # evidence mutations
    env = random_env(rng)
    att = AttestingEnvironment.create("tamper", rng, [])
    verifier = SignerIdentity.create(Role.VERIFIER, "tamper-v", rng)
    policy = EvidencePolicy("tamper-p", (), 10)
    for _ in range(100):
        nonce = new_nonce(0, rng)
        ev = att.generate_evidence(env, nonce, 0)
        mutated = _bitflip(rng, ev.to_bytes())
        try:
            bad = Evidence.from_bytes(mutated)
        except Exception:
            detected["evidence"] += 1
            continue
        result = appraise_evidence(bad, {}, policy, nonce, verifier, 0)
        if result.verdict != Verdict.COMPLIANT:
            detected["evidence"] += 1

    # result mutations
    rp_policy = ResultPolicy((verifier.entity,), 10)
    for _ in range(100):
        nonce = new_nonce(0, rng)
        ev = att.generate_evidence(env, nonce, 0)
        res = appraise_evidence(ev, {}, policy, nonce, verifier, 0)
        mutated = _bitflip(rng, res.to_bytes())
        try:
            bad = AttestationResult.from_bytes(mutated)
        except Exception:
            detected["result"] += 1
            continue
        if not appraise_result(bad, rp_policy, 0):
            detected["result"] += 1

    # ledger block mutations (via the integrity exit code)
    cli_main(["simulate", str(SCENARIO_DIR / "healthy-4nodes.json"), "--out", str(tmp_path)])
    export = (tmp_path / "ledger.hex").read_text()
    raw_blocks = [bytes.fromhex(l) for l in export.splitlines() if l.strip()]
    for _ in range(100):
        i = rng.randrange(len(raw_blocks))
        mutated = list(raw_blocks)
        mutated[i] = _bitflip(rng, mutated[i])
        target = tmp_path / "mutated.hex"
        target.write_text("\n".join(b.hex() for b in mutated) + "\n")
        if cli_main(["ledger", str(target), "--verify"]) == EXIT_INTEGRITY:
            detected["block"] += 1

    # stored endorsement object mutations
    manufacturer = SignerIdentity.create(Role.ENDORSER, "tamper-m", rng)
    product = b"tamper product image"
    endorsement = make_endorsement(
        manufacturer, "tp",
        ClaimSet({"product.digest": ClaimValue.of_digest(digest(product))}), 0,
    )
    for _ in range(100):
        store, ledger = ContentStore(), EndorsementsLedger()
        record = register_endorsement(
            manufacturer, "tp",
            [
                ("endorsement", endorsement.to_bytes()),
                ("manufacturer_cert", manufacturer.entity.public_key),
                ("root_cert", b"root cert"),
            ],
            store, ledger, 0,
        )
        label, addr = record.object_refs[rng.randrange(len(record.object_refs))]
        store._corrupt(addr, _bitflip(rng, store.get(addr)))
        ok, _ = verify_product(product, record, store, ledger)
        if not ok:
            detected["object"] += 1

    assert detected == {"evidence": 100, "result": 100, "block": 100, "object": 100}, detected
    report(5, f"single-bit tamper detection 100% across all four surfaces: {detected}")


def test_criterion_6_layered_suffix_property():
    rng = random.Random(6)
    verifier = SignerIdentity.create(Role.VERIFIER, "layer-v", rng)
    policy = EvidencePolicy("layer-p", (), 10)
    mismatches = 0
    for _ in range(500):
        att = AttestingEnvironment.create("layer-n", rng, [])
        images = [rng.randbytes(8) for _ in range(4)]
        golden = [digest(img) for img in images]
        i = rng.randrange(4)
        tampered = list(images)
        tampered[i] = _bitflip(rng, images[i])
        registry = {att.identity.name: att.device_secret}

        env = random_env(rng)
        nonce = new_nonce(0, rng)
        ev = att.build_layered_evidence(env, tampered, nonce, 0)
        result = appraise_layered(ev, golden, registry, {}, policy, nonce, verifier, 0)
        if result.verdict != Verdict.NON_COMPLIANT or result.reasons[0] != f"layer.{i}":
            mismatches += 1
            continue

        oracle_good = chain_layer_key_ids(att.device_secret, [g.value for g in golden])
        oracle_bad = chain_layer_key_ids(
            att.device_secret, [digest(img).value for img in tampered]
        )
        built = [rec.layer_key_id.value for rec in ev.layer_chain]
        if built != oracle_bad:
            mismatches += 1
            continue
        diverge = [j for j in range(4) if oracle_good[j] != oracle_bad[j]]
        if diverge != list(range(i, 4)):
            mismatches += 1
    assert mismatches == 0
    report(6, "layer tamper at i yields reason layer.i and divergence from i on, 500/500 trials")


def test_criterion_7_merkle_oracle_equivalence():
    rng = random.Random(7)
    for n in range(1, 9):
        leaves = [digest(rng.randbytes(8)) for _ in range(n)]
        assert merkle_root(leaves).value == merkle_root_bruteforce([l.value for l in leaves])
        root = merkle_root(leaves)
        for i in range(n):
            proof = merkle_prove(leaves, i)
            assert merkle_verify(root, leaves[i], proof)
            assert not merkle_verify(root, digest(b"outsider"), proof)
    report(7, "roots and inclusion proofs match brute force for all trees of 1-8 leaves")


def test_criterion_8_appraisal_oracle_equivalence():
    rng = random.Random(8)
    verifier = SignerIdentity.create(Role.VERIFIER, "oracle-v", rng)
    endorser = SignerIdentity.create(Role.ENDORSER, "oracle-e", rng)
    att = AttestingEnvironment.create("oracle-n", rng, [])
    disagreements = 0
    for _ in range(1000):
        env, claims, refs, policy, oracle_rules, required = _random_case(rng)
        nonce = new_nonce(0, rng)
        ev = att.generate_evidence(env, nonce, 0)
        ends = [make_endorsement(endorser, "p", ClaimSet(refs), 0)] if refs else []
        result = appraise_evidence(ev, merge_reference_claims(ends), policy, nonce, verifier, 0)
        verdict, reasons = evaluate_policy_bruteforce(
            _oracle_view(claims), _oracle_view(ClaimSet(refs)) if refs else {},
            oracle_rules, required,
        )
        if result.verdict.value != verdict or set(result.reasons) != set(reasons):
            disagreements += 1
    assert disagreements == 0
    report(8, "appraise_evidence agrees with the brute-force evaluator on 1000/1000 cases")


@pytest.mark.parametrize("name", ["healthy-4nodes", "clone-attack"])
def test_criterion_9_determinism(name):
    def run():
        cfg = load_scenario(SCENARIO_DIR / f"{name}.json")
        universe = build_universe(cfg)
        distribute_policies(universe)
        for _ in range(cfg.epochs):
            run_epoch(universe)
        assert verify_chain(universe.ledger) is None
        return export_ledger(universe.ledger)

    a, b = run(), run()
    assert a == b
    tip = a.strip().splitlines()[-1][-64:]
    report(9, f"scenario {name}: two runs byte-identical, tip ...{tip[:16]}")


def test_criterion_10_endorsement_longevity():
    rng = random.Random(10)
    manufacturer = SignerIdentity.create(Role.ENDORSER, "defunct-mfr", rng)
    product = b"long-lived product firmware"
    endorsement = make_endorsement(
        manufacturer, "legacy",
        ClaimSet({"product.digest": ClaimValue.of_digest(digest(product))}), 0,
    )
    store, ledger = ContentStore(), EndorsementsLedger()
    record = register_endorsement(
        manufacturer, "legacy",
        [
            ("endorsement", endorsement.to_bytes()),
            ("manufacturer_cert", manufacturer.entity.public_key),
            ("root_cert", b"root ca"),
        ],
        store, ledger, 0,
    )
    ok, reason = verify_product(product, record, store, ledger)
    assert (ok, reason) == (True, None)
    altered = bytearray(product)
    altered[3] ^= 1
    ok2, reason2 = verify_product(bytes(altered), record, store, ledger)
    assert (ok2, reason2) == (False, "digest_mismatch")
    report(10, "genuine product verifies with manufacturer gone; altered byte -> digest_mismatch")
