import random
from dataclasses import replace

import pytest

from attestnet.attester import AttestingEnvironment, layer_chain_from_images, measure
from attestnet.model import (
    ClaimSet,
    ClaimValue,
    Digest,
    Evidence,
    EvidencePolicy,
    GeoFence,
    Nonce,
    PolicyRule,
    ResultPolicy,
    Role,
    RuleKind,
    SignerIdentity,
    Verdict,
    digest,
    make_endorsement,
    new_nonce,
    sign_message,
)
from attestnet.verifier import (
    appraise_composite,
    appraise_evidence,
    appraise_layered,
    appraise_result,
    merge_reference_claims,
)

from .conftest import random_env
from .oracles import evaluate_policy_bruteforce


def trivial_policy(freshness=10, rules=(), required=()):
    return EvidencePolicy("p-test", tuple(rules), freshness, tuple(required))


def endorse(rng, refs: dict, issued_at=0, product="prod-1"):
    endorser = SignerIdentity.create(Role.ENDORSER, "endorser", rng)
    return make_endorsement(endorser, product, ClaimSet(refs), issued_at)


class TestAppraiseEvidence:
    def test_matching_reference_compliant(self, attester, env, rng, verifier_identity):
        nonce = new_nonce(0, rng)
        ev = attester.generate_evidence(env, nonce, 0)
        refs = {"sw.os.digest": ClaimValue.of_digest(digest(b"os image v3"))}
        policy = trivial_policy(rules=[PolicyRule("r.os", RuleKind.REFERENCE_MATCH, "sw.os.digest")])
        result = appraise_evidence(ev, merge_reference_claims([endorse(rng, refs)]), policy, nonce, verifier_identity, 0)
        assert result.verdict == Verdict.COMPLIANT and result.reasons == ()
        assert result.verify_signature()
        assert result.policy_digest == policy.digest()

    def test_wrong_nonce(self, attester, env, rng, verifier_identity):
        ev = attester.generate_evidence(env, new_nonce(0, rng), 0)
        other = new_nonce(0, rng)
        result = appraise_evidence(ev, {}, trivial_policy(), other, verifier_identity, 0)
        assert result.verdict == Verdict.NON_COMPLIANT and result.reasons == ("nonce",)

    def test_stale_nonce(self, attester, env, rng, verifier_identity):
        nonce = new_nonce(0, rng)
        ev = attester.generate_evidence(env, nonce, 0)
        result = appraise_evidence(ev, {}, trivial_policy(freshness=5), nonce, verifier_identity, 6)
        assert result.verdict == Verdict.NON_COMPLIANT and "stale" in result.reasons

    def test_echo_with_a_later_tick_gains_no_freshness(self, attester, env, rng, verifier_identity):
        """Freshness counts from the challenge's tick: an echo that moves the
        tick forward is not the challenge, and is as stale as the honest echo."""
        challenge = new_nonce(100, rng)
        bumped = attester.generate_evidence(env, replace(challenge, issued_at=150), 150)
        honest = attester.generate_evidence(env, challenge, 150)
        for ev, reasons in ((bumped, ("nonce", "stale")), (honest, ("stale",))):
            result = appraise_evidence(ev, {}, trivial_policy(freshness=10), challenge,
                                       verifier_identity, 150)
            assert result.verdict == Verdict.NON_COMPLIANT and result.reasons == reasons

    def test_uncovered_reference_is_unknown(self, attester, env, rng, verifier_identity):
        nonce = new_nonce(0, rng)
        ev = attester.generate_evidence(env, nonce, 0)
        policy = trivial_policy(rules=[PolicyRule("r.os", RuleKind.REFERENCE_MATCH, "sw.os.digest")])
        result = appraise_evidence(ev, {}, policy, nonce, verifier_identity, 0)
        assert result.verdict == Verdict.UNKNOWN
        assert result.reasons == ("r.os.no_reference",)

    def test_tampered_evidence_fails_sig(self, attester, env, rng, verifier_identity):
        nonce = new_nonce(0, rng)
        for _ in range(100):
            ev = attester.generate_evidence(env, nonce, 0)
            raw = bytearray(ev.to_bytes())
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            try:
                mutated = Evidence.from_bytes(bytes(raw))
            except Exception:
                continue  # decode failure is detection too
            result = appraise_evidence(mutated, {}, trivial_policy(), nonce, verifier_identity, 0)
            if mutated.nonce_echo.value == nonce.value and mutated.to_bytes() != ev.to_bytes():
                assert "sig" in result.reasons

    def test_invalid_endorsement_discarded(self, rng):
        good = endorse(rng, {"a": ClaimValue.of_int(1)})
        bad = replace(good, signature=b"\x00" * 64)
        refs = merge_reference_claims([bad])
        assert refs == {}

    def test_endorsement_conflict_later_wins(self, rng):
        early = endorse(rng, {"a": ClaimValue.of_int(1)}, issued_at=1)
        late = endorse(rng, {"a": ClaimValue.of_int(2)}, issued_at=5)
        refs = merge_reference_claims([late, early])
        assert refs["a"] == ClaimValue.of_int(2)


def _random_case(rng):
    """Random (claims, references, policy) triple exercising every rule kind."""
    env = random_env(rng)
    claims = measure(env)
    rules, oracle_rules = [], []
    refs = {}
    for name, image in env.sw_images:
        key = f"sw.{name}.digest"
        if rng.random() < 0.8:
            value = digest(image) if rng.random() < 0.7 else digest(image.hex().encode())
            refs[key] = ClaimValue.of_digest(value)
        rules.append(PolicyRule(f"ref.{name}", RuleKind.REFERENCE_MATCH, key))
        oracle_rules.append({"rule_id": f"ref.{name}", "kind": "reference_match", "claim_key": key})
    bound = rng.randint(0, 9)
    rules.append(PolicyRule("fw.min", RuleKind.VERSION_AT_LEAST, "fw.version", bound))
    oracle_rules.append(
        {"rule_id": "fw.min", "kind": "version_at_least", "claim_key": "fw.version", "bound": bound}
    )
    if rng.random() < 0.5:
        lat = sorted((rng.uniform(-90, 90), rng.uniform(-90, 90)))
        lon = sorted((rng.uniform(-180, 180), rng.uniform(-180, 180)))
        fence = GeoFence(lat[0], lat[1], lon[0], lon[1])
        rules.append(PolicyRule("geo.fence", RuleKind.GEO_FENCE, "geo", fence=fence))
        oracle_rules.append(
            {"rule_id": "geo.fence", "kind": "geo_fence", "claim_key": "geo",
             "fence": (lat[0], lat[1], lon[0], lon[1])}
        )
    maybe_key = rng.choice(["gpu.count", "sw.missing.digest", "hw.model"])
    rules.append(PolicyRule("present", RuleKind.CLAIM_PRESENT, maybe_key))
    oracle_rules.append({"rule_id": "present", "kind": "claim_present", "claim_key": maybe_key})
    required = ["config.digest"] + (["not.there"] if rng.random() < 0.2 else [])
    policy = EvidencePolicy("p-rand", tuple(rules), 10, tuple(required))
    return env, claims, refs, policy, oracle_rules, required


def _oracle_view(claims: ClaimSet) -> dict:
    out = {}
    for k, v in claims.items():
        if v.kind == "geo":
            out[k] = ("geo", (v.value.latitude, v.value.longitude))
        elif v.kind == "digest":
            out[k] = ("digest", v.value.value)
        else:
            out[k] = (v.kind, v.value)
    return out


class TestOracleEquivalence:
    def test_appraise_matches_bruteforce_evaluator(self, verifier_identity):
        rng = random.Random(1234)
        att = AttestingEnvironment.create("oracle-node", rng, [])
        for _ in range(1000):
            env, claims, refs, policy, oracle_rules, required = _random_case(rng)
            nonce = new_nonce(0, rng)
            ev = att.generate_evidence(env, nonce, 0)
            ends = [endorse(rng, refs)] if refs else []
            result = appraise_evidence(ev, merge_reference_claims(ends), policy, nonce, verifier_identity, 0)

            oracle_refs = _oracle_view(ClaimSet(refs)) if refs else {}
            verdict, reasons = evaluate_policy_bruteforce(
                _oracle_view(claims), oracle_refs, oracle_rules, required
            )
            assert result.verdict.value == verdict, (reasons, result.reasons)
            assert set(result.reasons) == set(reasons)

    def test_monotonic_under_coverage_additions(self, verifier_identity):
        # adding an endorsement that covers previously-uncovered claims can
        # only resolve unknown or leave the verdict unchanged
        rng = random.Random(77)
        att = AttestingEnvironment.create("mono-node", rng, [])
        for _ in range(300):
            env, claims, refs, policy, _, _ = _random_case(rng)
            nonce = new_nonce(0, rng)
            ev = att.generate_evidence(env, nonce, 0)
            base_ends = [endorse(rng, refs)] if refs else []
            before = appraise_evidence(ev, merge_reference_claims(base_ends), policy, nonce, verifier_identity, 0)

            uncovered = [
                k for k in claims.keys() if k.startswith("sw.") and k not in refs
            ]
            extra_refs = {k: claims.get(k) for k in uncovered} or {"x.cover": ClaimValue.of_int(1)}
            after = appraise_evidence(
                ev, merge_reference_claims(base_ends + [endorse(rng, extra_refs, issued_at=9)]),
                policy, nonce, verifier_identity, 0,
            )
            if before.verdict == Verdict.COMPLIANT:
                assert after.verdict == Verdict.COMPLIANT
            if before.verdict == Verdict.NON_COMPLIANT:
                assert after.verdict == Verdict.NON_COMPLIANT


class TestAppraiseLayered:
    def _setup(self, rng):
        att = AttestingEnvironment.create("layered", rng, [])
        images = [rng.randbytes(8) for _ in range(3)]
        golden = [digest(img) for img in images]
        registry = {att.identity.name: att.device_secret}
        return att, images, golden, registry

    def test_matching_chain_compliant(self, rng, env, verifier_identity):
        att, images, golden, registry = self._setup(rng)
        nonce = new_nonce(0, rng)
        ev = att.build_layered_evidence(env, images, nonce, 0)
        result = appraise_layered(
            ev, golden, registry, {}, trivial_policy(), nonce, verifier_identity, 0
        )
        assert result.verdict == Verdict.COMPLIANT

    def test_tampered_middle_layer(self, rng, env, verifier_identity):
        att, images, golden, registry = self._setup(rng)
        nonce = new_nonce(0, rng)
        tampered = list(images)
        tampered[1] = b"evil" + images[1]
        ev = att.build_layered_evidence(env, tampered, nonce, 0)
        result = appraise_layered(
            ev, golden, registry, {}, trivial_policy(), nonce, verifier_identity, 0
        )
        assert result.verdict == Verdict.NON_COMPLIANT
        assert result.reasons[0] == "layer.1"

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_a_layer_that_lies_about_its_measurement(self, rng, env, verifier_identity, layer):
        """A tampered layer that reports the golden measurement is caught by its
        own key, at its own index, even when it is the last layer."""
        att, images, golden, registry = self._setup(rng)
        nonce = new_nonce(0, rng)
        tampered = list(images)
        tampered[layer] = b"evil" + images[layer]
        chain = layer_chain_from_images(att.device_secret, tampered)
        chain[layer] = replace(chain[layer], measurement=golden[layer])
        ev = sign_message(Evidence(att.identity, measure(env), nonce, 0, layer_chain=tuple(chain)),
                          att.attestation_key)
        result = appraise_layered(
            ev, golden, registry, {}, trivial_policy(), nonce, verifier_identity, 0
        )
        assert result.reasons == (f"layer.{layer}",)

    def test_short_chain(self, rng, env, verifier_identity):
        att, images, golden, registry = self._setup(rng)
        nonce = new_nonce(0, rng)
        ev = att.build_layered_evidence(env, images[:2], nonce, 0)
        result = appraise_layered(
            ev, golden, registry, {}, trivial_policy(), nonce, verifier_identity, 0
        )
        assert result.verdict == Verdict.NON_COMPLIANT
        assert "layer.len" in result.reasons

    def test_unregistered_secret_unknown(self, rng, env, verifier_identity):
        att, images, golden, _ = self._setup(rng)
        nonce = new_nonce(0, rng)
        ev = att.build_layered_evidence(env, images, nonce, 0)
        result = appraise_layered(
            ev, golden, {}, {}, trivial_policy(), nonce, verifier_identity, 0
        )
        assert result.verdict == Verdict.UNKNOWN


class TestAppraiseComposite:
    def _gate_policy(self):
        return trivial_policy(
            rules=[PolicyRule("all.comp", RuleKind.COMPONENTS_ALL_COMPLIANT)]
        )

    def test_lead_plus_compliant_components(self, attester, env, rng, verifier_identity):
        comps = []
        for i in range(2):
            a = AttestingEnvironment.create(f"c{i}", rng, [])
            comps.append(a.generate_evidence(random_env(rng), new_nonce(0, rng), 0))
        nonce = new_nonce(0, rng)
        ev = attester.collate_composite(env, comps, nonce, 0)
        result = appraise_composite(ev, {}, self._gate_policy(), nonce, verifier_identity, 0)
        assert result.verdict == Verdict.COMPLIANT

    def test_component_failure_surfaces_with_index(self, attester, env, rng, verifier_identity):
        comp_att = AttestingEnvironment.create("c0", rng, [])
        comp_env = random_env(rng)
        while not comp_env.sw_images:
            comp_env = random_env(rng)
        comps = [
            attester.generate_evidence(env, new_nonce(0, rng), 0),
            comp_att.generate_evidence(comp_env, new_nonce(0, rng), 0),
        ]
        name = comp_env.sw_images[0][0]
        key = f"sw.{name}.digest"
        stale_ref = {key: ClaimValue.of_digest(digest(b"stale reference image"))}
        policy = trivial_policy(
            rules=[
                PolicyRule("all.comp", RuleKind.COMPONENTS_ALL_COMPLIANT),
                PolicyRule(f"ref.{name}", RuleKind.REFERENCE_MATCH, key),
            ]
        )
        nonce = new_nonce(0, rng)
        ev = attester.collate_composite(env, comps, nonce, 0)
        result = appraise_composite(ev, merge_reference_claims([endorse(rng, stale_ref)]), policy, nonce, verifier_identity, 0)
        assert result.verdict == Verdict.NON_COMPLIANT
        assert f"component.1.ref.{name}" in result.reasons

    def test_gate_vacuous_over_missing_components(self, attester, env, rng, verifier_identity):
        nonce = new_nonce(0, rng)
        ev = attester.collate_composite(env, [], nonce, 0)
        result = appraise_composite(ev, {}, self._gate_policy(), nonce, verifier_identity, 0)
        assert result.verdict == Verdict.COMPLIANT

    def test_component_without_policy_is_a_reason(self, attester, env, rng, verifier_identity):
        comps = []
        for i in range(3):
            a = AttestingEnvironment.create(f"c{i}", rng, [])
            comps.append(a.generate_evidence(random_env(rng), new_nonce(0, rng), 0))
        nonce = new_nonce(0, rng)
        ev = attester.collate_composite(env, comps, nonce, 0)
        result = appraise_composite(
            ev, {}, self._gate_policy(), nonce, verifier_identity, 0,
            component_policies=[trivial_policy()],
        )
        assert result.verdict == Verdict.NON_COMPLIANT
        assert result.reasons == ("component.1.no_policy", "component.2.no_policy")


class TestAppraiseResult:
    def _result(self, attester, env, rng, verifier_identity, clock=0):
        nonce = new_nonce(clock, rng)
        ev = attester.generate_evidence(env, nonce, clock)
        return appraise_evidence(ev, {}, trivial_policy(), nonce, verifier_identity, clock)

    def test_fresh_compliant_accepted(self, attester, env, rng, verifier_identity):
        result = self._result(attester, env, rng, verifier_identity)
        policy = ResultPolicy((verifier_identity.entity,), max_result_age=5)
        assert appraise_result(result, policy, 3)

    def test_old_result_rejected(self, attester, env, rng, verifier_identity):
        result = self._result(attester, env, rng, verifier_identity)
        policy = ResultPolicy((verifier_identity.entity,), max_result_age=5)
        assert not appraise_result(result, policy, 6)

    def test_unaccepted_verifier_rejected(self, attester, env, rng, verifier_identity):
        result = self._result(attester, env, rng, verifier_identity)
        other = SignerIdentity.create(Role.VERIFIER, "other", rng)
        policy = ResultPolicy((other.entity,), max_result_age=5)
        assert not appraise_result(result, policy, 0)

    def test_tampered_result_rejected(self, attester, env, rng, verifier_identity):
        result = self._result(attester, env, rng, verifier_identity)
        bad = replace(result, created_at=result.created_at + 1)
        policy = ResultPolicy((verifier_identity.entity,), max_result_age=5)
        assert not appraise_result(bad, policy, 1)
