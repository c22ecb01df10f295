import random

import pytest
from hypothesis import given, strategies as st

from attestnet import conveyance, model
from attestnet.attester import AttestingEnvironment, TargetEnvironment
from attestnet.conveyance import (
    Decision,
    EvidenceMsg,
    FlowError,
    RelyingPartyContext,
    ResultMsg,
    Transport,
    VerifierContext,
    run_background_check_flow,
    run_passport_flow,
)
from attestnet.model import (
    AttestationResult,
    ClaimSet,
    ClaimValue,
    EvidencePolicy,
    GeoPoint,
    PolicyRule,
    ResultPolicy,
    Role,
    RuleKind,
    SignerIdentity,
    digest,
    make_endorsement,
)

from .conftest import random_env


def make_contexts(rng, env, rules=(), endorsements=None, freshness=10):
    policy = EvidencePolicy("flow-policy", tuple(rules), freshness)
    verifier = VerifierContext(
        SignerIdentity.create(Role.VERIFIER, "flow-verifier", rng),
        policy,
        list(endorsements or []),
        rng,
    )
    rp = RelyingPartyContext(
        SignerIdentity.create(Role.RELYING_PARTY, "flow-rp", rng),
        ResultPolicy((verifier.identity.entity,), max_result_age=10),
    )
    return verifier, rp


def endorse_env(rng, env):
    endorser = SignerIdentity.create(Role.ENDORSER, "flow-endorser", rng)
    refs = {
        f"sw.{name}.digest": ClaimValue.of_digest(digest(image))
        for name, image in env.sw_images
    }
    if not refs:
        refs = {"x": ClaimValue.of_int(0)}
    return make_endorsement(endorser, env.hw_model, ClaimSet(refs), 0)


def ref_rules(env):
    return [
        PolicyRule(f"ref.{name}", RuleKind.REFERENCE_MATCH, f"sw.{name}.digest")
        for name, _ in env.sw_images
    ]


class TestPassportFlow:
    def test_compliant_node_granted(self, attester, env, rng):
        verifier, rp = make_contexts(rng, env, ref_rules(env), [endorse_env(rng, env)])
        decision = run_passport_flow(attester, env, verifier, rp, Transport(), clock=0)
        assert decision == Decision(True)

    def test_result_tamper_denied_at_rp(self, attester, env, rng):
        verifier, rp = make_contexts(rng, env)

        def flip(raw: bytes) -> bytes:
            out = bytearray(raw)
            out[5] ^= 1
            return bytes(out)

        decision = run_passport_flow(
            attester, env, verifier, rp, Transport(), clock=0, result_tamper=flip
        )
        assert not decision.granted

    def test_replayed_evidence_denied(self, attester, env, rng):
        verifier, rp = make_contexts(rng, env)
        transport = Transport()
        first = run_passport_flow(attester, env, verifier, rp, transport, clock=0)
        assert first.granted
        replayed = next(m.evidence for m in transport.log if isinstance(m, EvidenceMsg))
        second = run_passport_flow(
            attester, env, verifier, rp, Transport(), clock=0, evidence_override=replayed
        )
        assert second == Decision(False, ("replay",))

    def test_rp_receives_verifier_bytes_unmodified(self, attester, env, rng):
        verifier, rp = make_contexts(rng, env)
        transport = Transport()
        run_passport_flow(attester, env, verifier, rp, transport, clock=0)
        result_msgs = [m for m in transport.log if isinstance(m, ResultMsg)]
        emitted = [m for m in result_msgs if m.sender == verifier.identity.entity]
        forwarded = [m for m in result_msgs if m.sender == attester.identity]
        assert emitted and forwarded
        assert emitted[0].result_bytes == forwarded[0].result_bytes

    def test_closed_transport_aborts(self, attester, env, rng):
        verifier, rp = make_contexts(rng, env)
        transport = Transport()
        transport.close()
        with pytest.raises(FlowError):
            run_passport_flow(attester, env, verifier, rp, transport, clock=0)


class TestBackgroundCheckFlow:
    def test_compliant_node_granted(self, attester, env, rng):
        verifier, rp = make_contexts(rng, env, ref_rules(env), [endorse_env(rng, env)])
        decision = run_background_check_flow(attester, env, rp, verifier, Transport(), clock=0)
        assert decision == Decision(True)

    def test_reference_mismatch_carries_rule_id(self, attester, env, rng):
        stale = make_endorsement(
            SignerIdentity.create(Role.ENDORSER, "e", rng),
            env.hw_model,
            ClaimSet({"sw.os.digest": ClaimValue.of_digest(digest(b"older image"))}),
            0,
        )
        verifier, rp = make_contexts(rng, env, ref_rules(env), [stale])
        decision = run_background_check_flow(attester, env, rp, verifier, Transport(), clock=0)
        assert not decision.granted
        assert "ref.os" in decision.reasons


class TestFlowProperties:
    def _random_setup(self, rng):
        env = random_env(rng)
        att = AttestingEnvironment.create(f"n{rng.randrange(1 << 30)}", rng, [])
        honest = rng.random() < 0.6
        if honest or not env.sw_images:
            endorsement = endorse_env(rng, env)
        else:
            name = env.sw_images[0][0]
            endorsement = make_endorsement(
                SignerIdentity.create(Role.ENDORSER, "e", rng),
                env.hw_model,
                ClaimSet({f"sw.{name}.digest": ClaimValue.of_digest(digest(b"wrong"))}),
                0,
            )
        rules = ref_rules(env)
        return env, att, rules, endorsement

    def test_flow_equivalence_randomized(self):
        rng = random.Random(5150)
        for _ in range(1000):
            env, att, rules, endorsement = self._random_setup(rng)
            v1, rp1 = make_contexts(rng, env, rules, [endorsement])
            d1 = run_passport_flow(att, env, v1, rp1, Transport(), clock=0)
            v2, rp2 = make_contexts(rng, env, rules, [endorsement])
            d2 = run_background_check_flow(att, env, rp2, v2, Transport(), clock=0)
            assert d1.granted == d2.granted
            assert d1.reasons == d2.reasons

    def test_replay_never_yields_two_grants(self, attester, env, rng):
        verifier, rp = make_contexts(rng, env)
        transport = Transport()
        assert run_passport_flow(attester, env, verifier, rp, transport, clock=0).granted
        ev = next(m.evidence for m in transport.log if isinstance(m, EvidenceMsg))
        grants = sum(
            run_passport_flow(
                attester, env, verifier, rp, Transport(), clock=0, evidence_override=ev
            ).granted
            for _ in range(5)
        )
        assert grants == 0

    def test_stale_evidence_never_compliant(self, attester, env, rng):
        # forced-clock: appraisal far beyond the freshness window
        verifier, rp = make_contexts(rng, env, freshness=2)
        nonce = verifier.issue_challenge(0)
        stale_ev = attester.generate_evidence(env, nonce, 0)
        decision = run_passport_flow(
            attester, env, verifier, rp, Transport(), clock=50, evidence_override=stale_ev
        )
        assert not decision.granted


def _counting(monkeypatch, owner, name):
    """Replace `owner.name` with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestVerifyOnce:
    """Each conveyed result is decoded once per message and its signature is
    checked once per decoded result; the relying party appraises what it
    received."""

    def _granted_contexts(self, rng, env):
        verifier, rp = make_contexts(rng, env, ref_rules(env), [endorse_env(rng, env)])
        verifier.references()  # endorsements merged (and verified) before counting
        return verifier, rp

    def test_granted_passport_flow_verifies_two_signatures(self, attester, env, rng, monkeypatch):
        verifier, rp = self._granted_contexts(rng, env)
        verifies = _counting(monkeypatch, model, "verify_bytes")
        decision = run_passport_flow(attester, env, verifier, rp, Transport(), clock=0)
        assert decision == Decision(True)
        # evidence at send time; the verifier's result message (the forward of
        # the same bytes shares its check)
        assert len(verifies) == 2

    def test_granted_background_check_flow_verifies_two_signatures(
        self, attester, env, rng, monkeypatch
    ):
        verifier, rp = self._granted_contexts(rng, env)
        verifies = _counting(monkeypatch, model, "verify_bytes")
        decision = run_background_check_flow(attester, env, rp, verifier, Transport(), clock=0)
        assert decision == Decision(True)
        # evidence at send time; the verifier's result message
        assert len(verifies) == 2

    def test_result_message_decodes_once(self, attester, env, rng, monkeypatch):
        verifier, _ = make_contexts(rng, env)
        nonce = verifier.issue_challenge(0)
        result = verifier.appraise(attester.generate_evidence(env, nonce, 0), nonce, 0)
        msg = ResultMsg(verifier.identity.entity, result.to_bytes())
        decodes = _counting(monkeypatch, AttestationResult, "from_bytes")
        assert msg.result() is msg.result()
        assert msg.result() == result
        assert len(decodes) == 1
        again = ResultMsg(msg.sender, msg.result_bytes)  # another message decodes anew
        assert again.result() is not msg.result()
        assert len(decodes) == 2

    def test_untampered_forward_shares_the_carried_result(self, attester, env, rng, monkeypatch):
        verifier, _ = make_contexts(rng, env)
        nonce = verifier.issue_challenge(0)
        result = verifier.appraise(attester.generate_evidence(env, nonce, 0), nonce, 0)
        carried = Transport().send(ResultMsg(verifier.identity.entity, result.to_bytes()))
        decodes = _counting(monkeypatch, AttestationResult, "from_bytes")
        verifies = _counting(monkeypatch, model, "verify_bytes")
        equal_copy = bytes(bytearray(carried.result_bytes))  # equal, not the same object
        assert equal_copy is not carried.result_bytes
        forward = carried.forwarded_by(attester.identity, equal_copy)
        assert forward.result() is carried.result()
        assert forward.result().verify_signature()
        assert decodes == [] and verifies == []

    def test_changed_forward_decodes_anew_and_is_denied(self, attester, env, rng, monkeypatch):
        verifier, rp = make_contexts(rng, env)
        decodes = _counting(monkeypatch, AttestationResult, "from_bytes")
        transport = Transport()
        assert run_passport_flow(attester, env, verifier, rp, transport, clock=0).granted
        # the carried message holds the verifier's result; the forward shares it
        assert len(decodes) == 0
        for position in range(len(transport.log[-1].result_bytes)):
            decodes.clear()
            decision = run_passport_flow(
                attester, env, verifier, rp, Transport(), clock=0,
                result_tamper=_flip_byte(position),
            )
            assert not decision.granted
            assert len(decodes) == 1  # the changed forward

    def test_background_check_rp_appraises_received_message(self, attester, env, rng, monkeypatch):
        verifier, rp = make_contexts(rng, env)
        appraised = _counting(monkeypatch, conveyance, "appraise_result")
        transport = Transport()
        assert run_background_check_flow(attester, env, rp, verifier, transport, clock=0).granted
        received = [m for m in transport.log if isinstance(m, ResultMsg)]
        assert len(received) == 1 and len(appraised) == 1
        assert appraised[0][0] is received[0].result()

    def test_passport_rp_appraises_forwarded_message(self, attester, env, rng, monkeypatch):
        verifier, rp = make_contexts(rng, env)
        appraised = _counting(monkeypatch, conveyance, "appraise_result")
        transport = Transport()
        assert run_passport_flow(attester, env, verifier, rp, transport, clock=0).granted
        forwarded = transport.log[-1]
        assert isinstance(forwarded, ResultMsg) and forwarded.sender == attester.identity
        assert len(appraised) == 1
        assert appraised[0][0] is forwarded.result()


def _flip_byte(position):
    def tamper(raw: bytes) -> bytes:
        out = bytearray(raw)
        out[position] ^= 1
        return bytes(out)

    return tamper


class TestTranscripts:
    def _expected(self, attester, verifier, kinds):
        senders = {"attester": attester.identity, "verifier": verifier.identity.entity}
        return "\n".join(
            f"{kind} from {senders[who].role.value}:{senders[who].name}" for kind, who in kinds
        )

    PASSPORT_HEAD = [
        ("AccessRequest", "attester"),
        ("ChallengeNonce", "verifier"),
        ("EvidenceMsg", "attester"),
        ("ResultMsg", "verifier"),
    ]

    def test_granted_passport_transcript(self, attester, env, rng):
        verifier, rp = make_contexts(rng, env)
        transport = Transport()
        assert run_passport_flow(attester, env, verifier, rp, transport, clock=0).granted
        kinds = self.PASSPORT_HEAD + [("ResultMsg", "attester")]
        assert transport.transcript() == self._expected(attester, verifier, kinds)

    @pytest.mark.parametrize("tamper", [_flip_byte(-1), _flip_byte(5)], ids=["sig", "header"])
    def test_denied_passport_transcript_omits_forward(self, attester, env, rng, tamper):
        verifier, rp = make_contexts(rng, env)
        transport = Transport()
        decision = run_passport_flow(
            attester, env, verifier, rp, transport, clock=0, result_tamper=tamper
        )
        assert not decision.granted
        assert transport.transcript() == self._expected(attester, verifier, self.PASSPORT_HEAD)

    def test_non_compliant_passport_transcript_omits_forward(self, attester, env, rng):
        wrong = make_endorsement(
            SignerIdentity.create(Role.ENDORSER, "e", rng),
            env.hw_model,
            ClaimSet({"sw.os.digest": ClaimValue.of_digest(digest(b"older image"))}),
            0,
        )
        verifier, rp = make_contexts(rng, env, ref_rules(env), [wrong])
        transport = Transport()
        decision = run_passport_flow(attester, env, verifier, rp, transport, clock=0)
        assert decision == Decision(False, ("ref.bootloader.no_reference", "ref.os"))
        assert transport.transcript() == self._expected(attester, verifier, self.PASSPORT_HEAD)


@given(position=st.integers(0, 1 << 16), value=st.integers(1, 255), truncate=st.booleans())
def test_any_result_tamper_is_denied_never_raised(position, value, truncate):
    def tamper(raw: bytes) -> bytes:
        i = position % len(raw)
        if truncate:
            return raw[:i]
        return raw[:i] + bytes([raw[i] ^ value]) + raw[i + 1 :]

    rng = random.Random(0x7A3)
    env = TargetEnvironment("fuzz-hw", 3, (("os", b"os image"),), GeoPoint(1.0, 2.0, 3.0))
    attester = AttestingEnvironment.create("fuzz-attester", rng)
    verifier, rp = make_contexts(rng, env)
    decision = run_passport_flow(
        attester, env, verifier, rp, Transport(), clock=0, result_tamper=tamper
    )
    assert isinstance(decision, Decision)
    assert not decision.granted
