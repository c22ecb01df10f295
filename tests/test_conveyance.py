import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from attestnet import conveyance, model
from attestnet.attester import AttestingEnvironment, TargetEnvironment
from attestnet.conveyance import (
    ChallengeNonce,
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
    Nonce,
    PolicyRule,
    ResultPolicy,
    Role,
    RuleKind,
    SignerIdentity,
    Verdict,
    digest,
    make_endorsement,
)

from . import oracles
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

    def test_forged_result_reasons_are_not_echoed(self, attester, env, rng):
        """A forwarded result that decodes, says non-compliant for reasons of
        its own and keeps the verifier's signature is reported as
        `result_rejected`, not by its own reasons."""
        verifier, rp = make_contexts(rng, env)

        def spoof(raw: bytes) -> bytes:
            result = AttestationResult.from_bytes(raw)
            return replace(result, verdict=Verdict.NON_COMPLIANT, reasons=("spoofed",)).to_bytes()

        decision = run_passport_flow(
            attester, env, verifier, rp, Transport(), clock=0, result_tamper=spoof
        )
        assert decision == Decision(False, ("result_rejected",))

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


class TestBinding:
    """The relying party grants a result only to the session that it was
    appraised in: its attester is the requester and its nonce the session's
    challenge."""

    @staticmethod
    def _granted_result(attester, env, verifier, rp, clock):
        transport = Transport()
        assert run_passport_flow(attester, env, verifier, rp, transport, clock) == Decision(True)
        return next(m.result_bytes for m in transport.log if isinstance(m, ResultMsg))

    def test_another_attesters_result_is_denied(self, attester, env, rng):
        """`other`, whose bootloader is tampered, is denied on its own result,
        and on the result of `attester`'s earlier granted flow."""
        verifier, rp = make_contexts(rng, env, ref_rules(env), [endorse_env(rng, env)])
        stolen = self._granted_result(attester, env, verifier, rp, clock=0)
        other = AttestingEnvironment.create("other", rng)
        tampered = replace(env, sw_images=(("bootloader", b"tampered boot"), env.sw_images[1]))
        own = run_passport_flow(other, tampered, verifier, rp, Transport(), clock=1)
        assert own == Decision(False, ("ref.bootloader",))
        transport = Transport()
        decision = run_passport_flow(other, tampered, verifier, rp, transport, clock=1,
                                     result_tamper=lambda raw: stolen)
        assert decision == Decision(False, ("binding",))
        assert [m.sender for m in transport.log if isinstance(m, ResultMsg)] == [
            verifier.identity.entity]  # nothing forwarded

    def test_own_result_from_an_earlier_session_is_denied(self, attester, env, rng):
        """A holder whose bootloader changed after a granted session presents
        that session's result, still within the relying party's age limit."""
        verifier, rp = make_contexts(rng, env, ref_rules(env), [endorse_env(rng, env)])
        earlier = self._granted_result(attester, env, verifier, rp, clock=0)
        changed = replace(env, sw_images=(("bootloader", b"changed boot"), env.sw_images[1]))
        decision = run_passport_flow(attester, changed, verifier, rp, Transport(), clock=5,
                                     result_tamper=lambda raw: earlier)
        assert decision == Decision(False, ("binding",))

    def test_a_result_for_this_challenge_naming_another_attester_is_denied(
            self, attester, env, rng):
        """An accomplice with a key of its own answers this session's
        challenge, relayed to it, and the verifier appraises that evidence:
        the result echoes the challenge but names the accomplice."""
        verifier, rp = make_contexts(rng, env)
        thief, transport = AttestingEnvironment.create("thief", rng), Transport()

        def relayed(raw: bytes) -> bytes:
            challenge = next(m.nonce for m in transport.log if isinstance(m, ChallengeNonce))
            evidence = attester.generate_evidence(env, challenge, 0)
            return verifier.appraise(evidence, challenge, 0).to_bytes()

        decision = run_passport_flow(thief, env, verifier, rp, transport, clock=0,
                                     result_tamper=relayed)
        assert decision == Decision(False, ("binding",))


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


@pytest.mark.parametrize("flow", ["passport", "background"])
def test_forged_evidence_is_denied_and_consumes_no_nonce(flow, attester, env, rng):
    """The transport carries forged evidence; the verifier's appraisal says
    `sig`, and the nonce it echoes stays unconsumed."""
    verifier, rp = make_contexts(rng, env)
    transport = Transport()
    assert run_passport_flow(attester, env, verifier, rp, transport, clock=0).granted
    seen = set(verifier.seen_nonces)
    authentic = next(m.evidence for m in transport.log if isinstance(m, EvidenceMsg))
    forged = replace(attester.generate_evidence(env, verifier.issue_challenge(0), 0), created_at=1)
    for evidence in (forged, replace(authentic, created_at=1)):  # a new echo, a consumed one
        if flow == "passport":
            decision = run_passport_flow(attester, env, verifier, rp, Transport(), clock=1,
                                         evidence_override=evidence)
        else:
            decision = run_background_check_flow(attester, env, rp, verifier, Transport(),
                                                 clock=1, evidence_override=evidence)
        assert not decision.granted and "sig" in decision.reasons
        assert verifier.seen_nonces == seen


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


def _returns(monkeypatch, owner, name):
    """Replace `owner.name` with a wrapper that records what it returns."""
    returned = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(owner, name, recorded)
    return returned


class TestVerifyOnce:
    """The verifier checks each evidence's signature once and the relying
    party each result's; the transport checks none. Only a forward with a
    changed byte is decoded; otherwise the relying party appraises the signed
    result that the verifier sent."""

    def _granted_contexts(self, rng, env):
        verifier, rp = make_contexts(rng, env, ref_rules(env), [endorse_env(rng, env)])
        verifier.references()  # endorsements merged (and verified) before counting
        return verifier, rp

    def test_granted_passport_flow_verifies_two_signatures(self, attester, env, rng, monkeypatch):
        verifier, rp = self._granted_contexts(rng, env)
        verifies = _counting(monkeypatch, model, "verify_bytes")
        decision = run_passport_flow(attester, env, verifier, rp, Transport(), clock=0)
        assert decision == Decision(True)
        # the evidence, by the verifier; the verifier's result, by the relying
        # party, which appraises that result itself for a forward of the same
        # bytes
        assert len(verifies) == 2

    def test_granted_background_check_flow_verifies_two_signatures(
        self, attester, env, rng, monkeypatch
    ):
        verifier, rp = self._granted_contexts(rng, env)
        verifies = _counting(monkeypatch, model, "verify_bytes")
        decision = run_background_check_flow(attester, env, rp, verifier, Transport(), clock=0)
        assert decision == Decision(True)
        # the evidence, by the verifier; the verifier's result, by the relying
        # party
        assert len(verifies) == 2

    def test_untampered_forward_shares_the_carried_result(self, attester, env, rng, monkeypatch):
        verifier, rp = self._granted_contexts(rng, env)
        decodes = _counting(monkeypatch, AttestationResult, "from_bytes")
        verifies = _counting(monkeypatch, model, "verify_bytes")

        def equal_copy(raw: bytes) -> bytes:
            copy = bytes(bytearray(raw))
            assert copy is not raw  # equal, not the same object
            return copy

        decision = run_passport_flow(
            attester, env, verifier, rp, Transport(), clock=0, result_tamper=equal_copy
        )
        assert decision == Decision(True)
        assert decodes == [] and len(verifies) == 2

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
        signed = _returns(monkeypatch, verifier, "appraise")
        appraised = _counting(monkeypatch, conveyance, "appraise_result")
        transport = Transport()
        assert run_background_check_flow(attester, env, rp, verifier, transport, clock=0).granted
        received = [m for m in transport.log if isinstance(m, ResultMsg)]
        assert len(received) == 1 and len(appraised) == 1 and len(signed) == 1
        assert appraised[0][0] is signed[0]
        assert appraised[0][0] == AttestationResult.from_bytes(received[0].result_bytes)

    def test_passport_rp_appraises_forwarded_message(self, attester, env, rng, monkeypatch):
        verifier, rp = make_contexts(rng, env)
        signed = _returns(monkeypatch, verifier, "appraise")
        appraised = _counting(monkeypatch, conveyance, "appraise_result")
        transport = Transport()
        assert run_passport_flow(attester, env, verifier, rp, transport, clock=0).granted
        forwarded = transport.log[-1]
        assert isinstance(forwarded, ResultMsg) and forwarded.sender == attester.identity
        assert len(appraised) == 1 and len(signed) == 1
        assert appraised[0][0] is signed[0]
        assert appraised[0][0] == AttestationResult.from_bytes(forwarded.result_bytes)


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


FLOW_VARIANTS = ("fresh", "replay", "old", "later", "forged", "other")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    window=st.integers(1, 10),
    flows=st.lists(
        st.tuples(
            st.sampled_from(["passport", "background"]),
            st.sampled_from(FLOW_VARIANTS),
            st.integers(0, 1 << 16),  # picks the earlier flow, the age or the later tick
            st.binary(min_size=16, max_size=16),  # the echoed value of new evidence
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_flow_decisions_match_the_freshness_oracle(window, flows):
    """Against one verifier, flows of either kind whose attester answers the
    challenge, replays an earlier flow's evidence, sends old evidence (up to
    twice the window), echoes a later tick or sends forged evidence, and
    passport flows whose attester answers the challenge but forwards the
    result of another session ("other"), each get `oracles.flow_decision`'s
    decision, and the verifier consumes the nonce values that the oracle
    does."""
    rng = random.Random(0xF1E5)
    env = TargetEnvironment("oracle-hw", 3, (("os", b"os image"),), GeoPoint(1.0, 2.0, 3.0))
    attester = AttestingEnvironment.create("oracle-attester", rng)
    verifier, rp = make_contexts(rng, env, freshness=window)
    sent, consumed = [], set()  # each flow's evidence with its oracle description
    results = []  # each session's result bytes, with its oracle description
    for i, (kind, variant, pick, value) in enumerate(flows):
        clock = 2 * window + i
        if variant == "replay" and sent or variant == "forged" and sent and pick % 2:
            override, described = sent[pick % len(sent)]
        elif variant in ("old", "later", "forged"):
            tick = clock + 1 + pick % window if variant == "later" else clock - pick % (2 * window + 1)
            override = attester.generate_evidence(env, Nonce(value, tick), tick)
            described = (True, value, tick)
        else:
            override = described = None
        if variant == "forged":  # a copy of old or earlier evidence, its signature now wrong
            override = replace(override, created_at=override.created_at + 1)
            described = (False, *described[1:])
        presented = forward = None
        if variant == "other" and kind == "passport" and results:
            stolen, presented = results[pick % len(results)]
            forward = lambda raw: stolen
        transport = Transport()
        if kind == "passport":
            decision = run_passport_flow(attester, env, verifier, rp, transport, clock,
                                         evidence_override=override, result_tamper=forward)
        else:
            decision = run_background_check_flow(attester, env, rp, verifier, transport, clock,
                                                 evidence_override=override)
        expected = oracles.flow_decision(described, clock, window, consumed, presented,
                                         rp.result_policy.max_result_age)
        result = next((m.result_bytes for m in transport.log if isinstance(m, ResultMsg)), None)
        if result is not None:  # the verifier's, first; its reasons are the session's own
            results.append((result, (() if presented else expected[1], clock)))
        if described is None:
            challenge = next(m.nonce for m in transport.log if isinstance(m, ChallengeNonce))
            consumed.add(challenge.value)
            override = next(m.evidence for m in transport.log if isinstance(m, EvidenceMsg))
            described = (True, challenge.value, challenge.issued_at)
        assert (decision.granted, decision.reasons) == expected, (kind, variant)
        assert verifier.seen_nonces == consumed
        sent.append((override, described))
