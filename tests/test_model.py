import functools
import random
import struct

import pytest
from hypothesis import given, strategies as st

from attestnet import model
from attestnet.consortium import LedgerBlock, LedgerRecord
from attestnet.endorsement_ledger import MANDATORY_LABELS, EndorsementRecord
from attestnet.model import (
    AttestationResult,
    ClaimSet,
    ClaimValue,
    Digest,
    Endorsement,
    EntityId,
    Evidence,
    EvidencePolicy,
    GeoFence,
    GeoPoint,
    LayerRecord,
    ModelError,
    SIGNING_KEY,
    Nonce,
    PolicyRule,
    Role,
    RuleKind,
    SignerIdentity,
    SigningKey,
    Verdict,
    decode,
    digest,
    encode,
    make_endorsement,
    new_nonce,
    sign_message,
    verify_bytes,
)
from attestnet.attester import AttestingEnvironment, measure

from .conftest import random_env

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


class TestDigest:
    def test_deterministic(self):
        assert digest(b"abc") == digest(b"abc")

    def test_empty_input_matches_published_vector(self):
        assert digest(b"").hex() == SHA256_EMPTY

    def test_one_bit_flip_changes_digest(self):
        rng = random.Random(7)
        for _ in range(100):
            data = bytearray(rng.randbytes(rng.randint(1, 64)))
            d0 = digest(bytes(data))
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            assert digest(bytes(data)) != d0

    def test_rejects_wrong_length(self):
        with pytest.raises(ModelError):
            Digest(b"\x00" * 31)


class TestClaims:
    def test_geo_range_enforced(self):
        with pytest.raises(ModelError):
            GeoPoint(91.0, 0.0, 0.0)
        with pytest.raises(ModelError):
            GeoPoint(0.0, -180.5, 0.0)

    def test_empty_key_rejected(self):
        with pytest.raises(ModelError):
            ClaimSet({"": ClaimValue.of_int(1)})

    def test_iteration_is_key_sorted(self):
        cs = ClaimSet({"b": ClaimValue.of_int(2), "a": ClaimValue.of_int(1)})
        assert cs.keys() == ["a", "b"]

    @given(st.dictionaries(st.text(min_size=1, max_size=8), st.integers(-100, 100), max_size=6))
    def test_insertion_order_never_matters(self, entries):
        values = {k: ClaimValue.of_int(v) for k, v in entries.items()}
        forward = ClaimSet(dict(sorted(values.items())))
        backward = ClaimSet(dict(sorted(values.items(), reverse=True)))
        ev_args = dict(
            attester=_entity(),
            nonce_echo=Nonce(b"\x01" * 16, 0),
            created_at=0,
        )
        a = Evidence(target_claims=forward, **ev_args)
        b = Evidence(target_claims=backward, **ev_args)
        assert a.signing_bytes() == b.signing_bytes()

    # keys drawn around the boundaries of the 1- to 4-byte UTF-8 forms and the
    # surrogate gap, where sorting by anything but the encoded bytes could differ
    KEY_CHARS = st.sampled_from("a\x7f\x80\u07ff\u0800\ud7ff\ue000\uffff\U00010000\U0010ffff")

    @given(
        entries=st.dictionaries(st.text(KEY_CHARS, min_size=1, max_size=4),
                                st.integers(-(2**63), 2**63 - 1), max_size=8),
        data=st.data(),
    )
    def test_stored_order_and_bytes_match_sorting_every_time(self, entries, data):
        shuffled = data.draw(st.permutations(list(entries.items())))
        claims = ClaimSet({k: ClaimValue.of_int(v) for k, v in shuffled})
        ordered = sorted(entries, key=lambda k: k.encode("utf-8"))
        assert claims.keys() == ordered
        assert [k for k, _ in claims.items()] == ordered
        assert claims == ClaimSet({k: ClaimValue.of_int(v) for k, v in entries.items()})
        reference = struct.pack(">Q", len(entries)) + b"".join(
            _claim_entry(k, entries[k]) for k in ordered
        )
        assert encode(model.CLAIMS, claims) == reference
        assert encode(model.CLAIMS, claims) == reference  # from the stored blob


def _entity():
    key = SigningKey(b"\x07" * 32)
    from attestnet.model import EntityId

    return EntityId(Role.ATTESTER, "e", key.public_bytes)


class TestCanonicalSerialize:
    def test_serialization_deterministic(self, attester, env, rng):
        ev = attester.generate_evidence(env, new_nonce(0, rng), 0)
        assert ev.signing_bytes() == ev.signing_bytes()
        assert ev.to_bytes() == ev.to_bytes()

    def test_injective_over_randomized_claim_sets(self):
        # distinct logical content never serializes to identical bytes
        rng = random.Random(11)
        seen = {}
        for _ in range(10_000):
            claims = ClaimSet(
                {
                    f"k{i}": ClaimValue.of_int(rng.randint(0, 50))
                    for i in range(rng.randint(0, 4))
                }
            )
            ev = Evidence(_entity(), claims, Nonce(b"\x01" * 16, 0), 0)
            blob = ev.signing_bytes()
            key = tuple(sorted((k, v.value) for k, v in claims.items()))
            if blob in seen:
                assert seen[blob] == key
            seen[blob] = key

    def test_value_bit_flip_changes_bytes(self, rng):
        for _ in range(200):
            env = random_env(rng)
            claims = measure(env)
            ev = Evidence(_entity(), claims, Nonce(b"\x01" * 16, 0), 0)
            flipped = env.fw_version ^ (1 << rng.randrange(8))
            from attestnet.attester import TargetEnvironment

            env2 = TargetEnvironment(
                env.hw_model, flipped, env.sw_images, env.geo, env.gpu_count, env.stake
            )
            ev2 = Evidence(_entity(), measure(env2), Nonce(b"\x01" * 16, 0), 0)
            assert ev.signing_bytes() != ev2.signing_bytes()

    def test_round_trip(self, attester, env, rng):
        ev = attester.generate_evidence(env, new_nonce(3, rng), 5)
        assert Evidence.from_bytes(ev.to_bytes()) == ev

    def test_policy_round_trip(self):
        policy = EvidencePolicy(
            "p1",
            (
                PolicyRule("r1", RuleKind.REFERENCE_MATCH, "sw.os.digest"),
                PolicyRule("r2", RuleKind.VERSION_AT_LEAST, "fw.version", 2),
            ),
            freshness_window=5,
            required_claims=("config.digest",),
        )
        assert EvidencePolicy.from_bytes(policy.to_bytes()) == policy


class TestSignatures:
    def test_sign_verify_round_trip(self, rng):
        key = SigningKey.generate(rng)
        sig = key.sign(b"payload")
        assert verify_bytes(b"payload", sig, key.public_bytes)

    def test_wrong_key_fails(self, rng):
        k1, k2 = SigningKey.generate(rng), SigningKey.generate(rng)
        assert not verify_bytes(b"payload", k1.sign(b"payload"), k2.public_bytes)

    def test_any_single_byte_mutation_fails(self, rng):
        # unforgeability proxy over message and signature mutations
        key = SigningKey.generate(rng)
        for _ in range(100):
            msg = bytearray(rng.randbytes(rng.randint(1, 48)))
            sig = bytearray(key.sign(bytes(msg)))
            if rng.random() < 0.5:
                msg[rng.randrange(len(msg))] ^= rng.randint(1, 255)
            else:
                sig[rng.randrange(len(sig))] ^= rng.randint(1, 255)
            assert not verify_bytes(bytes(msg), bytes(sig), key.public_bytes)


def _count_key_builds(monkeypatch) -> list:
    """Count the Ed25519 key pairs that `model` builds from here on, with
    either library."""
    built = []
    real = model._key_pair

    def counting(seed):
        built.append(seed)
        return real(seed)

    monkeypatch.setattr(model, "_key_pair", counting)
    return built


class TestLazyKey:
    def test_unused_key_builds_nothing(self, monkeypatch):
        built = _count_key_builds(monkeypatch)
        key = SigningKey.generate(random.Random(1))
        assert SigningKey(key.private_bytes) == key
        assert encode(SIGNING_KEY, key) == struct.pack(">I", 32) + key.private_bytes
        assert built == []

    def test_key_is_built_once_on_first_use(self, monkeypatch):
        built = _count_key_builds(monkeypatch)
        key = SigningKey.generate(random.Random(2))
        sig = key.sign(b"payload")
        assert key.public_bytes == key.public_bytes
        key.sign(b"other")
        assert len(built) == 1
        assert verify_bytes(b"payload", sig, key.public_bytes)

    def test_equality_and_round_trip_ignore_use(self):
        unused, used = SigningKey(b"\x05" * 32), SigningKey(b"\x05" * 32)
        used.sign(b"x")
        assert unused == used and unused != SigningKey(b"\x06" * 32)
        back = decode(SIGNING_KEY, encode(SIGNING_KEY, used))
        assert back == used and back.public_bytes == used.public_bytes
        assert back.sign(b"x") == used.sign(b"x")

    def test_tx_key_built_on_first_use(self, env, monkeypatch):
        built = _count_key_builds(monkeypatch)
        attester = AttestingEnvironment.create("lazy", random.Random(3), [env.config_digest()])
        assert len(built) == 1  # the attestation key, for the identity's public key
        sig, reason = attester.use_tx_key(env, b"tx")
        assert reason is None and len(built) == 2
        assert verify_bytes(b"tx", sig, attester.tx_public_key)
        assert len(built) == 2


class TestNonce:
    def test_issued_at_matches_clock(self, rng):
        assert new_nonce(17, rng).issued_at == 17

    def test_no_collisions_over_10k_draws(self):
        rng = random.Random(23)
        values = {new_nonce(0, rng).value for _ in range(10_000)}
        assert len(values) == 10_000

    def test_seeded_sequence_reproducible(self):
        a = [new_nonce(i, random.Random(5)).value for i in range(1)]
        b = [new_nonce(i, random.Random(5)).value for i in range(1)]
        seq1 = [new_nonce(i, r).value for r in [random.Random(9)] for i in range(5)]
        seq2 = [new_nonce(i, r).value for r in [random.Random(9)] for i in range(5)]
        assert a == b and seq1 == seq2

    def test_length_enforced(self):
        with pytest.raises(ModelError):
            Nonce(b"\x01" * 8, 0)


class TestInvariantConstructors:
    def test_component_without_lead_assertion_rejected(self, attester, env, rng):
        inner = attester.generate_evidence(env, new_nonce(0, rng), 0)
        with pytest.raises(ModelError):
            Evidence(_entity(), ClaimSet(), Nonce(b"\x01" * 16, 0), 0, components=(inner,))

    def test_result_verdict_reason_coupling(self, verifier_identity):
        from attestnet.model import AttestationResult, Verdict

        with pytest.raises(ModelError):
            AttestationResult(
                verifier_identity.entity,
                _entity(),
                Verdict.COMPLIANT,
                digest(b"p"),
                Nonce(b"\x01" * 16, 0),
                reasons=("sig",),
                created_at=0,
            )

    def test_freshness_window_minimum(self):
        with pytest.raises(ModelError):
            EvidencePolicy("p", (), freshness_window=0)

    @pytest.mark.parametrize("window", [2.5, True, "5", None, 2**64])
    def test_freshness_window_must_be_a_u64(self, window):
        """A window that the policy's table cannot encode is refused when the
        policy is built, not when an appraisal digests it."""
        with pytest.raises(ModelError, match="freshness window"):
            EvidencePolicy("p", (), freshness_window=window)

    @pytest.mark.parametrize("build, field", [
        (lambda big: ClaimValue.of_int(big), "claim value"),
        (lambda big: PolicyRule("r", RuleKind.VERSION_AT_LEAST, "k", bound=big), "rule bound"),
        (lambda big: EvidencePolicy("p", (), freshness_window=big), "freshness window"),
        (lambda big: PolicyRule("r", RuleKind.GEO_FENCE, "geo", fence=(big,)), "rule fence"),
    ], ids=["claim-value", "rule-bound", "freshness-window", "rule-fence"])
    def test_an_int_too_long_to_print_is_refused(self, build, field):
        """Python refuses to print an int of more than 4,300 digits, with a
        `ValueError` that is not a `ModelError`; the message names the field
        and the value's type instead."""
        with pytest.raises(ModelError, match=f"^{field} (int|tuple) too large to print"):
            build(10**5000)

    # Values that the tables cannot encode, or that could change under a
    # stored digest, are refused when built, by a `ModelError` naming the
    # field, not at an appraisal's `policy.digest()`.
    @pytest.mark.parametrize("args, field", [
        (("a", 0, 0), "latitude"),
        ((0, "b", 0), "longitude"),
        ((0, 0, None), "altitude"),
        ((True, 0, 0), "latitude"),
        ((0, 0, 10**400), "altitude"),
        ((100, 0, 0), "latitude"),
    ], ids=["text-latitude", "text-longitude", "none-altitude", "bool", "huge-int", "range"])
    def test_geo_point_refuses(self, args, field):
        with pytest.raises(ModelError, match=field):
            GeoPoint(*args)

    @pytest.mark.parametrize("args, field", [
        (("a", "b", "c", "d"), "lat_min"),
        ((0, 1, 0, True), "lon_max"),
        ((0, None, 0, 1), "lat_max"),
        ((0, 1, -(10**400), 1), "lon_min"),
        ((1, 0, 0, 1), "min <= max"),
    ], ids=["text", "bool", "none", "huge-int", "order"])
    def test_geo_fence_refuses(self, args, field):
        with pytest.raises(ModelError, match=field):
            GeoFence(*args)

    @pytest.mark.parametrize("args, kwargs, field", [
        ((7, RuleKind.CLAIM_PRESENT, "k"), {}, "rule id"),
        (("", RuleKind.CLAIM_PRESENT, "k"), {}, "rule id"),
        (("r", RuleKind.CLAIM_PRESENT, b"k"), {}, "claim key"),
        (("r", RuleKind.CLAIM_PRESENT, ""), {}, "claim key"),
        (("r", "nope", "k"), {}, "rule kind"),
        (("r", "claim_present", "k"), {}, "rule kind"),
        (("r", RuleKind.GEO_FENCE, "geo"), {"fence": (0, 1, 0, 1)}, "fence"),
        (("r", RuleKind.GEO_FENCE, "geo"), {}, "fence"),
    ], ids=["int-id", "empty-id", "bytes-key", "empty-key", "unknown-kind", "text-kind",
            "tuple-fence", "no-fence"])
    def test_policy_rule_refuses(self, args, kwargs, field):
        with pytest.raises(ModelError, match=field):
            PolicyRule(*args, **kwargs)

    @pytest.mark.parametrize("args, field", [
        ((9, (), 5), "policy id"),
        (("", (), 5), "policy id"),
        (("p", [PolicyRule("r", RuleKind.CLAIM_PRESENT, "k")], 5), "rules"),
        (("p", ("x",), 5), "rules"),
        (("p", (), 5, (3,)), "required claims"),
        (("p", (), 5, ("",)), "required claims"),
        (("p", (), 5, ["k"]), "required claims"),
    ], ids=["int-id", "empty-id", "list-rules", "text-rule", "int-claim", "empty-claim",
            "list-claims"])
    def test_evidence_policy_refuses(self, args, field):
        """A list of rules or of required claims is refused too: appending to
        it after the policy's digest is stored would leave that digest stale."""
        with pytest.raises(ModelError, match=field):
            EvidencePolicy(*args)

    def test_numbers_of_either_type_encode_alike(self):
        """An int is a number, as an equal float is, with the same bytes."""
        assert encode(model.GEO, GeoPoint(1, -2, 3)) == encode(model.GEO, GeoPoint(1.0, -2.0, 3.0))
        policies = [EvidencePolicy("p", (PolicyRule("f", RuleKind.GEO_FENCE, "geo", fence=f),), 5)
                    for f in (GeoFence(0, 1, -1, 2), GeoFence(0.0, 1.0, -1.0, 2.0))]
        assert policies[0].digest() == policies[1].digest()


# ---------------------------------------------------------------------------
# Decoders raise only ModelError
# ---------------------------------------------------------------------------

_FUZZ_KEY = SigningKey(b"\x09" * 32)
_FUZZ_VERIFIER = EntityId(Role.VERIFIER, "fuzz-verifier", _FUZZ_KEY.public_bytes)


@functools.cache
def _encodings() -> dict:
    """One canonical encoding per decoded type, covering every field kind."""
    result = AttestationResult(
        _FUZZ_VERIFIER, _entity(), Verdict.NON_COMPLIANT, digest(b"policy"),
        Nonce(b"\x02" * 16, 3), ("fw.min", "missing_claim:geo"), 4,
    )
    policy = EvidencePolicy(
        "fuzz-policy",
        (
            PolicyRule("ref.os", RuleKind.REFERENCE_MATCH, "sw.os.digest"),
            PolicyRule("fence", RuleKind.GEO_FENCE, "geo", fence=GeoFence(0.0, 1.0, 0.0, 1.0)),
        ),
        5,
        ("config.digest",),
    )
    claims = ClaimSet({
        "b": ClaimValue("bytes", b"\x00\xff"),
        "t": ClaimValue.of_text("text"),
        "i": ClaimValue.of_int(-7),
        "d": ClaimValue.of_digest(digest(b"d")),
        "g": ClaimValue("geo", GeoPoint(1.0, 2.0, 3.0)),
    })
    evidence = Evidence(
        _entity(), claims, Nonce(b"\x03" * 16, 1), 2,
        layer_chain=(LayerRecord(0, digest(b"layer"), digest(b"key")),),
    )
    return {
        AttestationResult: sign_message(result, _FUZZ_KEY).to_bytes(),
        EvidencePolicy: policy.to_bytes(),
        Evidence: sign_message(evidence, _FUZZ_KEY).to_bytes(),
    }


def _decodes_or_model_error(cls, data: bytes):
    try:
        cls.from_bytes(data)
    except ModelError:
        pass


def _entity_len(entity: EntityId) -> int:
    return 12 + len(entity.role.value) + len(entity.name) + len(entity.public_key)


class TestDecoderErrors:
    def test_unknown_verdict_tag(self):
        blob = bytearray(_encodings()[AttestationResult])
        blob[_entity_len(_FUZZ_VERIFIER) + _entity_len(_entity())] = 9
        with pytest.raises(ModelError, match="verdict"):
            AttestationResult.from_bytes(bytes(blob))

    def test_unknown_rule_tag(self):
        blob = bytearray(_encodings()[EvidencePolicy])
        blob[4 + len("fuzz-policy") + 8 + 4 + len("ref.os")] = 99
        with pytest.raises(ModelError, match="rule"):
            EvidencePolicy.from_bytes(bytes(blob))

    def test_unknown_role(self):
        blob = _encodings()[AttestationResult].replace(b"verifier", b"verifiex", 1)
        with pytest.raises(ModelError, match="role"):
            AttestationResult.from_bytes(blob)

    def test_invalid_utf8_text(self):
        with pytest.raises(ModelError, match="UTF-8"):
            decode(model.TEXT, b"\x00\x00\x00\x01\xff")

    @pytest.mark.parametrize("cls", [AttestationResult, EvidencePolicy, Evidence],
                             ids=lambda c: c.__name__)
    def test_every_truncation_and_byte_flip(self, cls):
        blob = _encodings()[cls]
        assert cls.from_bytes(blob).to_bytes() == blob
        for cut in range(len(blob)):
            with pytest.raises(ModelError):
                cls.from_bytes(blob[:cut])
        for pos in range(len(blob)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(blob)
                mutated[pos] ^= flip
                _decodes_or_model_error(cls, bytes(mutated))

    @pytest.mark.parametrize("cls", [AttestationResult, EvidencePolicy, Evidence],
                             ids=lambda c: c.__name__)
    @given(data=st.data())
    def test_truncated_or_mutated_encoding_raises_only_model_error(self, cls, data):
        blob = _encodings()[cls]
        _decodes_or_model_error(cls, blob[: data.draw(st.integers(0, len(blob)), label="cut")])
        mutated = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 4), label="mutations")):
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            mutated[pos] = data.draw(st.integers(0, 255), label="byte")
        _decodes_or_model_error(cls, bytes(mutated))


# ---------------------------------------------------------------------------
# Decoders accept only the canonical encoding
# ---------------------------------------------------------------------------

_ENTITY_KEY = SigningKey(b"\x07" * 32)  # the key of _entity()


def _signed_evidence(claims: ClaimSet) -> Evidence:
    return sign_message(Evidence(_entity(), claims, Nonce(b"\x01" * 16, 0), 0), _ENTITY_KEY)


def _claim_entry(key: str, value: int) -> bytes:
    raw = key.encode()
    return struct.pack(">I", len(raw)) + raw + b"\x03" + struct.pack(">q", value)


class TestCanonicalOnly:
    def _with_claim_entries(self, entries: list[bytes]) -> bytes:
        """The encoding of `_signed_evidence(ClaimSet({"k": 1}))` with its
        claim entries replaced, signature kept."""
        blob = _signed_evidence(ClaimSet({"k": ClaimValue.of_int(1)})).to_bytes()
        start = _entity_len(_entity())
        end = start + 8 + len(_claim_entry("k", 1))
        return blob[:start] + struct.pack(">Q", len(entries)) + b"".join(entries) + blob[end:]

    def test_claim_entries_round_trip(self):
        evidence = _signed_evidence(ClaimSet({"k": ClaimValue.of_int(1)}))
        assert self._with_claim_entries([_claim_entry("k", 1)]) == evidence.to_bytes()

    def test_repeated_claim_key_rejected(self):
        blob = self._with_claim_entries([_claim_entry("k", 2), _claim_entry("k", 1)])
        with pytest.raises(ModelError, match="ascending"):
            Evidence.from_bytes(blob)

    def test_descending_claim_keys_rejected(self):
        blob = self._with_claim_entries([_claim_entry("k", 1), _claim_entry("j", 1)])
        with pytest.raises(ModelError, match="ascending"):
            Evidence.from_bytes(blob)

    def test_empty_first_claim_key_rejected(self):
        # every later key is greater than the first, so only the first can be empty
        blob = self._with_claim_entries([_claim_entry("", 1), _claim_entry("k", 1)])
        with pytest.raises(ModelError, match="non-empty"):
            Evidence.from_bytes(blob)

    @pytest.mark.parametrize("flag", [0x02, 0x07, 0xFF])
    def test_bool_byte_must_be_0_or_1(self, flag):
        endorsement = make_endorsement(SignerIdentity(_FUZZ_VERIFIER, _FUZZ_KEY), "p",
                                       ClaimSet(), 0, intrinsic=True)
        blob = bytearray(endorsement.to_bytes())
        intrinsic = len(endorsement.signing_bytes()) - 9  # before issued_at (u64)
        assert blob[intrinsic] == 1
        blob[intrinsic] = flag
        with pytest.raises(ModelError, match="neither 0 nor 1"):
            Endorsement.from_bytes(bytes(blob))

    @pytest.mark.parametrize("flag", [0x02, 0x80])
    def test_presence_byte_must_be_0_or_1(self, flag):
        evidence = _signed_evidence(ClaimSet())
        blob = bytearray(evidence.to_bytes())
        presence = len(evidence.signing_bytes()) - 3  # layer chain, components, lead
        assert blob[presence : presence + 3] == b"\x00\x00\x00"
        blob[presence] = flag
        with pytest.raises(ModelError, match="neither 0 nor 1"):
            Evidence.from_bytes(bytes(blob))

    @staticmethod
    def _nested(levels: int) -> bytes:
        """Evidence nested `levels` deep, each level one component of the next."""
        leaf = Evidence(_entity(), ClaimSet(), Nonce(b"\x01" * 16, 0), 0)
        head = leaf.signing_bytes()[:-3]  # without the three presence flags
        blob = leaf.to_bytes()
        for _ in range(levels - 1):
            blob = (head + b"\x00\x01" + struct.pack(">QI", 1, len(blob)) + blob
                    + b"\x01\x01" + struct.pack(">I", 0))
        return blob

    def test_nesting_up_to_depth_4_decodes(self):
        evidence = Evidence.from_bytes(self._nested(4))
        assert evidence._depth() == 4
        assert evidence.to_bytes() == self._nested(4)

    @pytest.mark.parametrize("levels", [5, 3000])
    def test_deep_nesting_raises_model_error(self, levels):
        with pytest.raises(ModelError, match="depth 4"):
            Evidence.from_bytes(self._nested(levels))


@functools.cache
def _canonical_cases() -> dict:
    """(type, canonical encoding) for every decodable message type."""
    encodings = _encodings()
    component = sign_message(Evidence(_entity(), ClaimSet(), Nonce(b"\x04" * 16, 1), 1),
                             _ENTITY_KEY)
    composite = sign_message(
        Evidence(_entity(), ClaimSet({"g": ClaimValue("geo", GeoPoint(1.0, 2.0, 0.0))}),
                 Nonce(b"\x05" * 16, 1), 2, components=(component,), lead_assertion=True),
        _ENTITY_KEY,
    )
    endorsement = make_endorsement(SignerIdentity(_FUZZ_VERIFIER, _FUZZ_KEY), "p",
                                   ClaimSet({"a": ClaimValue.of_text("x")}), 3, intrinsic=True)
    refs = tuple((label, digest(label.encode())) for label in MANDATORY_LABELS)
    record = EndorsementRecord(_FUZZ_VERIFIER, "p", digest(b"root"), refs, 5, b"\x06" * 64)
    block = LedgerBlock.seal(1, digest(b"prev"), (LedgerRecord("audit_digest", b"\x07" * 32),),
                             "n1", 10)
    return {
        "evidence": (Evidence, encodings[Evidence]),
        "composite_evidence": (Evidence, composite.to_bytes()),
        "result": (AttestationResult, encodings[AttestationResult]),
        "endorsement": (Endorsement, endorsement.to_bytes()),
        "policy": (EvidencePolicy, encodings[EvidencePolicy]),
        "record": (EndorsementRecord, record.to_bytes()),
        "block": (LedgerBlock, block.to_bytes()),
    }


_CASES = ["evidence", "composite_evidence", "result", "endorsement", "policy", "record", "block"]


def _decodes_only_canonically(cls, data: bytes):
    try:
        value = cls.from_bytes(data)
    except ModelError:
        return
    assert value.to_bytes() == data


@pytest.mark.parametrize("case", _CASES)
def test_every_single_byte_change_that_decodes_is_canonical(case):
    cls, blob = _canonical_cases()[case]
    assert cls.from_bytes(blob).to_bytes() == blob
    for pos in range(len(blob)):
        for value in {0x00, 0x01, 0x02, 0x7F, 0xFF, blob[pos] ^ 0x01}:
            mutated = bytearray(blob)
            mutated[pos] = value
            _decodes_only_canonically(cls, bytes(mutated))


@pytest.mark.parametrize("case", _CASES)
@given(data=st.data())
def test_mutated_encoding_that_decodes_is_canonical(case, data):
    cls, blob = _canonical_cases()[case]
    mutated = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        mutated[pos] = data.draw(st.integers(0, 255), label="byte")
    _decodes_only_canonically(cls, bytes(mutated))
