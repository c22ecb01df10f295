import functools
import random

import pytest
from hypothesis import given, strategies as st

from attestnet.model import (
    AttestationResult,
    ClaimSet,
    ClaimValue,
    Decoder,
    Digest,
    EntityId,
    Evidence,
    EvidencePolicy,
    GeoFence,
    GeoPoint,
    LayerRecord,
    ModelError,
    Nonce,
    PolicyRule,
    Role,
    RuleKind,
    SignerIdentity,
    SigningKey,
    Verdict,
    canonical_serialize,
    digest,
    new_nonce,
    sign_message,
    verify_bytes,
)
from attestnet.attester import measure

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

    def test_duplicate_keys_rejected(self):
        cs = ClaimSet({"a": ClaimValue.of_int(1)})
        with pytest.raises(ModelError):
            cs.with_claim("a", ClaimValue.of_int(2))

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
        assert canonical_serialize(a) == canonical_serialize(b)


def _entity():
    key = SigningKey(b"\x07" * 32)
    from attestnet.model import EntityId

    return EntityId(Role.ATTESTER, "e", key.public_bytes)


class TestCanonicalSerialize:
    def test_serialization_deterministic(self, attester, env, rng):
        ev = attester.generate_evidence(env, new_nonce(0, rng), 0)
        assert canonical_serialize(ev) == canonical_serialize(ev)
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
            blob = canonical_serialize(ev)
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
            assert canonical_serialize(ev) != canonical_serialize(ev2)

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
        "b": ClaimValue.of_bytes(b"\x00\xff"),
        "t": ClaimValue.of_text("text"),
        "i": ClaimValue.of_int(-7),
        "d": ClaimValue.of_digest(digest(b"d")),
        "g": ClaimValue.of_geo(1.0, 2.0, 3.0),
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
            Decoder(b"\x00\x00\x00\x01\xff").text()

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
