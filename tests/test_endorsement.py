import random

import pytest

from attestnet.endorsement_ledger import (
    ContentStore,
    EndorsementRecord,
    EndorsementsLedger,
    LedgerError,
    merkle_prove,
    merkle_root,
    merkle_verify,
    register_endorsement,
    verify_product,
)
from attestnet.model import ClaimSet, ClaimValue, Digest, Role, SignerIdentity, digest, make_endorsement

from .oracles import merkle_member_bruteforce, merkle_root_bruteforce

# Frozen by the standalone brute-force Merkle script run before the main
# build, over leaves digest(b"\x00"), digest(b"\x01"), digest(b"\x02").
FROZEN_ROOTS = {
    1: "d9de27625445003d8a9739a851e3ff8d41c0683630b4d63a88327a6aaa37c409",
    2: "604d540f09268b91672ab011394d5266ccd7d4484d0d109411a55848126a1b2c",
    3: "d1f13800048f5909d4043fc0c152f6643280cba608b672715e56ce159a20629f",
}


def leaves(n):
    return [digest(bytes([i])) for i in range(n)]


class TestMerkleRoot:
    def test_single_leaf_is_prefixed_hash(self):
        leaf = digest(b"only")
        assert merkle_root([leaf]) == digest(b"\x00" + leaf.value)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_frozen_vectors(self, n):
        assert merkle_root(leaves(n)).hex() == FROZEN_ROOTS[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_bruteforce(self, n):
        assert merkle_root(leaves(n)).value == merkle_root_bruteforce(
            [l.value for l in leaves(n)]
        )

    def test_permutation_changes_root(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 8)
            ls = [digest(rng.randbytes(8)) for _ in range(n)]
            shuffled = ls[:]
            while shuffled == ls:
                rng.shuffle(shuffled)
            assert merkle_root(ls) != merkle_root(shuffled)

    def test_empty_rejected(self):
        with pytest.raises(LedgerError):
            merkle_root([])


class TestMerkleProofs:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_indices_verify(self, n):
        ls = leaves(n)
        root = merkle_root(ls)
        for i in range(n):
            proof = merkle_prove(ls, i)
            assert merkle_verify(root, ls[i], i, proof)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_wrong_leaf_rejected_matches_membership_oracle(self, n):
        ls = leaves(n)
        root = merkle_root(ls)
        outsider = digest(b"not a member")
        assert not merkle_member_bruteforce([l.value for l in ls], outsider.value)
        for i in range(n):
            proof = merkle_prove(ls, i)
            assert not merkle_verify(root, outsider, i, proof)

    def test_mutated_proof_rejected(self):
        ls = leaves(5)
        root = merkle_root(ls)
        proof = merkle_prove(ls, 2)
        bad = [(flag, digest(d.value[::-1])) for flag, d in proof]
        assert not merkle_verify(root, ls[2], 2, bad)

    def test_out_of_range_index(self):
        with pytest.raises(LedgerError):
            merkle_prove(leaves(3), 3)


class TestContentStore:
    def test_round_trip_identity(self, rng):
        store = ContentStore()
        for _ in range(50):
            data = rng.randbytes(rng.randint(0, 64))
            addr = store.put(data)
            assert store.get(addr) == data
            assert store.check(addr)

    def test_corruption_detected(self):
        store = ContentStore()
        addr = store.put(b"genuine")
        store._corrupt(addr, b"altered")
        assert not store.check(addr)

    def test_file_persistence(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        addr = store.put(b"persist me")
        reopened = ContentStore(tmp_path / "store")
        assert reopened.get(addr) == b"persist me"


def _setup_registration(rng, product_bytes=b"firmware image v7", store=None):
    manufacturer = SignerIdentity.create(Role.ENDORSER, "acme", rng)
    endorsement = make_endorsement(
        manufacturer,
        "widget-7",
        ClaimSet({"product.digest": ClaimValue.of_digest(digest(product_bytes))}),
        issued_at=4,
    )
    objects = [
        ("endorsement", endorsement.to_bytes()),
        ("manufacturer_cert", manufacturer.entity.public_key),
        ("root_cert", b"root-ca-certificate"),
    ]
    store = store if store is not None else ContentStore()
    ledger = EndorsementsLedger()
    record = register_endorsement(manufacturer, "widget-7", objects, store, ledger, clock=10)
    return manufacturer, record, store, ledger, objects


class TestRegisterEndorsement:
    def test_record_root_matches_oracle(self, rng):
        _, record, store, ledger, objects = _setup_registration(rng)
        assert len(record.object_refs) == 3
        expected = merkle_root_bruteforce([digest(data).value for _, data in objects])
        assert record.merkle_root.value == expected
        assert ledger.includes(record)

    def test_store_lookup_returns_original_bytes(self, rng):
        _, record, store, _, objects = _setup_registration(rng)
        by_label = dict(objects)
        for label, addr in record.object_refs:
            assert store.get(addr) == by_label[label]

    def test_reregistration_same_root_new_record(self, rng):
        manufacturer, record, store, ledger, objects = _setup_registration(rng)
        again = register_endorsement(manufacturer, "widget-7", objects, store, ledger, clock=11)
        assert again.merkle_root == record.merkle_root
        assert again.to_bytes() != record.to_bytes()
        assert len(ledger) == 2

    def test_ledger_counts_every_append_and_indexes_bytes(self, rng):
        manufacturer, record, store, ledger, objects = _setup_registration(rng)
        ledger.append(record)  # a duplicate append still counts
        assert len(ledger) == 2
        assert ledger.includes(record)
        assert ledger.includes(EndorsementRecord.from_bytes(record.to_bytes()))
        other = register_endorsement(
            manufacturer, "widget-7", objects, store, EndorsementsLedger(), clock=11
        )
        assert not ledger.includes(other)
        assert len(ledger) == 2

    def test_missing_mandatory_label_rejected(self, rng):
        manufacturer = SignerIdentity.create(Role.ENDORSER, "acme", rng)
        with pytest.raises(LedgerError, match="root_cert"):
            register_endorsement(
                manufacturer, "w",
                [("endorsement", b"e"), ("manufacturer_cert", b"c")],
                ContentStore(), EndorsementsLedger(), 0,
            )


class TestVerifyProduct:
    def test_genuine_product_manufacturer_gone(self, rng):
        _, record, store, ledger, _ = _setup_registration(rng)
        ok, reason = verify_product(
            b"firmware image v7", record, store, ledger, manufacturer_active=False
        )
        assert ok and reason is None

    def test_flag_and_time_independence(self, rng):
        _, record, store, ledger, _ = _setup_registration(rng)
        outcomes = {
            verify_product(b"firmware image v7", record, store, ledger, manufacturer_active=flag)
            for flag in (True, False)
        }
        assert outcomes == {(True, None)}

    def test_altered_product_digest_mismatch(self, rng):
        _, record, store, ledger, _ = _setup_registration(rng)
        for _ in range(20):
            product = bytearray(b"firmware image v7")
            product[rng.randrange(len(product))] ^= 1 << rng.randrange(8)
            ok, reason = verify_product(bytes(product), record, store, ledger)
            assert not ok and reason == "digest_mismatch"

    def test_tampered_record_ledger_mismatch(self, rng):
        from dataclasses import replace

        _, record, store, ledger, _ = _setup_registration(rng)
        tampered = replace(record, merkle_root=digest(b"other root"))
        ok, reason = verify_product(b"firmware image v7", tampered, store, ledger)
        assert not ok and reason == "ledger_mismatch"

    def test_corrupted_store_detected(self, rng):
        _, record, store, ledger, _ = _setup_registration(rng)
        label, addr = record.object_refs[0]
        store._corrupt(addr, b"junk")
        ok, reason = verify_product(b"firmware image v7", record, store, ledger)
        assert not ok and reason == "store_corrupt"

    def test_record_roundtrip(self, rng):
        _, record, _, _, _ = _setup_registration(rng)
        assert EndorsementRecord.from_bytes(record.to_bytes()) == record
