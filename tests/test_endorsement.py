import gc
import os
import random
import signal
import struct
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from attestnet import endorsement_ledger, model
from attestnet.endorsement_ledger import (
    CHECKS_PER_BATCH,
    ContentStore,
    EndorsementRecord,
    EndorsementsLedger,
    LedgerError,
    merkle_prove,
    merkle_root,
    merkle_verify,
    record_key,
    register_endorsement,
    verify_product,
)
from attestnet.model import (
    ClaimSet, ClaimValue, Digest, ModelError, Role, SignerIdentity, digest, make_endorsement,
    verify_bytes,
)

from .oracles import (
    _blob,
    merkle_member_bruteforce,
    merkle_root_bruteforce,
    sha256,
    verify_product_bruteforce,
)

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
            assert merkle_verify(root, ls[i], proof)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_wrong_leaf_rejected_matches_membership_oracle(self, n):
        ls = leaves(n)
        root = merkle_root(ls)
        outsider = digest(b"not a member")
        assert not merkle_member_bruteforce([l.value for l in ls], outsider.value)
        for i in range(n):
            proof = merkle_prove(ls, i)
            assert not merkle_verify(root, outsider, proof)

    def test_mutated_proof_rejected(self):
        ls = leaves(5)
        root = merkle_root(ls)
        proof = merkle_prove(ls, 2)
        bad = [(flag, digest(d.value[::-1])) for flag, d in proof]
        assert not merkle_verify(root, ls[2], bad)

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

    def test_an_equal_value_gets_the_held_address_object(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        addr = store.put(b"shared cert")
        assert store.put(bytes(bytearray(b"shared cert"))) is addr
        reopened = ContentStore(tmp_path / "store")
        loaded = reopened.put(b"shared cert")
        assert loaded == addr and reopened.put(b"shared cert") is loaded

    def test_a_held_value_is_not_written_again(self, rng, tmp_path, monkeypatch):
        """N registrations under one manufacturer write N endorsements and
        the shared cert and root once each: N + 2 files, not 3N."""
        written = []
        write = Path.write_bytes
        monkeypatch.setattr(Path, "write_bytes",
                            lambda path, data: written.append(path.name) or write(path, data))
        store = ContentStore(tmp_path / "store")
        manufacturer, _, _, ledger, objects = _setup_registration(rng, store=store)
        for i in range(1, 5):
            endorsement = make_endorsement(manufacturer, f"widget-{i}", ClaimSet({}), issued_at=i)
            objects = [("endorsement", endorsement.to_bytes())] + objects[1:]
            register_endorsement(manufacturer, f"widget-{i}", objects, store, ledger, clock=i)
        assert len(written) == len(set(written)) == 5 + 2

    @pytest.mark.parametrize("where", ["memory", "disk"])
    def test_the_next_put_repairs_a_corrupted_entry(self, tmp_path, where):
        store = ContentStore(tmp_path / "store")
        addr = store.put(b"genuine")
        if where == "memory":
            store._corrupt(addr, b"altered")
        else:
            (tmp_path / "store" / addr.hex()).write_bytes(b"altered")
            store = ContentStore(tmp_path / "store")
        assert not store.check(addr)
        assert store.put(b"genuine") == addr
        assert store.check(addr) and store.get(addr) == b"genuine"
        assert ContentStore(tmp_path / "store").check(addr)

    def test_a_put_whose_write_failed_writes_when_retried(self, tmp_path, monkeypatch):
        """A value whose file write raised is not held, so a retried put
        writes it, and a store reopened from the directory has it."""
        write = Path.write_bytes
        failures = [OSError(28, "No space left on device")]

        def failing_write(path, data):
            if failures:
                raise failures.pop()
            return write(path, data)

        monkeypatch.setattr(Path, "write_bytes", failing_write)
        store = ContentStore(tmp_path / "store")
        with pytest.raises(OSError):
            store.put(b"retried")
        addr = store.put(b"retried")
        assert store.get(addr) == b"retried"
        assert ContentStore(tmp_path / "store").get(addr) == b"retried"

    @pytest.mark.parametrize("name, is_dir", [("README", False), ("ab" * 31, False), ("ab" * 32, True)],
                             ids=["not_hex", "hex_of_31_bytes", "directory"])
    def test_an_entry_not_named_by_an_address_is_a_ledger_error(self, tmp_path, name, is_dir):
        ContentStore(tmp_path / "store").put(b"kept")
        stray = tmp_path / "store" / name
        stray.mkdir() if is_dir else stray.write_bytes(b"stray")
        with pytest.raises(LedgerError, match=name):
            ContentStore(tmp_path / "store")


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
        assert ledger.includes(record_key(record.to_bytes()))

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
        ledger.append(record.to_bytes())  # a duplicate append still counts
        assert len(ledger) == 2
        assert ledger.includes(record_key(record.to_bytes()))
        assert ledger.includes(record_key(EndorsementRecord.from_bytes(record.to_bytes()).to_bytes()))
        other = register_endorsement(
            manufacturer, "widget-7", objects, store, EndorsementsLedger(), clock=11
        )
        assert not ledger.includes(record_key(other.to_bytes()))
        assert len(ledger) == 2

    def test_ledger_append_takes_only_bytes(self, rng):
        _, record, _, ledger, _ = _setup_registration(rng)
        with pytest.raises(LedgerError, match="EndorsementRecord"):
            ledger.append(record)
        with pytest.raises(LedgerError, match="bytearray"):
            ledger.append(bytearray(record.to_bytes()))
        with pytest.raises(LedgerError, match="bytearray"):
            record_key(bytearray(record.to_bytes()))
        assert len(ledger) == 1

    def test_the_index_answers_for_the_bytes_not_the_object(self, rng, verifies):
        """The index is keyed by a hash of the record's bytes: a decoded copy's
        bytes get the same answers, and a copy with one byte changed is
        neither included nor verified, whatever was asked before it."""
        _, record, store, ledger, _ = _setup_registration(rng)
        assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        data = record.to_bytes()
        copy = EndorsementRecord.from_bytes(data).to_bytes()
        changed = bytearray(data)
        changed[len(data) // 2] ^= 1
        changed = bytes(changed)
        for asked in (copy, changed, data, changed, copy):
            assert ledger.includes(record_key(asked)) is (asked == data)
            assert ledger.verified(record_key(asked)) is (asked == data)
        ledger.mark_verified(record_key(changed))
        assert not ledger.includes(record_key(changed))
        assert not ledger.verified(record_key(changed))
        assert len(verifies) == 1

    def test_missing_mandatory_label_rejected(self, rng):
        manufacturer = SignerIdentity.create(Role.ENDORSER, "acme", rng)
        with pytest.raises(LedgerError, match="root_cert"):
            register_endorsement(
                manufacturer, "w",
                [("endorsement", b"e"), ("manufacturer_cert", b"c")],
                ContentStore(), EndorsementsLedger(), 0,
            )


def test_bytes_held_per_record(rng):
    """2,000 products registered under one manufacturer: the store, the
    ledger and the returned records hold under 1,100 bytes per record
    (about 900 on CPython 3.11). They held about 1,350 when the ledger was
    keyed by each record's bytes and every registration built new address
    objects for the manufacturer's shared cert and root."""
    manufacturer = SignerIdentity.create(Role.ENDORSER, "acme", rng)
    cert, root = manufacturer.entity.public_key, b"root-ca-certificate"
    objects = [[("endorsement", b"endorsement %06d" % i + bytes(200)),
                ("manufacturer_cert", cert), ("root_cert", root)] for i in range(2000)]
    gc.collect()
    tracemalloc.start()
    try:
        store, ledger = ContentStore(), EndorsementsLedger()
        records = [register_endorsement(manufacturer, f"sku-{i:06d}", objs, store, ledger, i)
                   for i, objs in enumerate(objects)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(records) == len(ledger) == 2000
    assert held / len(records) < 1100


class TestVerifyProduct:
    def test_genuine_product_manufacturer_gone(self, rng):
        _, record, store, ledger, _ = _setup_registration(rng)
        ok, reason = verify_product(b"firmware image v7", record, store, ledger)
        assert ok and reason is None

    def test_altered_product_digest_mismatch(self, rng):
        _, record, store, ledger, _ = _setup_registration(rng)
        for _ in range(20):
            product = bytearray(b"firmware image v7")
            product[rng.randrange(len(product))] ^= 1 << rng.randrange(8)
            ok, reason = verify_product(bytes(product), record, store, ledger)
            assert not ok and reason == "digest_mismatch"

    def test_tampered_record_ledger_mismatch(self, rng):
        _, record, store, ledger, _ = _setup_registration(rng)
        tampered = replace(record, merkle_root=digest(b"other root"))
        ok, reason = verify_product(b"firmware image v7", tampered, store, ledger)
        assert not ok and reason == "ledger_mismatch"

    def test_root_not_covering_the_objects_is_root_mismatch(self, rng):
        manufacturer, record, store, ledger, _ = _setup_registration(rng)
        unsigned = replace(record, merkle_root=digest(b"other root"), signature=b"")
        signed = replace(unsigned, signature=manufacturer.key.sign(unsigned.signing_bytes()))
        ledger.append(signed.to_bytes())
        ok, reason = verify_product(b"firmware image v7", signed, store, ledger)
        assert not ok and reason == "root_mismatch"

    def test_corrupted_store_detected(self, rng):
        _, record, store, ledger, _ = _setup_registration(rng)
        label, addr = record.object_refs[0]
        store._corrupt(addr, b"junk")
        ok, reason = verify_product(b"firmware image v7", record, store, ledger)
        assert not ok and reason == "store_corrupt"

    @pytest.mark.parametrize("label, data, reason", [
        ("endorsement", b"x", "endorsement_malformed"),
        ("manufacturer_cert", b"", "signature_invalid"),
    ])
    def test_malformed_object_is_a_verdict(self, rng, label, data, reason):
        manufacturer, _, _, _, objects = _setup_registration(rng)
        objects = [(name, data if name == label else value) for name, value in objects]
        store, ledger = ContentStore(), EndorsementsLedger()
        record = register_endorsement(manufacturer, "widget-7", objects, store, ledger, clock=10)
        assert verify_product(b"firmware image v7", record, store, ledger) == (False, reason)

    def test_record_roundtrip(self, rng):
        _, record, _, _, _ = _setup_registration(rng)
        assert EndorsementRecord.from_bytes(record.to_bytes()) == record

    def test_records_hold_no_stored_values(self, rng):
        _, record, store, ledger, _ = _setup_registration(rng)
        assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        assert not hasattr(record, "__dict__")

    def test_replace_builds_a_checked_record(self, rng):
        _, record, _, _, _ = _setup_registration(rng)
        moved = replace(record, registered_at=record.registered_at + 1)
        assert (moved.registered_at, moved.product_id) == (11, record.product_id)
        assert EndorsementRecord.from_bytes(moved.to_bytes()) == moved
        with pytest.raises(ModelError, match="mandatory"):
            replace(record, object_refs=record.object_refs[:1])


@pytest.fixture
def verifies(monkeypatch):
    """The certs of the record-signature verifies that `verify_product` makes,
    in order."""
    certs = []
    verify = endorsement_ledger.verify_bytes

    def counting_verify(data, signature, key):
        certs.append(key)
        return verify(data, signature, key)

    monkeypatch.setattr(endorsement_ledger, "verify_bytes", counting_verify)
    return certs


class TestStoredSignatureCheck:
    """The ledger flags each record whose signature verified; every other
    check still runs on every query."""

    def test_a_record_queried_again_is_verified_once(self, rng, verifies):
        manufacturer, record, store, ledger, _ = _setup_registration(rng)
        for _ in range(3):
            assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        assert verifies == [manufacturer.entity.public_key]
        assert ledger.verified(record_key(record.to_bytes())) is True

    def test_appending_again_keeps_the_stored_check(self, rng, verifies):
        _, record, store, ledger, _ = _setup_registration(rng)
        assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        ledger.append(record.to_bytes())
        assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        assert len(verifies) == 1 and len(ledger) == 2

    def test_a_stored_check_does_not_carry_over_to_another_ledger(self, rng, verifies):
        _, record, store, ledger, _ = _setup_registration(rng)
        other = EndorsementsLedger()
        other.append(record.to_bytes())
        assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        assert other.verified(record_key(record.to_bytes())) is False
        assert verify_product(b"firmware image v7", record, store, other) == (True, None)
        assert len(verifies) == 2

    def test_a_store_corrupted_after_the_check_still_fails(self, rng, verifies):
        _, record, store, ledger, objects = _setup_registration(rng)
        assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        for label, addr in record.object_refs:
            store._corrupt(addr, b"corrupted")
            assert verify_product(b"firmware image v7", record, store, ledger) == (
                False, "store_corrupt"), label
            store._corrupt(addr, dict(objects)[label])
        assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        assert len(verifies) == 1

    def test_a_different_cert_is_refused_without_a_verify(self, rng, verifies, monkeypatch):
        manufacturer, record, store, ledger, _ = _setup_registration(rng)
        assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        # a store that does not re-hash its entries hands out another cert
        # at the same address: it is not the record's manufacturer key
        monkeypatch.setattr(store, "read", store.get)
        cert_address = dict(record.object_refs)["manufacturer_cert"]
        store._corrupt(cert_address, MANUFACTURERS[0].entity.public_key)
        assert verify_product(b"firmware image v7", record, store, ledger) == (
            False, "signature_invalid")
        assert verifies == [manufacturer.entity.public_key]
        # the failed check stored nothing: the genuine cert is still a hit
        store._corrupt(cert_address, manufacturer.entity.public_key)
        assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        assert len(verifies) == 1

    def test_a_record_signed_by_its_cert_but_naming_another_manufacturer(self, rng, verifies):
        """A record that names acme, is signed by globex and stores globex's
        key as its cert: the signature is valid under the cert, but the cert
        is not the key the record names, so it is refused before a verify."""
        acme, _, store, ledger, objects = _setup_registration(rng)
        globex = MANUFACTURERS[1]
        objects = [(label, globex.entity.public_key if label == "manufacturer_cert" else value)
                   for label, value in objects]
        signed = register_endorsement(globex, "widget-7", objects, store, ledger, 11)
        forged = replace(signed, manufacturer=acme.entity, signature=b"")
        forged = replace(forged, signature=globex.key.sign(forged.signing_bytes()))
        ledger.append(forged.to_bytes())
        assert verify_bytes(forged.signing_bytes(), forged.signature, globex.entity.public_key)
        assert verify_product(b"firmware image v7", forged, store, ledger) == (
            False, "signature_invalid")
        assert verifies == []
        assert verify_product(b"firmware image v7", signed, store, ledger) == (True, None)

    @pytest.mark.parametrize("change", ["cert", "signature"])
    def test_a_failed_check_is_not_stored(self, rng, verifies, change):
        manufacturer, record, store, ledger, objects = _setup_registration(rng)
        if change == "cert":
            objects = [(label, b"" if label == "manufacturer_cert" else value)
                       for label, value in objects]
            record = register_endorsement(manufacturer, "widget-7", objects, store, ledger, 11)
        else:
            record = replace(record, signature=bytes(64))
            ledger.append(record.to_bytes())
        for _ in range(2):
            assert verify_product(b"firmware image v7", record, store, ledger) == (
                False, "signature_invalid")
        # a cert that is not the manufacturer key is refused before any verify
        assert len(verifies) == (0 if change == "cert" else 2)
        assert ledger.verified(record_key(record.to_bytes())) is False

    def test_a_record_not_appended_is_never_indexed(self, rng, verifies, monkeypatch):
        # `includes` patched to say yes to anything: the check still runs,
        # and storing it does not make bytes count as appended
        manufacturer, record, store, ledger, objects = _setup_registration(rng)
        unappended = register_endorsement(manufacturer, "widget-7", objects, store,
                                          EndorsementsLedger(), clock=11)
        tampered = replace(record, registered_at=record.registered_at + 1)
        index = dict(ledger._index)
        monkeypatch.setattr(EndorsementsLedger, "includes", lambda self, key: True)
        assert verify_product(b"firmware image v7", tampered, store, ledger) == (
            False, "signature_invalid")
        assert verify_product(b"firmware image v7", unappended, store, ledger) == (True, None)
        monkeypatch.undo()
        assert ledger._index == index and len(ledger) == 1
        assert not ledger.includes(record_key(tampered.to_bytes()))
        assert not ledger.includes(record_key(unappended.to_bytes()))


MANUFACTURERS = [SignerIdentity.create(Role.ENDORSER, name, random.Random(name))
                 for name in ("acme", "globex")]
# the draws below repeat their untouched choice, so that a fair share of the
# queries reaches the later checks; the last five are encoded by hand
ENDORSEMENT_OBJECTS = ["genuine"] * 6 + ["other_product", "bytes_claim", "truncated", "trailing",
                                         "junk", "every_kind", "empty_first_key", "repeated_key",
                                         "descending_keys", "unknown_tag"]
RECORD_CHANGES = {
    "registered_at": lambda r: replace(r, registered_at=r.registered_at + 100),
    "product_id": lambda r: replace(r, product_id=r.product_id + "x"),
    "merkle_root": lambda r: replace(r, merkle_root=digest(b"other root")),
    "refs_reversed": lambda r: replace(r, object_refs=r.object_refs[::-1]),
    "refs_and_root": lambda r: replace(
        r, object_refs=r.object_refs[::-1],
        merkle_root=Digest(merkle_root_bruteforce([a.value for _, a in r.object_refs[::-1]]))),
    "signature": lambda r: replace(r, signature=bytes(64)),
}


def _plain(record: EndorsementRecord) -> tuple:
    entity = record.manufacturer
    return (entity.role.value, entity.name, entity.public_key, record.product_id,
            record.merkle_root.value,
            tuple((label, address.value) for label, address in record.object_refs),
            record.registered_at, record.signature)


def _claim(data, key: str, product: bytes, tag: int = 0) -> bytes:
    """A claim entry, encoded by hand: the key, the tag (drawn if 0), and a
    value drawn for its kind; a digest claim names `product`."""
    tag = tag or data.draw(st.integers(1, 5))
    value = {1: lambda: _blob(data.draw(st.binary(max_size=8))),
             2: lambda: _blob(data.draw(st.text(max_size=4)).encode()),
             3: lambda: struct.pack(">q", data.draw(st.integers(-2**63, 2**63 - 1))),
             4: lambda: sha256(product),
             5: lambda: struct.pack(">ddd", data.draw(st.floats(-90, 90)),
                                    data.draw(st.floats(-180, 180)), data.draw(st.floats()))}
    return _blob(key.encode()) + bytes([tag]) + value.get(tag, lambda: b"")()


def _hand_encoded(data, manufacturer, product: bytes, kind: str) -> bytes:
    """An endorsement by `manufacturer`, encoded by hand, whose claims are
    those that `kind` names; the query reads no endorsement signature."""
    digest_claim = _claim(data, "product.digest", product, 4)
    entries = {  # only the chosen case draws its values
        "every_kind": lambda: [*(_claim(data, f"{tag}", product, tag) for tag in range(1, 6)),
                               digest_claim],
        "empty_first_key": lambda: [_claim(data, "", product), digest_claim],
        "repeated_key": lambda: [digest_claim, _claim(data, "product.digest", product)],
        "descending_keys": lambda: [digest_claim, _claim(data, "a", product)],
        "unknown_tag": lambda: [_claim(data, "product.digest", product,
                                       data.draw(st.sampled_from([6, 7, 0x80, 0xFF])))],
    }[kind]()
    entity = manufacturer.entity
    return (_blob(entity.role.value.encode()) + _blob(entity.name.encode())
            + _blob(entity.public_key) + _blob(b"widget") + struct.pack(">Q", len(entries))
            + b"".join(entries) + b"\x00" + struct.pack(">Q", 1) + _blob(bytes(64)))


def _endorsement_object(data, manufacturer, product: bytes) -> bytes:
    kind = data.draw(st.sampled_from(ENDORSEMENT_OBJECTS))
    if kind == "junk":
        return data.draw(st.binary(max_size=40))
    if kind in ENDORSEMENT_OBJECTS[-5:]:
        return _hand_encoded(data, manufacturer, product, kind)
    claim = ClaimValue.of_digest(digest(product + b"x" if kind == "other_product" else product))
    if kind == "bytes_claim":
        claim = ClaimValue("bytes", digest(product).value)
    genuine = make_endorsement(manufacturer, "widget", ClaimSet({"product.digest": claim}), 1)
    encoded = genuine.to_bytes()
    if kind == "truncated":
        return encoded[:data.draw(st.integers(0, len(encoded) - 1))]
    return encoded + b"\x00" if kind == "trailing" else encoded


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_product_matches_oracle(data):
    """Small registries, store entries corrupted (and restored) between
    queries, products altered and records changed (and sometimes appended as
    changed), and up to 8 queries so that records repeat: every verdict and
    reason equals the oracle's."""
    store, ledger = ContentStore(), EndorsementsLedger()
    products, records, registered, mirror = [], [], [], {}
    for i in range(data.draw(st.integers(1, 3))):
        products.append(data.draw(st.binary(min_size=1, max_size=8)))
        manufacturer = data.draw(st.sampled_from(MANUFACTURERS))
        cert = data.draw(st.sampled_from([manufacturer.entity.public_key] * 4
                                         + [m.entity.public_key for m in MANUFACTURERS] + [b"junk"]))
        objects = data.draw(st.permutations([
            ("endorsement", _endorsement_object(data, manufacturer, products[-1])),
            ("manufacturer_cert", cert),
            ("root_cert", b"root-ca-certificate"),
        ]))
        mirror.update((sha256(value), value) for _, value in objects)
        records.append(register_endorsement(manufacturer, f"p{i}", objects, store, ledger, i))
        registered.append(_plain(records[-1]))
    originals = dict(mirror)
    for _ in range(data.draw(st.integers(1, 8))):
        address = data.draw(st.sampled_from([None] * 4 + sorted(mirror)))
        if address is not None:
            value = data.draw(st.sampled_from([b"corrupted", originals[address]]))
            store._corrupt(Digest(address), value)
            mirror[address] = value
        i = data.draw(st.integers(0, len(products) - 1))
        product = data.draw(st.sampled_from([products[i]] * 3 + [products[i] + b"!"]))
        change = data.draw(st.sampled_from(["none"] * 7 + sorted(RECORD_CHANGES)))
        record = records[i] if change == "none" else RECORD_CHANGES[change](records[i])
        if change != "none" and data.draw(st.booleans()):
            ledger.append(record.to_bytes())
            registered.append(_plain(record))
        expected = verify_product_bruteforce(product, _plain(record), registered, mirror)
        assert verify_product(product, record, store, ledger) == expected


# ---------------------------------------------------------------------------
# Record checks made by the signature helper as records are appended
# ---------------------------------------------------------------------------

HOST_CPUS = len(getattr(os, "sched_getaffinity", lambda pid: ())(0))  # before any patch
ENDORSED = b"firmware image v7"


def _objects(manufacturer, endorsement: bytes) -> list:
    return [("endorsement", endorsement), ("manufacturer_cert", manufacturer.entity.public_key),
            ("root_cert", b"root-ca-certificate")]


def _endorsed_objects(manufacturer) -> list:
    """Objects whose endorsement, by `manufacturer`, names `ENDORSED`'s digest."""
    endorsement = make_endorsement(manufacturer, "widget", ClaimSet({
        "product.digest": ClaimValue.of_digest(digest(ENDORSED))}), 1)
    return _objects(manufacturer, endorsement.to_bytes())


def _register_forged(manufacturer, product_id, objects, store, ledger, clock):
    """A record registered with a signature that does not verify: it is signed
    (on a ledger of its own), its signature is changed, and it is appended
    with its check, as a registration appends a record."""
    record = register_endorsement(manufacturer, product_id, objects, store,
                                  EndorsementsLedger(), clock)
    forged = replace(record, signature=bytes([record.signature[0] ^ 1]) + record.signature[1:])
    ledger.append(forged.to_bytes(), (forged.signing_bytes(), forged.signature, manufacturer.entity))
    return forged


def _held_checks(ledger) -> int:
    """The signature checks that the ledger's index holds, not yet flags."""
    return sum(not isinstance(value, bool) for value in ledger._index.values())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_records_checked_by_the_helper_match_the_oracle(two_cpus, monkeypatch, data):
    """A few batches of records (batches of 1, 3 or 8 here), some appended
    with a forged signature, some store entries then corrupted, and every
    record queried in random order, some twice: each outcome is the
    oracle's, with the helper on and with it off. The registrations come in
    a tight loop, so that batches are declined, or with a pause after each
    batch, so that the helper answers them."""
    per_batch = data.draw(st.sampled_from([1, 3, 8]))
    monkeypatch.setattr(endorsement_ledger, "CHECKS_PER_BATCH", per_batch)
    count = data.draw(st.integers(1, 5 * per_batch))
    forged = data.draw(st.sets(st.integers(0, count - 1)))
    makers = [MANUFACTURERS[data.draw(st.integers(0, 1))] for _ in range(count)]
    products = [b"product %d" % i for i in range(count)]
    objects = [_objects(maker, make_endorsement(maker, f"p{i}", ClaimSet({
        "product.digest": ClaimValue.of_digest(digest(product))}), 1).to_bytes())
        for i, (maker, product) in enumerate(zip(makers, products))]
    values = sorted({value for objs in objects for _, value in objs})
    corrupted = data.draw(st.sets(st.sampled_from(values), max_size=3))
    queries = data.draw(st.permutations(list(range(count)) * 2))[: data.draw(st.integers(count, 2 * count))]
    paced = data.draw(st.booleans())
    outcomes = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        store, ledger, records = ContentStore(), EndorsementsLedger(), []
        for i in range(count):
            register = _register_forged if i in forged else register_endorsement
            records.append(register(makers[i], f"p{i}", objects[i], store, ledger, i))
            if paced and i % per_batch == per_batch - 1:
                time.sleep(0.002)
        mirror = {sha256(value): value for value in values}
        for value in corrupted:
            store._corrupt(Digest(sha256(value)), b"corrupted")
            mirror[sha256(value)] = b"corrupted"
        registered = [_plain(record) for record in records]
        got = [verify_product(products[i], records[i], store, ledger) for i in queries]
        assert got == [verify_product_bruteforce(products[i], _plain(records[i]), registered, mirror)
                       for i in queries]
        outcomes.append(got)
    assert outcomes[0] == outcomes[1]


def _timeout(signum, frame):
    raise AssertionError("blocked past the alarm")


def test_registration_never_waits_for_a_stopped_helper(two_cpus):
    """The helper stopped after the first batch: 2,000 more records, one in
    ten forged, are registered without waiting for it (a hang fails after
    60 s, and a wait for its answers would kill it): a batch that finds two
    unread is declined, and the ledger holds the checks of at most two
    batches in flight and one unsent. Once the helper is continued, every
    outcome is right."""
    acme = MANUFACTURERS[0]
    store, ledger, objects = ContentStore(), EndorsementsLedger(), _endorsed_objects(acme)
    records = [register_endorsement(acme, f"sku-{i:06d}", objects, store, ledger, i)
               for i in range(CHECKS_PER_BATCH)]
    helper = model._helper.pid
    assert helper != 0
    os.kill(helper, signal.SIGSTOP)
    os.waitpid(helper, os.WUNTRACED)  # until it is stopped
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    try:
        for i in range(CHECKS_PER_BATCH, CHECKS_PER_BATCH + 2000):
            register = _register_forged if i % 10 == 0 else register_endorsement
            records.append(register(acme, f"sku-{i:06d}", objects, store, ledger, i))
        held, alive = _held_checks(ledger), model._helper.pid == helper
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.kill(helper, signal.SIGCONT)
    assert alive
    assert len(ledger._in_flight) <= 2 and len(ledger._unsent) < CHECKS_PER_BATCH
    assert held <= 3 * CHECKS_PER_BATCH - 1
    for i, record in enumerate(records):
        expected = (False, "signature_invalid") if i % 10 == 0 and i >= CHECKS_PER_BATCH else (True, None)
        assert verify_product(ENDORSED, record, store, ledger) == expected, i


@pytest.mark.skipif(HOST_CPUS < 2, reason="needs two CPUs")
def test_the_helper_answers_most_first_checks(two_cpus, verifies):
    """4,000 records registered, one in seven forged, then each queried once:
    every outcome is right, and the helper answered most of their signature
    checks, so most first queries verify nothing. The registrations come in
    over time, a pause after each batch, so that the helper keeps up: a
    verify costs about twice a registration, so in a tight loop the helper
    answers only what it keeps up with, and the rest is declined."""
    acme = MANUFACTURERS[0]
    store, ledger, objects = ContentStore(), EndorsementsLedger(), _endorsed_objects(acme)
    records = []
    for i in range(4000):
        register = _register_forged if i % 7 == 0 else register_endorsement
        records.append(register(acme, f"sku-{i:06d}", objects, store, ledger, i))
        if i % CHECKS_PER_BATCH == CHECKS_PER_BATCH - 1:
            time.sleep(0.01)
    assert [verify_product(ENDORSED, record, store, ledger) for record in records] == [
        (False, "signature_invalid") if i % 7 == 0 else (True, None) for i in range(len(records))]
    assert len(verifies) < len(records) / 2
