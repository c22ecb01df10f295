import gc
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from attestnet import endorsement_ledger
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
from attestnet.model import (
    ClaimSet, ClaimValue, Digest, ModelError, Role, SignerIdentity, digest, make_endorsement,
)

from .oracles import (
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
        assert ledger.includes(record.to_bytes())

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
        assert ledger.includes(record.to_bytes())
        assert ledger.includes(EndorsementRecord.from_bytes(record.to_bytes()).to_bytes())
        other = register_endorsement(
            manufacturer, "widget-7", objects, store, EndorsementsLedger(), clock=11
        )
        assert not ledger.includes(other.to_bytes())
        assert len(ledger) == 2

    def test_ledger_append_takes_only_bytes(self, rng):
        _, record, _, ledger, _ = _setup_registration(rng)
        with pytest.raises(LedgerError, match="EndorsementRecord"):
            ledger.append(record)
        with pytest.raises(LedgerError, match="bytearray"):
            ledger.append(bytearray(record.to_bytes()))
        with pytest.raises(LedgerError, match="bytearray"):
            ledger.includes(bytearray(record.to_bytes()))
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
            assert ledger.includes(asked) is (asked == data)
            assert ledger.verified_cert(asked) == (record.manufacturer.public_key
                                                   if asked == data else None)
        ledger.store_verified_cert(changed, b"cert")
        assert not ledger.includes(changed) and ledger.verified_cert(changed) is None
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
    """The ledger stores each record's signature check under the cert it
    verified with; every other check still runs on every query."""

    def test_a_record_queried_again_is_verified_once(self, rng, verifies):
        manufacturer, record, store, ledger, _ = _setup_registration(rng)
        for _ in range(3):
            assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        assert verifies == [manufacturer.entity.public_key]
        assert ledger.verified_cert(record.to_bytes()) == manufacturer.entity.public_key

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
        assert other.verified_cert(record.to_bytes()) is None
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

    def test_a_different_cert_verifies_again(self, rng, verifies, monkeypatch):
        manufacturer, record, store, ledger, _ = _setup_registration(rng)
        assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        # a store that does not re-hash its entries hands out another cert
        # at the same address
        monkeypatch.setattr(store, "check", lambda address: True)
        cert_address = dict(record.object_refs)["manufacturer_cert"]
        other = MANUFACTURERS[0].entity.public_key
        store._corrupt(cert_address, other)
        assert verify_product(b"firmware image v7", record, store, ledger) == (
            False, "signature_invalid")
        assert verifies == [manufacturer.entity.public_key, other]
        # the failed check stored nothing: the genuine cert is still a hit
        store._corrupt(cert_address, manufacturer.entity.public_key)
        assert verify_product(b"firmware image v7", record, store, ledger) == (True, None)
        assert len(verifies) == 2

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
        assert len(verifies) == 2
        assert ledger.verified_cert(record.to_bytes()) is None

    def test_a_record_not_appended_is_never_indexed(self, rng, verifies, monkeypatch):
        # `includes` patched to say yes to anything: the check still runs,
        # and storing it does not make bytes count as appended
        manufacturer, record, store, ledger, objects = _setup_registration(rng)
        unappended = register_endorsement(manufacturer, "widget-7", objects, store,
                                          EndorsementsLedger(), clock=11)
        tampered = replace(record, registered_at=record.registered_at + 1)
        index = dict(ledger._index)
        monkeypatch.setattr(EndorsementsLedger, "includes", lambda self, record_bytes: True)
        assert verify_product(b"firmware image v7", tampered, store, ledger) == (
            False, "signature_invalid")
        assert verify_product(b"firmware image v7", unappended, store, ledger) == (True, None)
        monkeypatch.undo()
        assert ledger._index == index and len(ledger) == 1
        assert not ledger.includes(tampered.to_bytes())
        assert not ledger.includes(unappended.to_bytes())


MANUFACTURERS = [SignerIdentity.create(Role.ENDORSER, name, random.Random(name))
                 for name in ("acme", "globex")]
# the draws below repeat their untouched choice, so that a fair share of the
# queries reaches the later checks
ENDORSEMENT_OBJECTS = ["genuine"] * 6 + ["other_product", "bytes_claim", "truncated", "trailing",
                                         "junk"]
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


def _endorsement_object(data, manufacturer, product: bytes) -> bytes:
    kind = data.draw(st.sampled_from(ENDORSEMENT_OBJECTS))
    if kind == "junk":
        return data.draw(st.binary(max_size=40))
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
