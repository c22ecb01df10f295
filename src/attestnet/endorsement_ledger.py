"""Merkle-anchored retention of supply-chain endorsements: content-addressed
object storage, endorsement records rooted over the verification objects, an
append-only ledger registration, and product verification that does not
depend on the manufacturer still existing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .model import (
    Decoder,
    Digest,
    Encoder,
    Endorsement,
    EntityId,
    ModelError,
    SignerIdentity,
    digest,
    verify_bytes,
    _dec_entity,
    _enc_entity,
)

MANDATORY_LABELS = ("endorsement", "manufacturer_cert", "root_cert")
PRODUCT_DIGEST_CLAIM = "product.digest"

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"


class LedgerError(ValueError):
    """Raised on invalid Merkle/ledger operations (empty trees, bad indices)."""


# ---------------------------------------------------------------------------
# Merkle tree (domain-separated; odd nodes promoted unchanged)
# ---------------------------------------------------------------------------


def _leaf_hash(leaf: Digest) -> Digest:
    return digest(LEAF_PREFIX + leaf.value)


def _node_hash(left: Digest, right: Digest) -> Digest:
    return digest(NODE_PREFIX + left.value + right.value)


def _levels(leaves: Sequence[Digest]) -> list[list[Digest]]:
    if not leaves:
        raise LedgerError("merkle tree requires at least one leaf")
    level = [_leaf_hash(l) for l in leaves]
    levels = [level]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            if i + 1 < len(level):
                nxt.append(_node_hash(level[i], level[i + 1]))
            else:
                nxt.append(level[i])  # odd node promoted unchanged
        levels.append(nxt)
        level = nxt
    return levels


def merkle_root(leaves: Sequence[Digest]) -> Digest:
    return _levels(leaves)[-1][0]


def merkle_prove(leaves: Sequence[Digest], index: int) -> list[tuple[bool, Digest]]:
    """Inclusion proof for leaves[index]: list of (sibling_is_left, sibling)."""
    if not 0 <= index < len(leaves):
        raise LedgerError("proof index out of range")
    proof = []
    idx = index
    for level in _levels(leaves)[:-1]:
        sibling = idx ^ 1
        if sibling < len(level):
            proof.append((sibling < idx, level[sibling]))
        idx //= 2
    return proof


def merkle_verify(root: Digest, leaf: Digest, index: int, proof: Sequence[tuple[bool, Digest]]) -> bool:
    # index is not folded in: promoted odd nodes skip levels, so the sibling
    # side flags in the proof drive the reconstruction
    del index
    node = _leaf_hash(leaf)
    for is_left, sibling in proof:
        node = _node_hash(sibling, node) if is_left else _node_hash(node, sibling)
    return node == root


# ---------------------------------------------------------------------------
# Content-addressed store
# ---------------------------------------------------------------------------


class ContentStore:
    """Map digest(value) -> value, optionally persisted as hex-named files."""

    def __init__(self, directory: Optional[Path] = None):
        self._entries: dict[bytes, bytes] = {}
        self._dir = Path(directory) if directory else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            for f in self._dir.iterdir():
                self._entries[bytes.fromhex(f.name)] = f.read_bytes()

    def put(self, value: bytes) -> Digest:
        addr = digest(value)
        self._entries[addr.value] = value
        if self._dir is not None:
            (self._dir / addr.hex()).write_bytes(value)
        return addr

    def get(self, address: Digest) -> Optional[bytes]:
        return self._entries.get(address.value)

    def check(self, address: Digest) -> bool:
        """True iff the entry exists and its bytes still hash to its address."""
        value = self._entries.get(address.value)
        return value is not None and digest(value) == address

    def _corrupt(self, address: Digest, value: bytes):
        # test hook: overwrite an entry in place without re-addressing
        self._entries[address.value] = value


# ---------------------------------------------------------------------------
# Endorsement records and the endorsements ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
        enc = Encoder()
        self._encode_unsigned(enc)
        return enc.getvalue()

    def _encode_unsigned(self, enc: Encoder):
        _enc_entity(enc, self.manufacturer)
        enc.text(self.product_id)
        enc.raw(self.merkle_root.value)
        enc.u64(len(self.object_refs))
        for label, addr in self.object_refs:
            enc.text(label)
            enc.raw(addr.value)
        enc.u64(self.registered_at)

    def to_bytes(self) -> bytes:
        enc = Encoder()
        self._encode_unsigned(enc)
        enc.blob(self.signature)
        return enc.getvalue()

    @staticmethod
    def from_bytes(data: bytes) -> "EndorsementRecord":
        dec = Decoder(data)
        manufacturer = _dec_entity(dec)
        product_id = dec.text()
        root = Digest(dec.raw(32))
        refs = tuple((dec.text(), Digest(dec.raw(32))) for _ in range(dec.u64()))
        registered_at = dec.u64()
        sig = dec.blob()
        dec.done()
        return EndorsementRecord(manufacturer, product_id, root, refs, registered_at, sig)


class EndorsementsLedger:
    """Append-only list of registered endorsement records (canonical bytes),
    indexed by those bytes so that a membership check is one set lookup."""

    def __init__(self):
        self._records: list[bytes] = []
        self._index: set[bytes] = set()

    def append(self, record: EndorsementRecord):
        data = record.to_bytes()
        self._records.append(data)
        self._index.add(data)

    def includes(self, record: EndorsementRecord) -> bool:
        return record.to_bytes() in self._index

    def __len__(self) -> int:
        return len(self._records)


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
    refs = []
    for label, data in objects:
        refs.append((label, store.put(data)))
    root = merkle_root([addr for _, addr in refs])
    unsigned = EndorsementRecord(manufacturer.entity, product_id, root, tuple(refs), clock)
    record = replace(unsigned, signature=manufacturer.key.sign(unsigned.signing_bytes()))
    ledger.append(record)
    return record


def verify_product(
    product_bytes: bytes,
    record: EndorsementRecord,
    store: ContentStore,
    ledger: EndorsementsLedger,
    manufacturer_active: bool = False,
) -> tuple[bool, Optional[str]]:
    """Check a product against its ledger-registered endorsement record.

    The manufacturer_active flag never participates: verification relies only
    on the ledger, the stored objects, and the record's signature, so it holds
    after the manufacturer is gone. Returns (ok, reason).
    """
    del manufacturer_active  # outcome is independent of manufacturer liveness
    if not ledger.includes(record):
        return False, "ledger_mismatch"

    objects = {}
    for label, addr in record.object_refs:
        if not store.check(addr):
            return False, "store_corrupt"
        objects[label] = store.get(addr)

    if merkle_root([addr for _, addr in record.object_refs]) != record.merkle_root:
        return False, "root_mismatch"

    cert = EntityId(record.manufacturer.role, record.manufacturer.name, objects["manufacturer_cert"])
    if not verify_bytes(record.signing_bytes(), record.signature, cert.public_key):
        return False, "signature_invalid"

    endorsement = Endorsement.from_bytes(objects["endorsement"])
    ref = endorsement.reference_claims.get(PRODUCT_DIGEST_CLAIM)
    if ref is None or ref.kind != "digest" or ref.value != digest(product_bytes):
        return False, "digest_mismatch"
    return True, None
