"""Core message model: claims, identities, evidence, endorsements, results,
policies, and the canonical byte encoding that every signature covers.

All types are immutable values after construction. The canonical encoding is
the wire/storage format for signed structures; signatures always cover the
encoding of a message with its signature field excluded.

Because messages never change, what is derived from them is worked out at most
once per object and stored on it: the signing bytes and signature validity of
evidence, endorsements and results, and the digest of a policy. A changed
message is a new object built with `dataclasses.replace`, which starts with
nothing stored, so a stored value can never describe other field values. The
one exception is `sign_message`: a signature is not part of the signing bytes,
so the signed copy keeps them.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Optional, Sequence, Union

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

DIGEST_LEN = 32
NONCE_LEN = 16
MAX_COMPONENT_DEPTH = 4

ZERO_DIGEST = b"\x00" * DIGEST_LEN


class ModelError(ValueError):
    """Raised when a constructor or decoder receives invalid data."""


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Digest:
    value: bytes

    def __post_init__(self):
        if not isinstance(self.value, bytes) or len(self.value) != DIGEST_LEN:
            raise ModelError("digest must be exactly 32 bytes")

    def hex(self) -> str:
        return self.value.hex()


def digest(data: bytes) -> Digest:
    """SHA-256 of `data`; the single hash used everywhere in the system."""
    return Digest(hashlib.sha256(data).digest())


def keyed_digest(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256; the keyed variant used for layer-secret derivation."""
    return hmac.new(key, data, hashlib.sha256).digest()


def _once(value, name: str, compute):
    """`compute()` for the immutable `value`, run on the first request only.

    The result is stored in the instance dict, outside the dataclass fields,
    so equality and repr ignore it and `dataclasses.replace` drops it.
    """
    memo = value.__dict__.setdefault("_memo", {})
    if name not in memo:
        memo[name] = compute()
    return memo[name]


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeoPoint:
    latitude: float
    longitude: float
    altitude: float

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ModelError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ModelError(f"longitude {self.longitude} outside [-180, 180]")


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class ClaimValue:
    """One typed assertion value: bytes, text, int64, digest, or geo."""

    kind: str
    value: Union[bytes, str, int, Digest, GeoPoint]

    _KINDS = ("bytes", "text", "int", "digest", "geo")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ModelError(f"unknown claim kind {self.kind!r}")
        ok = {
            "bytes": lambda v: isinstance(v, bytes),
            "text": lambda v: isinstance(v, str),
            "int": lambda v: isinstance(v, int) and _INT64_MIN <= v <= _INT64_MAX,
            "digest": lambda v: isinstance(v, Digest),
            "geo": lambda v: isinstance(v, GeoPoint),
        }[self.kind](self.value)
        if not ok:
            raise ModelError(f"claim value {self.value!r} invalid for kind {self.kind}")

    @staticmethod
    def of_bytes(v: bytes) -> "ClaimValue":
        return ClaimValue("bytes", v)

    @staticmethod
    def of_text(v: str) -> "ClaimValue":
        return ClaimValue("text", v)

    @staticmethod
    def of_int(v: int) -> "ClaimValue":
        return ClaimValue("int", v)

    @staticmethod
    def of_digest(v: Digest) -> "ClaimValue":
        return ClaimValue("digest", v)

    @staticmethod
    def of_geo(lat: float, lon: float, alt: float = 0.0) -> "ClaimValue":
        return ClaimValue("geo", GeoPoint(lat, lon, alt))


class ClaimSet:
    """Ordered map claim-key -> ClaimValue; iterates in ascending key byte order."""

    def __init__(self, entries: Optional[dict] = None):
        self._entries: dict[str, ClaimValue] = {}
        if entries:
            for k, v in entries.items():
                self._put(k, v)

    def _put(self, key: str, value: ClaimValue):
        if not isinstance(key, str) or not key:
            raise ModelError("claim key must be a non-empty string")
        if key in self._entries:
            raise ModelError(f"duplicate claim key {key!r}")
        if not isinstance(value, ClaimValue):
            raise ModelError("claim value must be a ClaimValue")
        self._entries[key] = value

    def with_claim(self, key: str, value: ClaimValue) -> "ClaimSet":
        new = ClaimSet(dict(self._entries))
        new._put(key, value)
        return new

    def get(self, key: str) -> Optional[ClaimValue]:
        return self._entries.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[tuple[str, ClaimValue]]:
        return iter(sorted(self._entries.items(), key=lambda kv: kv[0].encode()))

    def keys(self) -> list[str]:
        return [k for k, _ in self.items()]

    def __eq__(self, other) -> bool:
        return isinstance(other, ClaimSet) and dict(self.items()) == dict(other.items())

    def __repr__(self) -> str:
        return f"ClaimSet({dict(self.items())!r})"


# ---------------------------------------------------------------------------
# Identities and signatures
# ---------------------------------------------------------------------------


class Role(str, Enum):
    ATTESTER = "attester"
    VERIFIER = "verifier"
    RELYING_PARTY = "relying_party"
    ENDORSER = "endorser"
    OWNER = "owner"


@dataclass(frozen=True)
class EntityId:
    role: Role
    name: str
    public_key: bytes

    def __post_init__(self):
        if not self.name:
            raise ModelError("entity name must be non-empty")
        if not self.public_key:
            raise ModelError("entity public key must be non-empty")


class SigningKey:
    """Ed25519 signing key; deterministic signatures over canonical bytes."""

    def __init__(self, private_bytes: bytes):
        if len(private_bytes) != 32:
            raise ModelError("signing key seed must be 32 bytes")
        self._priv = Ed25519PrivateKey.from_private_bytes(private_bytes)
        self._priv_bytes = private_bytes

    @staticmethod
    def generate(rng) -> "SigningKey":
        return SigningKey(rng.randbytes(32))

    @property
    def private_bytes(self) -> bytes:
        return self._priv_bytes

    @property
    def public_bytes(self) -> bytes:
        return self._priv.public_key().public_bytes_raw()

    def sign(self, data: bytes) -> bytes:
        return self._priv.sign(data)

    def __eq__(self, other) -> bool:
        return isinstance(other, SigningKey) and self._priv_bytes == other._priv_bytes


def verify_bytes(data: bytes, signature: bytes, public_key: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        return True
    except (InvalidSignature, ValueError):
        return False


@dataclass(frozen=True)
class SignerIdentity:
    """An entity together with its signing key (local-side view of an EntityId)."""

    entity: EntityId
    key: SigningKey

    def __post_init__(self):
        if self.entity.public_key != self.key.public_bytes:
            raise ModelError("entity public key does not match signing key")

    @staticmethod
    def create(role: Role, name: str, rng) -> "SignerIdentity":
        key = SigningKey.generate(rng)
        return SignerIdentity(EntityId(role, name, key.public_bytes), key)


# ---------------------------------------------------------------------------
# Nonces and logical time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Nonce:
    value: bytes
    issued_at: int

    def __post_init__(self):
        if len(self.value) != NONCE_LEN:
            raise ModelError("nonce must be 16 bytes")
        if self.issued_at < 0:
            raise ModelError("nonce issue tick must be non-negative")


def new_nonce(clock: int, rng) -> Nonce:
    return Nonce(rng.randbytes(NONCE_LEN), clock)


# ---------------------------------------------------------------------------
# Canonical encoding primitives
# ---------------------------------------------------------------------------


class Encoder:
    def __init__(self):
        self._parts: list[bytes] = []

    def u8(self, v: int):
        self._parts.append(struct.pack(">B", v))

    def u64(self, v: int):
        self._parts.append(struct.pack(">Q", v))

    def i64(self, v: int):
        self._parts.append(struct.pack(">q", v))

    def f64(self, v: float):
        self._parts.append(struct.pack(">d", v))

    def raw(self, b: bytes):
        self._parts.append(b)

    def blob(self, b: bytes):
        self._parts.append(struct.pack(">I", len(b)))
        self._parts.append(b)

    def text(self, s: str):
        self.blob(s.encode("utf-8"))

    def boolean(self, v: bool):
        self.u8(1 if v else 0)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Decoder:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ModelError("truncated canonical encoding")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def blob(self) -> bytes:
        n = struct.unpack(">I", self._take(4))[0]
        return self._take(n)

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError("text field is not valid UTF-8") from exc

    def boolean(self) -> bool:
        return self.u8() != 0

    def done(self):
        if self._pos != len(self._data):
            raise ModelError("trailing bytes after canonical encoding")


def _dec_tag(table: dict, tag, what: str):
    """`table[tag]`, raising `ModelError` for a tag the format does not define."""
    value = table.get(tag)
    if value is None:
        raise ModelError(f"unknown {what} {tag!r}")
    return value


_CLAIM_TAGS = {"bytes": 1, "text": 2, "int": 3, "digest": 4, "geo": 5}
_CLAIM_TAGS_REV = {v: k for k, v in _CLAIM_TAGS.items()}


def _enc_claim_value(enc: Encoder, cv: ClaimValue):
    enc.u8(_CLAIM_TAGS[cv.kind])
    if cv.kind == "bytes":
        enc.blob(cv.value)
    elif cv.kind == "text":
        enc.text(cv.value)
    elif cv.kind == "int":
        enc.i64(cv.value)
    elif cv.kind == "digest":
        enc.raw(cv.value.value)
    else:
        enc.f64(cv.value.latitude)
        enc.f64(cv.value.longitude)
        enc.f64(cv.value.altitude)


def _dec_claim_value(dec: Decoder) -> ClaimValue:
    kind = _dec_tag(_CLAIM_TAGS_REV, dec.u8(), "claim value tag")
    if kind == "bytes":
        return ClaimValue.of_bytes(dec.blob())
    if kind == "text":
        return ClaimValue.of_text(dec.text())
    if kind == "int":
        return ClaimValue.of_int(dec.i64())
    if kind == "digest":
        return ClaimValue.of_digest(Digest(dec.raw(DIGEST_LEN)))
    return ClaimValue.of_geo(dec.f64(), dec.f64(), dec.f64())


def _enc_claim_set(enc: Encoder, cs: ClaimSet):
    items = list(cs.items())
    enc.u64(len(items))
    for k, v in items:
        enc.text(k)
        _enc_claim_value(enc, v)


def _dec_claim_set(dec: Decoder) -> ClaimSet:
    n = dec.u64()
    entries = {}
    for _ in range(n):
        k = dec.text()
        entries[k] = _dec_claim_value(dec)
    return ClaimSet(entries)


def _enc_entity(enc: Encoder, e: EntityId):
    enc.text(e.role.value)
    enc.text(e.name)
    enc.blob(e.public_key)


_ROLES = {r.value: r for r in Role}


def _dec_entity(dec: Decoder) -> EntityId:
    return EntityId(_dec_tag(_ROLES, dec.text(), "role"), dec.text(), dec.blob())


def _enc_nonce(enc: Encoder, n: Nonce):
    enc.raw(n.value)
    enc.u64(n.issued_at)


def _dec_nonce(dec: Decoder) -> Nonce:
    return Nonce(dec.raw(NONCE_LEN), dec.u64())


# Evidence, endorsements and results share one layout: the unsigned fields
# (`_encode_unsigned`), then the signature as a blob.


def _unsigned_bytes(message) -> bytes:
    def encode():
        enc = Encoder()
        message._encode_unsigned(enc)
        return enc.getvalue()

    return _once(message, "signing_bytes", encode)


def _signed_bytes(message) -> bytes:
    enc = Encoder()
    enc.raw(message.signing_bytes())
    enc.blob(message.signature)
    return enc.getvalue()


def _signature_valid(message, public_key: bytes) -> bool:
    return _once(
        message,
        "signature_valid",
        lambda: verify_bytes(message.signing_bytes(), message.signature, public_key),
    )


def sign_message(message, key: SigningKey):
    """A copy of `message` (evidence, endorsement or result) signed by `key`.

    The signature is not part of the signing bytes, so the signed copy keeps
    the bytes just signed instead of encoding them again.
    """
    data = message.signing_bytes()
    signed = replace(message, signature=key.sign(data))
    _once(signed, "signing_bytes", lambda: data)
    return signed


# ---------------------------------------------------------------------------
# Evidence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerRecord:
    index: int
    measurement: Digest
    layer_key_id: Digest

    def __post_init__(self):
        if self.index < 0:
            raise ModelError("layer index must be non-negative")


def _check_layer_chain(chain: Sequence[LayerRecord]):
    for i, rec in enumerate(chain):
        if rec.index != i:
            raise ModelError("layer chain indices must be consecutive from 0")


@dataclass(frozen=True)
class Evidence:
    attester: EntityId
    target_claims: ClaimSet
    nonce_echo: Nonce
    created_at: int
    layer_chain: Optional[tuple[LayerRecord, ...]] = None
    components: Optional[tuple["Evidence", ...]] = None
    lead_assertion: Optional[bool] = None
    signature: bytes = b""

    def __post_init__(self):
        if self.components and self.lead_assertion is None:
            raise ModelError("component evidence requires a lead assertion")
        if self.layer_chain is not None:
            _check_layer_chain(self.layer_chain)
        if self._depth() > MAX_COMPONENT_DEPTH:
            raise ModelError("component nesting exceeds depth 4")

    def _depth(self) -> int:
        if not self.components:
            return 1
        return 1 + max(c._depth() for c in self.components)

    def signing_bytes(self) -> bytes:
        return _unsigned_bytes(self)

    def _encode_unsigned(self, enc: Encoder):
        _enc_entity(enc, self.attester)
        _enc_claim_set(enc, self.target_claims)
        _enc_nonce(enc, self.nonce_echo)
        enc.u64(self.created_at)
        if self.layer_chain is None:
            enc.u8(0)
        else:
            enc.u8(1)
            enc.u64(len(self.layer_chain))
            for rec in self.layer_chain:
                enc.u64(rec.index)
                enc.raw(rec.measurement.value)
                enc.raw(rec.layer_key_id.value)
        if self.components is None:
            enc.u8(0)
        else:
            enc.u8(1)
            enc.u64(len(self.components))
            for comp in self.components:
                enc.blob(comp.to_bytes())
        if self.lead_assertion is None:
            enc.u8(0)
        else:
            enc.u8(1)
            enc.boolean(self.lead_assertion)

    def to_bytes(self) -> bytes:
        return _signed_bytes(self)

    @staticmethod
    def from_bytes(data: bytes) -> "Evidence":
        dec = Decoder(data)
        ev = Evidence._decode(dec)
        dec.done()
        return ev

    @staticmethod
    def _decode(dec: Decoder) -> "Evidence":
        attester = _dec_entity(dec)
        claims = _dec_claim_set(dec)
        nonce = _dec_nonce(dec)
        created_at = dec.u64()
        layer_chain = None
        if dec.u8():
            layer_chain = tuple(
                LayerRecord(dec.u64(), Digest(dec.raw(DIGEST_LEN)), Digest(dec.raw(DIGEST_LEN)))
                for _ in range(dec.u64())
            )
        components = None
        if dec.u8():
            components = tuple(Evidence.from_bytes(dec.blob()) for _ in range(dec.u64()))
        lead = dec.boolean() if dec.u8() else None
        sig = dec.blob()
        return Evidence(attester, claims, nonce, created_at, layer_chain, components, lead, sig)

    def verify_signature(self) -> bool:
        return _signature_valid(self, self.attester.public_key)


# ---------------------------------------------------------------------------
# Endorsements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Endorsement:
    endorser: EntityId
    product_id: str
    reference_claims: ClaimSet
    intrinsic: bool
    issued_at: int
    signature: bytes = b""

    def __post_init__(self):
        if not self.product_id:
            raise ModelError("product id must be non-empty")

    def signing_bytes(self) -> bytes:
        return _unsigned_bytes(self)

    def _encode_unsigned(self, enc: Encoder):
        _enc_entity(enc, self.endorser)
        enc.text(self.product_id)
        _enc_claim_set(enc, self.reference_claims)
        enc.boolean(self.intrinsic)
        enc.u64(self.issued_at)

    def to_bytes(self) -> bytes:
        return _signed_bytes(self)

    @staticmethod
    def from_bytes(data: bytes) -> "Endorsement":
        dec = Decoder(data)
        end = Endorsement(
            _dec_entity(dec), dec.text(), _dec_claim_set(dec), dec.boolean(), dec.u64(), dec.blob()
        )
        dec.done()
        return end

    def verify_signature(self) -> bool:
        return _signature_valid(self, self.endorser.public_key)


def make_endorsement(
    endorser: SignerIdentity,
    product_id: str,
    reference_claims: ClaimSet,
    issued_at: int,
    intrinsic: bool = False,
) -> Endorsement:
    unsigned = Endorsement(endorser.entity, product_id, reference_claims, intrinsic, issued_at)
    return sign_message(unsigned, endorser.key)


# ---------------------------------------------------------------------------
# Verdicts and results
# ---------------------------------------------------------------------------


class Verdict(str, Enum):
    COMPLIANT = "compliant"
    NON_COMPLIANT = "non_compliant"
    UNKNOWN = "unknown"


_VERDICT_TAGS = {Verdict.COMPLIANT: 1, Verdict.NON_COMPLIANT: 2, Verdict.UNKNOWN: 3}
_VERDICT_TAGS_REV = {v: k for k, v in _VERDICT_TAGS.items()}


@dataclass(frozen=True)
class AttestationResult:
    verifier: EntityId
    attester: EntityId
    verdict: Verdict
    policy_digest: Digest
    appraised_nonce: Nonce
    reasons: tuple[str, ...]
    created_at: int
    signature: bytes = b""

    def __post_init__(self):
        if (self.verdict == Verdict.COMPLIANT) != (len(self.reasons) == 0):
            raise ModelError("verdict is compliant iff reasons are empty")

    def signing_bytes(self) -> bytes:
        return _unsigned_bytes(self)

    def _encode_unsigned(self, enc: Encoder):
        _enc_entity(enc, self.verifier)
        _enc_entity(enc, self.attester)
        enc.u8(_VERDICT_TAGS[self.verdict])
        enc.raw(self.policy_digest.value)
        _enc_nonce(enc, self.appraised_nonce)
        enc.u64(len(self.reasons))
        for r in self.reasons:
            enc.text(r)
        enc.u64(self.created_at)

    def to_bytes(self) -> bytes:
        return _signed_bytes(self)

    @staticmethod
    def from_bytes(data: bytes) -> "AttestationResult":
        dec = Decoder(data)
        verifier = _dec_entity(dec)
        attester = _dec_entity(dec)
        verdict = _dec_tag(_VERDICT_TAGS_REV, dec.u8(), "verdict tag")
        pol = Digest(dec.raw(DIGEST_LEN))
        nonce = _dec_nonce(dec)
        reasons = tuple(dec.text() for _ in range(dec.u64()))
        created_at = dec.u64()
        sig = dec.blob()
        dec.done()
        return AttestationResult(verifier, attester, verdict, pol, nonce, reasons, created_at, sig)

    def verify_signature(self) -> bool:
        return _signature_valid(self, self.verifier.public_key)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class RuleKind(str, Enum):
    REFERENCE_MATCH = "reference_match"
    VERSION_AT_LEAST = "version_at_least"
    GEO_FENCE = "geo_fence"
    CLAIM_PRESENT = "claim_present"
    COMPONENTS_ALL_COMPLIANT = "components_all_compliant"


@dataclass(frozen=True)
class GeoFence:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if self.lat_min > self.lat_max or self.lon_min > self.lon_max:
            raise ModelError("geo fence bounds must satisfy min <= max")

    def contains(self, geo: GeoPoint) -> bool:
        return (
            self.lat_min <= geo.latitude <= self.lat_max
            and self.lon_min <= geo.longitude <= self.lon_max
        )


@dataclass(frozen=True)
class PolicyRule:
    rule_id: str
    kind: RuleKind
    claim_key: str = ""
    bound: int = 0
    fence: Optional[GeoFence] = None

    def __post_init__(self):
        if not self.rule_id:
            raise ModelError("rule id must be non-empty")
        if self.kind in (
            RuleKind.REFERENCE_MATCH,
            RuleKind.VERSION_AT_LEAST,
            RuleKind.GEO_FENCE,
            RuleKind.CLAIM_PRESENT,
        ) and not self.claim_key:
            raise ModelError(f"rule kind {self.kind.value} requires a claim key")
        if self.kind == RuleKind.GEO_FENCE and self.fence is None:
            raise ModelError("geo_fence rule requires fence bounds")


_RULE_TAGS = {
    RuleKind.REFERENCE_MATCH: 1,
    RuleKind.VERSION_AT_LEAST: 2,
    RuleKind.GEO_FENCE: 3,
    RuleKind.CLAIM_PRESENT: 4,
    RuleKind.COMPONENTS_ALL_COMPLIANT: 5,
}
_RULE_TAGS_REV = {v: k for k, v in _RULE_TAGS.items()}


@dataclass(frozen=True)
class EvidencePolicy:
    policy_id: str
    rules: tuple[PolicyRule, ...]
    freshness_window: int
    required_claims: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.policy_id:
            raise ModelError("policy id must be non-empty")
        if self.freshness_window < 1:
            raise ModelError("freshness window must be >= 1 tick")

    def to_bytes(self) -> bytes:
        enc = Encoder()
        enc.text(self.policy_id)
        enc.u64(len(self.rules))
        for r in self.rules:
            enc.text(r.rule_id)
            enc.u8(_RULE_TAGS[r.kind])
            enc.text(r.claim_key)
            enc.i64(r.bound)
            if r.fence is None:
                enc.u8(0)
            else:
                enc.u8(1)
                enc.f64(r.fence.lat_min)
                enc.f64(r.fence.lat_max)
                enc.f64(r.fence.lon_min)
                enc.f64(r.fence.lon_max)
        enc.u64(self.freshness_window)
        enc.u64(len(self.required_claims))
        for c in self.required_claims:
            enc.text(c)
        return enc.getvalue()

    @staticmethod
    def from_bytes(data: bytes) -> "EvidencePolicy":
        dec = Decoder(data)
        policy_id = dec.text()
        rules = []
        for _ in range(dec.u64()):
            rule_id = dec.text()
            kind = _dec_tag(_RULE_TAGS_REV, dec.u8(), "rule tag")
            claim_key = dec.text()
            bound = dec.i64()
            fence = None
            if dec.u8():
                fence = GeoFence(dec.f64(), dec.f64(), dec.f64(), dec.f64())
            rules.append(PolicyRule(rule_id, kind, claim_key, bound, fence))
        freshness = dec.u64()
        required = tuple(dec.text() for _ in range(dec.u64()))
        dec.done()
        return EvidencePolicy(policy_id, tuple(rules), freshness, required)

    def digest(self) -> Digest:
        return _once(self, "digest", lambda: digest(self.to_bytes()))


@dataclass(frozen=True)
class ResultPolicy:
    accepted_verifiers: tuple[EntityId, ...]
    max_result_age: int
    required_verdict: Verdict = Verdict.COMPLIANT

    def __post_init__(self):
        if not self.accepted_verifiers:
            raise ModelError("result policy needs at least one accepted verifier")


# ---------------------------------------------------------------------------
# canonical_serialize / debug export
# ---------------------------------------------------------------------------

SignedMessage = Union[Evidence, Endorsement, AttestationResult, EvidencePolicy]


def canonical_serialize(message: SignedMessage) -> bytes:
    """Deterministic byte image a signature covers (signature field excluded)."""
    if isinstance(message, EvidencePolicy):
        return message.to_bytes()
    return message.signing_bytes()


def debug_render(message) -> str:
    """Key-sorted human-readable rendering; never the signed image."""

    def conv(obj):
        if isinstance(obj, bytes):
            return obj.hex()
        if isinstance(obj, Digest):
            return obj.hex()
        if isinstance(obj, ClaimSet):
            return {k: conv(v) for k, v in obj.items()}
        if isinstance(obj, ClaimValue):
            return {"kind": obj.kind, "value": conv(obj.value)}
        if isinstance(obj, Enum):
            return obj.value
        if hasattr(obj, "__dataclass_fields__"):
            return {f: conv(getattr(obj, f)) for f in sorted(obj.__dataclass_fields__)}
        if isinstance(obj, (tuple, list)):
            return [conv(x) for x in obj]
        return obj

    import json

    return json.dumps(conv(message), indent=2, sort_keys=True)
