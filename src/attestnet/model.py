"""Core message model: claims, identities, evidence, endorsements, results,
policies, and the canonical byte encoding that every signature covers.

All types are immutable values after construction. Every wire and storage
format is declared once, as a field table next to its class (`Table`; its
field kinds are listed under `Kind`), and only `encode` and `decode` read or
write fields. Decoding accepts only the canonical encoding, so equal values
have one byte image and a signed message cannot be re-encoded under the same
signature: claim keys strictly ascending in UTF-8 byte order, flag and
presence bytes exactly 0 or 1, known tags, valid UTF-8, no trailing bytes, and
component evidence nested at most `MAX_COMPONENT_DEPTH` deep, checked before
it is decoded. Every decoding failure raises `ModelError`. The format makes
the constructor checks of `Digest` (32 bytes), `ClaimValue` (a known tag, its
type, int64 range) and `ClaimSet` (ascending `str` keys), so the decoder
builds these directly, and checks only that the first claim key is not empty.

Evidence, endorsements and results (RFC 9334's conveyed messages) are claims
signed by their producer. `_signed` gives the three classes their members,
and `sign_message` signs a message in place; `check_signatures` hands their
signature checks to a helper process (`_Helper`).

Because messages never change, what is derived from them is worked out at most
once per object and stored on it by `_once`: the signing bytes and signature
validity of evidence, endorsements and results, a policy's digest and rule
plan, a signing key's key pair, and a claim set's encoded entries (which every
evidence or endorsement holding that claim set appends to its signing bytes).
Each is an entry of the instance dict, outside the dataclass fields (equality
and repr ignore it), named with a leading underscore so that it hides no
member (`_signing_bytes`, not `signing_bytes`). A stored read is one dict
read, with no memo dict, and builds nothing: a caller passes a function of the
value made once (`Table.encode`, say), since a closure made per call would
take a stored read of the signing bytes from about 150 ns to 400 ns. A changed
message or claim set is a new object (`dataclasses.replace`, a new `ClaimSet`)
with nothing stored, so a stored value never describes other field values.

Only the message types above, policies, claim sets, signing keys and
(elsewhere) target environments store values. Every other frozen value type
(`Digest`, `Nonce`, `GeoPoint`, `ClaimValue`, `EntityId`, `LayerRecord`,
`GeoFence`, `PolicyRule`, ...) is a slotted dataclass with no instance dict, as
a long run holds many of them (on CPython 3.11 a `Digest` takes 40 bytes
instead of 80, not counting its value).
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import hmac
import os
import struct
import sys
import threading
import time
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, ItemsView, Optional, Sequence, Union

if TYPE_CHECKING:  # `cryptography` is imported where it judges: `_key_pair`, `verify_bytes`
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

DIGEST_LEN = 32
NONCE_LEN = 16
MAX_COMPONENT_DEPTH = 4

ZERO_DIGEST = b"\x00" * DIGEST_LEN
_FLOAT_MAX = sys.float_info.max


class ModelError(ValueError):
    """Raised when a constructor or decoder receives invalid data."""


def _shown(value) -> str:
    """`repr(value)` for an error message, which must not raise: Python refuses
    to print an int of more than 4,300 digits, or a value holding one."""
    try:
        return repr(value)
    except ValueError:
        return f"{type(value).__name__} too large to print"


def _require_numbers(value, *names: str):
    """Refuse a field among `names` of `value` that `F64` cannot encode:
    anything but a float or an int (not a bool) within the float range."""
    for name in names:
        number = getattr(value, name)
        if not (type(number) is float or type(number) is int and abs(number) <= _FLOAT_MAX):
            raise ModelError(f"{name} must be a number")


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
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


def _read_digest(value: bytes) -> Digest:  # built directly: see "the format" above
    object.__setattr__(built := object.__new__(Digest), "value", value)
    return built


def _digest_of(value) -> Digest:
    return digest(value.to_bytes())


def keyed_digest(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256; the keyed variant used for layer-secret derivation."""
    return hmac.new(key, data, hashlib.sha256).digest()


def _once(value, name: str, compute):
    """`compute(value)`, stored on the immutable `value` under `name` at the
    first request (see the module docstring); nothing stored is None."""
    stored = value.__dict__.get(name)
    if stored is None:
        value.__dict__[name] = stored = compute(value)
    return stored


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GeoPoint:
    latitude: float
    longitude: float
    altitude: float

    def __post_init__(self):
        _require_numbers(self, "latitude", "longitude", "altitude")
        if not -90.0 <= self.latitude <= 90.0:
            raise ModelError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ModelError(f"longitude {self.longitude} outside [-180, 180]")


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True, slots=True)
class ClaimValue:
    """One typed assertion value: bytes, text, int64, digest, or geo."""

    kind: str
    value: Union[bytes, str, int, Digest, GeoPoint]

    def __post_init__(self):
        if self.kind not in _CLAIM_KINDS:
            raise ModelError(f"unknown claim kind {_shown(self.kind)}")
        if not isinstance(self.value, _CLAIM_KINDS[self.kind][1]) or (
            self.kind == "int" and not _INT64_MIN <= self.value <= _INT64_MAX
        ):
            raise ModelError(f"claim value {_shown(self.value)} invalid for kind {self.kind}")

    @staticmethod
    def of_text(v: str) -> "ClaimValue":
        return ClaimValue("text", v)

    @staticmethod
    def of_int(v: int) -> "ClaimValue":
        return ClaimValue("int", v)

    @staticmethod
    def of_digest(v: Digest) -> "ClaimValue":
        return ClaimValue("digest", v)


class ClaimSet:
    """Map claim-key -> ClaimValue, held in ascending key byte order.

    Immutable: the entries are validated and sorted once, at construction.
    """

    def __init__(self, entries: Optional[dict] = None):
        entries = entries or {}
        for key, value in entries.items():
            if not isinstance(key, str) or not key:
                raise ModelError("claim key must be a non-empty string")
            if not isinstance(value, ClaimValue):
                raise ModelError("claim value must be a ClaimValue")
        # str order is code-point order, which UTF-8 preserves byte for byte
        # (keys are unique, so the values are never compared)
        self._entries: dict[str, ClaimValue] = dict(sorted(entries.items()))

    def get(self, key: str) -> Optional[ClaimValue]:
        return self._entries.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> ItemsView[str, ClaimValue]:
        return self._entries.items()

    def keys(self) -> list[str]:
        return list(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, ClaimSet) and self._entries == other._entries

    def __repr__(self) -> str:
        return f"ClaimSet({self._entries!r})"


# ---------------------------------------------------------------------------
# Identities and signatures
# ---------------------------------------------------------------------------


class Role(str, Enum):
    ATTESTER = "attester"
    VERIFIER = "verifier"
    RELYING_PARTY = "relying_party"
    ENDORSER = "endorser"
    OWNER = "owner"


# The Ed25519 points of small order, as y with the sign bit clear: 0, 1, the
# two of order 8, p - 1, and the non-canonical p and p + 1. OpenSSL accepts a
# signature under such a key for any message (R = the identity and S = 0 under
# the identity, say), so no identity holds one and `verify_bytes` refuses both.
_SMALL_ORDER = frozenset(map(bytes.fromhex, (
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0100000000000000000000000000000000000000000000000000000000000000",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
)))


def _small_order(point: bytes) -> bool:
    """Whether the 32 bytes `point` encode a small-order point, of either sign."""
    return point[:31] + bytes((point[31] & 0x7F,)) in _SMALL_ORDER


@dataclass(frozen=True, slots=True)
class EntityId:
    """A role, a name and an Ed25519 public key that is not of small order."""

    role: Role
    name: str
    public_key: bytes

    def __post_init__(self):
        if not self.name:
            raise ModelError("entity name must be non-empty")
        key = self.public_key
        if not isinstance(key, bytes) or len(key) != 32:
            raise ModelError("entity public key must be 32 bytes")
        if _small_order(key):
            raise ModelError("entity public key is of small order")


class SigningKey:
    """Ed25519 signing key; deterministic signatures over canonical bytes.

    It holds the 32-byte seed and builds the key pair (`_key_pair`) on the
    first `sign` or `public_bytes`, so a key that is never used costs no key
    setup.
    """

    def __init__(self, private_bytes: bytes):
        if not isinstance(private_bytes, bytes) or len(private_bytes) != 32:
            raise ModelError("signing key seed must be 32 bytes")
        self.private_bytes = private_bytes

    @staticmethod
    def generate(rng) -> "SigningKey":
        return SigningKey(rng.randbytes(32))

    @property
    def public_bytes(self) -> bytes:
        return _once(self, "_pair", _pair_of)[0]

    def sign(self, data: bytes) -> bytes:
        return _once(self, "_pair", _pair_of)[1].sign(data)

    def __eq__(self, other) -> bool:
        return isinstance(other, SigningKey) and self.private_bytes == other.private_bytes


try:
    from ._sodium import ffi as _ffi  # generated by tools/build_sodium.py
except ImportError:  # no cffi
    _ffi = None


def _load_sodium():
    """libsodium, opened by full soname (`find_library` would import ctypes
    and subprocess), or None where it or cffi is missing."""
    if _ffi is None:
        return None
    for soname in ("libsodium.so.26", "libsodium.so.23"):
        with contextlib.suppress(OSError):
            lib = _ffi.dlopen(soname)
            if lib.sodium_init() >= 0:
                return lib
    return None


_sodium = _load_sodium()


def _pair_of(key: SigningKey) -> tuple[bytes, Union[_SodiumKey, Ed25519PrivateKey]]:
    return _key_pair(key.private_bytes)


def _key_pair(seed: bytes) -> tuple[bytes, Union[_SodiumKey, Ed25519PrivateKey]]:
    """The public key of the Ed25519 seed `seed`, and what signs with it:
    libsodium where it is loaded, else `cryptography`. Both derive the key and
    sign as RFC 8032 fixes (signing is deterministic, §5.1.6), so both give
    the same bytes, and libsodium at about half the cost. Handing it the seed
    exposes nothing new: the seed already sits in Python `bytes` and in
    `SIGNING_KEY`'s encoding, and libsodium's verdict on a signature is
    already the verdict (`verify_bytes`)."""
    if _sodium is None:
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
        key = Ed25519PrivateKey.from_private_bytes(seed)
        return key.public_key().public_bytes_raw(), key
    public, secret = _ffi.new("unsigned char[32]"), _ffi.new("unsigned char[64]")
    _sodium.crypto_sign_ed25519_seed_keypair(public, secret, seed)
    return _ffi.buffer(public)[:], _SodiumKey(_sodium, _ffi.buffer(secret)[:])


class _SodiumKey:
    """libsodium's Ed25519 secret key (the seed, then the public key), with
    the library that signs with it. Slotted: a run holds one per key."""

    __slots__ = ("lib", "secret")

    def __init__(self, lib, secret: bytes):
        self.lib, self.secret = lib, secret

    def sign(self, data: bytes) -> bytes:
        # a buffer per call: cffi releases the GIL, so another thread may sign meanwhile
        signature = _ffi.new("unsigned char[64]")
        self.lib.crypto_sign_ed25519_detached(signature, _ffi.NULL, data, len(data), self.secret)
        return _ffi.buffer(signature)[:]


def verify_bytes(data: bytes, signature: bytes, public_key: bytes) -> bool:
    """Whether `signature` is `public_key`'s Ed25519 signature of `data`, by
    one verify of any bytes-like arguments, read as `bytes`: libsodium's verdict
    where it is loaded (it also builds every key pair and signs, in `_key_pair`).
    Elsewhere `cryptography`'s, with a key or R of small order refused as
    libsodium does: OpenSSL's cofactorless check accepts forgeries under them."""
    if not (type(data) is type(signature) is type(public_key) is bytes):  # str, int, None: TypeError
        data, signature, public_key = (bytes(memoryview(a)) for a in (data, signature, public_key))
    if _sodium is None:
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
        try:
            Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        except (InvalidSignature, ValueError):
            return False
        # accepted, so the key is 32 bytes and the signature 64
        return not (_small_order(public_key) or _small_order(signature[:32]))
    return (len(signature) == 64 and len(public_key) == 32  # libsodium reads 64 and 32 bytes
            and _sodium.crypto_sign_ed25519_verify_detached(signature, data, len(data), public_key) == 0)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
# Canonical encoding: field kinds and tables, compiled into code
# ---------------------------------------------------------------------------

_U32, _U64 = struct.Struct(">I"), struct.Struct(">Q")  # blob lengths, sequence counts


class Decoder:
    """Reads one encoding front to back; `depth` is the component nesting
    level of the evidence being decoded (1 at the top). Compiled code reads
    `_data` at `_pos` itself, and hands the decoder to a "call" kind."""

    def __init__(self, data: bytes, depth: int = 1):
        self._data = data
        self._pos = 0
        self.depth = depth

    def done(self):
        if self._pos != len(self._data):
            raise ModelError("trailing bytes after canonical encoding")


class _Source:
    """The text of one compiled function: its lines, the constants that it
    names, and the pieces not yet appended to `out`, which a run appends in
    one statement."""

    def __init__(self, name: str, params: str):
        self.name, self.lines, self.consts, self.pieces = name, [f"def {name}({params}):"], {}, []
        self.indent, self.locals = 1, 0

    def const(self, value) -> str:
        self.consts[name := f"c{len(self.consts)}"] = value
        return name

    def local(self) -> str:
        self.locals += 1
        return f"x{self.locals}"

    def line(self, text: str = ""):
        """Append the pending pieces, then `text`."""
        pieces, self.pieces = self.pieces, []
        if pieces:
            run = f"out += ({', '.join(pieces)},)" if len(pieces) > 1 else f"out.append({pieces[0]})"
            self.lines.append("    " * self.indent + run)
        if text:
            self.lines.append("    " * self.indent + text)

    @contextlib.contextmanager
    def block(self, head: str):
        self.line(head)
        self.indent += 1
        yield
        self.line()
        self.indent -= 1

    def function(self, label: str):
        self.line()
        namespace = {**self.consts, "ModelError": ModelError, "struct_error": struct.error}
        exec(compile("\n".join(self.lines), f"<{self.name} {label}>", "exec"), namespace)
        return namespace[self.name]


def _write(src: _Source, kind: "Kind", value: str):
    """Write the code that appends the pieces of `value`, an expression of
    names, attributes and subscripts, which may be evaluated more than once."""
    form, args = kind.form, kind.args
    if form == "fixed":
        src.pieces.append(f"{src.const(args[0].pack)}({value})")
    elif form == "bool":
        src.pieces.append(f"(b'\\x01' if {value} else b'\\x00')")
    elif form in ("blob", "text"):
        blob = src.local()
        encoded = value + (".encode()" if form == "text" else "")
        src.pieces += [f"{src.const(_U32.pack)}(len({blob} := {encoded}))", blob]
    elif form == "tag":
        src.pieces.append(f"{src.const(args[1])}[{value}]")
    elif form == "seq":
        src.pieces.append(f"{src.const(_U64.pack)}(len({value}))")
        item = src.local()
        with src.block(f"for {item} in {value}:"):
            _write(src, args[0], item)
    elif form == "optional":
        with src.block(f"if {value} is None:"):
            src.pieces.append("b'\\x00'")
        with src.block("else:"):
            src.pieces.append("b'\\x01'")
            _write(src, args[0], value)
    elif form == "pair":
        _write(src, args[0], f"{value}[0]")
        _write(src, args[1], f"{value}[1]")
    elif form == "table":
        for name, field in args[1]:
            _write(src, field, f"{value}.{name}")
    else:  # "call"
        src.line(f"{src.const(args[0])}(out, {value})")


def _read(src: _Source, kind: "Kind") -> str:
    """Write the code that reads a value at `pos` in `data`: an expression of
    the value, of locals that no later read changes, to be evaluated once."""
    form, args, x = kind.form, kind.args, src.local()
    if form in ("fixed", "bool"):  # a short read raises struct.error
        src.line(f"{x} = {src.const(args[0].unpack_from)}(data, pos)[0]")
        src.line(f"pos += {args[0].size}")
        if form == "bool":
            src.line(f"if {x} > 1: raise ModelError(f'flag byte {{{x}}} is neither 0 nor 1')")
            return f"{x} == 1"
    elif form in ("blob", "text"):
        size = src.local()
        src.line(f"{size} = {src.const(_U32.unpack_from)}(data, pos)[0]")
        src.line(f"{x} = data[pos + {_U32.size} : pos + {_U32.size} + {size}]")
        src.line(f"pos += {_U32.size} + {size}")
        src.line("if pos > end: raise ModelError('truncated canonical encoding')")
        if form == "text":
            with src.block("try:"):
                src.line(f"{x} = {x}.decode()")
            with src.block("except UnicodeDecodeError as exc:"):
                src.line("raise ModelError('text field is not valid UTF-8') from exc")
    elif form == "tag":
        code = _read(src, args[3])
        src.line(f"{x} = {src.const(args[0])}.get({code})")
        src.line(f"if {x} is None: raise ModelError({src.const(f'unknown {args[2]} ')} + repr({code}))")
    elif form == "seq":
        count = _read(src, U64)
        src.line(f"{x} = []")
        with src.block(f"for _ in range({count}):"):
            src.line(f"{x}.append({_read(src, args[0])})")
        return f"tuple({x})"
    elif form == "optional":
        with src.block(f"if {_read(src, BOOL)}:"):
            src.line(f"{x} = {_read(src, args[0])}")
        with src.block("else:"):
            src.line(f"{x} = None")
    elif form == "pair":
        first = _read(src, args[0])
        return f"({first}, {_read(src, args[1])})"
    elif form == "table":
        make, fields, trailer = args
        values = [_read(src, field) for _, field in fields + ((("", trailer),) if trailer else ())]
        src.line(f"{x} = {src.const(make)}({', '.join(values)})")
    else:  # "call"
        src.line("dec._pos = pos")
        src.line(f"{x} = {src.const(args[1])}(dec)")
        src.line("pos = dec._pos")
    return x


class Kind:
    """How a field's value is written and read back: a `form` and its `args`,
    compiled from generated source on the kind's first use into `put(out,
    value)`, which appends the value's canonical pieces to the list `out`, a
    run of them at once, and `get(dec)`, which reads a value from `dec`. Each
    is one straight-line function with every nested kind written into it but
    a "call" kind, which it calls. There are three: a claim value (a union,
    its tag choosing the value's kind), a claim set (with its stored
    encoding), and component evidence (with its depth check before descent).
    A kind written into a table never compiles itself: compiling each kind
    when built raised supply-chain peak RSS by 2.4%. `tests/oracles.py` walks
    the tables field by field, the reference that this code is checked
    against; the compiled code takes the supply-chain benchmark's wall time
    about 5% lower than that walk.

    The ten forms and their args: "fixed" and "bool" (a `struct.Struct`; a
    digest or a nonce value is fixed, "32s" or "16s"), "blob", "text", "tag"
    (values by code, codes by value, what the value is, the code's kind),
    "seq" and "optional" (the item's kind), "pair" (the two kinds), "table"
    (see `Table`) and "call" (the `put` and `get`)."""

    def __init__(self, form: str, *args):
        self.form, self.args = form, args
        if form == "call":
            self.put, self.get = args

    def put(self, out: list, value):  # the first use compiles both, replacing them
        self._compile()
        self.put(out, value)

    def get(self, dec: Decoder):
        self._compile()
        return self.get(dec)

    def _compile(self):
        label = getattr(self.args[0], "__qualname__", "table") if self.form == "table" else self.form
        put = _Source("put", "out, value")
        _write(put, self, "value")
        get = _Source("get", "dec")
        get.line("data, pos, end = dec._data, dec._pos, len(dec._data)")
        with get.block("try:"):
            value = _read(get, self)
        with get.block("except struct_error:"):
            get.line("raise ModelError('truncated canonical encoding') from None")
        get.line("dec._pos = pos")
        get.line(f"return {value}")
        self.put, self.get = put.function(label), get.function(label)


class Table(Kind):
    """A record format: its fields in encoding order, each an (attribute,
    kind) pair, where the attribute may be a dotted path. `make` builds the
    value from the decoded fields, in the same order. A `trailer` (a
    signature, or a block's digest) is read after the fields but is not
    written by `put`: the fields alone are what gets signed or hashed.

    A table is itself a kind, so records nest."""

    def __init__(self, make, *fields: tuple[str, Kind], trailer: Optional[Kind] = None):
        super().__init__("table", make, fields, trailer)
        self.encode = lambda value: encode(self, value)  # for `_once`; finds `encode` when called


def encode(kind: Kind, value) -> bytes:
    """The canonical bytes of `value` (a table's fields exclude its trailer)."""
    out: list[bytes] = []
    kind.put(out, value)
    return b"".join(out)


def decode(kind: Kind, data: bytes, depth: int = 1):
    """The value that `data` encodes, trailer included; anything left over,
    missing or non-canonical raises `ModelError`."""
    dec = Decoder(data, depth)
    value = kind.get(dec)
    dec.done()
    return value


U8, U64, I64, F64 = (Kind("fixed", struct.Struct(fmt)) for fmt in (">B", ">Q", ">q", ">d"))
BOOL, BLOB, TEXT = Kind("bool", U8.args[0]), Kind("blob"), Kind("text")
DIGEST = Table(_read_digest, ("value", Kind("fixed", struct.Struct(f"{DIGEST_LEN}s"))))
SIGNING_KEY = Table(SigningKey, ("private_bytes", BLOB))


def tag(table: dict, what: str, code: Kind = U8) -> Kind:
    """A value among `table`'s keys, written as its code in `table`."""
    return Kind("tag", {c: v for v, c in table.items()},
                {v: encode(code, c) for v, c in table.items()}, what, code)


def seq(kind: Kind) -> Kind:
    """A tuple of values: the count as u64, then each value."""
    return Kind("seq", kind)


def optional(kind: Kind) -> Kind:
    """A value or None: a presence flag, then the value if present."""
    return Kind("optional", kind)


def pair(first: Kind, second: Kind) -> Kind:
    return Kind("pair", first, second)


GEO = Table(GeoPoint, ("latitude", F64), ("longitude", F64), ("altitude", F64))
ROLE = tag({r: r.value for r in Role}, "role", TEXT)
ENTITY = Table(EntityId, ("role", ROLE), ("name", TEXT), ("public_key", BLOB))
NONCE = Table(Nonce, ("value", Kind("fixed", struct.Struct(f"{NONCE_LEN}s"))), ("issued_at", U64))

# Each claim kind: its tag code, its Python type and its field kind.
_CLAIM_KINDS = {"bytes": (1, bytes, BLOB), "text": (2, str, TEXT), "int": (3, int, I64),
                "digest": (4, Digest, DIGEST), "geo": (5, GeoPoint, GEO)}
_CLAIM_KIND = tag({kind: code for kind, (code, _, _) in _CLAIM_KINDS.items()}, "claim value tag")


def _put_claim(out: list, cv: ClaimValue):
    _CLAIM_KIND.put(out, cv.kind)
    _CLAIM_KINDS[cv.kind][2].put(out, cv.value)


def _get_claim(dec: Decoder) -> ClaimValue:
    object.__setattr__(claim := object.__new__(ClaimValue), "kind", kind := _CLAIM_KIND.get(dec))
    object.__setattr__(claim, "value", _CLAIM_KINDS[kind][2].get(dec))  # built directly
    return claim


_CLAIM_ENTRIES = seq(pair(TEXT, Kind("call", _put_claim, _get_claim)))


def _get_claims(dec: Decoder) -> ClaimSet:
    claims = object.__new__(ClaimSet)  # built directly: these are the constructor's checks
    claims._entries = held = dict(entries := _CLAIM_ENTRIES.get(dec))  # str order is byte order
    if len(held) < len(entries) or [*held] != sorted(held) or "" in held:  # "" sorts first
        raise ModelError("claim keys are not non-empty and strictly ascending")
    return claims


def _encode_claims(cs: ClaimSet) -> bytes:
    return encode(_CLAIM_ENTRIES, cs.items())


def _put_claims(out: list, cs: ClaimSet):
    out.append(_once(cs, "_encoded", _encode_claims))


# A claim set: its entries in ascending key byte order, each key once.
CLAIMS = Kind("call", _put_claims, _get_claims)


def _signed(table: Table, signer: str):
    """Give `table`'s class the members of a signed message, signed by the
    EntityId in its field `signer`: the table's fields, then the signature as
    a blob. Each member is set on the class, not inherited from a base, since
    the benchmark rebinds each one by name in the class's own namespace;
    `from_bytes` is a staticmethod, the one wrapper that it unwraps."""
    cls = table.args[0]
    cls.signing_bytes = lambda self: _once(self, "_signing_bytes", table.encode)
    cls.to_bytes = lambda self: with_signature(self.signing_bytes(), self.signature)
    cls.from_bytes = staticmethod(lambda data: _decode_signed(table, data))
    cls.verify_signature = _signature_valid
    cls.signer = property(attrgetter(signer))  # the EntityId whose key signs


def _signature_valid(message) -> bool:
    """The stored check of `message` under its signer's key; a queued
    message's may be the helper's answer."""
    helper_answer(message)  # read first, if it is queued
    return _once(message, "_signature_valid", _verify_message)


def _verify_message(message) -> bool:
    return verify_bytes(message.signing_bytes(), message.signature, message.signer.public_key)


def _decode_signed(table: Table, data: bytes, depth: int = 1):
    """The signed message that `data` encodes, holding the bytes it was
    signed over: `data` without the trailing signature blob. Decoding is
    canonical-only, so those are exactly the bytes that encoding the decoded
    value would give, and checking a received message never re-encodes it."""
    message = decode(table, data, depth)
    message.__dict__["_signing_bytes"] = signed_part(data, message.signature)
    return message


def signed_part(data: bytes, signature: bytes) -> bytes:
    """`data`, a signed message's canonical bytes, without the trailing blob
    of its `signature`: the bytes that the signature covers."""
    return data[: len(data) - _U32.size - len(signature)]


def with_signature(data: bytes, signature: bytes) -> bytes:
    """A signed message's canonical bytes: `data`, the bytes that `signature`
    covers, followed by the signature blob. The inverse of `signed_part`."""
    return data + _U32.pack(len(signature)) + signature


def sign_message(message, key: SigningKey):
    """`message` (evidence, endorsement or result, freshly built and unsigned)
    signed by `key`: the same object, now carrying the signature.

    Signing is the one change made to a message in place, so that a message
    is built once. The signature is not part of the signing bytes, so the
    bytes stored on the message stay valid; a signature check stored before
    signing described the empty signature and is dropped. A message that
    already carries a signature raises `ModelError`, so one that someone else
    holds is never changed.
    """
    if message.signature:
        raise ModelError(f"{type(message).__name__} is already signed")
    signature = key.sign(message.signing_bytes())
    object.__setattr__(message, "signature", signature)  # the dataclass is frozen
    message.__dict__.pop("_signature_valid", None)
    return message


# ---------------------------------------------------------------------------
# Signature checks shared with a helper process (see `_Helper`)
# ---------------------------------------------------------------------------

# the slot of the batch's first flag, then per check: the signed bytes, the
# signature, the public key
_REQUEST = pair(U64, seq(seq(BLOB)))
# Checks per batch: the flags are two halves of this many bytes, and each of
# the at most two unread batches holds one half.
_HALF = 1024
_SKIPPED = 2  # the helper's answer for a check that this process took
# How long a batch's answers may take to come in before the helper is killed.
# A healthy helper's are in about one verify after this process has taken the
# batch's tail, so this is far above any healthy wait.
_ANSWER_WAIT_S = 5.0


def _take(flags, slot: int) -> bool:
    """Mark the check at `slot` taken, unless the other process already has:
    whether this process may verify it. Both may read the flag as free and
    both verify, which gives the same answer twice."""
    if flags[slot]:
        return False
    flags[slot] = 1
    return True


def _parent_cpu() -> int:
    """The CPU that this process's parent last ran on (`/proc/<ppid>/stat`, field 39)."""
    with open(f"/proc/{os.getppid()}/stat", "rb") as stat:
        return int(stat.read().rpartition(b")")[2].split()[36])


def _ready(stream, timeout: float = 0) -> bool:
    """Whether reading `stream` would not block, within `timeout` seconds: it
    holds data, or its end."""
    import select  # here: only a run with a helper needs it
    poll = select.poll()
    poll.register(stream, select.POLLIN)
    return bool(poll.poll(max(timeout, 0) * 1000))


class _Helper:
    """This process's helper: its pid, this process's ends of its pipes, the
    flags shared with it, and the messages sent whose answers are unread, by
    batch with the slot of the batch's first flag, and their ids.

    Its pipes carry only public data: per check the signed bytes, the
    signature and the public key, and one answer byte. Both processes drain
    the queue. Each queued check has a flag byte in an anonymous shared map,
    made before the fork; each side marks a check before it verifies it and
    skips a check the other side marked, for which the helper answers 2. A
    queued message's stored check reads the answers in send order, up to its
    batch; when that batch's answers are not in yet, this process first
    verifies the batch from its tail until it meets a check the helper took,
    so it never waits out a whole batch. Reading a batch's answers clears its
    flags. The flags hold no message bytes, and no answer rests on them: every
    stored check is what `verify_bytes` gave in one process or the other, a 2
    is never stored, and if both sides take a check, the first stored answer
    stands. At most two batches stay unread, one per half: with both taken,
    `send` reads the oldest's answers if they are in, else declines the new
    batch, so queueing never waits and no pipe fills (two ledger batches are
    under the request pipe's 64 KiB). A forked process drops the helper. A bad
    answer, a read cut short, or answers not all in within `_ANSWER_WAIT_S`
    seconds (from a helper that is stopped, or answers short) kill the helper
    and reap it; a check that nobody stored is made here when it is asked for,
    and the next batch forks a new helper.
    The helper leaves this process's CPU (`_parent_cpu`) when forked: a forked
    child starts there, and a host that never balances load keeps it there."""

    def __init__(self):
        self.pid, self.requests, self.answers, self.flags = 0, None, None, None
        self.batches, self.queued = [], set()

    def send(self, batch: list):
        """Queue the checks of `batch`'s messages, at most `_HALF`, and return
        True; on failure, or declined, queue nothing."""
        if len(self.batches) == 2:
            if not _ready(self.answers):
                return  # declined: reading the oldest batch's answers would wait
            self.read_oldest()
        slot = _HALF - self.batches[0][1] if self.batches else 0  # the half no batch holds
        request = encode(BLOB, encode(_REQUEST, (slot, [
            (m.signing_bytes(), m.signature, m.signer.public_key) for m in batch])))
        try:
            if not self.pid:
                self._fork()
            if self.requests.write(request) != len(request):
                raise OSError("short write")
            self.batches.append((batch, slot))
            self.queued.update(map(id, batch))
            return True
        except OSError:  # no process to fork, or the helper died
            self.stop()

    def read_oldest(self):
        """Store the oldest batch's answers on its messages, or stop the
        helper. If they are not in yet, first verify the batch here from its
        tail, until a check that the helper took."""
        batch, slot = self.batches.pop(0)
        self.queued.difference_update(map(id, batch))
        try:
            if not _ready(self.answers):
                for i in reversed(range(len(batch))):
                    if not _take(self.flags, slot + i):
                        break
                    _signature_valid(batch[i])  # no longer queued: verified here
            answers = self._read(len(batch))
        except BaseException:  # cut short, it leaves the later answers out of step
            self.stop(kill=True)
            raise
        if len(answers) == len(batch) and set(answers) <= {0, 1, _SKIPPED}:
            self.flags[slot : slot + len(batch)] = bytes(len(batch))
            for message, answer in zip(batch, answers):
                if answer != _SKIPPED:
                    message.__dict__.setdefault("_signature_valid", answer == 1)
        else:
            self.stop(kill=True)

    def _read(self, n: int) -> bytes:
        """`n` answers, or fewer at the end of the pipe or when they are not
        all in within `_ANSWER_WAIT_S`. The reader is unbuffered, so that no
        answer sits where polling does not see it."""
        answers, deadline = b"", time.monotonic() + _ANSWER_WAIT_S
        while (len(answers) < n and _ready(self.answers, deadline - time.monotonic())
               and (chunk := self.answers.read(n - len(answers)))):
            answers += chunk
        return answers

    def _fork(self):
        import mmap  # here: only a run with a helper needs it
        flags = mmap.mmap(-1, 2 * _HALF)  # anonymous, shared with the child
        request_r, request_w, answer_r, answer_w = os.pipe() + os.pipe()
        self.requests = open(request_w, "wb", buffering=0)  # so that closing it never writes
        self.answers = open(answer_r, "rb", buffering=0)
        self.flags = flags
        try:
            pid = os.fork()
        except OSError:
            os.close(request_r)
            os.close(answer_w)
            raise
        if pid == 0:
            code = 1
            try:
                # the fork handler has already dropped the helper, map
                # included: the child holds the map through `flags`
                self.drop()  # holding the request pipe open, it would never see its end
                with contextlib.suppress(OSError, ValueError, IndexError, AttributeError):
                    os.sched_setaffinity(0, os.sched_getaffinity(0) - {_parent_cpu()})
                requests, answers = open(request_r, "rb"), open(answer_w, "wb", buffering=0)
                while header := requests.read(_U32.size):  # until the parent closes the pipe
                    slot, checks = decode(_REQUEST, requests.read(_U32.unpack(header)[0]))
                    answers.write(bytes(
                        verify_bytes(*check) if _take(flags, slot + i) else _SKIPPED
                        for i, check in enumerate(checks)))
                code = 0
            finally:
                os._exit(code)  # flushes and tears down nothing of the parent's
        os.close(request_r)
        os.close(answer_w)
        self.pid = pid

    def drop(self):
        """Forget the helper and its queue, closing this process's pipe ends;
        a forked child does so at once, so as not to hold the helper's pipe
        open. The map is not closed: a helper just forked still uses it."""
        for stream in filter(None, (self.requests, self.answers)):
            stream.close()
        self.__init__()

    def stop(self, kill: bool = False) -> Optional[int]:
        """Drop the helper, which ends it, and reap it: its wait status, if
        any. A stopped helper would never see the end of its requests, so it
        is continued first, or killed if it failed (`kill`): before its pipes
        close, so that a failed helper never exits on its own."""
        pid = self.pid
        if pid:
            import signal  # here: the module costs every process about 0.1 MiB
            with contextlib.suppress(ProcessLookupError):  # reaped elsewhere
                os.kill(pid, signal.SIGKILL if kill else signal.SIGCONT)
        self.drop()
        with contextlib.suppress(ChildProcessError):  # reaped elsewhere
            return os.waitpid(pid, 0)[1] if pid else None
        return None


_helper = _Helper()
atexit.register(_helper.stop)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helper.drop)


def helper_usable() -> bool:
    """Whether `os.fork` exists, more than one CPU may be used and no other
    thread is alive (a forked child could deadlock on a lock one holds)."""
    return (hasattr(os, "fork") and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1
            and threading.active_count() == 1)


def check_signatures(messages: Sequence) -> bool:
    """Queue for the helper the checks of the signed `messages` (evidence,
    endorsements, results, a ledger's record checks) neither checked nor queued
    yet, each once, in batches of at most `_HALF`, whose stored checks read the
    answers: whether it queued some and `_Helper.send` declined none (it does
    with two unread; a ledger's batches stay near 25 KiB, so two fit the pipe).

    libsodium's calls release the GIL, but the Python around each check holds
    it, and `cryptography`'s verify holds it throughout, so only a second
    process, kept off this one's CPU, reaches another. The helper is forked on
    first use, and only where `helper_usable`; elsewhere each check is made in
    process when it is asked for. The conveyance flows queue nothing: each
    check there is needed at once, and an idle helper took 55-145 µs (10th to
    90th percentile) to take a one-check batch, against a 52-65 µs verify."""
    batch = list({id(m): m for m in messages if m.signature and id(m) not in _helper.queued
                  and "_signature_valid" not in m.__dict__}.values())
    return bool(batch) and helper_usable() and all(
        [_helper.send(batch[start : start + _HALF]) for start in range(0, len(batch), _HALF)])


def helper_answer(message) -> Optional[bool]:
    """The stored check of `message`, read first if it is queued; None if
    there is none, as when its check never reached the helper."""
    while id(message) in _helper.queued:  # read in send order, up to its batch
        _helper.read_oldest()
    return message.__dict__.get("_signature_valid")


# ---------------------------------------------------------------------------
# Evidence
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LayerRecord:
    index: int
    measurement: Digest
    layer_key_id: Digest

    def __post_init__(self):
        if self.index < 0:
            raise ModelError("layer index must be non-negative")


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
        if self.layer_chain is not None and any(
            rec.index != i for i, rec in enumerate(self.layer_chain)
        ):
            raise ModelError("layer chain indices must be consecutive from 0")
        if self._depth() > MAX_COMPONENT_DEPTH:
            raise ModelError("component nesting exceeds depth 4")

    def _depth(self) -> int:
        if not self.components:
            return 1
        return 1 + max(c._depth() for c in self.components)


def _get_component(dec: Decoder) -> Evidence:
    # checked before descending, so hostile nesting never recurses deeply
    if dec.depth >= MAX_COMPONENT_DEPTH:
        raise ModelError("component nesting exceeds depth 4")
    return _decode_signed(_EVIDENCE, BLOB.get(dec), dec.depth + 1)


_COMPONENT = Kind("call", lambda out, ev: BLOB.put(out, ev.to_bytes()), _get_component)
_EVIDENCE = Table(
    Evidence,
    ("attester", ENTITY),
    ("target_claims", CLAIMS),
    ("nonce_echo", NONCE),
    ("created_at", U64),
    ("layer_chain", optional(seq(Table(
        LayerRecord, ("index", U64), ("measurement", DIGEST), ("layer_key_id", DIGEST)
    )))),
    ("components", optional(seq(_COMPONENT))),
    ("lead_assertion", optional(BOOL)),
    trailer=BLOB,
)
_signed(_EVIDENCE, "attester")


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


_ENDORSEMENT = Table(
    Endorsement,
    ("endorser", ENTITY),
    ("product_id", TEXT),
    ("reference_claims", CLAIMS),
    ("intrinsic", BOOL),
    ("issued_at", U64),
    trailer=BLOB,
)
_signed(_ENDORSEMENT, "endorser")


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


_RESULT = Table(
    AttestationResult,
    ("verifier", ENTITY),
    ("attester", ENTITY),
    ("verdict", tag({Verdict.COMPLIANT: 1, Verdict.NON_COMPLIANT: 2, Verdict.UNKNOWN: 3},
                    "verdict tag")),
    ("policy_digest", DIGEST),
    ("appraised_nonce", NONCE),
    ("reasons", seq(TEXT)),
    ("created_at", U64),
    trailer=BLOB,
)
_signed(_RESULT, "verifier")


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class RuleKind(str, Enum):
    REFERENCE_MATCH = "reference_match"
    VERSION_AT_LEAST = "version_at_least"
    GEO_FENCE = "geo_fence"
    CLAIM_PRESENT = "claim_present"
    COMPONENTS_ALL_COMPLIANT = "components_all_compliant"


@dataclass(frozen=True, slots=True)
class GeoFence:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        _require_numbers(self, "lat_min", "lat_max", "lon_min", "lon_max")
        # written so that a NaN bound fails too
        if not (self.lat_min <= self.lat_max and self.lon_min <= self.lon_max):
            raise ModelError("geo fence bounds must satisfy min <= max")

    def contains(self, geo: GeoPoint) -> bool:
        return (
            self.lat_min <= geo.latitude <= self.lat_max
            and self.lon_min <= geo.longitude <= self.lon_max
        )


@dataclass(frozen=True, slots=True)
class PolicyRule:
    rule_id: str
    kind: RuleKind
    claim_key: str = ""
    bound: int = 0
    fence: Optional[GeoFence] = None

    def __post_init__(self):
        if not isinstance(self.rule_id, str) or not self.rule_id:
            raise ModelError(f"rule id {_shown(self.rule_id)} is not a non-empty string")
        if not isinstance(self.kind, RuleKind):
            raise ModelError(f"rule kind {_shown(self.kind)} is not a RuleKind")
        if not isinstance(self.claim_key, str):
            raise ModelError(f"rule claim key {_shown(self.claim_key)} is not a string")
        if not self.claim_key and self.kind != RuleKind.COMPONENTS_ALL_COMPLIANT:
            raise ModelError(f"rule kind {self.kind.value} requires a claim key")
        if not (self.fence is None or isinstance(self.fence, GeoFence)):
            raise ModelError(f"rule fence {_shown(self.fence)} is not a GeoFence")
        if self.kind == RuleKind.GEO_FENCE and self.fence is None:
            raise ModelError("geo_fence rule requires fence bounds")
        if type(self.bound) is not int or not _INT64_MIN <= self.bound <= _INT64_MAX:
            raise ModelError(f"rule bound {_shown(self.bound)} is not an int64")


@dataclass(frozen=True)
class EvidencePolicy:
    policy_id: str
    rules: tuple[PolicyRule, ...]
    freshness_window: int
    required_claims: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.policy_id, str) or not self.policy_id:
            raise ModelError(f"policy id {_shown(self.policy_id)} is not a non-empty string")
        if not (isinstance(self.rules, tuple)
                and all(isinstance(rule, PolicyRule) for rule in self.rules)):
            raise ModelError("policy rules must be a tuple of PolicyRule")
        if not (isinstance(self.required_claims, tuple)
                and all(isinstance(key, str) and key for key in self.required_claims)):
            raise ModelError("policy required claims must be a tuple of non-empty strings")
        if type(self.freshness_window) is not int or not 1 <= self.freshness_window < 2**64:
            raise ModelError(f"freshness window {_shown(self.freshness_window)} is not in [1, 2**64)")

    def to_bytes(self) -> bytes:
        return encode(_POLICY, self)

    @staticmethod
    def from_bytes(data: bytes) -> "EvidencePolicy":
        return decode(_POLICY, data)

    def digest(self) -> Digest:
        return _once(self, "_digest", _digest_of)


_RULE = Table(
    PolicyRule,
    ("rule_id", TEXT),
    ("kind", tag({
        RuleKind.REFERENCE_MATCH: 1,
        RuleKind.VERSION_AT_LEAST: 2,
        RuleKind.GEO_FENCE: 3,
        RuleKind.CLAIM_PRESENT: 4,
        RuleKind.COMPONENTS_ALL_COMPLIANT: 5,
    }, "rule tag")),
    ("claim_key", TEXT),
    ("bound", I64),
    ("fence", optional(Table(
        GeoFence, ("lat_min", F64), ("lat_max", F64), ("lon_min", F64), ("lon_max", F64)
    ))),
)
_POLICY = Table(
    EvidencePolicy,
    ("policy_id", TEXT),
    ("rules", seq(_RULE)),
    ("freshness_window", U64),
    ("required_claims", seq(TEXT)),
)


@dataclass(frozen=True, slots=True)
class ResultPolicy:
    accepted_verifiers: tuple[EntityId, ...]
    max_result_age: int

    def __post_init__(self):
        if not self.accepted_verifiers:
            raise ModelError("result policy needs at least one accepted verifier")
