"""Core message model: claims, identities, evidence, endorsements, results,
policies, and the canonical byte encoding that every signature covers.

All types are immutable values after construction. Every wire and storage
format is declared once, as a field table (`Table`) next to its class: the
fields in encoding order, each with a kind (`U64`, `TEXT`, `DIGEST`,
`seq(...)`, `optional(...)`, `tag(...)`, a nested table, ...). `encode` and
`decode` walk a table; nothing else reads or writes fields. The fields are
what a signature covers (a message's signing bytes, a block's content
bytes); the trailer, the signature or the block digest, follows them in
`to_bytes`.

Decoding accepts only the canonical encoding, so equal values have one byte
image and a signed message cannot be re-encoded under the same signature:
claim keys strictly ascending in UTF-8 byte order, flag and presence bytes
exactly 0 or 1, known tags, valid UTF-8, no trailing bytes, and component
evidence nested at most `MAX_COMPONENT_DEPTH` deep, checked before it is
decoded. Every decoding failure raises `ModelError`.

Because messages never change, what is derived from them is worked out at most
once per object and stored on it: the signing bytes and signature validity of
evidence, endorsements and results, the digest of a policy, and the encoded
entries of a claim set (which every evidence or endorsement holding that claim
set appends to its signing bytes). A changed message is a new object built with
`dataclasses.replace`, and a changed claim set a new `ClaimSet`; either starts
with nothing stored, so a stored value can never describe other field values.

Signing is the one change made in place. A signed message is built once,
unsigned, and `sign_message` sets the signature on that same object: the
signing bytes stored on it stay valid, because a signature is not part of
them, and a stored signature check is dropped. Only a message that carries no
signature yet can be signed, so a message that someone else already holds never
changes. Decoding a signed message stores the bytes it received without the
trailing signature blob: decoding is canonical-only, so those are exactly the
bytes that encoding the decoded value would give, and checking a received
message never re-encodes it. Either way, `to_bytes` is the stored signing bytes
with the signature blob appended (`with_signature`, the inverse of
`signed_part`).

`check_signatures` queues the signature checks of signed messages for a
helper process (Ed25519 holds the GIL), forked on first use where `os.fork`
exists, more than one CPU may be used and no other thread is alive (a forked
child could deadlock on a lock one holds). Its pipes carry only public data:
per check the signed bytes, the signature and the public key, and one answer
byte. Both processes drain the queue. Each queued check has a flag byte in an
anonymous shared map, made before the fork; each side marks a check before it
verifies it and skips a check the other side marked, for which the helper
answers 2. A queued message's stored check reads the answers in send order, up
to its batch; when that batch's answers are not in yet, this process first
verifies the batch from its tail until it meets a check the helper took. The
flags hold no message bytes, and no answer rests on them: every stored check
is what `verify_bytes` gave in one process or the other, a 2 is never stored,
and if both sides take a check, the first stored answer stands. At most two
batches stay unread, so the pipes never fill. A forked process drops the
helper. A bad answer, a read cut short, or answers not all in within
`_ANSWER_WAIT_S` seconds (from a helper that is stopped, or answers short)
kill the helper and reap it; a check that nobody stored is made here when it
is asked for, and the next batch forks a new helper. Any other stop continues
the helper first, so that one stopped with nothing queued still exits.

Only evidence, endorsements, results, policies, claim sets and (elsewhere)
target environments and result messages store values, in their instance dict.
Every other frozen value type (`Digest`, `Nonce`, `GeoPoint`, `ClaimValue`,
`EntityId`, `LayerRecord`, `GeoFence`, `PolicyRule`, ...) is a slotted
dataclass with no instance dict: it stores nothing, and a long run holds many
of them (on CPython 3.11 a `Digest` object takes 40 bytes instead of 80,
not counting its value).
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import hmac
import mmap
import os
import select
import struct
import threading
import time
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, ItemsView, NamedTuple, Optional, Sequence, Union

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


@dataclass(frozen=True, slots=True)
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
_CLAIM_TYPES = {"bytes": bytes, "text": str, "int": int, "digest": Digest, "geo": GeoPoint}


@dataclass(frozen=True, slots=True)
class ClaimValue:
    """One typed assertion value: bytes, text, int64, digest, or geo."""

    kind: str
    value: Union[bytes, str, int, Digest, GeoPoint]

    def __post_init__(self):
        if self.kind not in _CLAIM_TYPES:
            raise ModelError(f"unknown claim kind {self.kind!r}")
        if not isinstance(self.value, _CLAIM_TYPES[self.kind]) or (
            self.kind == "int" and not _INT64_MIN <= self.value <= _INT64_MAX
        ):
            raise ModelError(f"claim value {self.value!r} invalid for kind {self.kind}")

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


@dataclass(frozen=True, slots=True)
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
    """Ed25519 signing key; deterministic signatures over canonical bytes.

    It holds the 32-byte seed and builds the Ed25519 key on the first `sign`
    or `public_bytes`, so a key that is never used costs no key setup.
    """

    def __init__(self, private_bytes: bytes):
        if len(private_bytes) != 32:
            raise ModelError("signing key seed must be 32 bytes")
        self._priv_bytes = private_bytes
        self._priv: Optional[Ed25519PrivateKey] = None

    @staticmethod
    def generate(rng) -> "SigningKey":
        return SigningKey(rng.randbytes(32))

    def _key(self) -> Ed25519PrivateKey:
        if self._priv is None:
            self._priv = Ed25519PrivateKey.from_private_bytes(self._priv_bytes)
        return self._priv

    @property
    def private_bytes(self) -> bytes:
        return self._priv_bytes

    @property
    def public_bytes(self) -> bytes:
        return self._key().public_key().public_bytes_raw()

    def sign(self, data: bytes) -> bytes:
        return self._key().sign(data)

    def __eq__(self, other) -> bool:
        return isinstance(other, SigningKey) and self._priv_bytes == other._priv_bytes


def verify_bytes(data: bytes, signature: bytes, public_key: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        return True
    except (InvalidSignature, ValueError):
        return False


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
# Canonical encoding: field kinds and tables
# ---------------------------------------------------------------------------

_U32, _U64 = struct.Struct(">I"), struct.Struct(">Q")  # blob lengths, sequence counts


class Decoder:
    """Reads one encoding front to back; `depth` is the component nesting
    level of the evidence being decoded (1 at the top)."""

    def __init__(self, data: bytes, depth: int = 1):
        self._data = data
        self._pos = 0
        self.depth = depth

    def raw(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ModelError("truncated canonical encoding")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def blob(self) -> bytes:
        return self.raw(_U32.unpack(self.raw(_U32.size))[0])

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError("text field is not valid UTF-8") from exc

    def boolean(self) -> bool:
        flag = self.raw(1)[0]
        if flag > 1:
            raise ModelError(f"flag byte {flag} is neither 0 nor 1")
        return flag == 1

    def done(self):
        if self._pos != len(self._data):
            raise ModelError("trailing bytes after canonical encoding")


class Kind(NamedTuple):
    """How a field's value is written (to a list of byte strings) and read back."""

    put: Callable[[list, Any], None]
    get: Callable[[Decoder], Any]


class Table:
    """A record format: its fields in encoding order, each an (attribute,
    kind) pair, where the attribute may be a dotted path. `make` builds the
    value from the decoded fields, in the same order. A `trailer` (a
    signature, or a block's digest) is read after the fields but is not
    written by `put`: the fields alone are what gets signed or hashed.

    A table is itself a kind, so records nest."""

    def __init__(self, make, *fields: tuple[str, Kind], trailer: Optional[Kind] = None):
        self._make = make
        self._puts = tuple((attrgetter(name), kind.put) for name, kind in fields)
        self._gets = tuple(kind.get for _, kind in fields) + ((trailer.get,) if trailer else ())

    def put(self, out: list, value):
        for get, put in self._puts:
            put(out, get(value))

    def get(self, dec: Decoder):
        return self._make(*[get(dec) for get in self._gets])


def encode(kind, value) -> bytes:
    """The canonical bytes of `value` (a table's fields exclude its trailer)."""
    out: list[bytes] = []
    kind.put(out, value)
    return b"".join(out)


def decode(kind, data: bytes, depth: int = 1):
    """The value that `data` encodes, trailer included; anything left over,
    missing or non-canonical raises `ModelError`."""
    dec = Decoder(data, depth)
    value = kind.get(dec)
    dec.done()
    return value


def _fixed(fmt: str) -> Kind:
    layout = struct.Struct(fmt)
    pack, unpack, size = layout.pack, layout.unpack, layout.size
    return Kind(lambda out, v: out.append(pack(v)), lambda dec: unpack(dec.raw(size))[0])


def _put_blob(out: list, b: bytes):
    out.append(_U32.pack(len(b)))
    out.append(b)


U8, U64, I64, F64 = (_fixed(fmt) for fmt in (">B", ">Q", ">q", ">d"))
BOOL = Kind(lambda out, v: out.append(b"\x01" if v else b"\x00"), Decoder.boolean)
BLOB = Kind(_put_blob, Decoder.blob)
TEXT = Kind(lambda out, s: _put_blob(out, s.encode("utf-8")), Decoder.text)
DIGEST = Kind(lambda out, d: out.append(d.value), lambda dec: Digest(dec.raw(DIGEST_LEN)))
SIGNING_KEY = Kind(lambda out, k: _put_blob(out, k.private_bytes),
                   lambda dec: SigningKey(dec.blob()))


def tag(table: dict, what: str, code: Kind = U8) -> Kind:
    """A value among `table`'s keys, written as its code in `table`."""
    values = {c: v for v, c in table.items()}
    codes = {v: encode(code, c) for v, c in table.items()}
    read = code.get

    def get(dec: Decoder):
        c = read(dec)
        if c not in values:
            raise ModelError(f"unknown {what} {c!r}")
        return values[c]

    return Kind(lambda out, v: out.append(codes[v]), get)


def seq(kind: Kind) -> Kind:
    """A tuple of values: the count as u64, then each value."""
    put_item, get_item = kind.put, kind.get

    def put(out: list, values):
        out.append(_U64.pack(len(values)))
        for v in values:
            put_item(out, v)

    return Kind(put, lambda dec: tuple([get_item(dec) for _ in range(U64.get(dec))]))


def optional(kind: Kind) -> Kind:
    """A value or None: a presence flag, then the value if present."""

    def put(out: list, v):
        if v is None:
            out.append(b"\x00")
        else:
            out.append(b"\x01")
            kind.put(out, v)

    return Kind(put, lambda dec: kind.get(dec) if dec.boolean() else None)


def pair(first: Kind, second: Kind) -> Kind:
    def put(out: list, v):
        first.put(out, v[0])
        second.put(out, v[1])

    return Kind(put, lambda dec: (first.get(dec), second.get(dec)))


GEO = Table(GeoPoint, ("latitude", F64), ("longitude", F64), ("altitude", F64))
ROLE = tag({r: r.value for r in Role}, "role", TEXT)
ENTITY = Table(EntityId, ("role", ROLE), ("name", TEXT), ("public_key", BLOB))
NONCE = Table(
    Nonce, ("value", Kind(list.append, lambda dec: dec.raw(NONCE_LEN))), ("issued_at", U64)
)

_CLAIM_KIND = tag({"bytes": 1, "text": 2, "int": 3, "digest": 4, "geo": 5}, "claim value tag")
_CLAIM_VALUES = {"bytes": BLOB, "text": TEXT, "int": I64, "digest": DIGEST, "geo": GEO}


def _put_claim(out: list, cv: ClaimValue):
    _CLAIM_KIND.put(out, cv.kind)
    _CLAIM_VALUES[cv.kind].put(out, cv.value)


def _get_claim(dec: Decoder) -> ClaimValue:
    kind = _CLAIM_KIND.get(dec)
    return ClaimValue(kind, _CLAIM_VALUES[kind].get(dec))


_CLAIM_ENTRIES = seq(pair(TEXT, Kind(_put_claim, _get_claim)))


def _get_claims(dec: Decoder) -> ClaimSet:
    entries = _CLAIM_ENTRIES.get(dec)
    keys = [key for key, _ in entries]  # decoded, so valid UTF-8: str order is byte order
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ModelError("claim keys are not strictly ascending")
    return ClaimSet(dict(entries))


def _put_claims(out: list, cs: ClaimSet):
    out.append(_once(cs, "encoded", lambda: encode(_CLAIM_ENTRIES, cs.items())))


# A claim set: its entries in ascending key byte order, each key once.
CLAIMS = Kind(_put_claims, _get_claims)


# Evidence, endorsements and results are signed messages: their signing bytes
# are the fields of their table, and `to_bytes` appends the signature as a blob.


def _signing_bytes(message, table: Table) -> bytes:
    return _once(message, "signing_bytes", lambda: encode(table, message))


def _signature_valid(message) -> bool:
    """The stored check of `message` under its signer's key; a queued
    message's may be the helper's answer."""
    while id(message) in _helper.queued:  # read in send order, up to its batch
        _helper.read_oldest()
    return _once(message, "signature_valid", lambda: verify_bytes(
        message.signing_bytes(), message.signature, message.signer.public_key))


def _decode_signed(table: Table, data: bytes, depth: int = 1):
    """The signed message that `data` encodes, holding the bytes it was
    signed over: `data` without the trailing signature blob."""
    message = decode(table, data, depth)
    _once(message, "signing_bytes", lambda: signed_part(data, message.signature))
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

    The signature is not part of the signing bytes, so the bytes stored on the
    message while signing stay valid; a signature check stored before signing
    described the empty signature and is dropped. A message that already
    carries a signature raises `ModelError`, so one that someone else holds is
    never changed.
    """
    if message.signature:
        raise ModelError(f"{type(message).__name__} is already signed")
    signature = key.sign(message.signing_bytes())
    object.__setattr__(message, "signature", signature)  # the dataclass is frozen
    message.__dict__.get("_memo", {}).pop("signature_valid", None)
    return message


# ---------------------------------------------------------------------------
# Signature checks shared with a helper process (see the module docstring)
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


def _ready(stream, timeout: float = 0) -> bool:
    """Whether reading `stream` would not block, within `timeout` seconds: it
    holds data, or its end."""
    poll = select.poll()
    poll.register(stream, select.POLLIN)
    return bool(poll.poll(max(timeout, 0) * 1000))


class _Helper:
    """This process's helper: its pid, this process's ends of its pipes, the
    flags shared with it, and the messages sent whose answers are unread, by
    batch with the slot of the batch's first flag, and their ids."""

    def __init__(self):
        self.pid, self.requests, self.answers, self.flags = 0, None, None, None
        self.batches, self.queued = [], set()

    def send(self, batch: list):
        """Queue the checks of `batch`'s messages, at most `_HALF`; on
        failure, queue nothing."""
        if len(self.batches) == 2:
            self.read_oldest()  # answers left unread would fill both pipes and block
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
                    _once(message, "signature_valid", lambda: answer == 1)
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
        is continued first, or killed if it failed (`kill`)."""
        pid = self.pid
        self.drop()
        if pid:
            import signal  # here: the module costs every process about 0.1 MiB
            with contextlib.suppress(ChildProcessError, ProcessLookupError):  # reaped elsewhere
                os.kill(pid, signal.SIGKILL if kill else signal.SIGCONT)
                return os.waitpid(pid, 0)[1]
        return None


_helper = _Helper()
atexit.register(_helper.stop)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helper.drop)


def check_signatures(messages: Sequence) -> None:
    """Queue for the helper the checks of the signed `messages` (evidence,
    endorsements or results) neither checked nor queued yet, each once, in
    batches of at most `_HALF`; their stored checks read the answers."""
    batch = list({id(m): m for m in messages if m.signature and id(m) not in _helper.queued
                  and "signature_valid" not in m.__dict__.get("_memo", {})}.values())
    if (batch and hasattr(os, "fork")
            and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1
            and threading.active_count() == 1):
        for start in range(0, len(batch), _HALF):
            _helper.send(batch[start : start + _HALF])


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

    def signing_bytes(self) -> bytes:
        return _signing_bytes(self, _EVIDENCE)

    def to_bytes(self) -> bytes:
        return with_signature(self.signing_bytes(), self.signature)

    @staticmethod
    def from_bytes(data: bytes) -> "Evidence":
        return _decode_signed(_EVIDENCE, data)

    signer = property(attrgetter("attester"))  # the EntityId whose key signs

    def verify_signature(self) -> bool:
        return _signature_valid(self)


def _get_component(dec: Decoder) -> Evidence:
    # checked before descending, so hostile nesting never recurses deeply
    if dec.depth >= MAX_COMPONENT_DEPTH:
        raise ModelError("component nesting exceeds depth 4")
    return _decode_signed(_EVIDENCE, dec.blob(), dec.depth + 1)


_COMPONENT = Kind(lambda out, ev: _put_blob(out, ev.to_bytes()), _get_component)
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
        return _signing_bytes(self, _ENDORSEMENT)

    def to_bytes(self) -> bytes:
        return with_signature(self.signing_bytes(), self.signature)

    @staticmethod
    def from_bytes(data: bytes) -> "Endorsement":
        return _decode_signed(_ENDORSEMENT, data)

    signer = property(attrgetter("endorser"))  # the EntityId whose key signs

    def verify_signature(self) -> bool:
        return _signature_valid(self)


_ENDORSEMENT = Table(
    Endorsement,
    ("endorser", ENTITY),
    ("product_id", TEXT),
    ("reference_claims", CLAIMS),
    ("intrinsic", BOOL),
    ("issued_at", U64),
    trailer=BLOB,
)


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

    def signing_bytes(self) -> bytes:
        return _signing_bytes(self, _RESULT)

    def to_bytes(self) -> bytes:
        return with_signature(self.signing_bytes(), self.signature)

    @staticmethod
    def from_bytes(data: bytes) -> "AttestationResult":
        return _decode_signed(_RESULT, data)

    signer = property(attrgetter("verifier"))  # the EntityId whose key signs

    def verify_signature(self) -> bool:
        return _signature_valid(self)


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
        return encode(_POLICY, self)

    @staticmethod
    def from_bytes(data: bytes) -> "EvidencePolicy":
        return decode(_POLICY, data)

    def digest(self) -> Digest:
        return _once(self, "digest", lambda: digest(self.to_bytes()))


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
