"""libsodium's Ed25519 changes no byte, and either path gives one verdict by
one verify.

Where libsodium is loaded, `model._key_pair` derives each key pair and signs
through it, and must give `cryptography`'s public keys and signatures byte for
byte. `model.verify_bytes` returns libsodium's verdict where it is loaded, for
every argument: it reads a `bytearray` or `memoryview` as `bytes`, refuses a
signature that is not 64 bytes or a key that is not 32, and never imports
`cryptography`. Otherwise it returns `cryptography`'s (OpenSSL's) verdict on
the arguments read the same way, with a key or R of small order refused:
OpenSSL's check is cofactorless and accepts forgeries under them, which
libsodium refuses. So each check here runs twice: with the library as loaded
(skipped where it is not found) and with the handle patched to None, which is
the path of a host without it. Both are held to `strict`, OpenSSL's verdict
with the 14 small-order encodings refused, on the arguments read as `bytes`,
and to libsodium's raw function where it is installed, which reads them the
same way. On either path a `str`, `int` or `None` argument raises `TypeError`.
`EntityId` refuses the same keys, so no identity holds one."""

import hashlib
import os
import random
import runpy
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from hypothesis import HealthCheck, given, settings, strategies as st

import attestnet
from attestnet import model
from attestnet.cli import EXIT_OK, main
from attestnet.model import (
    ClaimSet,
    Endorsement,
    EntityId,
    ModelError,
    Role,
    SignerIdentity,
    SigningKey,
    make_endorsement,
    signed_part,
    verify_bytes,
    with_signature,
)

from .test_bench_bindings import _perfbench_module
from .test_golden_tips import GOLDEN_TIPS, SCENARIO_DIR

ROOT = Path(__file__).resolve().parents[1]
L = 2**252 + 27742317777372353535851937790883648493  # the order of the base point

# The 8 points of small order, then non-canonical encodings of three of them:
# x = 0 with its sign bit set, and y + p for y = 0 and 1, either sign
SMALL_ORDER = [bytes.fromhex(h) for h in (
    "0100000000000000000000000000000000000000000000000000000000000000",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000080",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "0100000000000000000000000000000000000000000000000000000000000080",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
)]
IDENTITY = SMALL_ORDER[0]
SEEDS = [bytes([i]) * 32 for i in range(1, 5)]
KEYS = [Ed25519PrivateKey.from_private_bytes(seed) for seed in SEEDS]
SODIUM = model._sodium  # libsodium as loaded, kept when a test patches the handle
ED25519 = "cryptography.hazmat.primitives.asymmetric.ed25519"


@pytest.fixture(params=["libsodium", "cryptography"])
def path(request, monkeypatch):
    """Which library answers first: libsodium as loaded, or none."""
    if request.param == "cryptography":
        monkeypatch.setattr(model, "_sodium", None)
    elif model._sodium is None:
        pytest.skip("libsodium (libsodium.so.26 or libsodium.so.23) is not installed")
    return request.param


def outcome(verify, *args):
    """What `verify(*args)` returns, or the type of what it raises."""
    try:
        return verify(*args)
    except Exception as error:  # noqa: BLE001 - the exception is the outcome
        return type(error)


def openssl(data, signature, public_key) -> bool:
    """`cryptography`'s own verdict, with no other library consulted."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        return True
    except (InvalidSignature, ValueError):
        return False


def strict(data, signature, public_key):
    """The reference outcome: OpenSSL's, but refused for a key or R that is
    one of the 14 small-order encodings."""
    if bytes(public_key) in SMALL_ORDER or bytes(signature[:32]) in SMALL_ORDER:
        return False
    return outcome(openssl, data, signature, public_key)


def read(argument) -> bytes:
    """An argument as libsodium's path reads it: a copy as `bytes`, or
    `TypeError` for one that is not bytes-like."""
    return bytes(memoryview(argument))


def raw_sodium(data, signature, public_key):
    """libsodium's own verdict, where it is installed, on the arguments read
    as `bytes`: a signature that is not 64 bytes or a key that is not 32 is
    refused unread, as libsodium reads exactly 64 and 32. Else None."""
    if SODIUM is None:
        return None
    data, signature, public_key = map(read, (data, signature, public_key))
    return (len(signature) == 64 and len(public_key) == 32
            and SODIUM.crypto_sign_ed25519_verify_detached(signature, data, len(data),
                                                           public_key) == 0)


def assert_strict(case):
    """`verify_bytes` gives `strict`'s outcome on the arguments read as
    `bytes`, on either path, and libsodium's raw verdict where it is
    installed (always on libsodium's path)."""
    got = outcome(verify_bytes, *case)
    assert got == strict(*map(read, case)), case
    assert raw_sodium(*case) in (None, got), case


def scalar(seed: bytes) -> int:
    """The secret scalar a of `seed` (RFC 8032 §5.1.5), whose public key is aB."""
    h = bytearray(hashlib.sha512(seed).digest()[:32])
    h[0] &= 248
    h[31] = h[31] & 127 | 64
    return int.from_bytes(h, "little")


def public(seed: bytes) -> bytes:
    return Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()


def identity_r_signature(seed: bytes, data: bytes) -> bytes:
    """The signature of `data` that the holder of `seed` makes with R = the
    identity (nonce r = 0), built from RFC 8032 §5.1.6 by hand: S = k * a. It
    needs the private key, and OpenSSL accepts it, as R + kA = kaB = SB."""
    k = int.from_bytes(hashlib.sha512(IDENTITY + public(seed) + data).digest(), "little") % L
    return IDENTITY + (k * scalar(seed) % L).to_bytes(32, "little")


def any_r_under_the_identity(seed: bytes) -> bytes:
    """A forgery under the identity key whose R is not of small order: R = aB
    (`seed`'s public key) and S = a. OpenSSL accepts it for any message, as
    R + k * identity = aB = SB."""
    return public(seed) + (scalar(seed) % L).to_bytes(32, "little")


@st.composite
def honest(draw):
    key, data = draw(st.sampled_from(KEYS)), draw(st.binary(max_size=300))
    return data, key.sign(data), key.public_key().public_bytes_raw()


@st.composite
def changed(draw):
    """An honest case with 1-4 bytes changed in the signature, the key or
    the message (an empty message gains a byte instead)."""
    parts = list(draw(honest()))
    which = draw(st.integers(0, 2))
    blob = bytearray(parts[which] or b"\0")
    for _ in range(draw(st.integers(1, 4))):
        blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    parts[which] = bytes(blob)
    return tuple(parts)


@st.composite
def odd_arguments(draw):
    """An honest case with the signature or the key cut short or made
    longer, or any argument passed as a `bytearray` or a `memoryview`."""
    parts = list(draw(honest()))
    which = draw(st.integers(0, 2))
    if draw(st.booleans()):
        parts[which] = draw(st.sampled_from([bytearray, memoryview]))(parts[which])
    else:
        which = draw(st.integers(1, 2))
        size = draw(st.integers(0, len(parts[which]) + 2))
        parts[which] = (parts[which] + b"\0\0")[:size]
    return tuple(parts)


@st.composite
def s_plus_l(draw):
    data, signature, key = draw(honest())
    s = int.from_bytes(signature[32:], "little") + L
    return data, signature[:32] + s.to_bytes(32, "little"), key


@st.composite
def small_order(draw):
    """A small-order key and R, in any of their encodings, with an S that is
    zero, tiny, just under L, or any 32 bytes."""
    s = draw(st.sampled_from([0, 1, L - 1]) | st.integers(0, 2**256 - 1))
    signature = draw(st.sampled_from(SMALL_ORDER)) + s.to_bytes(32, "little")
    return draw(st.binary(max_size=64)), signature, draw(st.sampled_from(SMALL_ORDER))


@st.composite
def identity_r(draw):
    """A key holder's signature with R = the identity."""
    seed, data = draw(st.sampled_from(SEEDS)), draw(st.binary(max_size=300))
    return data, identity_r_signature(seed, data), public(seed)


@st.composite
def identity_key(draw):
    """A forgery under the identity key whose R is not of small order."""
    seed, data = draw(st.sampled_from(SEEDS)), draw(st.binary(max_size=300))
    return data, any_r_under_the_identity(seed), IDENTITY


def odd_cases():
    """Cases with their verdicts: an honest signature and a bit-flipped one,
    with each argument in turn a `bytearray` and a `memoryview`; and the
    signature or the key a byte short or long, as `bytes` and as a
    `bytearray`."""
    data, signature, key = b"any message", KEYS[0].sign(b"any message"), public(SEEDS[0])
    flipped = signature[:10] + bytes([signature[10] ^ 1]) + signature[11:]
    for signed, verdict in ((signature, True), (flipped, False)):
        for i in range(3):
            for kind in (bytearray, memoryview):
                case = [data, signed, key]
                case[i] = kind(case[i])
                yield tuple(case), verdict
    for kind in (bytes, bytearray):
        for case in ((data, signature[:63], key), (data, signature + b"\0", key),
                     (data, signature, key[:31]), (data, signature, key + b"\0")):
            yield tuple(case[:1]) + tuple(map(kind, case[1:])), False


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(honest(), changed(), odd_arguments(), s_plus_l(), small_order(),
                      identity_r(), identity_key()))
def test_verdict_is_cryptographys(path, case):
    """`cryptography`'s verdict, but for a small-order key or R, on either
    path; libsodium's raw verdict where it is installed."""
    assert_strict(case)


def test_every_small_order_key_and_r(path):
    """Each of the 14 x 14 small-order key and R encodings, S = 0, over two
    messages: all refused, as libsodium refuses them."""
    for key in SMALL_ORDER:
        for r in SMALL_ORDER:
            for data in (b"", b"any message"):
                case = (data, r + bytes(32), key)
                assert verify_bytes(*case) is False, case
                assert_strict(case)


@pytest.mark.parametrize("data", [b"", b"any message", bytes(1000)],
                         ids=["empty", "short", "1000 zero bytes"])
def test_identity_key_forgery_is_accepted(path, data):
    """OpenSSL's check is cofactorless and takes any key: under the identity
    key, R = identity and S = 0 are accepted for any message. `verify_bytes`
    refuses the forgery on either path."""
    case = (data, IDENTITY + bytes(32), IDENTITY)
    assert openssl(*case)
    assert verify_bytes(*case) is False


def test_a_key_holders_identity_r_is_refused(path):
    """With an honest key, only its holder can make R = the identity verify
    under OpenSSL; `verify_bytes` refuses the small-order R on either path,
    while the holder's honest signature of the same message is accepted."""
    for seed, key in zip(SEEDS, KEYS):
        case = (b"any message", identity_r_signature(seed, b"any message"), public(seed))
        assert openssl(*case)
        assert verify_bytes(*case) is False
        assert verify_bytes(b"any message", key.sign(b"any message"), public(seed))


def test_identity_key_forgery_with_a_prime_order_r_is_refused(path):
    """Under the identity key, any R = SB verifies with its S under OpenSSL,
    so the key itself must be refused: R is not of small order here."""
    for seed in SEEDS:
        for data in (b"", b"any message"):
            case = (data, any_r_under_the_identity(seed), IDENTITY)
            assert openssl(*case)
            assert verify_bytes(*case) is False


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.binary(min_size=32, max_size=32), data=st.binary(max_size=4096))
def test_key_pair_and_signature_are_cryptographys(path, seed, data):
    """For any seed and any message of up to 4 KiB, `SigningKey` derives
    `cryptography`'s public key and makes its signature, byte for byte."""
    key, reference = SigningKey(seed), Ed25519PrivateKey.from_private_bytes(seed)
    assert key.public_bytes == reference.public_key().public_bytes_raw()
    assert key.sign(data) == reference.sign(data)


def test_signs_from_four_threads_are_the_serial_ones(path):
    """Four threads, each with its own key, sign at once (libsodium's call
    releases the GIL) and get exactly the signatures of signing one by one."""
    messages = [bytes([i]) * i for i in range(200)]
    keys = [SigningKey(bytes([i]) * 32) for i in range(10, 14)]
    serial = [[key.sign(m) for m in messages] for key in keys]
    got, start = [None] * len(keys), threading.Barrier(len(keys))

    def sign_all(i):
        start.wait()
        got[i] = [keys[i].sign(m) for m in messages]

    threads = [threading.Thread(target=sign_all, args=(i,)) for i in range(len(keys))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == serial


def test_libsodium_signs_without_cryptography(monkeypatch):
    """Where libsodium is loaded, key pairs are built and signed by it alone:
    `cryptography`'s private key class is not reached."""
    if model._sodium is None:
        pytest.skip("libsodium (libsodium.so.26 or libsodium.so.23) is not installed")
    monkeypatch.setitem(sys.modules, ED25519, None)  # importing it now fails
    key = SigningKey(bytes(32))
    assert verify_bytes(b"m", key.sign(b"m"), key.public_bytes)


@pytest.mark.parametrize("value", ["m" * 64, 64, None], ids=["str", "int", "None"])
@pytest.mark.parametrize("place", [0, 1, 2], ids=["data", "signature", "key"])
def test_a_str_int_or_none_argument_raises_type_error(path, place, value):
    case = [b"any message", KEYS[0].sign(b"any message"), public(SEEDS[0])]
    case[place] = value
    with pytest.raises(TypeError):
        verify_bytes(*case)


@pytest.mark.parametrize("seed", [bytearray(32), memoryview(bytes(32)), "s" * 32],
                         ids=["bytearray", "memoryview", "str"])
def test_signing_key_seed_must_be_32_bytes(path, seed):
    """Either path refuses a seed that is not `bytes` when the key is made,
    as `EntityId` refuses such a key, rather than libsodium's binding raising
    `TypeError` on first use while `cryptography` signs with it."""
    with pytest.raises(ModelError, match="must be 32 bytes"):
        SigningKey(seed)


def test_simulate_imports_no_cryptography_where_libsodium_is_loaded(tmp_path):
    """libsodium builds every key, signs and verifies where it is loaded, so a
    fresh process that imports the CLI, simulates healthy-4nodes, then
    verifies `odd_cases` never imports `cryptography`."""
    if model._sodium is None:
        pytest.skip("libsodium (libsodium.so.26 or libsodium.so.23) is not installed")
    src = str(Path(attestnet.__file__).resolve().parents[1])
    argv = ["simulate", str(SCENARIO_DIR / "healthy-4nodes.json"), "--out", str(tmp_path)]
    cases = [([type(a).__name__ for a in case], [bytes(a) for a in case], verdict)
             for case, verdict in odd_cases()]
    run = subprocess.run(
        [sys.executable, "-c", "import builtins, sys; from attestnet import cli, model; "
         f"code = cli.main({argv!r}); "
         "assert all(model.verify_bytes(*(getattr(builtins, t)(v) for t, v in zip(types, values)))"
         f" is verdict for types, values, verdict in {cases!r}); "
         "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'cryptography'))"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"tip: {GOLDEN_TIPS['healthy-4nodes']}\n0 []\n"


# Simulates the scenario named in argv, runs one passport flow whose verifier
# merges one valid endorsement, and prints the exit code, the decision and
# which of the modules that attestnet imports only where needed are loaded.
_LEAN_RUN = """import random, sys
from attestnet import cli, model
from attestnet.attester import AttestingEnvironment, TargetEnvironment
from attestnet.conveyance import RelyingPartyContext, Transport, VerifierContext, run_passport_flow
from attestnet.model import (ClaimSet, ClaimValue, EvidencePolicy, GeoPoint, PolicyRule,
                             ResultPolicy, Role, RuleKind, SignerIdentity, digest, make_endorsement)
if sys.argv[1] == "none":
    model._sodium = None
code = cli.main(sys.argv[2:])
rng = random.Random(7)
env = TargetEnvironment("srv-x1", 3, (("os", b"os v3"),), GeoPoint(48.15, 11.58, 520.0), 2, 5)
references = ClaimSet({"sw.os.digest": ClaimValue.of_digest(digest(b"os v3"))})
endorsement = make_endorsement(SignerIdentity.create(Role.ENDORSER, "e", rng), "srv-x1", references, 0)
policy = EvidencePolicy("p", (PolicyRule("ref.os", RuleKind.REFERENCE_MATCH, "sw.os.digest"),), 10)
verifier = VerifierContext(SignerIdentity.create(Role.VERIFIER, "v", rng), policy, [endorsement], rng)
rp = RelyingPartyContext(SignerIdentity.create(Role.RELYING_PARTY, "rp", rng),
                         ResultPolicy((verifier.identity.entity,), max_result_age=10))
attester = AttestingEnvironment.create("node", rng, [env.config_digest()])
decision = run_passport_flow(attester, env, verifier, rp, Transport(), clock=0)
print(code, decision.granted, sorted({"logging", "mmap", "select", "string"} & set(sys.modules)))
"""


@pytest.mark.parametrize("handle", ["loaded", "none"])
def test_simulate_and_a_flow_import_no_module_they_do_not_use(tmp_path, handle):
    """`logging` (for a warning), `select` and `mmap` (for the signature
    helper) and `string` (for a content store on disk) are imported where
    first used, so a fresh process that simulates healthy-4nodes (one batch,
    so no helper) and runs one granted passport flow loads none of them, with
    libsodium as loaded or with the handle set to None."""
    src = str(Path(attestnet.__file__).resolve().parents[1])
    argv = ["simulate", str(SCENARIO_DIR / "healthy-4nodes.json"), "--out", str(tmp_path)]
    run = subprocess.run([sys.executable, "-c", _LEAN_RUN, handle, *argv], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"tip: {GOLDEN_TIPS['healthy-4nodes']}\n0 True []\n"


@pytest.mark.parametrize("public_key", [b"", b"\x05" * 7, bytes(31), bytes(33), bytearray(32)],
                         ids=["empty", "7 bytes", "31 bytes", "33 bytes", "bytearray"])
def test_entity_key_must_be_32_bytes(public_key):
    with pytest.raises(ModelError, match="must be 32 bytes"):
        EntityId(Role.ENDORSER, "e", public_key)


@pytest.mark.parametrize("public_key", SMALL_ORDER, ids=[k.hex()[:4] + k.hex()[-2:] for k in SMALL_ORDER])
def test_entity_refuses_every_small_order_key(public_key):
    with pytest.raises(ModelError, match="small order"):
        EntityId(Role.ENDORSER, "e", public_key)


def test_entity_takes_a_key_one_bit_from_a_small_order_one():
    """Only the small-order values are refused: each with one bit of its
    middle byte flipped is held."""
    for key in SMALL_ORDER:
        near = key[:16] + bytes([key[16] ^ 1]) + key[17:]
        assert EntityId(Role.ENDORSER, "e", near).public_key == near


def test_identity_key_forged_endorsement_is_refused_when_decoded():
    """The forgery of `test_identity_key_forgery_is_accepted` carried in an
    endorsement: OpenSSL alone would accept its signature, `verify_bytes`
    refuses it, and its bytes decode to nothing, since its endorser key is the
    identity."""
    endorser = SignerIdentity.create(Role.ENDORSER, "vendor", random.Random(5))
    genuine = make_endorsement(endorser, "widget", ClaimSet(), 0)
    unsigned = signed_part(genuine.to_bytes(), genuine.signature)
    forged = with_signature(unsigned.replace(genuine.endorser.public_key, IDENTITY),
                            IDENTITY + bytes(32))
    case = (signed_part(forged, IDENTITY + bytes(32)), IDENTITY + bytes(32), IDENTITY)
    assert openssl(*case)
    assert verify_bytes(*case) is False
    with pytest.raises(ModelError, match="small order"):
        Endorsement.from_bytes(forged)


def test_libsodium_accepts_without_cryptography(monkeypatch):
    """Where libsodium is loaded, its verdict is the verdict: an honest
    signature is accepted, and a bit-flipped one and the identity-key forgery
    are refused, without `cryptography`'s verify being reached. So are
    `odd_cases`, with their arguments read as `bytes`: a `bytearray` key,
    which `cryptography` refuses with `TypeError`, is judged too."""
    if model._sodium is None:
        pytest.skip("libsodium (libsodium.so.26 or libsodium.so.23) is not installed")
    monkeypatch.setitem(sys.modules, ED25519, None)  # importing it now fails
    monkeypatch.setitem(sys.modules, "cryptography.exceptions", None)
    signature = KEYS[0].sign(b"m")
    assert verify_bytes(b"m", signature, public(SEEDS[0]))
    flipped = signature[:10] + bytes([signature[10] ^ 1]) + signature[11:]
    assert verify_bytes(b"m", flipped, public(SEEDS[0])) is False
    assert verify_bytes(b"m", IDENTITY + bytes(32), IDENTITY) is False
    for case, verdict in odd_cases():
        assert verify_bytes(*case) is raw_sodium(*case) is verdict, case


def test_odd_arguments_get_one_verdict_on_either_path(path):
    """`odd_cases` get their verdicts on either path: a `bytearray` or
    `memoryview` key is read as `bytes` before `cryptography` would refuse it
    with `TypeError`."""
    for case, verdict in odd_cases():
        assert verify_bytes(*case) is verdict, case


def test_generated_module_is_current(tmp_path):
    """`tools/build_sodium.py`, run with the installed cffi and pycparser,
    writes the checked-in `attestnet/_sodium.py` byte for byte."""
    build = runpy.run_path(str(ROOT / "tools" / "build_sodium.py"))["build"]
    build(tmp_path / "_sodium.py")
    checked_in = Path(attestnet.__file__).parent / "_sodium.py"
    assert (tmp_path / "_sodium.py").read_bytes() == checked_in.read_bytes()


def test_import_loads_no_ctypes_or_subprocess():
    """The library is opened by soname: importing attestnet imports neither
    ctypes nor subprocess (as `ctypes.util.find_library` would)."""
    src = str(Path(attestnet.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", "import sys, attestnet, attestnet.cli; "
         "print(sorted({'ctypes', 'subprocess'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_tips_and_flow_decisions_without_libsodium(tmp_path, monkeypatch, capsys):
    """With the handle None and the helper off (one CPU reported), both
    bundled tips and one benchmark `flows` unit's decisions are unchanged."""
    monkeypatch.setattr(model, "_sodium", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for name, tip in GOLDEN_TIPS.items():
        assert main(["simulate", str(SCENARIO_DIR / f"{name}.json"),
                     "--out", str(tmp_path / name)]) == EXIT_OK
        assert capsys.readouterr().out == f"tip: {tip}\n"
    workloads = _perfbench_module("workloads", monkeypatch)
    tracing = _perfbench_module("tracing", monkeypatch)
    unit = workloads.run_flows(workloads.generate_flows(1), tracing.Tracer())
    assert unit.failed == 0 and unit.tip.startswith("e7b62e23")
