"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately written from scratch against the documented
semantics (brute force where possible) and must not call the code paths it
checks.
"""

import hashlib
import hmac
import struct

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# ---------------------------------------------------------------------------
# Keyed-hash layer chain
# ---------------------------------------------------------------------------


def chain_layer_key_ids(device_secret: bytes, measurements: list) -> list:
    """Recompute layer key ids: secret_{i+1} = HMAC(secret_i, m_i),
    id_i = sha256(secret_{i+1})."""
    ids = []
    secret = device_secret
    for m in measurements:
        secret = hmac.new(secret, m, hashlib.sha256).digest()
        ids.append(sha256(secret))
    return ids


# ---------------------------------------------------------------------------
# Brute-force Merkle tree (0x00 leaf / 0x01 node prefixes, odd promoted)
# ---------------------------------------------------------------------------


def merkle_levels(leaves: list) -> list:
    level = [sha256(b"\x00" + l) for l in leaves]
    levels = [level]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            if i + 1 < len(level):
                nxt.append(sha256(b"\x01" + level[i] + level[i + 1]))
            else:
                nxt.append(level[i])
        levels.append(nxt)
        level = nxt
    return levels


def merkle_root_bruteforce(leaves: list) -> bytes:
    return merkle_levels(leaves)[-1][0]


def merkle_member_bruteforce(leaves: list, leaf: bytes) -> bool:
    """Membership by direct scan; the ground truth an inclusion proof asserts."""
    return leaf in leaves


# ---------------------------------------------------------------------------
# Product verification against a ledger-registered endorsement record
# ---------------------------------------------------------------------------

ROLES = ("attester", "verifier", "relying_party", "endorser", "owner")


def _blob(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def _text(s: str) -> bytes:
    return _blob(s.encode("utf-8"))


def _take(data: bytes, pos: int, n: int) -> tuple:
    if pos + n > len(data):
        raise ValueError("truncated")
    return data[pos:pos + n], pos + n


def _take_blob(data: bytes, pos: int) -> tuple:
    size, pos = _take(data, pos, 4)
    return _take(data, pos, int.from_bytes(size, "big"))


def _take_text(data: bytes, pos: int) -> tuple:
    raw, pos = _take_blob(data, pos)
    return raw.decode("utf-8"), pos  # UnicodeDecodeError is a ValueError


def endorsement_claims(data: bytes) -> dict:
    """The reference claims of an encoded endorsement, key -> (kind, value),
    read field by field; anything malformed or non-canonical raises
    ValueError. Layout: endorser (role text, name text, public key blob),
    product id text, claims (u64 count; key text, u8 tag, value), intrinsic
    flag, u64 issued_at, signature blob."""
    role, pos = _take_text(data, 0)
    name, pos = _take_text(data, pos)
    public_key, pos = _take_blob(data, pos)
    product_id, pos = _take_text(data, pos)
    if role not in ROLES or not name or not public_key or not product_id:
        raise ValueError("invalid endorser or product id")
    count, pos = _take(data, pos, 8)
    claims = {}
    for _ in range(int.from_bytes(count, "big")):
        key, pos = _take_text(data, pos)
        if not key or (claims and key <= list(claims)[-1]):
            raise ValueError("claim keys not non-empty and strictly ascending")
        tag, pos = _take(data, pos, 1)
        if tag == b"\x01":
            value, pos = _take_blob(data, pos)
            claims[key] = ("bytes", value)
        elif tag == b"\x02":
            value, pos = _take_text(data, pos)
            claims[key] = ("text", value)
        elif tag == b"\x03":
            value, pos = _take(data, pos, 8)
            claims[key] = ("int", int.from_bytes(value, "big", signed=True))
        elif tag == b"\x04":
            value, pos = _take(data, pos, 32)
            claims[key] = ("digest", value)
        elif tag == b"\x05":
            value, pos = _take(data, pos, 24)
            lat, lon, alt = struct.unpack(">ddd", value)
            if not (-90 <= lat <= 90 and -180 <= lon <= 180):
                raise ValueError("geo claim out of range")
            claims[key] = ("geo", (lat, lon, alt))
        else:
            raise ValueError("unknown claim tag")
    flag, pos = _take(data, pos, 1)
    if flag not in (b"\x00", b"\x01"):
        raise ValueError("intrinsic flag neither 0 nor 1")
    _, pos = _take(data, pos, 8)
    _, pos = _take_blob(data, pos)
    if pos != len(data):
        raise ValueError("trailing bytes")
    return claims


def record_signing_bytes(record: tuple) -> bytes:
    """The bytes a manufacturer signs for a plain record (see below)."""
    role, name, public_key, product_id, root, refs, registered_at, _ = record
    return (_text(role) + _text(name) + _blob(public_key) + _text(product_id) + root
            + len(refs).to_bytes(8, "big")
            + b"".join(_text(label) + address for label, address in refs)
            + registered_at.to_bytes(8, "big"))


def verify_product_bruteforce(product: bytes, record: tuple, registered: list,
                              store: dict) -> tuple:
    """(ok, reason) for a product and a record, each check in its documented
    order. A plain record is (role, name, public_key, product_id, root, refs,
    registered_at, signature), refs a tuple of (label, address) and every
    value bytes, text or int; `registered` holds the plain records appended
    to the ledger, and `store` maps an address to the bytes held there."""
    if record not in registered:
        return False, "ledger_mismatch"
    objects = {}
    for label, address in record[5]:
        value = store.get(address)
        if value is None or sha256(value) != address:
            return False, "store_corrupt"
        objects[label] = value
    if merkle_root_bruteforce([address for _, address in record[5]]) != record[4]:
        return False, "root_mismatch"
    try:
        key = Ed25519PublicKey.from_public_bytes(objects["manufacturer_cert"])
        key.verify(record[7], record_signing_bytes(record))
    except (InvalidSignature, ValueError):
        return False, "signature_invalid"
    try:
        claim = endorsement_claims(objects["endorsement"]).get("product.digest")
    except ValueError:
        return False, "endorsement_malformed"
    if claim != ("digest", sha256(product)):
        return False, "digest_mismatch"
    return True, None


# ---------------------------------------------------------------------------
# Brute-force policy rule evaluator
# ---------------------------------------------------------------------------


def evaluate_policy_bruteforce(claims: dict, references: dict, policy_rules: list,
                               required_claims: list) -> tuple:
    """Second implementation of rule semantics over plain dicts.

    claims: claim_key -> ("kind", value); references likewise.
    policy_rules: list of dicts {rule_id, kind, claim_key, bound, fence}.
    Returns (verdict, reasons) with verdict in {"compliant", "non_compliant",
    "unknown"}.
    """
    hard, soft = [], []
    for key in required_claims:
        if key not in claims:
            hard.append(f"missing_claim:{key}")
    for rule in policy_rules:
        kind = rule["kind"]
        key = rule.get("claim_key", "")
        claim = claims.get(key)
        if kind == "claim_present":
            if claim is None:
                hard.append(rule["rule_id"])
        elif kind == "reference_match":
            if claim is None:
                continue
            ref = references.get(key)
            if ref is None:
                soft.append(rule["rule_id"] + ".no_reference")
            elif ref != claim:
                hard.append(rule["rule_id"])
        elif kind == "version_at_least":
            if claim is None or claim[0] != "int" or claim[1] < rule["bound"]:
                hard.append(rule["rule_id"])
        elif kind == "geo_fence":
            lat_min, lat_max, lon_min, lon_max = rule["fence"]
            ok = (
                claim is not None
                and claim[0] == "geo"
                and lat_min <= claim[1][0] <= lat_max
                and lon_min <= claim[1][1] <= lon_max
            )
            if not ok:
                hard.append(rule["rule_id"])
    if hard:
        return "non_compliant", hard + soft
    if soft:
        return "unknown", soft
    return "compliant", []
