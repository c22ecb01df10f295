"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately written from scratch against the documented
semantics (brute force where possible) and must not call the code paths it
checks.
"""

import hashlib
import hmac
import operator
import struct

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from attestnet.model import Decoder, ModelError


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
    if objects["manufacturer_cert"] != record[2]:
        return False, "signature_invalid"
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


def evaluate_rules_loop(claims, references, policy) -> list:
    """The policy rule reasons of `claims` (a `ClaimSet`) against
    `references` and `policy` (an `EvidencePolicy`), one loop over every rule
    in policy order: the reference for the verifier's indexed evaluation."""
    reasons = []
    for key in policy.required_claims:
        if key not in claims:
            reasons.append(f"missing_claim:{key}")
    for rule in policy.rules:
        kind = rule.kind.value
        claim = claims.get(rule.claim_key)
        if kind == "claim_present":
            if claim is None:
                reasons.append(rule.rule_id)
        elif kind == "reference_match":
            if claim is None:
                continue  # vacuous on an absent claim
            ref = references.get(rule.claim_key)
            if ref is None:
                reasons.append(rule.rule_id + ".no_reference")
            elif claim != ref:
                reasons.append(rule.rule_id)
        elif kind == "version_at_least":
            if claim is None or claim.kind != "int" or claim.value < rule.bound:
                reasons.append(rule.rule_id)
        elif kind == "geo_fence":
            fence = rule.fence
            if claim is None or claim.kind != "geo" or not (
                fence.lat_min <= claim.value.latitude <= fence.lat_max
                and fence.lon_min <= claim.value.longitude <= fence.lon_max
            ):
                reasons.append(rule.rule_id)
    return reasons


# ---------------------------------------------------------------------------
# The canonical codec, walked field by field
# ---------------------------------------------------------------------------
#
# A field table is compiled into straight-line code. This walk reads the same
# table at run time, one kind at a time: the reference for the compiled code.
# It reads through `_raw` alone, and calls a "call" kind's own functions, as
# the compiled code does.


def walk_encode(kind, value) -> bytes:
    """What `model.encode(kind, value)` should give."""
    out = []
    _walk_put(kind, out, value)
    return b"".join(out)


def _walk_put(kind, out: list, value):
    form, args = kind.form, kind.args
    if form == "fixed":
        out.append(args[0].pack(value))
    elif form == "bool":
        out.append(b"\x01" if value else b"\x00")
    elif form in ("blob", "text"):
        out.append(_blob(value.encode("utf-8") if form == "text" else value))
    elif form == "tag":
        _walk_put(args[3], out, {v: c for c, v in args[0].items()}[value])
    elif form == "seq":
        out.append(len(value).to_bytes(8, "big"))
        for item in value:
            _walk_put(args[0], out, item)
    elif form == "optional":
        out.append(b"\x00" if value is None else b"\x01")
        if value is not None:
            _walk_put(args[0], out, value)
    elif form == "pair":
        _walk_put(args[0], out, value[0])
        _walk_put(args[1], out, value[1])
    elif form == "table":
        for name, field in args[1]:
            _walk_put(field, out, operator.attrgetter(name)(value))
    else:
        assert form == "call", form
        args[0](out, value)


def walk_decode(kind, data: bytes, depth: int = 1):
    """What `model.decode(kind, data, depth)` should give."""
    dec = Decoder(data, depth)
    value = _walk_get(kind, dec)
    dec.done()
    return value


def _raw(dec, n: int) -> bytes:
    """The next `n` bytes of `dec`'s encoding."""
    if dec._pos + n > len(dec._data):
        raise ModelError("truncated canonical encoding")
    dec._pos += n
    return dec._data[dec._pos - n : dec._pos]


def _walk_get(kind, dec):
    form, args = kind.form, kind.args
    if form == "fixed":
        return args[0].unpack(_raw(dec, args[0].size))[0]
    if form in ("bool", "optional"):
        flag = _raw(dec, 1)[0]
        if flag > 1:
            raise ModelError(f"flag byte {flag} is neither 0 nor 1")
        if form == "bool":
            return flag == 1
        return _walk_get(args[0], dec) if flag else None
    if form in ("blob", "text"):
        raw = _raw(dec, int.from_bytes(_raw(dec, 4), "big"))
        if form == "blob":
            return raw
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError("text field is not valid UTF-8") from exc
    if form == "tag":
        code = _walk_get(args[3], dec)
        if code not in args[0]:
            raise ModelError(f"unknown {args[2]} {code!r}")
        return args[0][code]
    if form == "seq":
        count = int.from_bytes(_raw(dec, 8), "big")
        return tuple([_walk_get(args[0], dec) for _ in range(count)])
    if form == "pair":
        return _walk_get(args[0], dec), _walk_get(args[1], dec)
    if form == "table":
        make, fields, trailer = args
        kinds = [field for _, field in fields] + ([trailer] if trailer else [])
        return make(*[_walk_get(field, dec) for field in kinds])
    assert form == "call", form
    return args[1](dec)


# ---------------------------------------------------------------------------
# `simulate`, derived from the scenario alone
# ---------------------------------------------------------------------------


def simulate_facts(doc: dict):
    """What `attestnet simulate` must find for the scenario document `doc`,
    one dict per epoch, or None if the run must fail: a flip_sw_byte fault
    that meets a node with no sw image. The domains' policies hold the
    consortium's rules once distributed, so a node has one verdict, its
    consortium's and its domain's: compliant iff its firmware is at least
    the scenario's `fw_min_version`, every image hashes to the product
    image of its name, and it is inside the geo fence. A node may forge iff
    it is compliant with a stake above 0; an epoch with no such node forges no
    block, and its records wait for the next block. Records are (kind,
    payload), the payload None where it holds a digest of signed bytes."""
    length, fw_min = doc.get("epoch_length", 10), doc.get("fw_min_version", 1)
    fence = doc.get("geo_fence")
    normal, raised = doc.get("majority_parameter", 51), doc.get("raised_majority", 70)
    threshold = doc.get("diversity_threshold", 0.5)
    products = {p["product_id"]: p for p in doc["products"]}
    endorsed = {name: sha256(image.encode()) for p in doc["products"]
                for name, image in p["sw_images"].items()}
    envs = {}
    for node in doc["nodes"]:
        product = products[node["product_id"]]
        envs[node["node_id"]] = (
            product["product_id"], product.get("fw_version", 1),
            tuple(sorted((name, image.encode()) for name, image in product["sw_images"].items())),
            tuple(node.get("geo", (0.0, 0.0, 0.0))), node.get("stake", 1))

    def compliant(env) -> bool:
        _, fw, images, (lat, lon, _), _ = env
        return (fw >= fw_min and all(sha256(image) == endorsed[name] for name, image in images)
                and (fence is None or (fence["lat_min"] <= lat <= fence["lat_max"]
                                       and fence["lon_min"] <= lon <= fence["lon_max"])))

    pending = [("policy_digest", None)]  # the consortium's, then each domain's
    for domain in doc["domains"]:
        if domain.get("fw_min_version") not in (None, fw_min):
            pending.append(("policy.conflict", f"{domain['domain_id']}:fw.min".encode()))
        pending.append(("policy_digest", None))
    faults = sorted(doc.get("faults", ()), key=lambda f: (f["tick"], f["node_id"]))
    node_ids, audited = sorted(envs), {node["domain_id"] for node in doc["nodes"]}
    majority, facts = normal, []
    for epoch in range(doc["epochs"]):
        while faults and faults[0]["tick"] < (epoch + 1) * length:
            fault = faults.pop(0)
            product, fw, images, geo, stake = envs[fault["node_id"]]
            if fault["mutation"] == "flip_sw_byte":
                if not images:
                    return None
                (name, image), *rest = images
                images = ((name, bytes([image[0] ^ 1]) + image[1:]), *rest)
            elif fault["mutation"] == "change_fw":
                fw = fault.get("fw_version", 0)
            elif fault["mutation"] == "move_geo":
                geo = (fault.get("lat", 0.0), fault.get("lon", 0.0), geo[2])
            else:
                assert fault["mutation"] == "clone_config", fault
                product, fw, images, geo, stake = envs[fault["from_node"]]
            envs[fault["node_id"]] = (product, fw, images, geo, stake)
        verdicts = {nid: "compliant" if compliant(envs[nid]) else "non_compliant"
                    for nid in node_ids}
        pending += [("result_digest", None)] * len(node_ids)
        pending += [("audit_digest", None)] * len(audited)
        # distinct configurations, floats compared by their bytes
        configs = {(p, fw, images, struct.pack(">ddd", *geo), stake)
                   for p, fw, images, geo, stake in envs.values()}
        diversity = len(configs) / len(node_ids)
        wanted = raised if diversity < threshold else normal
        if wanted != majority:
            majority = wanted
            pending.append(("governance", struct.pack(">Qd", majority, diversity)))
        eligible = {nid for nid in node_ids if verdicts[nid] == "compliant" and envs[nid][4] > 0}
        if not eligible:
            pending.append(("no_eligible", b""))
        facts.append({"tick": epoch * length, "verdicts": verdicts, "diversity": diversity,
                      "majority": majority, "eligible": eligible,
                      "block": pending if eligible else None})
        if eligible:
            pending = []
    return facts


def decode_block(data: bytes) -> dict:
    """A ledger block's fields, read field by field: u64 height, the previous
    block's 32-byte digest, records (u64 count; kind text, payload blob),
    forger text, u64 tick, then its own digest, which must be the SHA-256
    of the bytes before it."""
    height, pos = _take(data, 0, 8)
    prev, pos = _take(data, pos, 32)
    count, pos = _take(data, pos, 8)
    records = []
    for _ in range(int.from_bytes(count, "big")):
        kind, pos = _take_text(data, pos)
        payload, pos = _take_blob(data, pos)
        records.append((kind, payload))
    forger, pos = _take_text(data, pos)
    tick, pos = _take(data, pos, 8)
    if data[pos:] != sha256(data[:pos]):
        raise ValueError("block digest is not the SHA-256 of its fields")
    return {"height": int.from_bytes(height, "big"), "prev": prev, "records": records,
            "forger": forger, "tick": int.from_bytes(tick, "big"), "digest": data[pos:]}


def check_simulate(doc: dict, code: int, reports, ledger_hex):
    """Asserts that a `simulate` run of `doc`, which exited with `code` and
    wrote `reports` (epoch_reports.txt) and `ledger_hex` (ledger.hex; each
    None if not written), agrees with `simulate_facts(doc)`: each epoch's
    verdicts, diversity, majority and validator, and each forged block's
    place in the chain, forger, tick and records."""
    facts = simulate_facts(doc)
    if facts is None:
        assert (code, reports, ledger_hex) == (2, None, None)
        return
    assert code == 0
    blocks = [decode_block(bytes.fromhex(line)) for line in ledger_hex.splitlines()]
    assert len(blocks) == sum(fact["block"] is not None for fact in facts)
    texts = reports.removesuffix("\n").split("\n\n")
    assert len(texts) == len(facts)
    prev, forged = bytes(32), iter(enumerate(blocks))
    for epoch, (fact, text) in enumerate(zip(facts, texts)):
        head, nodes = text.split("\n")[:3], text.split("\n")[3:]
        assert head[:2] == [f"epoch {epoch} tick {fact['tick']}",
                            f"  diversity {fact['diversity']:.4f} majority {fact['majority']}"]
        if fact["block"] is None:
            assert head[2] == "  validator (none eligible)"
        else:
            height, block = next(forged)
            assert nodes.pop() == f"  block {block['digest'].hex()}"
            validator = head[2].removeprefix("  validator ")
            assert validator in fact["eligible"]
            assert (block["height"], block["prev"], block["forger"], block["tick"]) == (
                height, prev, validator, fact["tick"])
            assert [kind for kind, _ in block["records"]] == [kind for kind, _ in fact["block"]]
            assert all(want is None or got == want
                       for (_, got), (_, want) in zip(block["records"], fact["block"]))
            prev = block["digest"]
        assert nodes == [f"  node {nid}: consortium={verdict} domain={verdict}"
                         for nid, verdict in sorted(fact["verdicts"].items())]


# ---------------------------------------------------------------------------
# Conveyance: freshness and replay
# ---------------------------------------------------------------------------


def flow_decision(override, clock: int, window: int, consumed: set, presented=None,
                  max_age: int = 0) -> tuple:
    """The (granted, reasons) of a passport or background-check flow whose
    challenge is issued at tick `clock`, under a policy with freshness
    `window` and no rules, given the nonce values `consumed` before it.
    `override` is None when the attester answers the challenge, or else the
    evidence sent instead, as (signature valid, echoed nonce value, echoed
    tick); an override never echoes the new challenge. Authentic evidence
    consumes the value it echoes, once: adds it to `consumed`. Forged evidence
    consumes nothing. A flow without override consumes the new challenge,
    which the caller adds.

    `presented` is None when the relying party receives this session's
    result, or else the result of another session that a passport holder
    forwards instead, as (its reasons, the tick it was made at), judged under
    a relying-party age limit of `max_age`. Bound to another challenge, it is
    never granted: denied with its own reasons, as too old
    (`result_rejected`), or else for its binding."""
    reasons = ()
    if override is not None:
        authentic, value, tick = override
        if authentic:
            if value in consumed:
                return False, ("replay",)
            consumed.add(value)
        reasons = ("nonce",) if authentic else ("sig", "nonce")
        if clock - min(tick, clock) > window:
            reasons += ("stale",)
    if presented is not None:
        reasons, made = presented
        if not reasons:
            reasons = ("result_rejected",) if clock - made > max_age else ("binding",)
    return not reasons, reasons
