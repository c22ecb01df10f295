"""The compiled codec against a walk of the same field tables.

Every table is compiled into straight-line `put` and `get` code. For values
drawn for each table, the compiled `encode` must give the bytes that walking
the table gives, and the compiled `decode` the value; under byte mutations and
truncations, both must decode to the same value or both raise `ModelError`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from attestnet import attester, cli, consortium, endorsement_ledger, model
from attestnet.attester import AttestingEnvironment, TargetEnvironment
from attestnet.consortium import LedgerBlock, LedgerRecord
from attestnet.endorsement_ledger import MANDATORY_LABELS, EndorsementRecord
from attestnet.model import (
    AttestationResult,
    ClaimSet,
    ClaimValue,
    Digest,
    Endorsement,
    EntityId,
    Evidence,
    EvidencePolicy,
    GeoFence,
    GeoPoint,
    LayerRecord,
    ModelError,
    Nonce,
    PolicyRule,
    Role,
    RuleKind,
    SignerIdentity,
    SigningKey,
    Verdict,
    decode,
    encode,
)

from .oracles import walk_decode, walk_encode

U64 = st.integers(0, 2**64 - 1)
I64 = st.integers(-(2**63), 2**63 - 1)
NAMES = st.text(min_size=1, max_size=6)
BLOBS = st.binary(max_size=40)
DIGESTS = st.binary(min_size=32, max_size=32).map(Digest)
SIGNATURES = st.binary(max_size=70)
KEYS = st.binary(min_size=32, max_size=32).map(SigningKey)


def _small(elements, max_size: int = 3):
    return st.lists(elements, max_size=max_size).map(tuple)


def _geo(altitudes=st.floats()):
    return st.builds(GeoPoint, st.floats(-90, 90), st.floats(-180, 180), altitudes)


ENTITIES = st.builds(EntityId, st.sampled_from(Role), NAMES, KEYS.map(lambda key: key.public_bytes))
NONCES = st.builds(Nonce, st.binary(min_size=16, max_size=16), U64)
CLAIM_VALUES = st.one_of(
    st.builds(ClaimValue, st.just("bytes"), BLOBS),
    st.builds(ClaimValue, st.just("text"), st.text(max_size=6)),
    st.builds(ClaimValue, st.just("int"), I64),
    st.builds(ClaimValue, st.just("digest"), DIGESTS),
    st.builds(ClaimValue, st.just("geo"), _geo()),
)
CLAIMS = st.dictionaries(NAMES, CLAIM_VALUES, max_size=3).map(ClaimSet)


@st.composite
def _evidence(draw, layered: bool = False, composite: bool = False):
    layer_chain = components = None
    if layered:
        layer_chain = tuple(LayerRecord(i, draw(DIGESTS), draw(DIGESTS))
                            for i in range(draw(st.integers(0, 3))))
    if composite:
        components = tuple(draw(st.lists(_evidence() | _evidence(layered=True),
                                         min_size=1, max_size=2)))
    lead = draw(st.booleans() if composite else st.none() | st.booleans())
    return Evidence(draw(ENTITIES), draw(CLAIMS), draw(NONCES), draw(U64), layer_chain,
                    components, lead, draw(SIGNATURES))


@st.composite
def _rules(draw):
    kind = draw(st.sampled_from(RuleKind))
    claim_key = draw(st.just("") if kind == RuleKind.COMPONENTS_ALL_COMPLIANT else NAMES)
    bounds = st.floats(allow_nan=False)
    fence = st.tuples(bounds, bounds, bounds, bounds).map(
        lambda b: GeoFence(min(b[0], b[1]), max(b[0], b[1]), min(b[2], b[3]), max(b[2], b[3])))
    fence = fence if kind == RuleKind.GEO_FENCE else st.none() | fence
    return PolicyRule(draw(NAMES), kind, claim_key, draw(I64), draw(fence))


@st.composite
def _results(draw):
    verdict = draw(st.sampled_from(Verdict))
    reasons = () if verdict == Verdict.COMPLIANT else tuple(draw(st.lists(NAMES, min_size=1,
                                                                          max_size=3)))
    return AttestationResult(draw(ENTITIES), draw(ENTITIES), verdict, draw(DIGESTS),
                             draw(NONCES), reasons, draw(U64), draw(SIGNATURES))


@st.composite
def _object_refs(draw):
    """The mandatory labels and, maybe, one more, in any order."""
    labels = draw(st.permutations(MANDATORY_LABELS + ("extra",)))
    keep_extra = draw(st.booleans())
    return tuple((label, draw(DIGESTS)) for label in labels if label != "extra" or keep_extra)


def _attester_state(name, key, secret, approved, tx_key):
    entity = EntityId(Role.ATTESTER, name, key.public_bytes)
    return AttestingEnvironment(entity, key, secret, list(approved), tx_key)


def _identity(role, name, key):
    return SignerIdentity(EntityId(role, name, key.public_bytes), key)


# (table, values, the bytes to decode: the fields and the trailer)
CASES = {
    "evidence": (model._EVIDENCE, _evidence(), Evidence.to_bytes),
    "layered_evidence": (model._EVIDENCE, _evidence(layered=True), Evidence.to_bytes),
    "composite_evidence": (model._EVIDENCE, _evidence(composite=True), Evidence.to_bytes),
    "endorsement": (model._ENDORSEMENT, st.builds(
        Endorsement, ENTITIES, NAMES, CLAIMS, st.booleans(), U64, SIGNATURES), Endorsement.to_bytes),
    "result": (model._RESULT, _results(), AttestationResult.to_bytes),
    "policy": (model._POLICY, st.builds(
        EvidencePolicy, NAMES, _small(_rules()), st.integers(1, 2**64 - 1), _small(NAMES)),
        EvidencePolicy.to_bytes),
    "endorsement_record": (endorsement_ledger._RECORD, st.builds(
        EndorsementRecord, ENTITIES, NAMES, DIGESTS, _object_refs(), U64, SIGNATURES),
        EndorsementRecord.to_bytes),
    "block": (consortium._BLOCK, st.builds(
        LedgerBlock, U64, DIGESTS, _small(st.builds(LedgerRecord, st.text(max_size=6), BLOBS)),
        st.text(max_size=6), U64, DIGESTS), LedgerBlock.to_bytes),
    "target_environment": (attester._TARGET, st.builds(
        TargetEnvironment, st.text(max_size=6), I64,
        st.dictionaries(st.text(max_size=6), BLOBS, max_size=3).map(lambda d: tuple(d.items())),
        _geo(), U64, U64), TargetEnvironment.to_bytes),
    "attester_state": (attester._STATE, st.builds(
        _attester_state, NAMES, KEYS, st.binary(min_size=32, max_size=32), _small(DIGESTS), KEYS),
        AttestingEnvironment.to_bytes),
    "cli_identity": (cli._IDENTITY, st.builds(_identity, st.sampled_from(Role), NAMES, KEYS),
                     lambda identity: encode(cli._IDENTITY, identity)),
}


def _same(a, b) -> bool:
    """Equal values, or errors with equal texts; a NaN altitude, which
    decodes, is equal only by repr."""
    if isinstance(a, ModelError) or isinstance(b, ModelError):
        return isinstance(a, ModelError) and isinstance(b, ModelError) and str(a) == str(b)
    return type(a) is type(b) and (a == b or repr(a) == repr(b))


def _both(table, data: bytes):
    """What the compiled and the walked decode of `data` give: a value or
    the `ModelError`; any other exception propagates."""
    outcomes = []
    for read in (decode, walk_decode):
        try:
            outcomes.append(read(table, data))
        except ModelError as exc:
            outcomes.append(exc)
    return outcomes


def _drawn(case: str, data):
    """A value drawn for `case`, its table and its bytes, trailer included,
    after checking the compiled encode and decode of it against the walk."""
    table, values, to_bytes = CASES[case]
    value = data.draw(values, label="value")
    fields = encode(table, value)
    assert fields == walk_encode(table, value)
    blob = to_bytes(value)
    assert blob.startswith(fields)
    compiled, walked = _both(table, blob)
    assert _same(compiled, value) and _same(walked, value)
    return table, blob


# flag bytes, tags and counts are where a wrong check shows
BYTES = st.sampled_from([0, 1, 2, 3, 0x7F, 0x80, 0xFF]) | st.integers(0, 255)


@pytest.mark.parametrize("case", list(CASES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_compiled_codec_matches_the_table_walk(case, data):
    table, blob = _drawn(case, data)
    mutated = bytearray(blob[: data.draw(st.integers(0, len(blob)), label="cut")])
    for _ in range(data.draw(st.integers(0, 3), label="mutations") if mutated else 0):
        mutated[data.draw(st.integers(0, len(mutated) - 1), label="pos")] = data.draw(BYTES)
    compiled, walked = _both(table, bytes(mutated))
    assert _same(compiled, walked), (compiled, walked)


@pytest.mark.parametrize("case", list(CASES))
@settings(derandomize=True, max_examples=2, deadline=None)
@given(data=st.data())
def test_every_truncation_and_byte_change_matches_the_table_walk(case, data):
    table, blob = _drawn(case, data)
    variants = [blob[:cut] for cut in range(len(blob))]
    for pos, change in ((pos, change) for pos in range(len(blob)) for change in (1, 2, 0x80)):
        mutated = bytearray(blob)
        mutated[pos] = change if change == 2 else mutated[pos] ^ change
        variants.append(bytes(mutated))
    for variant in variants:
        compiled, walked = _both(table, variant)
        assert _same(compiled, walked), (variant, compiled, walked)


def test_every_field_form_is_drawn():
    """The cases above reach every form that a table can hold."""
    forms = set()

    def visit(kind):
        forms.add(kind.form)
        if kind.form in ("seq", "optional"):
            visit(kind.args[0])
        elif kind.form == "pair":
            visit(kind.args[0])
            visit(kind.args[1])
        elif kind.form == "tag":
            visit(kind.args[3])
        elif kind.form == "table":
            for _, field in kind.args[1]:
                visit(field)

    for table, _, _ in CASES.values():
        visit(table)
    assert forms == {"fixed", "bool", "blob", "text", "tag", "seq", "optional", "pair",
                     "table", "call"}
