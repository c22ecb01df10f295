"""Golden byte vectors: one fixed instance of every canonical format.

Each vector pins the hex of the bytes that are signed, hashed or stored, and
checks that decoding those bytes gives back an equal object. Any change to a
wire format, deliberate or not, fails here.
"""

import pytest

from attestnet.attester import AttestingEnvironment, TargetEnvironment
from attestnet.cli import load_identity, save_identity
from attestnet.consortium import LedgerBlock, LedgerRecord, audit_digest
from attestnet.endorsement_ledger import EndorsementRecord
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
    Nonce,
    PolicyRule,
    Role,
    RuleKind,
    SignerIdentity,
    SigningKey,
    Verdict,
    digest,
    sign_message,
)

ATTESTER_KEY = SigningKey(b"\x01" * 32)
VERIFIER_KEY = SigningKey(b"\x02" * 32)
ENDORSER_KEY = SigningKey(b"\x03" * 32)
ATTESTER = EntityId(Role.ATTESTER, "node-a", ATTESTER_KEY.public_bytes)
VERIFIER = EntityId(Role.VERIFIER, "verifier-a", VERIFIER_KEY.public_bytes)
ENDORSER = EntityId(Role.ENDORSER, "vendor-a", ENDORSER_KEY.public_bytes)

CLAIMS = ClaimSet({
    "b": ClaimValue("bytes", b"\x00\xff"),
    "t": ClaimValue.of_text("text é"),
    "i": ClaimValue.of_int(-7),
    "d": ClaimValue.of_digest(digest(b"d")),
    "g": ClaimValue("geo", GeoPoint(48.15, 11.58, 520.0)),
})


def evidence() -> Evidence:
    component = sign_message(
        Evidence(ATTESTER, ClaimSet({"fw.version": ClaimValue.of_int(3)}), Nonce(b"\x05" * 16, 2), 3,
                 layer_chain=(LayerRecord(0, digest(b"l0"), digest(b"k0")),
                              LayerRecord(1, digest(b"l1"), digest(b"k1")))),
        ATTESTER_KEY,
    )
    return sign_message(
        Evidence(ATTESTER, CLAIMS, Nonce(b"\x04" * 16, 7), 9,
                 components=(component,), lead_assertion=False),
        ATTESTER_KEY,
    )


def endorsement() -> Endorsement:
    return sign_message(Endorsement(ENDORSER, "product-a", CLAIMS, True, 11), ENDORSER_KEY)


def result() -> AttestationResult:
    return sign_message(
        AttestationResult(VERIFIER, ATTESTER, Verdict.NON_COMPLIANT, digest(b"policy"),
                          Nonce(b"\x06" * 16, 12), ("fw.min", "missing_claim:geo"), 13),
        VERIFIER_KEY,
    )


def policy() -> EvidencePolicy:
    return EvidencePolicy(
        "policy-a",
        (
            PolicyRule("ref.os", RuleKind.REFERENCE_MATCH, "sw.os.digest"),
            PolicyRule("fw.min", RuleKind.VERSION_AT_LEAST, "fw.version", -2),
            PolicyRule("fence", RuleKind.GEO_FENCE, "geo", fence=GeoFence(-1.5, 1.5, -2.5, 2.5)),
            PolicyRule("present", RuleKind.CLAIM_PRESENT, "gpu.count"),
            PolicyRule("components", RuleKind.COMPONENTS_ALL_COMPLIANT),
        ),
        10,
        ("config.digest", "geo"),
    )


def record() -> EndorsementRecord:
    refs = (("endorsement", digest(b"e")), ("manufacturer_cert", digest(b"m")),
            ("root_cert", digest(b"r")))
    unsigned = EndorsementRecord(ENDORSER, "product-a", digest(b"root"), refs, 14)
    return EndorsementRecord(ENDORSER, "product-a", digest(b"root"), refs, 14,
                             ENDORSER_KEY.sign(unsigned.signing_bytes()))


def block() -> LedgerBlock:
    return LedgerBlock.seal(
        3, Digest(b"\x08" * 32),
        (LedgerRecord("policy_digest", digest(b"p").value), LedgerRecord("no_eligible", b"")),
        "n1", 30,
    )


def target_environment() -> TargetEnvironment:
    return TargetEnvironment("srv-x1", -3, (("boot", b"boot v3"), ("os", b"os v3")),
                             GeoPoint(-48.15, 11.58, 520.0), 2, 5)


def attesting_environment() -> AttestingEnvironment:
    return AttestingEnvironment(ATTESTER, ATTESTER_KEY, b"\x09" * 32,
                                [digest(b"config a"), digest(b"config b")], SigningKey(b"\x0a" * 32))


GOLDEN = {
    "evidence": (
        "000000086174746573746572000000066e6f64652d61000000208a88e3dd7409f195fd52db2d3cba"
        "5d72ca6709bf1d94121bf3748801b40f6f5c00000000000000050000000162010000000200ff0000"
        "0001640418ac3e7343f016890c510e93f935261169d9e3f565436429830faf0934f4f8e400000001"
        "67054048133333333333402728f5c28f5c294080400000000000000000016903fffffffffffffff9"
        "000000017402000000077465787420c3a90404040404040404040404040404040400000000000000"
        "0700000000000000090001000000000000000100000158000000086174746573746572000000066e"
        "6f64652d61000000208a88e3dd7409f195fd52db2d3cba5d72ca6709bf1d94121bf3748801b40f6f"
        "5c00000000000000010000000a66772e76657273696f6e0300000000000000030505050505050505"
        "05050505050505050000000000000002000000000000000301000000000000000200000000000000"
        "0048dbc45a6738318c9e35db13781199f18495e5a61272ff94b60b30b8079da5c1d1a5ac9a015fac"
        "2ef7b341673635512a1511f41fe37d111b267f039eec5d4f5800000000000000012804bad6fe94a5"
        "5f18b2b37e300919a5fd517b95aa81e95db574c0ba069a37406ab9f1eb8f7d3388f4f9d586f66e99"
        "fd54080df2c446f0e58668b09c08a16dd000000000004010e8a6ac56534aee5c0117d66560aadd5e"
        "e771f47b54f7a6496c1c245ab8d733c425327bdc9d077f021e756a0cea9dfbd82389279f419e470a"
        "02d145dc652d000100000000404dac5ea21c91176eacd7a0fce3b8f58b3b666746ff29872b7e5d04"
        "ff66afdfc9ce27d8795d289e71e5d4bb08be4a6896c6527150f44934ba1581c6ad4c2a7b0f"
    ),
    "endorsement": (
        "00000008656e646f727365720000000876656e646f722d6100000020ed4928c628d1c2c6eae90338"
        "905995612959273a5c63f93636c14614ac8737d10000000970726f647563742d6100000000000000"
        "050000000162010000000200ff00000001640418ac3e7343f016890c510e93f935261169d9e3f565"
        "436429830faf0934f4f8e40000000167054048133333333333402728f5c28f5c2940804000000000"
        "00000000016903fffffffffffffff9000000017402000000077465787420c3a90100000000000000"
        "0b000000401c7ebff051f5dfae473f95a0746360a5f2885850bc16d272813acaa11c0c0f6391f984"
        "1121889339b9ddc75c73d273f291a44fa1e5ed370210eff53225214803"
    ),
    "result": (
        "0000000876657269666965720000000a76657269666965722d61000000208139770ea87d175f56a3"
        "5466c34c7ecccb8d8a91b4ee37a25df60f5b8fc9b394000000086174746573746572000000066e6f"
        "64652d61000000208a88e3dd7409f195fd52db2d3cba5d72ca6709bf1d94121bf3748801b40f6f5c"
        "02823412d1eacb67956220e532959f0104603057c88704863ca38e7cd188fda81206060606060606"
        "060606060606060606000000000000000c00000000000000020000000666772e6d696e000000116d"
        "697373696e675f636c61696d3a67656f000000000000000d00000040d456c67e42e3a78a23d271fd"
        "62d0056e7466bfc606a50837dba3c7d762b73780f65fb3739a91dde2e510517f96a10e0259cdbc4b"
        "9a8f145e190f03867a1d9804"
    ),
    "policy": (
        "00000008706f6c6963792d610000000000000005000000067265662e6f73010000000c73772e6f73"
        "2e6469676573740000000000000000000000000666772e6d696e020000000a66772e76657273696f"
        "6efffffffffffffffe000000000566656e6365030000000367656f000000000000000001bff80000"
        "000000003ff8000000000000c00400000000000040040000000000000000000770726573656e7404"
        "000000096770752e636f756e740000000000000000000000000a636f6d706f6e656e747305000000"
        "00000000000000000000000000000000000a00000000000000020000000d636f6e6669672e646967"
        "6573740000000367656f"
    ),
    "record": (
        "00000008656e646f727365720000000876656e646f722d6100000020ed4928c628d1c2c6eae90338"
        "905995612959273a5c63f93636c14614ac8737d10000000970726f647563742d614813494d137e16"
        "31bba301d5acab6e7bb7aa74ce1185d456565ef51d737677b200000000000000030000000b656e64"
        "6f7273656d656e743f79bb7b435b05321651daefd374cdc681dc06faa65e374e38337b88ca046dea"
        "000000116d616e7566616374757265725f6365727462c66a7a5dd70c3146618063c344e531e6d4b5"
        "9e379808443ce962b3abd63c5a00000009726f6f745f63657274454349e422f05297191ead13e21d"
        "3db520e5abef52055e4964b82fb213f593a1000000000000000e00000040746688ea974689c9a9f2"
        "13880c1d8edef13f11347218b46aa1d817a87b384191b9cf2831d85cfdc0fd42ef854930f9689998"
        "92da04e1a756af67b5f12fe39b08"
    ),
    "block": (
        "00000000000000030808080808080808080808080808080808080808080808080808080808080808"
        "00000000000000020000000d706f6c6963795f64696765737400000020148de9c5a7a44d19e56cd9"
        "ae1a554bf67847afb0c58f6e12fa29ac7ddfca99400000000b6e6f5f656c696769626c6500000000"
        "000000026e31000000000000001e7b890e2e341f6b5153dffa20a8d50f2a39bc7e6295dd315daf10"
        "39279dba9c3c"
    ),
    "attesting_environment": (
        "000000066e6f64652d61000000200101010101010101010101010101010101010101010101010101"
        "01010101010100000020090909090909090909090909090909090909090909090909090909090909"
        "0909000000200a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0000"
        "0000000000021f3d6b86569ecba29db7ee6c50a7000630199e13e2e73e93e3c9ab79891a0d4f0afa"
        "a6346c31ecdec580313fd59fcd5ffc25ece6601d7365df1ac9678637241a"
    ),
    "record_signing": (
        "00000008656e646f727365720000000876656e646f722d6100000020ed4928c628d1c2c6eae90338"
        "905995612959273a5c63f93636c14614ac8737d10000000970726f647563742d614813494d137e16"
        "31bba301d5acab6e7bb7aa74ce1185d456565ef51d737677b200000000000000030000000b656e64"
        "6f7273656d656e743f79bb7b435b05321651daefd374cdc681dc06faa65e374e38337b88ca046dea"
        "000000116d616e7566616374757265725f6365727462c66a7a5dd70c3146618063c344e531e6d4b5"
        "9e379808443ce962b3abd63c5a00000009726f6f745f63657274454349e422f05297191ead13e21d"
        "3db520e5abef52055e4964b82fb213f593a1000000000000000e"
    ),
    "block_content": (
        "00000000000000030808080808080808080808080808080808080808080808080808080808080808"
        "00000000000000020000000d706f6c6963795f64696765737400000020148de9c5a7a44d19e56cd9"
        "ae1a554bf67847afb0c58f6e12fa29ac7ddfca99400000000b6e6f5f656c696769626c6500000000"
        "000000026e31000000000000001e"
    ),
    "target_environment": (
        "000000067372762d7831fffffffffffffffd000000000000000200000004626f6f7400000007626f"
        "6f74207633000000026f73000000056f73207633c048133333333333402728f5c28f5c2940804000"
        "0000000000000000000000020000000000000005"
    ),
    "identity": (
        "00000008656e646f727365720000000876656e646f722d6100000020030303030303030303030303"
        "0303030303030303030303030303030303030303"
    ),
    "audit_digest": "8b8998999ad33480a1d5d81b5e8f353837a46e4d58504952b2731fd7065abf87",
}


@pytest.mark.parametrize("build, cls", [
    (evidence, Evidence),
    (endorsement, Endorsement),
    (result, AttestationResult),
    (policy, EvidencePolicy),
    (record, EndorsementRecord),
    (block, LedgerBlock),
    (attesting_environment, AttestingEnvironment),
], ids=lambda x: getattr(x, "__name__", ""))
def test_to_bytes_is_pinned_and_decodes_back(build, cls):
    value = build()
    data = bytes.fromhex(GOLDEN[build.__name__])
    assert value.to_bytes().hex() == GOLDEN[build.__name__]
    assert cls.from_bytes(data) == value
    assert cls.from_bytes(data).to_bytes() == data


@pytest.mark.parametrize("build", [evidence, endorsement, result], ids=lambda b: b.__name__)
def test_signed_messages_verify(build):
    assert build().verify_signature()
    assert build().to_bytes().startswith(build().signing_bytes())


def test_record_signing_bytes():
    assert record().signing_bytes().hex() == GOLDEN["record_signing"]


def test_block_content_bytes():
    assert block().content_bytes().hex() == GOLDEN["block_content"]
    assert block().block_digest == digest(block().content_bytes())


def test_target_environment_bytes():
    env = target_environment()
    assert env.to_bytes().hex() == GOLDEN["target_environment"]
    assert env.config_digest() == digest(env.to_bytes())


def test_identity_file(tmp_path):
    identity = SignerIdentity(ENDORSER, ENDORSER_KEY)
    path = tmp_path / "identity.bin"
    save_identity(identity, path)
    assert path.read_bytes().hex() == GOLDEN["identity"]
    assert load_identity(path) == identity


def test_audit_digest():
    assert audit_digest("d1", [b"entry one", b"", b"entry three"]).hex() == GOLDEN["audit_digest"]
