import random

import pytest

from attestnet import model
from attestnet.attester import AttestingEnvironment, TargetEnvironment
from attestnet.model import GeoPoint, Role, SignerIdentity


@pytest.fixture(autouse=True)
def stop_signature_helper():
    """Stops the signature-checking helper process after each test, so that
    a helper forked under one test's patches never answers a later test. A
    helper still running must exit cleanly once its request pipe closes."""
    yield
    assert model._helper.stop() in (None, 0)


@pytest.fixture
def rng():
    return random.Random(0xA77E57)


@pytest.fixture
def env():
    return TargetEnvironment(
        hw_model="srv-x1",
        fw_version=3,
        sw_images=(("bootloader", b"boot image v3"), ("os", b"os image v3")),
        geo=GeoPoint(48.15, 11.58, 520.0),
        gpu_count=2,
        stake=5,
    )


@pytest.fixture
def attester(rng, env):
    return AttestingEnvironment.create("node-1", rng, [env.config_digest()])


@pytest.fixture
def verifier_identity(rng):
    return SignerIdentity.create(Role.VERIFIER, "verifier-1", rng)


def random_env(rng) -> TargetEnvironment:
    n_images = rng.randint(0, 3)
    return TargetEnvironment(
        hw_model=f"model-{rng.randint(0, 5)}",
        fw_version=rng.randint(0, 9),
        sw_images=tuple(
            (f"img{i}", rng.randbytes(rng.randint(1, 16))) for i in range(n_images)
        ),
        geo=GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180), rng.uniform(0, 4000)),
        gpu_count=rng.randint(0, 8),
        stake=rng.randint(0, 100),
    )


def one_signed_message_of_each_type(rng, attester, env, verifier_identity) -> list:
    """A signed evidence, endorsement and result, in that order."""
    nonce = model.new_nonce(5, rng)
    endorser = SignerIdentity.create(Role.ENDORSER, "endorser-1", rng)
    result = model.AttestationResult(verifier_identity.entity, attester.identity,
                                     model.Verdict.COMPLIANT, model.digest(b"policy"), nonce, (), 5)
    return [attester.generate_evidence(env, nonce, 5),
            model.make_endorsement(endorser, "product-1", model.ClaimSet(), 0),
            model.sign_message(result, verifier_identity.key)]
