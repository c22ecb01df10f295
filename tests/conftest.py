import importlib
import json
import os
import pkgutil
import random

import pytest

import attestnet
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
def two_cpus(monkeypatch):
    """The helper's gate sees two CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


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


ONCE = model._once  # as imported, before any test replaces it


def replace_everywhere(monkeypatch, name: str, value) -> set:
    """Puts `value` in place of `model`'s `name` in `model` and in each
    attestnet module that imports it by name: the modules patched."""
    current, patched = getattr(model, name), set()
    for info in pkgutil.iter_modules(attestnet.__path__):
        module = importlib.import_module(f"attestnet.{info.name}")
        if vars(module).get(name) is current:
            patched.add(info.name)
            monkeypatch.setattr(module, name, value)
    return patched


def replace_once(monkeypatch, once):
    """Puts `once` in place of `_once` in `model` and in each attestnet
    module that imports it."""
    patched = replace_everywhere(monkeypatch, "_once", once)
    assert {"model", "verifier", "attester"} <= patched


@pytest.fixture
def nothing_stored(monkeypatch):
    """`model._once` computes every time, in `model` and in each attestnet
    module that imports it: no stored value is ever read back."""
    replace_once(monkeypatch, lambda value, name, compute: compute(value))


# The fields of the benchmark generator's `SimShape` for the north-star
# 200-node case: 20 products of 3 x 4 KiB images, 10 epochs, one flip_sw_byte
# fault; it is generated at seed 11
NODES_200 = (200, 20, 3, 4096, 10, "flip_sw_byte")


def write_generated_scenario(path, monkeypatch, shape, seed: int, edit=None):
    """Writes to `path` the scenario that the benchmark's generator makes at
    `seed` for `SimShape(*shape)`. `edit`, if given, may change the
    scenario's document first."""
    from .test_bench_bindings import _perfbench_module

    workloads = _perfbench_module("workloads", monkeypatch)
    text = workloads.generate_sim(workloads.SimShape(*shape), seed).scenario_text
    if edit is not None:
        doc = json.loads(text)
        edit(doc)
        text = json.dumps(doc, sort_keys=True)
    path.write_text(text, encoding="utf-8")
    return path
