"""The helper process that checks evidence signatures for `run_epoch`.

Every answer the helper gives must be the answer `verify_bytes` gives in this
process, stored on the right evidence; a helper that dies or answers short
must change no answer; and no helper is forked where forking is unsafe or
useless. The helper is on here whenever the gate allows it: each test that
needs it patches `os.sched_getaffinity` to report two CPUs, so the tests do
not depend on the host's."""

import json
import os
import random
import signal
import threading
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from attestnet import model
from attestnet.cli import EXIT_OK, main
from attestnet.model import HELPER_MIN_CHECKS, check_evidence_signatures, new_nonce, verify_bytes

KINDS = ("valid", "tampered", "wrong_key", "empty_signature", "garbage_key", "off_curve_key")


@pytest.fixture(scope="module")
def signed():
    """A few signed evidences, by different attesters, and a spare key."""
    from attestnet.attester import AttestingEnvironment

    from .conftest import random_env

    rng = random.Random(7)
    evidences = []
    for i in range(4):
        env = random_env(rng)
        attester = AttestingEnvironment.create(f"node-{i}", rng, [env.config_digest()])
        evidences.append(attester.generate_evidence(env, new_nonce(i, rng), i + 1))
    spare = AttestingEnvironment.create("spare", rng).identity.public_key
    return evidences, spare


def variant(base, kind: str, spare: bytes):
    """A fresh, unchecked copy of `base`, made `kind`."""
    if kind == "tampered":  # the same signature over other bytes
        return replace(base, created_at=base.created_at + 1)
    if kind == "empty_signature":
        return replace(base, signature=b"")
    keys = {"wrong_key": spare, "garbage_key": b"\x05" * 7, "off_curve_key": b"\xff" * 32}
    if kind in keys:
        return replace(base, attester=replace(base.attester, public_key=keys[kind]))
    return replace(base)


def fresh_check(ev) -> bool:
    return verify_bytes(ev.signing_bytes(), ev.signature, ev.attester.public_key)


def stored_check(ev):
    return ev.__dict__.get("_memo", {}).get("signature_valid")


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def parent_verifies(monkeypatch):
    """Counts the `verify_bytes` calls of this process (a helper forked under
    the patch counts its own, which never reach this process)."""
    counts = {"verifies": 0}
    verify = model.verify_bytes

    def counting_verify(*args):
        counts["verifies"] += 1
        return verify(*args)

    monkeypatch.setattr(model, "verify_bytes", counting_verify)
    return counts


def batch(signed, kinds):
    evidences, spare = signed
    return [variant(evidences[i % len(evidences)], kind, spare) for i, kind in enumerate(kinds)]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.integers(1, 2 * HELPER_MIN_CHECKS).flatmap(
    lambda n: st.lists(st.sampled_from(KINDS), min_size=n, max_size=n)), min_size=1, max_size=3))
def test_stored_answers_equal_fresh_checks(signed, two_cpus, parent_verifies, kinds):
    """Batches on both sides of the minimum, mixing valid and broken
    signatures, all queued before the first is stored, as `run_epoch` queues
    one batch ahead: each stored answer is the fresh in-process one, and only
    the batches below the minimum are verified in this process."""
    model._helper.stop()
    batches = [batch(signed, each) for each in kinds]
    parent_verifies["verifies"] = 0
    stores = [check_evidence_signatures(evs) for evs in batches]
    for store in stores:
        store()
    small = sum(len(evs) for evs in batches if len(evs) < HELPER_MIN_CHECKS)
    assert parent_verifies["verifies"] == small
    for ev in (ev for evs in batches for ev in evs):
        assert stored_check(ev) is fresh_check(ev)
        assert ev.verify_signature() is fresh_check(ev)
    assert (model._helper.pid != 0) == (small < sum(map(len, batches)))


def test_checked_evidence_is_not_sent_again(signed, two_cpus, parent_verifies):
    evidences = batch(signed, ["valid"] * HELPER_MIN_CHECKS)
    evidences[0].verify_signature()
    check_evidence_signatures(evidences)()
    # one unchecked evidence short of the minimum: all checked in this process
    assert parent_verifies["verifies"] == HELPER_MIN_CHECKS
    assert model._helper.pid == 0


def _kinds(n: int) -> list[str]:
    return [KINDS[i % len(KINDS)] for i in range(n)]


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_helper_killed_while_a_batch_is_queued(signed, two_cpus, parent_verifies):
    """The helper dies holding a request it never answers: the answers are
    short, so the batch is checked in this process, the dead helper is
    reaped, and the next batch forks a new helper that answers it."""
    check_evidence_signatures(batch(signed, _kinds(HELPER_MIN_CHECKS)))()
    first = model._helper.pid
    os.kill(first, signal.SIGSTOP)  # queued, never read
    queued = batch(signed, _kinds(HELPER_MIN_CHECKS + 5))
    store = check_evidence_signatures(queued)
    os.kill(first, signal.SIGKILL)
    parent_verifies["verifies"] = 0
    store()
    assert parent_verifies["verifies"] == len(queued)
    assert all(stored_check(ev) is fresh_check(ev) for ev in queued)
    assert model._helper.pid == 0 and _reaped(first)

    parent_verifies["verifies"] = 0
    after = batch(signed, _kinds(HELPER_MIN_CHECKS + 7))
    check_evidence_signatures(after)()
    assert model._helper.pid not in (0, first)
    assert parent_verifies["verifies"] == 0
    assert all(stored_check(ev) is fresh_check(ev) for ev in after)


def test_helper_killed_between_batches(signed, two_cpus):
    check_evidence_signatures(batch(signed, _kinds(HELPER_MIN_CHECKS)))()
    first = model._helper.pid
    os.kill(first, signal.SIGKILL)
    # the next batches find the helper dead, on sending or on reading: each
    # is checked right either way, and a new helper takes over
    for n in (HELPER_MIN_CHECKS, HELPER_MIN_CHECKS + 3):
        evidences = batch(signed, _kinds(n))
        check_evidence_signatures(evidences)()
        assert all(stored_check(ev) is fresh_check(ev) for ev in evidences)
    assert _reaped(first)
    assert model._helper.pid not in (0, first)


def _no_fork(*args):
    raise AssertionError("os.fork called")


def test_one_cpu_forks_nothing(signed, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", _no_fork)
    evidences = batch(signed, _kinds(3 * HELPER_MIN_CHECKS))
    check_evidence_signatures(evidences)()
    assert all(stored_check(ev) is fresh_check(ev) for ev in evidences)


def test_a_second_thread_forks_nothing(signed, two_cpus, monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        evidences = batch(signed, _kinds(3 * HELPER_MIN_CHECKS))
        check_evidence_signatures(evidences)()
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert all(stored_check(ev) is fresh_check(ev) for ev in evidences)


def test_a_forked_child_forks_its_own_helper(signed, two_cpus):
    """A process forked from one that runs a helper closes the pipes it
    inherited and forks a helper of its own, which answers it right."""
    check_evidence_signatures(batch(signed, _kinds(HELPER_MIN_CHECKS)))()
    helper = model._helper.pid
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            evidences = batch(signed, _kinds(HELPER_MIN_CHECKS + 1))
            check_evidence_signatures(evidences)()
            ok = (model._helper.pid not in (0, helper)
                  and all(stored_check(ev) is fresh_check(ev) for ev in evidences))
            model._helper.stop()
        finally:
            os._exit(0 if ok else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert model._helper.pid == helper
    evidences = batch(signed, _kinds(HELPER_MIN_CHECKS))
    check_evidence_signatures(evidences)()
    assert all(stored_check(ev) is fresh_check(ev) for ev in evidences)


# ---------------------------------------------------------------------------
# Simulations with the helper on and off
# ---------------------------------------------------------------------------


@st.composite
def scenarios(draw):
    """40 to 130 nodes in 1 to 4 domains over 1 to 3 products, with every
    fault kind, some nodes below the firmware minimum and some without stake."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    epochs = draw(st.integers(1, 2))
    products = [{"product_id": f"p{i}", "fw_version": rng.choice([1, 2, 3]),
                 "sw_images": {f"img{i}": f"image {i}"}} for i in range(rng.randint(1, 3))]
    domains = [{"domain_id": f"d{i}"} for i in range(rng.randint(1, 4))]
    nodes = [{"node_id": f"n{j:03d}", "domain_id": rng.choice(domains)["domain_id"],
              "product_id": rng.choice(products)["product_id"], "stake": rng.randint(0, 5)}
             for j in range(draw(st.integers(40, 130)))]
    faults = []
    for _ in range(rng.randint(0, 12)):
        fault = {"node_id": rng.choice(nodes)["node_id"], "tick": rng.randrange(10 * epochs),
                 "mutation": rng.choice(["flip_sw_byte", "change_fw", "move_geo", "clone_config"])}
        fault.update({"change_fw": {"fw_version": rng.randint(0, 4)},
                      "move_geo": {"lat": rng.uniform(-90, 90), "lon": rng.uniform(-180, 180)},
                      "clone_config": {"from_node": rng.choice(nodes)["node_id"]}}
                     .get(fault["mutation"], {}))
        faults.append(fault)
    return {"seed": rng.randrange(2**32), "epochs": epochs, "epoch_length": 10,
            "fw_min_version": 2, "products": products, "domains": domains, "nodes": nodes,
            "faults": faults}


def _outputs(doc, out, cpus, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    path = out.with_suffix(".json")
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    return [(out / name).read_bytes() for name in ("ledger.hex", "epoch_reports.txt")]


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=scenarios())
def test_simulate_is_the_same_with_the_helper_on_and_off(doc, tmp_path_factory, capsys):
    out = tmp_path_factory.mktemp("sim")
    model._helper.stop()
    with pytest.MonkeyPatch.context() as monkeypatch:
        off = _outputs(doc, out / "off", {0}, monkeypatch, capsys)
        assert model._helper.pid == 0
        on = _outputs(doc, out / "on", {0, 1}, monkeypatch, capsys)
        assert model._helper.pid != 0
    assert on == off


def test_answers_left_unread_are_never_taken_for_the_next_batch(signed, two_cpus):
    """A batch whose answers are never read (its epoch raised before storing
    them) leaves them in the pipe: the next batch checks here and forks a
    new helper, instead of storing the other batch's answers."""
    check_evidence_signatures(batch(signed, ["valid"] * HELPER_MIN_CHECKS))  # never stored
    first = model._helper.pid
    tampered = batch(signed, ["tampered"] * HELPER_MIN_CHECKS)
    check_evidence_signatures(tampered)()
    assert all(stored_check(ev) is False for ev in tampered)
    assert model._helper.pid == 0 and _reaped(first)
