"""The helper process that shares signature checks with this process.

Every stored check must be the answer `verify_bytes` gives in this process,
stored on the right evidence; each queued check is made at least once, and at
most twice (by both processes, when both take it at once); a helper that dies,
answers short or skips a check must change no answer; no helper is forked
where forking is unsafe or useless; and none outlives its process or is kept
alive by a forked one. The helper is on here whenever the gate allows it: each
test that needs it patches `os.sched_getaffinity` to report two CPUs, so the
tests do not depend on the host's."""

import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from attestnet import model
from attestnet.cli import EXIT_OK, main
from attestnet.consortium import BATCH_NODES
from attestnet.model import check_signatures, new_nonce, verify_bytes

KINDS = ("valid", "tampered", "wrong_key", "empty_signature", "garbage_key", "off_curve_key")
# one batch of `run_epoch`: two evidences per node
BATCH = 2 * BATCH_NODES


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


@pytest.fixture
def helper_answers(monkeypatch):
    """The answer bytes that this process reads from the helper, in order:
    0 or 1 for a check the helper made, 2 for one it skipped."""
    answers = bytearray()
    read = model._Helper._read

    def recording_read(self, n):
        data = read(self, n)
        answers.extend(data)
        return data

    monkeypatch.setattr(model._Helper, "_read", recording_read)
    return answers


def helper_verifies(answers) -> int:
    return sum(answer != 2 for answer in answers)


def batch(signed, kinds):
    evidences, spare = signed
    return [variant(evidences[i % len(evidences)], kind, spare) for i, kind in enumerate(kinds)]


def check(evidences):
    """Queue the checks of `evidences`, then ask for each, as `run_epoch` does."""
    check_signatures(evidences)
    for ev in evidences:
        ev.verify_signature()


def queued_ids():
    return [[id(ev) for ev in each] for each, _ in model._helper.batches]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.lists(st.sampled_from(KINDS), min_size=1, max_size=2 * BATCH),
                min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_stored_answers_equal_fresh_checks(signed, two_cpus, parent_verifies, helper_answers,
                                           kinds, order):
    """1 to 3 batches mixing valid and broken signatures, all queued before
    any check is asked for, then asked for in any order: each check is the
    fresh in-process one, stored on its own evidence. Each is made at least
    once and at most twice: once here at most, once by the helper at most,
    which answers every signed evidence once, and skips only checks made
    here. The unsigned evidences are never sent."""
    model._helper.stop()
    batches = [batch(signed, each) for each in kinds]
    parent_verifies["verifies"] = 0
    helper_answers.clear()
    for evs in batches:
        check_signatures(evs)
    asked = [ev for evs in batches for ev in evs]
    order.shuffle(asked)
    for ev in asked:
        assert ev.verify_signature() is fresh_check(ev)
    for ev in asked:
        assert stored_check(ev) is fresh_check(ev)
    signed_count = sum(bool(ev.signature) for ev in asked)
    assert len(helper_answers) == signed_count
    assert parent_verifies["verifies"] <= len(asked)
    assert helper_answers.count(2) <= parent_verifies["verifies"] - (len(asked) - signed_count)
    assert len(asked) <= parent_verifies["verifies"] + helper_verifies(helper_answers)
    assert model._helper.queued == set() and model._helper.batches == []
    assert (model._helper.pid != 0) == (signed_count > 0)


def test_checked_evidence_is_not_sent_again(signed, two_cpus, parent_verifies, helper_answers):
    """An evidence already checked, one already queued, one listed twice,
    and one not signed yet (its check would describe the empty signature)
    are never sent: the helper answers the 7 others once each."""
    evidences = batch(signed, ["valid"] * 8 + ["empty_signature"])
    evidences[0].verify_signature()
    check_signatures(evidences + evidences[1:2])
    check_signatures(evidences)
    assert queued_ids() == [[id(ev) for ev in evidences[1:-1]]]
    check(evidences)
    assert len(helper_answers) == 7
    assert 2 <= parent_verifies["verifies"] <= 2 + 7
    assert all(stored_check(ev) is fresh_check(ev) for ev in evidences)


def _kinds(n: int) -> list[str]:
    return [KINDS[i % len(KINDS)] for i in range(n)]


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_helper_killed_while_a_batch_is_queued(signed, two_cpus, parent_verifies,
                                               helper_answers):
    """The helper dies holding a request it never answers: the answers are
    short, so the batch is checked in this process, the dead helper is
    reaped, and the next batch forks a new helper that answers all of it."""
    check(batch(signed, _kinds(BATCH)))
    first = model._helper.pid
    os.kill(first, signal.SIGSTOP)  # queued, never read
    queued = batch(signed, _kinds(BATCH + 5))
    check_signatures(queued)
    os.kill(first, signal.SIGKILL)
    parent_verifies["verifies"] = 0
    for ev in queued:
        ev.verify_signature()
    assert parent_verifies["verifies"] == len(queued)
    assert all(stored_check(ev) is fresh_check(ev) for ev in queued)
    assert model._helper.pid == 0 and _reaped(first)

    after = [ev for ev in batch(signed, _kinds(BATCH + 7)) if ev.signature]
    helper_answers.clear()
    check(after)
    assert model._helper.pid not in (0, first)
    assert len(helper_answers) == len(after)
    assert all(stored_check(ev) is fresh_check(ev) for ev in after)


WAIT_S = 0.3  # the answers' bound in the two tests below


@pytest.fixture
def alarm():
    """Fails a test still blocked after 30 s."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def short_wait(monkeypatch, alarm):
    monkeypatch.setattr(model, "_ANSWER_WAIT_S", WAIT_S)


def _asked_within_the_bound(queued, helper):
    """Ask for every check of `queued`: each is the fresh one, and the
    silent `helper` is killed and reaped within the bound."""
    start = time.monotonic()
    answers = [ev.verify_signature() for ev in queued]
    elapsed = time.monotonic() - start
    assert answers == [fresh_check(ev) for ev in queued]
    assert all(stored_check(ev) is fresh_check(ev) for ev in queued)
    assert model._helper.pid == 0 and _reaped(helper)
    assert 0.9 * WAIT_S <= elapsed < WAIT_S + 2  # it waited for the bound, and no longer


def _a_new_helper_answers_the_next_batch(signed, helper, helper_answers):
    after = [ev for ev in batch(signed, _kinds(BATCH + 7)) if ev.signature]
    helper_answers.clear()
    check(after)
    assert model._helper.pid not in (0, helper)
    assert len(helper_answers) == len(after)
    assert all(stored_check(ev) is fresh_check(ev) for ev in after)


def test_helper_stopped_while_a_batch_is_queued(signed, two_cpus, short_wait, helper_answers):
    """A helper that is alive but stopped never answers the batch queued
    while it is stopped: this process checks the batch, the wait for the
    answers ends at the bound, and the helper is killed and reaped."""
    check(batch(signed, _kinds(BATCH)))
    helper = model._helper.pid
    os.kill(helper, signal.SIGSTOP)
    os.waitpid(helper, os.WUNTRACED)  # until it is stopped
    queued = batch(signed, _kinds(BATCH + 5))
    check_signatures(queued)
    _asked_within_the_bound(queued, helper)
    _a_new_helper_answers_the_next_batch(signed, helper, helper_answers)


def test_a_helper_one_answer_short(signed, two_cpus, short_wait, helper_answers):
    """A helper that answers one byte fewer than its batch has checks (here,
    the batch gains a check the request never carried), then waits for the
    next request: the answers are cut at the bound, the helper is killed
    and reaped, and every check of the batch is still the fresh one."""
    check(batch(signed, _kinds(BATCH)))
    helper = model._helper.pid
    queued = [ev for ev in batch(signed, _kinds(BATCH)) if ev.signature]
    check_signatures(queued)
    (sent, _), = model._helper.batches
    helper_answers.clear()
    extra = batch(signed, ["tampered"])[0]
    sent.append(extra)
    model._helper.queued.add(id(extra))
    _asked_within_the_bound(queued + [extra], helper)
    assert len(helper_answers) == len(queued)
    _a_new_helper_answers_the_next_batch(signed, helper, helper_answers)


def test_a_stopped_helper_with_nothing_queued_is_reaped(signed, two_cpus, alarm):
    """Stopping a helper that is stopped (with nothing queued, as at exit)
    continues it, so that it sees the end of its requests and exits."""
    check(batch(signed, _kinds(BATCH)))
    helper = model._helper.pid
    os.kill(helper, signal.SIGSTOP)
    os.waitpid(helper, os.WUNTRACED)  # until it is stopped
    assert model._helper.stop() == 0
    assert _reaped(helper)


def test_helper_killed_between_batches(signed, two_cpus):
    check(batch(signed, _kinds(BATCH)))
    first = model._helper.pid
    os.kill(first, signal.SIGKILL)
    # the next batches find the helper dead, on sending or on reading: each
    # is checked right either way, and a new helper takes over
    for n in (BATCH, BATCH + 3):
        evidences = batch(signed, _kinds(n))
        check(evidences)
        assert all(stored_check(ev) is fresh_check(ev) for ev in evidences)
    assert _reaped(first)
    assert model._helper.pid not in (0, first)


def _no_fork(*args):
    raise AssertionError("os.fork called")


def test_one_cpu_forks_nothing(signed, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", _no_fork)
    evidences = batch(signed, _kinds(3 * BATCH))
    check(evidences)
    assert all(stored_check(ev) is fresh_check(ev) for ev in evidences)


def test_a_second_thread_forks_nothing(signed, two_cpus, monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        evidences = batch(signed, _kinds(3 * BATCH))
        check(evidences)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert all(stored_check(ev) is fresh_check(ev) for ev in evidences)


def test_a_forked_child_forks_its_own_helper(signed, two_cpus):
    """A process forked from one that runs a helper drops it, and forks a
    helper of its own, which answers it right."""
    check(batch(signed, _kinds(BATCH)))
    helper = model._helper.pid
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            evidences = batch(signed, _kinds(BATCH + 1))
            check(evidences)
            ok = (model._helper.pid not in (0, helper)
                  and all(stored_check(ev) is fresh_check(ev) for ev in evidences))
            model._helper.stop()
        finally:
            os._exit(0 if ok else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert model._helper.pid == helper
    evidences = batch(signed, _kinds(BATCH))
    check(evidences)
    assert all(stored_check(ev) is fresh_check(ev) for ev in evidences)


def test_stop_does_not_wait_for_a_forked_child(signed, two_cpus):
    """A process forked while a helper runs drops the helper's pipe ends at
    once, so it never keeps the helper from seeing the end of its requests:
    stopping the helper returns at once, while the child still runs."""
    check(batch(signed, _kinds(BATCH)))
    release_r, release_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(release_w)
            select.select([release_r], [], [], 10)  # until released, at most 10 s
        finally:
            os._exit(0)
    os.close(release_r)
    try:
        start = time.monotonic()
        status = model._helper.stop()
        elapsed = time.monotonic() - start
    finally:
        os.close(release_w)
        os.waitpid(pid, 0)
    assert status == 0
    assert elapsed < 0.5


class Interrupted(BaseException):
    pass


def test_a_read_cut_short_stops_the_helper(signed, two_cpus, monkeypatch):
    """A read of the answers that an exception cuts short (an interrupt, say)
    stops the helper, so no later batch takes an earlier batch's answers."""
    valid, tampered = batch(signed, ["valid"] * BATCH), batch(signed, ["tampered"] * BATCH)
    check_signatures(valid)
    check_signatures(tampered)
    read = model._Helper._read
    cut = []

    def cut_short(self, n):
        if not cut:
            cut.append(n)
            raise Interrupted
        return read(self, n)

    monkeypatch.setattr(model._Helper, "_read", cut_short)
    with pytest.raises(Interrupted):
        valid[0].verify_signature()
    assert model._helper.pid == 0
    assert all(ev.verify_signature() is fresh_check(ev) for ev in valid + tampered)


def test_a_batch_nobody_asked_for_is_stored_on_its_own_evidences(signed, two_cpus):
    """A batch whose checks are never asked for (its epoch raised before
    appraising it) has its answers read before the next batch's, stored on
    its own evidences, and the helper keeps running."""
    valid = batch(signed, ["valid"] * BATCH)
    check_signatures(valid)  # never asked for
    first = model._helper.pid
    tampered = batch(signed, ["tampered"] * BATCH)
    check(tampered)
    assert all(stored_check(ev) is False for ev in tampered)
    assert all(stored_check(ev) is True for ev in valid)
    assert model._helper.pid == first


def _timeout(signum, frame):
    raise AssertionError("blocked past the alarm")  # not an OSError, which the helper would take


def test_answers_nobody_reads_never_block(signed, two_cpus):
    """2,100 batches of 32 checks, none asked for: more answers than the
    answer pipe holds (64 KiB). Queueing reads the oldest unread batch
    first, so the run ends instead of blocking on both pipes, and every
    stored check is right. A hang fails after 60 s. Most keys are short
    garbage, which fails without an Ed25519 verify, to keep the test short."""
    real = ["valid", "tampered", "wrong_key", "off_curve_key"]
    bases = batch(signed, real + ["garbage_key"] * (BATCH - len(real)))
    expected = [fresh_check(ev) for ev in bases]
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    try:
        queued = []
        for _ in range(2100):
            queued.append([replace(ev) for ev in bases])
            check_signatures(queued[-1])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(queued_ids()) == 2
    assert all(ev.verify_signature() is want
               for copies in queued for ev, want in zip(copies, expected))
    assert all(stored_check(ev) is want for copies in queued for ev, want in zip(copies, expected))


def test_a_skipped_check_is_never_stored(signed, two_cpus, parent_verifies, helper_answers):
    """The helper answers 2 for a check whose flag it finds marked, and that
    answer is never stored: checks marked (here, while the helper is
    stopped) but never made are made here when they are asked for."""
    check(batch(signed, ["valid"]))
    helper = model._helper.pid
    tampered = batch(signed, ["tampered"] * 4)
    os.kill(helper, signal.SIGSTOP)
    try:
        check_signatures(tampered)
        (_, slot), = model._helper.batches
        model._helper.flags[slot : slot + len(tampered)] = b"\x01" * len(tampered)
    finally:
        os.kill(helper, signal.SIGCONT)
    parent_verifies["verifies"] = 0
    helper_answers.clear()
    assert [ev.verify_signature() for ev in tampered] == [False] * len(tampered)
    assert helper_answers == b"\x02" * len(tampered)
    assert parent_verifies["verifies"] == len(tampered)
    assert model._helper.pid == helper


def test_shared_flags_under_preemption(signed, monkeypatch):
    """This process and its helper pinned to one CPU, so that they
    interleave at every preemption, while the gate still sees two: 300
    batches mixing valid, tampered and wrong-key evidence, each asked for
    while the next one is queued, as `run_epoch` does. Every stored check is
    the fresh one, no flag is left marked, and the helper exits cleanly. A
    missing answer hangs; that fails after 60 s."""
    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    kinds = ("valid", "tampered", "wrong_key")
    queued = []
    previous = signal.signal(signal.SIGALRM, _timeout)
    os.sched_setaffinity(0, {min(cpus)})  # the helper, forked below, inherits it
    signal.alarm(60)
    try:
        for i in range(300):
            queued.append(batch(signed, [kinds[(i + j) % 3] for j in range(1 + i % BATCH)]))
            check_signatures(queued[-1])
            for ev in queued[-2] if i else ():
                ev.verify_signature()
        for ev in queued[-1]:
            ev.verify_signature()
        assert not any(model._helper.flags[:])
        assert model._helper.stop() == 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.sched_setaffinity(0, cpus)
    assert all(stored_check(ev) is fresh_check(ev) for evs in queued for ev in evs)


def test_a_slow_helper_leaves_the_tail_to_this_process(signed, two_cpus, parent_verifies,
                                                       monkeypatch):
    """A helper whose verifies take 20 ms each would take 0.64 s over a batch
    of 32; this process does not wait for it, but makes the checks from the
    batch's tail until it meets the one the helper is making, so the batch's
    checks are all in well before that."""
    parent, verify = os.getpid(), model.verify_bytes

    def slow_in_the_helper(*args):
        if os.getpid() != parent:
            time.sleep(0.02)
        return verify(*args)

    monkeypatch.setattr(model, "verify_bytes", slow_in_the_helper)  # before the fork
    evidences = batch(signed, ["valid", "tampered"] * (BATCH // 2))
    check_signatures(evidences)
    start = time.monotonic()
    answers = [ev.verify_signature() for ev in evidences]
    elapsed = time.monotonic() - start
    assert answers == [fresh_check(ev) for ev in evidences]
    assert parent_verifies["verifies"] > 0
    assert elapsed < BATCH * 0.02 / 4


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


def _fleet(path: Path, nodes: int) -> Path:
    """`healthy-4nodes` with `nodes` nodes, written to `path`."""
    doc = json.loads((Path(model.__file__).parent / "scenarios" / "healthy-4nodes.json").read_text())
    doc["nodes"] = [{**doc["nodes"][i % len(doc["nodes"])], "node_id": f"n{i:03d}"}
                    for i in range(nodes)]
    path.write_text(json.dumps(doc))
    return path


def test_a_lone_batch_forks_no_helper(tmp_path, monkeypatch, capsys):
    """An epoch of one batch has nothing to overlap the helper's checks with:
    16 nodes fork no helper and give the one-CPU ledger; 17 fork one."""
    scenario, fork = _fleet(tmp_path / "16.json", BATCH_NODES), os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "one")]) == EXIT_OK
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", _no_fork)
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "two")]) == EXIT_OK
    assert ((tmp_path / "one" / "ledger.hex").read_bytes()
            == (tmp_path / "two" / "ledger.hex").read_bytes())

    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    scenario = _fleet(tmp_path / "17.json", BATCH_NODES + 1)
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "17")]) == EXIT_OK
    capsys.readouterr()
    assert len(forks) == 1 and model._helper.pid != 0


def _state(pid: int):
    """The state letter of process `pid` in /proc, or None if there is none."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_helper_outlives_simulate(tmp_path):
    """A process that ran a helper stops it when it exits: once `simulate`
    of 17 nodes has exited, its helper is gone or a zombie."""
    scenario = _fleet(tmp_path / "17.json", BATCH_NODES + 1)
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from attestnet import cli, model\n"
            "assert cli.main(['simulate', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(model._helper.pid)")
    src = str(Path(model.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code, str(scenario), str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    pid = int(run.stdout.split()[-1])
    assert pid != 0
    assert _state(pid) in (None, "Z")
