"""Spans recorded in memory by wrapping attestnet's public functions and
methods from outside the package; nothing under src/ is modified.

A span is [name, start, end, parent index]. A layer's self time is its
span's duration minus the durations of its direct children, which are
strictly nested because the benchmark is single-threaded.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# (span name, module, attribute). A function imported by name into another
# module is bound there as well, so each binding that the code calls through
# is listed.
#
# model.verify covers the signatures of evidence, results and endorsement
# records. Endorsement signatures are re-verified inside
# merge_reference_claims on every appraisal; that is the merge layer's own
# work, so it stays in the merge's self time and is only counted (COUNTED).
LAYERS = (
    ("model.sign", "attestnet.model", "SigningKey.sign"),
    ("model.verify", "attestnet.model", "Evidence.verify_signature"),
    ("model.verify", "attestnet.model", "AttestationResult.verify_signature"),
    ("model.verify", "attestnet.endorsement_ledger", "verify_bytes"),
    ("model.encode", "attestnet.model", "Evidence.signing_bytes"),
    ("model.encode", "attestnet.model", "Evidence.to_bytes"),
    ("model.encode", "attestnet.model", "Endorsement.signing_bytes"),
    ("model.encode", "attestnet.model", "Endorsement.to_bytes"),
    ("model.encode", "attestnet.model", "AttestationResult.signing_bytes"),
    ("model.encode", "attestnet.model", "AttestationResult.to_bytes"),
    ("model.decode", "attestnet.model", "Evidence.from_bytes"),
    ("model.decode", "attestnet.model", "Endorsement.from_bytes"),
    ("model.decode", "attestnet.model", "AttestationResult.from_bytes"),
    ("model.policy_digest", "attestnet.model", "EvidencePolicy.digest"),
    ("model.keygen", "attestnet.model", "SigningKey.generate"),
    ("attester.generate_evidence", "attestnet.attester", "AttestingEnvironment.generate_evidence"),
    ("attester.measure", "attestnet.attester", "measure"),
    ("attester.config_digest", "attestnet.attester", "TargetEnvironment.config_digest"),
    ("verifier.appraise", "attestnet.verifier", "appraise_evidence"),
    ("verifier.appraise", "attestnet.conveyance", "appraise_evidence"),
    ("verifier.merge_reference_claims", "attestnet.verifier", "merge_reference_claims"),
    ("verifier.appraise_result", "attestnet.verifier", "appraise_result"),
    ("verifier.appraise_result", "attestnet.conveyance", "appraise_result"),
    ("conveyance.transport_send", "attestnet.conveyance", "Transport.send"),
    ("conveyance.consume_nonce", "attestnet.conveyance", "VerifierContext.consume_nonce"),
    ("consortium.run_epoch", "attestnet.consortium", "run_epoch"),
    ("consortium.diversity", "attestnet.consortium", "diversity_metric"),
    ("consortium.select_validator", "attestnet.consortium", "select_validator"),
    ("consortium.forge_block", "attestnet.consortium", "forge_block"),
    ("consortium.export", "attestnet.consortium", "export_ledger"),
    ("consortium.distribute_policies", "attestnet.consortium", "distribute_policies"),
    ("scenario.parse", "attestnet.scenario", "parse_scenario"),
    ("scenario.build_universe", "attestnet.scenario", "build_universe"),
    ("endorsement_ledger.register", "attestnet.endorsement_ledger", "register_endorsement"),
    ("endorsement_ledger.merkle_root", "attestnet.endorsement_ledger", "merkle_root"),
    ("endorsement_ledger.store", "attestnet.endorsement_ledger", "ContentStore.put"),
    ("endorsement_ledger.store", "attestnet.endorsement_ledger", "ContentStore.get"),
    ("endorsement_ledger.store", "attestnet.endorsement_ledger", "ContentStore.check"),
    ("endorsement_ledger.includes", "attestnet.endorsement_ledger", "EndorsementsLedger.includes"),
    ("endorsement_ledger.verify_product", "attestnet.endorsement_ledger", "verify_product"),
    ("conveyance.passport", "attestnet.conveyance", "run_passport_flow"),
    ("conveyance.background", "attestnet.conveyance", "run_background_check_flow"),
    ("cli.simulate", "attestnet.cli", "cmd_simulate"),
)
COUNTED = (
    ("verifier.endorsement_verifies", "attestnet.model", "Endorsement.verify_signature"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records a span for every call of an installed target, and counts the
    calls of each counted target. `before_call` runs before each span opens."""

    def __init__(self, before_call=lambda: None):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.before_call = before_call

    def wrap(self, name: str, fn):
        spans, stack, clock, before_call = self.spans, self._stack, time.perf_counter, self.before_call

        def traced(*args, **kwargs):
            before_call()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, targets, counted=()):
        """Wrap every (name, module, attribute) target to record spans, and
        every counted target to count calls; restore all on exit."""
        saved = []
        try:
            for wrap, group in ((self.wrap, targets), (self.count, counted)):
                for name, module, path in group:
                    owner, attr = _resolve(module, path)
                    original = vars(owner)[attr]
                    if isinstance(original, staticmethod):
                        wrapped = staticmethod(wrap(name, original.__func__))
                    else:
                        wrapped = wrap(name, original)
                    setattr(owner, attr, wrapped)
                    saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    own = [s[2] - s[1] for s in spans]
    for s, d in zip(spans, list(own)):
        if s[3] >= 0:
            own[s[3]] -= d
    return own


def layer_totals(spans: list[list]) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per span name."""
    totals: dict[str, tuple[int, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        calls, seconds = totals.get(s[0], (0, 0.0))
        totals[s[0]] = (calls + 1, seconds + own)
    return totals


def write_trace(path, spans: list[list], summary: dict):
    """Write spans (times in ns from the first span, with the index of the
    root span as the trace id) and the summary as one JSON document."""
    origin = spans[0][1] if spans else 0.0
    trace_ids: list[int] = []
    rows = []
    for i, (name, start, end, parent) in enumerate(spans):
        trace_ids.append(i if parent < 0 else trace_ids[parent])
        rows.append([name, round((start - origin) * 1e9), round((end - origin) * 1e9),
                     parent, trace_ids[i]])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": summary,
                   "span_fields": ["name", "start_ns", "end_ns", "parent", "trace_id"],
                   "spans": rows}, fh, separators=(",", ":"))
