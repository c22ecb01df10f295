"""attestnet benchmark: one workload, seeded inputs, one closed-loop caller.

    python3 perfbench/run.py --workload sim-catalog --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones, measured with only the few timers they need and scaled to a reference
host speed (speed.py). With --trace 1 units of the same input run in pairs,
one untraced and one traced; in a traced unit every public call listed in
tracing.py records a span. The per-layer metrics (per unit of work) are
reported and the spans are written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

from speed import Speedometer
from tracing import COUNTED, LAYERS, Tracer, layer_totals, write_trace

# `workloads` imports attestnet, so it is imported only after main() has put
# src/ on the path.

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "attestnet"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("sim-catalog", "sim-fleet", "flows", "supply-chain")

# Per-layer metrics: the span names whose calls and self time are reported.
LAYER_CALLS = (
    "model.sign", "model.verify", "model.encode", "model.decode", "model.policy_digest",
    "model.keygen", "attester.generate_evidence", "attester.config_digest",
    "verifier.appraise", "verifier.merge_reference_claims", "verifier.appraise_result",
    "conveyance.transport_send", "conveyance.consume_nonce", "consortium.diversity",
    "endorsement_ledger.register", "endorsement_ledger.merkle_root",
)
LAYER_SELF = (
    "model.sign", "model.verify", "model.encode", "model.decode", "model.policy_digest",
    "model.keygen", "attester.generate_evidence", "attester.measure", "attester.config_digest",
    "verifier.appraise", "verifier.merge_reference_claims", "verifier.appraise_result",
    "conveyance.transport_send", "conveyance.passport", "conveyance.background",
    "consortium.run_epoch", "consortium.diversity", "consortium.select_validator",
    "consortium.forge_block", "consortium.export", "consortium.distribute_policies",
    "scenario.parse", "scenario.build_universe", "endorsement_ledger.register",
    "endorsement_ledger.merkle_root", "endorsement_ledger.store",
    "endorsement_ledger.includes", "endorsement_ledger.verify_product", "cli.simulate",
)
# End-to-end timings, with their units; peak_rss_mib completes the set.
TIMED = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "p50_ms": "ms"}
GAUGES = {
    "conveyance.seen_nonces": "count",
    "consortium.governance_switches": "count",
    "consortium.audit_log_bytes": "B",
    "endorsement_ledger.includes.first_decile_ms": "ms",
    "endorsement_ledger.includes.last_decile_ms": "ms",
}


def _prepare(workload: str, seed: int, work: Path):
    """Generate the inputs; return the calls timed in every unit and the unit."""
    import workloads as w

    if workload in w.SHAPES:
        inputs = w.generate_sim(w.SHAPES[workload], seed)
        path = work / "scenario.json"
        path.write_text(inputs.scenario_text, encoding="utf-8")
        return w.SIM_STAGES, lambda tracer: w.run_sim(path, work / "out", inputs, tracer)
    if workload == "flows":
        inputs = w.generate_flows(seed)
        return w.FLOW_STAGES, lambda tracer: w.run_flows(inputs, tracer)
    inputs = w.generate_supply(seed)
    return w.SUPPLY_STAGES, lambda tracer: w.run_supply(inputs, tracer)


def _pinned_tips_match(workload: str, work: Path) -> bool:
    import workloads as w

    checks = [(name, PACKAGE / "scenarios" / f"{name}.json", tip)
              for name, tip in w.BUNDLED_TIPS.items()]
    if workload in w.SHAPES:
        path = work / "default-seed.json"
        path.write_text(w.generate_sim(w.SHAPES[workload], w.DEFAULT_SEED).scenario_text,
                        encoding="utf-8")
        checks.append((f"{workload} seed {w.DEFAULT_SEED}", path, w.DEFAULT_SEED_TIPS[workload]))
    ok = True
    for name, path, pinned in checks:
        tip = w.simulate_tip(path, work / "pinned")
        if tip != pinned:
            print(f"perfbench: {name}: tip {tip} differs from pinned {pinned}", file=sys.stderr)
            ok = False
    return ok


def _figures(unit, speed, scaled: bool):
    """A unit's set-up time, wall time, ops rate and latencies, in seconds."""
    def seconds(*intervals):
        return sum(speed.duration(start, end, scaled) for start, end in intervals)

    return (seconds(*unit.setup), seconds(unit.wall), unit.ops / seconds(*unit.op_time),
            array("d", (seconds(t) for t in unit.latencies)))


def _run_units(unit, stages, seconds: float):
    """Untraced units for `seconds`, with host speed samples around and inside
    each unit. A unit's intervals become durations, scaled and unscaled, as
    soon as it ends, and the peak RSS is read before the run's figures are
    summed up: what the benchmark keeps must not grow peak_rss_mib with the
    number of units a run fits in."""
    speed = Speedometer()
    timers = Tracer(before_call=speed.tick)
    units, figures = [], {True: [], False: []}
    start = time.perf_counter()
    with timers.installed(stages):
        while not units or time.perf_counter() - start < seconds:
            speed.sample()
            done = unit(timers)
            speed.sample()
            timers.spans.clear()
            for scaled, kept in figures.items():
                kept.append(_figures(done, speed, scaled))
            units.append(dataclasses.replace(done, setup=[], latencies=[], op_time=[]))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return units, figures, peak_rss_mib


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timings(figures) -> tuple[dict, list[float]]:
    """The timed end-to-end figures of a run, and the latency percentiles."""
    cuts = statistics.quantiles([t for f in figures for t in f[3]], n=100, method="inclusive")
    return {
        "setup_s": statistics.median(f[0] for f in figures),
        "wall_s": statistics.median(f[1] for f in figures),
        "ops_per_s": statistics.median(f[2] for f in figures),
        "p50_ms": 1000 * cuts[49],
    }, cuts


def end_to_end(figures, peak_rss_mib) -> dict:
    scaled, cuts = timings(figures[True])
    # Tails spread 5-20% between runs on a shared host, too much to gate on;
    # they are printed for reading only, as are the unscaled figures.
    print(f"perfbench: latency p90 {1000 * cuts[89]:.4f} ms, p99 {1000 * cuts[98]:.4f} ms "
          f"over {sum(len(f[3]) for f in figures[True])} samples", file=sys.stderr)
    print(f"perfbench: unscaled {json.dumps(timings(figures[False])[0])}", file=sys.stderr)
    metrics = {name: _metric(value, TIMED[name]) for name, value in scaled.items()}
    metrics["peak_rss_mib"] = _metric(peak_rss_mib, "MiB")
    return metrics


def per_layer(tracer, pairs, speed) -> dict:
    traced = [p["traced"] for p in pairs]
    n = len(traced)
    totals = layer_totals(tracer.spans)
    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = _metric(totals.get(name, (0, 0.0))[0] / n, "count")
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = _metric(totals.get(name, (0, 0.0))[1] / n, "s")
    for name, unit in GAUGES.items():
        values = [u.gauges[name] for u in traced if name in u.gauges]
        metrics[name] = _metric(sum(values) / len(values) if values else 0, unit)

    def ratio(count, base):
        return count / base if base else 0

    appraisals = totals.get("verifier.appraise", (0, 0.0))[0]
    nonce_checks = totals.get("conveyance.consume_nonce", (0, 0.0))[0]
    walls = [{side: speed.duration(*u.wall) for side, u in p.items()} for p in pairs]
    overheads = [w["traced"] / w["untraced"] for w in walls]
    # The pairs spread by more than the overhead itself on a shared host, so
    # each is printed to show whether the median is resolved.
    print(f"perfbench: traced / untraced wall per pair: "
          f"{' '.join(f'{r:.3f}' for r in overheads)}", file=sys.stderr)
    metrics["verifier.endorsement_verifies_per_appraisal"] = _metric(
        ratio(tracer.counts["verifier.endorsement_verifies"], appraisals), "ratio")
    metrics["conveyance.replay_rejected_ratio"] = _metric(
        ratio(sum(u.gauges.get("conveyance.replays_rejected", 0) for u in traced), nonce_checks),
        "ratio")
    metrics["trace.overhead_ratio"] = _metric(statistics.median(overheads), "ratio")
    metrics["trace.untraced_wall_s"] = _metric(
        statistics.median(w["untraced"] for w in walls), "s")
    return metrics


def _run_traced(unit, stages, seconds: float):
    """Pairs of one untraced and one traced unit of the same input for
    `seconds`. The side that runs first alternates from pair to pair, and the
    host speed is sampled between units only, never inside a traced span."""
    speed, timers, tracer = Speedometer(), Tracer(), Tracer()
    bound = {(module, path) for _, module, path in LAYERS}
    targets = LAYERS + tuple(t for t in stages if (t[1], t[2]) not in bound)
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        pair = {}
        order = ("untraced", "traced") if len(pairs) % 2 == 0 else ("traced", "untraced")
        for side in order:
            speed.sample()
            if side == "traced":
                with tracer.installed(targets, COUNTED):
                    pair[side] = unit(tracer)
            else:
                with timers.installed(stages):
                    pair[side] = unit(timers)
                timers.spans.clear()
        speed.sample()
        pairs.append(pair)
    return tracer, pairs, speed


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    correct = _pinned_tips_match(workload, work)
    stages, unit = _prepare(workload, seed, work)
    if trace:
        tracer, pairs, speed = _run_traced(unit, stages, seconds)
        metrics = per_layer(tracer, pairs, speed)
        write_trace(OUT / f"trace-{workload}-seed{seed}.json", tracer.spans,
                    {"workload": workload, "seed": seed, "units": len(pairs), "metrics": metrics,
                     "ratio_bases": {
                         "verifier.endorsement_verifies_per_appraisal": "verifier.appraise.calls",
                         "conveyance.replay_rejected_ratio": "conveyance.consume_nonce.calls",
                         "trace.overhead_ratio": "trace.untraced_wall_s"}})
        units = [u for p in pairs for u in p.values()]
    else:
        units, figures, peak_rss_mib = _run_units(unit, stages, seconds)
        metrics = end_to_end(figures, peak_rss_mib)
    tips = {u.tip for u in units}
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    if len(tips) != 1:
        print(f"perfbench: units of one input gave {len(tips)} different tips", file=sys.stderr)
        correct = False
    print(f"perfbench: {workload} seed {seed}: {len(units)} units, "
          f"{failed}/{attempted} outcomes differ from the oracle", file=sys.stderr)
    return {"correct": correct and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no attestnet sources at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import attestnet

    if Path(attestnet.__file__).resolve().parent != PACKAGE:
        print(f"perfbench: imported attestnet from {attestnet.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
