"""Command-line front door: key generation, standalone appraisal, scenario
simulation, and ledger inspection.

Exit codes are a stable contract: 0 ok/compliant, 1 an output file cannot
be written, 2 usage/parse error (every malformed scenario included),
3 non-compliant, 4 unknown verdict, 5 integrity failure.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from . import consortium, scenario
from .model import (
    ROLE,
    SIGNING_KEY,
    TEXT,
    Endorsement,
    EntityId,
    Evidence,
    EvidencePolicy,
    ModelError,
    Nonce,
    Role,
    SignerIdentity,
    Table,
    Verdict,
    decode,
    encode,
)

EXIT_OK = 0
EXIT_WRITE = 1
EXIT_USAGE = 2
EXIT_NON_COMPLIANT = 3
EXIT_UNKNOWN = 4
EXIT_INTEGRITY = 5


# ---------------------------------------------------------------------------
# Identity files
# ---------------------------------------------------------------------------


_IDENTITY = Table(
    lambda role, name, key: SignerIdentity(EntityId(role, name, key.public_bytes), key),
    ("entity.role", ROLE),
    ("entity.name", TEXT),
    ("key", SIGNING_KEY),
)


def save_identity(identity: SignerIdentity, path: Path):
    path.write_bytes(encode(_IDENTITY, identity))


def load_identity(path: Path) -> SignerIdentity:
    return decode(_IDENTITY, path.read_bytes())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_keygen(args) -> int:
    if not args.name:
        print("keygen: name must be non-empty", file=sys.stderr)
        return EXIT_USAGE
    try:
        args.name.encode("utf-8")
    except UnicodeEncodeError:  # argv holds undecodable bytes as lone surrogates
        print(f"keygen: name {args.name!r} is not valid UTF-8", file=sys.stderr)
        return EXIT_USAGE
    try:
        role = Role(args.role)
    except ValueError:
        print(f"keygen: unknown role {args.role!r}", file=sys.stderr)
        return EXIT_USAGE
    rng = random.Random(args.seed)
    identity = SignerIdentity.create(role, args.name, rng)
    try:
        save_identity(identity, Path(args.out))
    except OSError as exc:
        print(f"keygen: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_WRITE
    print(f"{role.value}:{args.name} {identity.entity.public_key.hex()}")
    return EXIT_OK


def cmd_appraise(args) -> int:
    from .verifier import appraise_evidence, merge_reference_claims

    try:
        evidence = Evidence.from_bytes(Path(args.evidence).read_bytes())
        policy = EvidencePolicy.from_bytes(Path(args.policy).read_bytes())
        endorsements = [
            Endorsement.from_bytes(Path(p).read_bytes()) for p in args.endorsement
        ]
    except (OSError, ModelError) as exc:
        print(f"appraise: malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.nonce is not None:
        value, colon, tick = args.nonce.partition(":")
        try:
            issued_at = int(tick) if colon else evidence.nonce_echo.issued_at
            if not 0 <= issued_at < 2**64:
                raise ValueError(f"tick {issued_at} is not in [0, 2**64)")
            expected = Nonce(bytes.fromhex(value), issued_at)
        except (ValueError, ModelError) as exc:
            print(f"appraise: bad nonce: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not colon:
            print("appraise: --nonce gives no tick: freshness is not checked against the "
                  "challenge's tick", file=sys.stderr)
    else:
        expected = evidence.nonce_echo

    clock = args.clock if args.clock is not None else evidence.created_at
    if not 0 <= clock < 2**64:
        print("appraise: --clock must be an integer in [0, 2**64)", file=sys.stderr)
        return EXIT_USAGE
    if args.verifier is None:
        verifier = SignerIdentity.create(Role.VERIFIER, "cli-verifier", random.Random(args.seed))
    else:
        try:
            verifier = load_identity(Path(args.verifier))
        except (OSError, ModelError) as exc:
            print(f"appraise: cannot read identity {args.verifier}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if verifier.entity.role != Role.VERIFIER:
            print(f"appraise: {args.verifier} is not a verifier identity "
                  f"(role {verifier.entity.role.value})", file=sys.stderr)
            return EXIT_USAGE
    references = merge_reference_claims(endorsements)
    result = appraise_evidence(evidence, references, policy, expected, verifier, clock)

    if args.out:
        try:
            Path(args.out).write_bytes(result.to_bytes())
        except OSError as exc:
            print(f"appraise: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_WRITE
    print(f"verdict: {result.verdict.value}")
    for reason in result.reasons:
        print(reason)
    if result.verdict == Verdict.COMPLIANT:
        return EXIT_OK
    if result.verdict == Verdict.UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_NON_COMPLIANT


def cmd_simulate(args) -> int:
    try:
        cfg = scenario.load_scenario(args.scenario)
        universe = scenario.build_universe(cfg)  # refuses a fault that cannot apply
        consortium.distribute_policies(universe)
        reports = [consortium.run_epoch(universe) for _ in range(cfg.epochs)]
    except OSError as exc:
        print(f"simulate: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (scenario.ScenarioError, ModelError, consortium.SimError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "epoch_reports.txt").write_text(
            "\n\n".join(r.render() for r in reports) + "\n", encoding="utf-8"
        )
        (out_dir / "ledger.hex").write_text(consortium.export_ledger(universe.ledger))
        (out_dir / "ledger.txt").write_text(
            "\n".join(consortium.render_block(b) for b in universe.ledger) + "\n"
        )
    except OSError as exc:
        print(f"simulate: cannot write {out_dir}: {exc}", file=sys.stderr)
        return EXIT_WRITE
    tip = universe.ledger[-1].block_digest.hex() if universe.ledger else "(empty)"
    print(f"tip: {tip}")
    return EXIT_OK


def cmd_ledger(args) -> int:
    try:
        blocks = consortium.import_ledger(Path(args.ledger).read_text(errors="replace"))
    except (OSError, ModelError) as exc:
        print(f"ledger: cannot decode export: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY if isinstance(exc, ModelError) else EXIT_USAGE
    if args.verify:
        fault = consortium.verify_chain(blocks)
        if fault is not None:
            print(f"ledger: integrity failure: {fault}", file=sys.stderr)
            return EXIT_INTEGRITY
        print(f"ledger ok: {len(blocks)} blocks")
        return EXIT_OK
    if args.height is not None:
        if not 0 <= args.height < len(blocks):
            heights = f"[0, {len(blocks) - 1}]" if blocks else "an empty export"
            print(f"ledger: height {args.height} is not in {heights}", file=sys.stderr)
            return EXIT_USAGE
        print(consortium.render_block(blocks[args.height]))
        return EXIT_OK
    for block in blocks:
        print(consortium.render_block(block))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache  # once per process: building it costs about a millisecond
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attestnet",
        description="Remote-attestation toolkit and attestation-gated consortium simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate and persist a role identity")
    p.add_argument("role", help="attester|verifier|relying_party|endorser|owner")
    p.add_argument("name")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("appraise", help="appraise an evidence file against a policy")
    p.add_argument("evidence")
    p.add_argument("policy")
    p.add_argument("--endorsement", action="append", default=[])
    p.add_argument("--nonce", help="the challenge: its value in hex, then :TICK, the tick it "
                   "was issued at (without it, the evidence's echoed tick is taken)")
    p.add_argument("--clock", type=int, default=None)
    p.add_argument("--out", help="write the signed result here")
    p.add_argument("--verifier", metavar="IDENTITY", help="sign the result with this `keygen` "
                   "verifier identity (without it, with a key built from --seed)")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("simulate", help="run a scenario and export ledger + reports")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)

    p = sub.add_parser("ledger", help="inspect or verify a ledger export")
    p.add_argument("ledger")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--verify", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return globals()[f"cmd_{args.command}"](args)  # looked up now, so a patched one runs


if __name__ == "__main__":
    sys.exit(main())
