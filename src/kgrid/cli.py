"""Command line driver.

Exit codes: 0 success (and ISOMORPHIC for classify), 1 negative result
(NOT_ISOMORPHIC, failed verification, rejected lift, a sweep mismatch or
recovery failure), 2 indeterminate classification (exceptional-only
difference), 64 parse error, 65 unsupported parameter range, 141 the reader
of standard output closed it before all output was written (128 + SIGPIPE,
as a shell reports a process that SIGPIPE ended; nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from .cartan import (
    CartanDescriptor,
    ParseError,
    TripleSpec,
    UnsupportedFactorError,
    canonicalize_spec,
    enveloping_tro,
    intrinsic_dim,
    is_exceptional,
    parse_triple_spec,
)
from .catalog import sweep
from .grids import grid_for, grid_gamma, verify_grid
from .invariant import classify, gamma_report, k_grid_invariant
from .tro import LiftError, parse_space, lift_hom
from .exact import parse_scalar

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INDETERMINATE = 2
EXIT_PARSE = 64
EXIT_RANGE = 65
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    # argparse uses exit code 2 for usage errors; 2 is taken by "indeterminate"
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _factor_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _build_parser() -> _Parser:
    # the flags are accepted on both sides of the subcommand; the subparser
    # copies use SUPPRESS so they never overwrite a value set up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS, help="emit JSON")
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress output, keep exit codes")

    parser = _Parser(prog="kgrid", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress output, keep exit codes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", parents=[common],
                       help="K-grid invariant of a factor spec")
    p.add_argument("spec", help='factor spec, e.g. "I(2,3)+IV(6)"')

    p = sub.add_parser("classify", parents=[common],
                       help="decide isomorphism of two factor specs")
    p.add_argument("spec1")
    p.add_argument("spec2")

    p = sub.add_parser("verify", parents=[common],
                       help="construct and verify the grids of a factor spec")
    p.add_argument("spec")

    p = sub.add_parser("lift", parents=[common],
                       help="lift a multiplicity matrix to a TRO-homomorphism")
    p.add_argument("alpha", help="JSON file holding the integer matrix")
    p.add_argument("source", help='source space, e.g. "M(2,1)+M(1,1)"')
    p.add_argument("target", help='target space, e.g. "M(5,4)"')

    p = sub.add_parser("table", parents=[common],
                       help="regenerate the per-factor invariant table")
    p.add_argument("--rect-max", type=int, default=5)
    p.add_argument("--hilbert-max", type=int, default=7)
    p.add_argument("--symplectic-max", type=int, default=8)
    p.add_argument("--hermitian-max", type=int, default=8)
    p.add_argument("--spin-max", type=int, default=9)

    p = sub.add_parser("sweep", parents=[common],
                       help="classify and recover the catalog multisets")
    p.add_argument("--max-factors", type=_factor_count, default=3)

    return parser


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    if args.quiet:
        return
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _spec_payload(spec: TripleSpec) -> dict:
    inv = k_grid_invariant(spec)
    canonical = canonicalize_spec(spec)
    diffs = [gamma_report(f) for f in canonical.factors if not is_exceptional(f)]
    payload = inv.to_dict()
    payload["factors"] = canonical.to_text()
    payload["published_table_diffs"] = [d for d in diffs
                                        if not d["matches_published"]]
    return payload


def _cmd_invariant(args: argparse.Namespace) -> int:
    spec = parse_triple_spec(args.spec)
    payload = _spec_payload(spec)
    lines = [
        f"factors (canonical): {payload['factors']}",
        f"K0 group: Z^{payload['group']['k']}",
        f"left caps:  {payload['group']['left']}",
        f"right caps: {payload['group']['right']}",
        f"gamma: {payload['gamma']}",
        f"exceptional factors: {payload['exceptional_count']}",
    ]
    for diff in payload["published_table_diffs"]:
        lines.append(
            f"note: {diff['factor']} computed gamma {diff['computed']} differs "
            f"from the tabulated {diff['published']}"
        )
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    verdict = classify(parse_triple_spec(args.spec1), parse_triple_spec(args.spec2))
    payload = verdict.to_dict()
    payload["exit_code"] = verdict.exit_code
    human = f"{verdict.status}: {verdict.detail}"
    if verdict.witness is not None:
        human += f"\nwitness permutation: {list(verdict.witness)}"
    _emit(args, payload, human)
    return verdict.exit_code


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = parse_triple_spec(args.spec)
    entries = []
    all_ok = True
    for factor in spec.factors:
        if is_exceptional(factor):
            entries.append({"factor": factor.to_text(), "exceptional": True,
                            "note": "trivial invariant; no grid model", "ok": True})
            continue
        g = grid_for(factor)
        report = verify_grid(g)
        entry = report.to_dict()
        entry["gamma"] = gamma_report(factor, grid_gamma(g))
        entries.append(entry)
        all_ok = all_ok and report.ok
    lines = []
    for e in entries:
        if e.get("exceptional"):
            lines.append(f"{e['factor']}: {e['note']}")
            continue
        status = "ok" if e["ok"] else "FAIL"
        lines.append(
            f"{e['factor']}: {status} ({len(e['elements'])} grid elements, "
            f"span {e['span']['found']}/{e['span']['expected']})"
        )
        for failure in e["failures"]:
            lines.append(f"  failure: {failure}")
        g = e["gamma"]
        agree = "agrees with" if g["matches_published"] else "DIFFERS from"
        lines.append(f"  gamma {g['computed']} {agree} tabulated {g['published']}")
    _emit(args, {"factors": entries, "ok": all_ok}, "\n".join(lines))
    return EXIT_OK if all_ok else EXIT_NEGATIVE


def _read_int_matrix(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.pos, f"{path}: {exc.msg}") from exc
    if not isinstance(data, list) or not data or not all(
            isinstance(row, list) for row in data):
        raise ParseError(0, f"{path}: expected a JSON array of rows")
    rows = []
    for row in data:
        out = []
        for cell in row:
            if isinstance(cell, str):
                s = parse_scalar(cell)
                if s.im or s.re.denominator != 1:
                    raise ValueError(f"multiplicity entry {cell!r} is not an integer")
                out.append(int(s.re))
            elif isinstance(cell, int) and not isinstance(cell, bool):
                out.append(cell)
            else:
                raise ValueError(f"multiplicity entry {cell!r} is not an integer")
        rows.append(out)
    return rows


def _cmd_lift(args: argparse.Namespace) -> int:
    alpha = _read_int_matrix(args.alpha)
    source = parse_space(args.source)
    target = parse_space(args.target)
    try:
        hom = lift_hom(alpha, source, target)
    except ValueError as exc:
        payload = {"ok": False, "error": str(exc)}
        if isinstance(exc, LiftError):
            payload.update(summand=exc.summand, side=exc.side, needed=exc.needed, cap=exc.cap)
        _emit(args, payload, f"not liftable: {exc}")
        return EXIT_NEGATIVE
    payload = {"ok": True, "mult": [list(r) for r in hom.mult],
               "source": source.to_text(), "target": target.to_text()}
    _emit(args, payload,
          f"lifted: {source.to_text()} -> {target.to_text()} with "
          f"multiplicities {[list(r) for r in hom.mult]}")
    return EXIT_OK


def _table_rows(args: argparse.Namespace) -> list:
    factors = []
    factors += [CartanDescriptor("I", (n, m))
                for n in range(2, args.rect_max + 1)
                for m in range(n, args.rect_max + 1)]
    factors += [CartanDescriptor("I", (1, n))
                for n in range(1, args.hilbert_max + 1)]
    factors += [CartanDescriptor("II", (n,))
                for n in range(5, args.symplectic_max + 1)]
    factors += [CartanDescriptor("III", (n,))
                for n in range(2, args.hermitian_max + 1)]
    factors += [CartanDescriptor("IV", (d,))
                for d in range(4, args.spin_max + 1)]
    rows = []
    for f in factors:
        report = gamma_report(f)
        tro = enveloping_tro(f)
        rows.append({
            "factor": f.to_text(),
            "dim": intrinsic_dim(f),
            "tro": tro.to_text(),
            "left": [n for n, _ in tro.summands],
            "right": [m for _, m in tro.summands],
            "gamma_computed": report["computed"],
            "gamma_published": report["published"],
            "matches_published": report["matches_published"],
        })
    return rows


def _cmd_table(args: argparse.Namespace) -> int:
    rows = _table_rows(args)
    header = f"{'factor':<10} {'dim':>4}  {'enveloping TRO':<28} {'gamma':<26} {'tabulated':<26} agree"
    lines = [header, "-" * len(header)]
    for r in rows:
        agree = "yes" if r["matches_published"] else "NO"
        lines.append(
            f"{r['factor']:<10} {r['dim']:>4}  {r['tro']:<28} "
            f"{str(r['gamma_computed']):<26} {str(r['gamma_published']):<26} {agree}"
        )
    _emit(args, {"rows": rows}, "\n".join(lines))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    found = sweep(args.max_factors)
    elapsed = time.perf_counter() - start
    failures = [str(c) for c in found.recovery_failures]
    ok = not found.mismatches and not failures
    lines = found.mismatches + [f"RECOVERY FAILURE: {c}" for c in failures] + [
        f"{found.multisets} multisets of <= {args.max_factors} factors, "
        f"{len(found.classes)} isomorphism classes ({elapsed:.1f}s)",
        f"classification mismatches: {len(found.mismatches)}",
        f"recovery failures: {len(failures)}",
        # worded before block matching replaced the witness search; kept as output
        f"near-collisions separated by the witness search: "
        f"{len(found.near_collisions)}",
    ] + [f"  {a}  |  {b}" for a, b in found.near_collisions]
    payload = {"max_factors": args.max_factors, "multisets": found.multisets,
               "classes": len(found.classes), "mismatches": found.mismatches,
               "recovery_failures": failures, "ok": ok,
               "near_collisions": [[str(a), str(b)]
                                   for a, b in found.near_collisions]}
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if ok else EXIT_NEGATIVE


_COMMANDS = {
    "invariant": _cmd_invariant,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "lift": _cmd_lift,
    "table": _cmd_table,
    "sweep": _cmd_sweep,
}


_PARSER = _build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # an OSError, but no negative result
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"kgrid: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            return EXIT_PARSE
        return EXIT_RANGE if isinstance(exc, UnsupportedFactorError) else EXIT_NEGATIVE


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # what is still buffered goes nowhere, so the exit flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
