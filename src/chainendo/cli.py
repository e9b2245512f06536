"""Command line front end.

Specs are given as one-word kind plus key=value fields:

    sim n=6 A=1,3,4     a simplex by its vertex set (the word sim may
                        be dropped)
    str n=4 a=1 b=2     a two-vertex string
    tri n=6 a=1 b=3 c=4 a three-vertex triangle

Exit status: 0 when the requested verdict holds, 1 when a checked
statement is violated (including iso on nonisomorphic inputs), 2 for
unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, claims, counting, diagram, simplex, strings, triangle
from .core import ChainEndoError, _runs, format_compact, parse_compact
from .simplex import SimplexSpec
from .strings import StringSpec
from .triangle import TriangleSpec


def parse_spec(text: str) -> SimplexSpec | StringSpec | TriangleSpec:
    """Turn a spec literal into the matching spec object."""
    tokens = text.split()
    if not tokens:
        raise ChainEndoError("empty spec")
    kind = "sim"
    if tokens[0] in ("sim", "str", "tri"):
        kind = tokens[0]
        tokens = tokens[1:]
    fields: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not value:
            raise ChainEndoError(f"expected key=value, got {token!r}")
        if key in fields:
            raise ChainEndoError(f"duplicate field {key!r}")
        fields[key] = value

    def grab_int(key: str) -> int:
        try:
            return int(fields.pop(key))
        except KeyError:
            raise ChainEndoError(f"spec needs {key}=") from None
        except ValueError:
            raise ChainEndoError(f"{key} must be an integer") from None

    n = grab_int("n")
    if kind == "tri":
        spec = TriangleSpec(n, grab_int("a"), grab_int("b"), grab_int("c"))
    elif kind == "str":
        spec = StringSpec(n, grab_int("a"), grab_int("b"))
    else:
        raw = fields.pop("A", None)
        if raw is None:
            raise ChainEndoError("spec needs A=v1,v2,...")
        try:
            verts = tuple(int(part) for part in raw.split(","))
        except ValueError:
            raise ChainEndoError("A must be a comma list of integers") from None
        spec = SimplexSpec(n, verts)
    if fields:
        raise ChainEndoError(f"unknown fields {sorted(fields)}")
    return spec


def _members(spec):
    if isinstance(spec, TriangleSpec):
        return triangle.elements(spec)
    if isinstance(spec, StringSpec):
        return strings.elements(spec)
    return simplex.enumerate_simplex(spec)


def _spec_fields(spec) -> dict:
    if isinstance(spec, TriangleSpec):
        return {"kind": "tri", "n": spec.n, "a": spec.a, "b": spec.b, "c": spec.c}
    if isinstance(spec, StringSpec):
        return {"kind": "str", "n": spec.n, "a": spec.a, "b": spec.b}
    return {"kind": "sim", "n": spec.n, "A": list(spec.vertices)}


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_elements(args) -> int:
    spec = parse_spec(args.spec)
    members = _members(spec)
    if args.json:
        _emit({**_spec_fields(spec), "elements": [list(e.values) for e in members]})
    else:
        for e in members:
            print(format_compact(e))
    return 0


def _cmd_table(args) -> int:
    spec = parse_spec(args.spec)
    members = _members(spec)
    combine = (lambda x, y: x + y) if args.op == "add" else (lambda x, y: x * y)
    labels = [format_compact(e) for e in members]
    rows = [
        [format_compact(combine(x, y)) for y in members] for x in members
    ]
    if args.json:
        _emit(
            {
                **_spec_fields(spec),
                "op": args.op,
                "labels": labels,
                "table": rows,
            }
        )
        return 0
    width = max(len(lab) for lab in labels)
    head = " " * width + "  " + "  ".join(lab.rjust(width) for lab in labels)
    print(head)
    for lab, row in zip(labels, rows):
        print(lab.rjust(width) + "  " + "  ".join(v.rjust(width) for v in row))
    return 0


def _cmd_classify(args) -> int:
    if args.n is None:  # the chain the runs fill
        n = sum(mult for _, mult in _runs(args.element))
    else:
        _require_positive(args, "--n")
        n = args.n
    endo = parse_compact(args.element, n)
    verdict = analysis.classify_element(endo)
    payload = {
        "element": format_compact(endo),
        "n": n,
        "kind": verdict.kind,
        "idempotent": format_compact(verdict.idempotent),
        "exponent": verdict.exponent,
        "target": verdict.target,
    }
    if args.json:
        _emit(payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _cmd_decompose(args) -> int:
    spec = parse_spec(args.spec)
    if isinstance(spec, StringSpec):
        return _decompose_string(spec, args)
    if not isinstance(spec, TriangleSpec):
        raise ChainEndoError("decompose expects a tri or str spec")
    report = triangle.decompose(spec)
    if args.json:
        regions = {
            summary.region.json_key: {
                "count": len(summary.elements),
                "formula": summary.formula_order,
                "closed": summary.closed,
                "elements": [format_compact(e) for e in summary.elements],
            }
            for summary in report.regions.values()
        }
        _emit(
            {
                **_spec_fields(spec),
                "regions": regions,
                "disjoint": report.disjoint,
                "cover": report.cover,
                "ok": report.ok,
            }
        )
        return 0 if report.ok else 1
    for summary in report.regions.values():
        line = (
            f"{summary.region.name.lower():<18} "
            f"count={len(summary.elements):<4} "
            f"formula={summary.formula_order:<4} "
            f"closed={'yes' if summary.closed else 'NO'}"
        )
        if args.with_elements:
            line += "  " + " | ".join(format_compact(e) for e in summary.elements)
        print(line)
    print(
        f"disjoint={'yes' if report.disjoint else 'NO'} "
        f"cover={'yes' if report.cover else 'NO'} "
        f"ok={'yes' if report.ok else 'NO'}"
    )
    return 0 if report.ok else 1


def _decompose_string(spec: StringSpec, args) -> int:
    part = strings.partition_string(spec)
    blocks = [
        ("nil_a", part.nil_low),
        ("id", part.idem),
        ("nil_b", part.nil_high),
    ]
    if args.json:
        _emit(
            {
                **_spec_fields(spec),
                "blocks": {
                    label: {
                        "count": len(members),
                        "elements": [format_compact(e) for e in members],
                    }
                    for label, members in blocks
                },
            }
        )
        return 0
    for label, members in blocks:
        line = f"{label:<6} count={len(members):<4}"
        if args.with_elements:
            line += "  " + " | ".join(format_compact(e) for e in members)
        print(line)
    return 0


def _require_positive(args, *options: str) -> None:
    """Refuse a sweep bound below 1, which would check nothing and pass,
    or a chain size below 1."""
    for option in options:
        value = getattr(args, option.lstrip("-").replace("-", "_"))
        if value < 1:
            raise ChainEndoError(f"{option} must be at least 1, got {value}")


def _cmd_check(args) -> int:
    if args.list:
        for claim in claims.REGISTRY.values():
            print(f"{claim.id}: {claim.statement}")
        return 0
    _require_positive(args, "--n-max", "--jobs")
    ids = args.ids or None
    results = claims.run_all(args.n_max, jobs=args.jobs, ids=ids)
    if args.json:
        _emit(
            [
                {
                    "id": r.claim_id,
                    "holds": r.holds,
                    "checked": r.checked,
                    "failure_params": r.failure_params,
                    "witness": r.witness,
                    "elapsed": round(r.elapsed, 3),
                }
                for r in results
            ]
        )
    else:
        for r in results:
            mark = "pass" if r.holds else "FAIL"
            line = f"{mark}  {r.claim_id:<28} checked={r.checked:<6} {r.elapsed:7.2f}s"
            if not r.holds:
                line += f"  at={r.failure_params} witness={r.witness}"
            print(line)
    return 0 if all(r.holds for r in results) else 1


def _cmd_counts(args) -> int:
    _require_positive(args, "--n-max")
    report = counting.audit(args.n_max)
    if args.json:
        _emit(
            {
                "n_max": report.n_max,
                "ok": report.ok,
                "formulas": [
                    {
                        "id": r.id,
                        "ok": r.ok,
                        "checked": r.checked,
                        "first_mismatch": r.first_mismatch,
                    }
                    for r in report.results
                ],
            }
        )
    else:
        for r in report.results:
            mark = "pass" if r.ok else "FAIL"
            line = f"{mark}  {r.id:<24} checked={r.checked}"
            if not r.ok:
                params, value, counted = r.first_mismatch
                line += f"  at={params} formula={value} enumerated={counted}"
            print(line)
    return 0 if report.ok else 1


def _cmd_render(args) -> int:
    spec = parse_spec(args.spec)
    if not isinstance(spec, TriangleSpec):
        raise ChainEndoError("render expects a tri spec")
    text = diagram.render(spec, mode=args.mode, color_by=args.color_by)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            print(f"error: cannot write {args.out}: {err.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _cmd_iso(args) -> int:
    first = _members(parse_spec(args.first))
    second = _members(parse_spec(args.second))
    same, mapping = analysis.iso_check(first, second)
    if args.json:
        _emit(
            {
                "isomorphic": same,
                "mapping": mapping
                and {
                    format_compact(x): format_compact(y)
                    for x, y in sorted(mapping.items())
                },
            }
        )
    elif same:
        print("isomorphic")
        for x, y in sorted(mapping.items()):
            print(f"{format_compact(x)} -> {format_compact(y)}")
    else:
        print("not isomorphic")
    return 0 if same else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainendo",
        description="Monotone self-maps of a finite chain as a semiring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("elements", help="list the members of a spec")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_elements)

    p = sub.add_parser("table", help="full operation table of a spec")
    p.add_argument("spec")
    p.add_argument("--op", choices=("add", "mul"), default="mul")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("classify", help="power behaviour of one member")
    p.add_argument("element", help="compact literal such as '1_2 2 3'")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "decompose", help="region report of a triangle or block partition of a string"
    )
    p.add_argument("spec")
    p.add_argument("--with-elements", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("check", help="run registered structure claims")
    p.add_argument("ids", nargs="*", metavar="CLAIM")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--list", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("counts", help="audit counting formulas")
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_counts)

    p = sub.add_parser("render", help="draw a triangle as ascii or svg")
    p.add_argument("spec")
    p.add_argument("--mode", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--color-by", choices=("none", "region"), default="none")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("iso", help="semiring isomorphism test of two specs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_iso)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except claims.UnknownClaim as err:
        print(f"unknown claim: {err.args[0]}", file=sys.stderr)
        return 2
    except ValueError as err:  # ChainEndoError, DomainError, UnsupportedSize among them
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
