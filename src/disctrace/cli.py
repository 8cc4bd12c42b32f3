"""Command line interface: kernel / test / lemmas / extend.

Exit codes: 0 = verification passed, 1 = verification failed,
2 = usage error.  All randomness sits behind a single --seed flag and
reports are byte-stable across reruns.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .boundary import MAX_DEGREE, HermitianPolynomial, reduced_basis
from .errors import (
    CollinearPoints,
    DegenerateSample,
    DegreeOverflow,
    DiscTraceError,
    NotExtendible,
)
from .geometry import Complex2
from .moments import MOMENT_RTOL, extendibility_test
from .verification import (
    extension_consistency,
    kernel_experiment,
    lemma_suite,
    sample_disc_family,
)

# a disc family holds one Python object per disc; the kernel command's
# stability run also builds a complex moment matrix of 3 * 2n * d rows
_MAX_DISCS = 100_000
_MAX_MATRIX_BYTES = 2**30


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes "-0.3,0.1" as a value, not an option: no
    option starts with a minus sign and a digit, and argparse itself lets
    through only plain negative numbers."""

    def _parse_optional(self, arg_string):
        if re.match(r"-\.?\d", arg_string):
            return None
        return super()._parse_optional(arg_string)


def parse_point(text: str) -> Complex2:
    """Parse a C^2 point: "re,im;re,im", or the real shorthand "x,y" for
    the point (x, y)."""
    try:
        if ";" in text:
            parts = text.split(";")
            if len(parts) != 2:
                raise ValueError
            coords = []
            for p in parts:
                re_, im_ = p.split(",")
                coords.append(complex(float(re_), float(im_)))
            return Complex2(coords[0], coords[1])
        x, y = text.split(",")
        return Complex2(float(x), float(y))
    except (ValueError, IndexError) as exc:
        raise UsageError(f"cannot parse point {text!r}") from exc


def parse_interior_point(text: str) -> Complex2:
    """parse_point, rejecting points outside the open unit ball."""
    p = parse_point(text)
    if p.norm() >= 1.0:
        raise UsageError(f"point {text!r} must be interior (|P| < 1)")
    return p


def format_point(p: Complex2) -> str:
    return f"{p.z1.real},{p.z1.imag};{p.z2.real},{p.z2.imag}"


def _dump(doc: dict, path: str | None, to_stdout: bool) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if to_stdout or path is None:
        sys.stdout.write(text)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)


def _load_function(path: str) -> HermitianPolynomial:
    try:
        return HermitianPolynomial.load(path)
    except FileNotFoundError as exc:
        raise UsageError(f"function file not found: {path}") from exc
    except (
        json.JSONDecodeError, KeyError, TypeError, ValueError, DegreeOverflow
    ) as exc:
        raise UsageError(f"malformed function file {path}: {exc}") from exc


def _check_degree(d: int) -> None:
    if not 0 <= d <= MAX_DEGREE:
        raise UsageError(f"degree must be in [0, {MAX_DEGREE}]")


def _check_discs(n: int, limit: int = _MAX_DISCS) -> None:
    if not 1 <= n <= limit:
        raise UsageError(f"--discs must be in [1, {limit}]")


def _kernel_disc_limit(d: int) -> int:
    """The largest --discs whose doubled moment matrix fits in 1 GiB."""
    per_disc = 16 * 3 * 2 * d * len(reduced_basis(d))
    return min(_MAX_DISCS, _MAX_MATRIX_BYTES // per_disc) if d else _MAX_DISCS


def cmd_kernel(args) -> int:
    _check_degree(args.degree)
    _check_discs(args.discs, _kernel_disc_limit(args.degree))
    points = [parse_interior_point(t) for t in args.points]
    try:
        report = kernel_experiment(
            *points,
            d=args.degree,
            discs_per_point=args.discs,
            seed=args.seed,
        )
    except CollinearPoints as exc:
        raise UsageError(str(exc)) from exc
    except DegenerateSample as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    _dump(report.to_json_dict(), args.out, args.json_only)
    # the kernel contains the holomorphic span, so equal dimensions mean
    # equal spaces
    passed = report.kernel_dimension == report.expected_holomorphic_dimension
    return 0 if passed else 1


def cmd_test(args) -> int:
    _check_discs(args.discs)
    f = _load_function(args.function)
    P = parse_interior_point(args.point)
    discs = sample_disc_family(P, args.discs, args.seed)
    all_pass = True
    print("disc_id,max_negative_modulus,verdict")
    for i, disc in enumerate(discs):
        rep = extendibility_test(f, disc)
        all_pass = all_pass and rep.verdict
        print(f"{i},{rep.max_negative_modulus:.3e},{str(rep.verdict).lower()}")
    print(f"summary,{'pass' if all_pass else 'fail'}")
    return 0 if all_pass else 1


def cmd_lemmas(args) -> int:
    report = lemma_suite(seed=args.seed)
    _dump(report.to_json_dict(), args.out, args.json_only)
    return 0 if report.all_passed else 1


def cmd_extend(args) -> int:
    _check_discs(args.discs)
    f = _load_function(args.function)
    points = [parse_interior_point(t) for t in args.points]
    z = parse_interior_point(args.at)
    if z in points:
        raise UsageError("--at must differ from each of --points")
    # membership in the joint kernel at the function's own degree: f must
    # extend along every sampled disc through each of the three points
    for j, P in enumerate(points):
        for disc in sample_disc_family(P, args.discs, args.seed + j):
            rep = extendibility_test(f, disc)
            if not rep.verdict:
                print(
                    "not extendible: max negative modulus "
                    f"{rep.max_negative_modulus:.3e} along a disc through "
                    f"{format_point(P)}",
                    file=sys.stderr,
                )
                return 1
    try:
        value, discrepancy = extension_consistency(f, *points, z=z)
    except NotExtendible as exc:
        print(f"not extendible: {exc}", file=sys.stderr)
        return 1
    print(f"value,{value.real!r},{value.imag!r}")
    print(f"discrepancy,{discrepancy!r}")
    # the moment test's relative bound, over every term of f
    bound = MOMENT_RTOL * sum(abs(c) for c in f.terms.values())
    return 0 if discrepancy <= bound else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="disctrace",
        description="Moment tests and nullspace experiments for straight "
        "discs of the unit ball in C^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument(
            "--json-only",
            action="store_true",
            help="with --out, also print the report to stdout (without --out "
            "it is always printed)",
        )

    k = sub.add_parser("kernel", help="three-point nullspace experiment")
    k.add_argument("--points", nargs=3, required=True)
    k.add_argument("--degree", type=int, default=4)
    k.add_argument("--discs", type=int, default=60)
    common(k)
    k.set_defaults(func=cmd_kernel)

    t = sub.add_parser("test", help="per-disc moment test of a function file")
    t.add_argument("--function", required=True)
    t.add_argument("--point", required=True)
    t.add_argument("--discs", type=int, default=100)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(func=cmd_test)

    le = sub.add_parser("lemmas", help="run the lemma-level numerical checks")
    common(le)
    le.set_defaults(func=cmd_lemmas)

    e = sub.add_parser("extend", help="extension value with consistency check")
    e.add_argument("--function", required=True)
    e.add_argument("--points", nargs=3, required=True)
    e.add_argument("--at", required=True)
    e.add_argument("--discs", type=int, default=30)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=cmd_extend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise UsageError("--seed must be non-negative")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiscTraceError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
