"""Command line interface: kernel / test / lemmas / extend.

Exit codes: 0 = verification passed, 1 = verification failed,
2 = usage error.  All randomness sits behind a single --seed flag and
reports are byte-stable across reruns.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys

from .boundary import MAX_DEGREE, HermitianPolynomial, reduced_basis
from .discs import LINE_MARGIN
from .errors import CollinearPoints, DiscTraceError, NotExtendible
from .geometry import Complex2
from .lemmas import lemma_suite
from .moments import extendibility_test, within_moment_bound
from .verification import (
    extension_consistency,
    kernel_experiment,
    sample_disc_families,
    sample_disc_family,
)

# a disc family holds one Python object per disc; the kernel command's
# stability run also stores the |beta| staircase of M_nh: for 2n discs per
# point, one complex entry per disc, monomial z^alpha conj(z)^beta and
# k = 1..|beta|.  _MAX_MATRIX_BYTES bounds that staircase only, whatever the
# number of points.  The rank step's scratch comes on top: about two copies
# of its stage-1 stack, one row per disc over the non-holomorphic columns
# in complex entries (3 * 2n * 728 * 16 B for three points at d = 12), which
# is about 0.4 GB at the three-point degree-12 cap of n = 2997
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
    # each part is tested first: the norm squares them, overflowing above 1.3e154
    parts = (p.z1.real, p.z1.imag, p.z2.real, p.z2.imag)
    if any(abs(x) >= 1.0 for x in parts) or p.norm() >= 1.0:
        raise UsageError(f"point {text!r} must be interior (|P| < 1)")
    return p


def format_point(p: Complex2) -> str:
    return f"{p.z1.real},{p.z1.imag};{p.z2.real},{p.z2.imag}"


def _check_report_path(path: str | None) -> None:
    """Reject an --out path that cannot be written before the run starts,
    without creating or truncating the file."""
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else parent
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(parent) and not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(target, os.W_OK):
        code = errno.EACCES if os.path.exists(target) else errno.ENOENT
    else:
        return
    raise UsageError(f"cannot write report {path}: {os.strerror(code)}")


def _dump(doc: dict, path: str | None, to_stdout: bool) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if to_stdout or path is None:
        sys.stdout.write(text)
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report {path}: {exc.strerror}") from exc


def _load_function(path: str) -> HermitianPolynomial:
    try:
        return HermitianPolynomial.load(path)
    except FileNotFoundError as exc:
        raise UsageError(f"function file not found: {path}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read function file {path}: {exc.strerror}") from exc
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"malformed function file {path}: {exc}") from exc


def _check_degree(d: int) -> None:
    if not 0 <= d <= MAX_DEGREE:
        raise UsageError(f"degree must be in [0, {MAX_DEGREE}]")


def _check_discs(n: int, limit: int = _MAX_DISCS) -> None:
    if not 1 <= n <= limit:
        raise UsageError(f"--discs must be in [1, {limit}]")


def _kernel_disc_limit(d: int, points: int) -> int:
    """The largest --discs whose doubled run over the given number of
    points has a |beta| staircase that fits in 1 GiB; the rank step's
    scratch, about 0.4 GB more for three points at degree 12, is not counted
    (see _MAX_MATRIX_BYTES)."""
    per_disc = 16 * points * 2 * sum(k[2] + k[3] for k in reduced_basis(d))
    return min(_MAX_DISCS, _MAX_MATRIX_BYTES // per_disc) if d else _MAX_DISCS


def cmd_kernel(args) -> int:
    _check_degree(args.degree)
    _check_discs(args.discs, _kernel_disc_limit(args.degree, len(args.points)))
    points = [parse_interior_point(t) for t in args.points]
    _check_report_path(args.out)
    report = kernel_experiment(
        *points, d=args.degree, discs_per_point=args.discs, seed=args.seed
    )
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
    _check_report_path(args.out)
    report = lemma_suite(seed=args.seed)
    _dump(report.to_json_dict(), args.out, args.json_only)
    return 0 if report.all_passed else 1


def cmd_extend(args) -> int:
    _check_discs(args.discs)
    f = _load_function(args.function)
    if len(args.points) < 2:
        # one disc family has no second disc through --at to compare with
        raise UsageError("extend needs two or more --points: one does not suffice")
    points = [parse_interior_point(t) for t in args.points]
    z = parse_interior_point(args.at)
    if z.norm() ** 2 >= 1.0 - LINE_MARGIN:
        raise UsageError(f"--at {args.at!r} must satisfy |z|^2 < 1 - {LINE_MARGIN:g}")
    families = sample_disc_families(points, args.discs, args.seed)
    if z in points:
        raise UsageError("--at must differ from each of --points")
    # membership in the joint kernel at the function's own degree: f must
    # extend along every sampled disc through each of the points
    for P, family in zip(points, families):
        for disc in family:
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
    return 0 if within_moment_bound(discrepancy, list(f.terms.values())) else 1


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

    k = sub.add_parser("kernel", help="nullspace experiment through one or more points")
    k.add_argument("--points", nargs="+", required=True)
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
    e.add_argument("--points", nargs="+", required=True)
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
    except (UsageError, CollinearPoints) as exc:
        # CollinearPoints: --points not in general position, or --at on one of them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiscTraceError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
