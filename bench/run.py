"""disctrace benchmark: three-point kernel experiments, lift checks and
cold CLI commands, with a traced mode that times each layer.

Run from the repository root; it needs numpy and the standard library:

    python3 bench/run.py --workload kernel-d8 --seed 0 --seconds 15 --trace 0

Workloads: kernel-d8, kernel-d12, lifts, cli (see bench/README.md).  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.  The full
result goes to bench/out/<workload>-s<seed>-t<trace>.json and the spans of
a traced run to bench/out/<workload>-s<seed>.spans.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "disctrace" / "__init__.py").is_file():
    sys.exit(f"error: no disctrace package under {SRC}; run from a repository checkout")

# the assembly pool runs at its default worker count, as users run it
os.environ.pop("DISCTRACE_THREADS", None)
sys.path.insert(0, str(SRC))

import disctrace as dt  # noqa: E402
import disctrace.cli  # noqa: E402,F401  (compiles its bytecode for the cold commands)
from disctrace.errors import DegenerateSample  # noqa: E402
from spans import Recorder, merge, summarize  # noqa: E402

SCENE = (dt.Complex2(0, 0), dt.Complex2(0.5, 0), dt.Complex2(0, 0.5))
SCENE_ARGS = ["0,0", "0.5,0", "0,0.5"]
SETUP_REPEATS = 5
# lemma_suite runs at its default seed: at some other seeds its
# transversality check reports the unreachable rank 6 (see CHANGES.md)
LEMMA_SEED = 0
ANGLE_BOUND = 1e-8
DFT_TOL = 1e-12
VALUE_TOL = 1e-10
LEMMA_NAMES = (
    "disc_sphere_attachment",
    "disc_canonicalization_symmetry",
    "lift_constant_through_origin",
    "boundary_lift_is_conormal",
    "lift_injectivity",
    "automorphism_disc_equivariance",
    "omega_holomorphy_fft",
    "span_equality_boundary",
    "span_equality_instance",
    "m0_pluriharmonicity",
    "contraction_realness",
    "contraction_identities",
    "transversality_rank",
    "direction_sweep_winding",
    "winding_instance",
)


# ---------------------------------------------------------------------------
# inputs and reference values made by the benchmark itself
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def random_point(rng, rmax: float) -> np.ndarray:
    while True:
        v = rng.uniform(-rmax, rmax, size=4)
        if 0.05 < np.linalg.norm(v) < rmax:
            return v[0::2] + 1j * v[1::2]


def random_holomorphic(rng, terms: int, degree: int) -> dict:
    """Function-file document of a holomorphic polynomial."""
    doc = []
    for _ in range(terms):
        a1 = int(rng.integers(0, degree + 1))
        a2 = int(rng.integers(0, degree + 1 - a1))
        c = rng.normal(size=2)
        doc.append({"alpha": [a1, a2], "beta": [0, 0], "re": float(c[0]), "im": float(c[1])})
    return {"terms": doc}


def format_point(z: np.ndarray) -> str:
    """CLI form "re,im;re,im" of a point, with every digit."""
    return ";".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in z)


def evaluate_holomorphic(doc: dict, z: np.ndarray) -> complex:
    return complex(sum(
        complex(t["re"], t["im"]) * z[0] ** t["alpha"][0] * z[1] ** t["alpha"][1]
        for t in doc["terms"]
    ))


def dft_moment_rows(a: np.ndarray, b: np.ndarray, d: int, basis) -> np.ndarray:
    """Rows k = 1..d of the moment matrix for the disc a + tau*b: Fourier
    coefficient -k of each monomial z^alpha conj(z)^beta on the boundary,
    from N > 2d samples (exact for trigonometric polynomials of degree d)."""
    n = 4 * d + 4
    theta = 2 * np.pi * np.arange(n) / n
    z = a[None, :] + np.exp(1j * theta)[:, None] * b[None, :]
    powers = z[:, :, None] ** np.arange(d + 1)[None, None, :]  # (n, 2, d + 1)
    e = np.array(basis)
    samples = (
        powers[:, 0, e[:, 0]] * powers[:, 1, e[:, 1]]
        * np.conj(powers[:, 0, e[:, 2]]) * np.conj(powers[:, 1, e[:, 3]])
    )
    coeffs = np.fft.fft(samples, axis=0) / n
    return coeffs[[n - k for k in range(1, d + 1)], :]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Child:
    """A finished child process: wall time from spawn to exit, exit code,
    output, and its own peak resident memory."""

    def __init__(self, argv: list[str], env: dict):
        OUT.mkdir(exist_ok=True)
        with open(OUT / "child.stdout", "w+b") as out, open(OUT / "child.stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - t0
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            self.stdout = out.read().decode()
            self.stderr = err.read().decode()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def measure_setup() -> list[float]:
    """Wall times for a fresh interpreter to finish `import disctrace`."""
    argv = [sys.executable, "-c", "import disctrace"]
    walls = []
    for _ in range(SETUP_REPEATS):
        child = Child(argv, child_env())
        if child.code != 0:
            sys.exit(f"error: `import disctrace` failed:\n{child.stderr}")
        walls.append(child.wall)
    return walls


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Check:
    def __init__(self, name: str, ok: bool, detail: str):
        self.name, self.ok, self.detail = name, bool(ok), detail


class KernelWorkload:
    """Three-point kernel experiments at the standard scene; one operation
    per round."""

    in_process = True

    def __init__(self, d: int, discs: int, stability: bool, fault: bool):
        self.d, self.n, self.stability, self.fault = d, discs, stability, fault
        self.reports, self.failures, self.seeds = [], [], []

    def prepare(self, rng) -> None:
        self.rng = rng

    def warm_up(self) -> None:
        dt.kernel_experiment(*SCENE, d=2, discs_per_point=6, check_stability=False)

    def run_round(self, traced: bool) -> tuple[int, int]:
        seed = int(self.rng.integers(2**31))
        self.seeds.append(seed)
        try:
            report = dt.kernel_experiment(
                *SCENE, d=self.d, discs_per_point=self.n, seed=seed,
                check_stability=self.stability,
            )
        except DegenerateSample as exc:
            if not self.fault:
                raise
            self.failures.append(str(exc))
            return 1, 1
        self.reports.append(report)
        return 1, 0

    def checks(self) -> list[Check]:
        d = self.d
        dim = (d + 1) * (d + 2) // 2
        out = []
        dims = sorted({(r.kernel_dimension, r.expected_holomorphic_dimension) for r in self.reports})
        out.append(Check(
            "kernel_dimension",
            all(k == dim and h == dim for k, h in dims),
            f"(kernel, holomorphic) dimensions {dims} of {len(self.reports)} completed "
            f"operations, closed form {dim}",
        ))
        angles = [r.max_principal_angle for r in self.reports]
        out.append(Check(
            "principal_angle",
            all(a is not None and a < ANGLE_BOUND for a in angles),
            f"max principal angle {max(angles, default=float('nan')):.2e} < {ANGLE_BOUND:.0e}",
        ))
        if self.failures:
            out.append(Check(
                "failures_are_rank_decision",
                all(f.startswith("spectral gap") for f in self.failures),
                f"{len(self.failures)} DegenerateSample, e.g. {self.failures[0]!r}",
            ))
        # spot check: whole rows of the moment matrix at one random disc of
        # each family of the first operation, against the benchmark's DFT
        seed = self.seeds[0]
        picked = []
        for j, P in enumerate(SCENE):
            family = dt.sample_disc_family(P, self.n, seed + j)
            picked.append(family[int(self.rng.integers(len(family)))])
        matrix = dt.build_moment_matrix(d, picked)
        worst = 0.0
        for i, disc in enumerate(picked):
            ref = dft_moment_rows(disc.a.as_array(), disc.b.as_array(), d, matrix.basis)
            worst = max(worst, float(np.max(np.abs(matrix.matrix[i * d:(i + 1) * d] - ref))))
        out.append(Check(
            "moment_entries_vs_dft",
            worst < DFT_TOL,
            f"{matrix.matrix.size} entries, max |difference| {worst:.1e} < {DFT_TOL:.0e}",
        ))
        return out

    def figures(self, walls: list[float]) -> dict:
        return {"kernel_s": statistics.median(walls)}


class LiftsWorkload:
    """One round: lemma_suite, then a batch of lifted_value calls at lift
    points of discs through random centres."""

    in_process = True
    BATCH = 6000

    def __init__(self):
        self.lemma_walls, self.batch_walls, self.reports, self.values = [], [], [], []

    def prepare(self, rng) -> None:
        self.rng = rng
        self.doc = random_holomorphic(rng, terms=5, degree=6)
        self.f = dt.HermitianPolynomial.from_json_dict(self.doc)
        self.points = []
        for _ in range(self.BATCH):
            P = random_point(rng, 0.8)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            disc = dt.disc_from_line(dt.Complex2(*P), dt.Complex2(*v))
            tau = rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform())
            z = np.array([disc.a.z1 + tau * disc.b.z1, disc.a.z2 + tau * disc.b.z2])
            self.points.append((dt.Complex2(*P), dt.lift(disc, tau), z))

    def warm_up(self) -> None:
        for P, L, _ in self.points[:5]:
            dt.lifted_value(self.f, P, L)

    def run_round(self, traced: bool) -> tuple[int, int]:
        t0 = time.perf_counter()
        self.reports.append(dt.lemma_suite(seed=LEMMA_SEED))
        t1 = time.perf_counter()
        values = [dt.lifted_value(self.f, P, L) for P, L, _ in self.points]
        t2 = time.perf_counter()
        self.lemma_walls.append(t1 - t0)
        self.batch_walls.append(t2 - t1)
        self.values.append(values)
        return 1 + self.BATCH, 0

    def checks(self) -> list[Check]:
        failed = sorted({
            c.name for r in self.reports for c in r.checks if not c.passed
        })
        names_ok = all(tuple(c.name for c in r.checks) == LEMMA_NAMES for r in self.reports)
        expected = np.array([evaluate_holomorphic(self.doc, z) for _, _, z in self.points])
        scale = 1.0 + sum(abs(complex(t["re"], t["im"])) for t in self.doc["terms"])
        worst = max(float(np.max(np.abs(np.array(v) - expected))) for v in self.values)
        return [
            Check(
                "lemma_checks",
                names_ok and not failed,
                f"{len(self.reports)} suites of the {len(LEMMA_NAMES)} named checks, "
                f"failing: {failed or 'none'}",
            ),
            Check(
                "lifted_value_is_f",
                worst <= VALUE_TOL * scale,
                f"{len(self.values) * self.BATCH} values, max |lifted_value - f(z)| "
                f"{worst:.1e} <= {VALUE_TOL * scale:.1e}",
            ),
        ]

    def figures(self, walls: list[float]) -> dict:
        return {
            "lemmas_s": statistics.median(self.lemma_walls),
            "lifted_values_per_s": self.BATCH / statistics.median(self.batch_walls),
        }


class CliWorkload:
    """One round: cold `kernel`, `test` and `extend` commands, each a fresh
    interpreter."""

    in_process = False

    def __init__(self):
        self.children: list[tuple[str, Child]] = []
        self.traced_children: list[tuple[Child, float]] = []
        self.summaries = []

    def prepare(self, rng) -> None:
        OUT.mkdir(exist_ok=True)
        self.seed = int(rng.integers(2**31))
        self.doc = random_holomorphic(rng, terms=4, degree=4)
        self.f_path = OUT / f"cli-f-{self.seed}.json"
        self.g_path = OUT / "cli-abs-z2-squared.json"
        self.f_path.write_text(json.dumps(self.doc))
        self.g_path.write_text(json.dumps(
            {"terms": [{"alpha": [0, 1], "beta": [0, 1], "re": 1.0, "im": 0.0}]}
        ))
        self.point = format_point(random_point(rng, 0.8))
        self.at_z = random_point(rng, 0.8)
        self.at = format_point(self.at_z)
        seed = str(self.seed)
        self.commands = {
            "kernel": ["kernel", "--points", *SCENE_ARGS, "--degree", "4",
                       "--discs", "60", "--seed", seed, "--json-only"],
            "test": ["test", "--function", str(self.f_path), f"--point={self.point}",
                     "--seed", seed],
            "extend": ["extend", "--function", str(self.f_path), "--points", *SCENE_ARGS,
                       f"--at={self.at}", "--seed", seed],
        }

    def warm_up(self) -> None:
        pass  # cold start is what this workload measures

    def run_round(self, traced: bool) -> tuple[int, int]:
        for name, args in self.commands.items():
            if traced:
                spans = OUT / f"cli-s{self.seed}-{len(self.children)}-{name}.spans.npz"
                child = Child([sys.executable, str(BENCH / "cli_child.py"), str(spans), *args],
                              child_env())
                with np.load(spans) as arrays:
                    summary = summarize(dict(arrays))
                self.summaries.append(summary)
                self.traced_children.append((child, summary["cli.main"]["total_s"]))
            else:
                child = Child([sys.executable, "-m", "disctrace.cli", *args], child_env())
            self.children.append((name, child))
        return len(self.commands), 0

    def peak_rss_mb(self) -> float:
        return max(c.peak_rss_mb for _, c in self.children)

    def checks(self) -> list[Check]:
        out = []
        by_name = {n: [c for m, c in self.children if m == n] for n in self.commands}
        kernel_ok = True
        for c in by_name["kernel"]:
            doc = json.loads(c.stdout) if c.code == 0 else {}
            kernel_ok &= doc.get("kernel_dimension") == 15 == doc.get("holomorphic_dimension")
        out.append(Check("cli_kernel_dimension", kernel_ok,
                         f"{len(by_name['kernel'])} runs report kernel and holomorphic dimension 15"))
        test_ok = True
        for c in by_name["test"]:
            lines = c.stdout.strip().splitlines() or [""]
            verdicts = [ln.rsplit(",", 1)[-1] for ln in lines[1:-1]]
            test_ok &= (c.code == 0 and lines[-1] == "summary,pass"
                        and len(verdicts) == 100 and set(verdicts) == {"true"})
        out.append(Check("cli_test_holomorphic", test_ok,
                         f"{len(by_name['test'])} runs pass all 100 discs"))
        expected = evaluate_holomorphic(self.doc, self.at_z)
        worst_value, worst_disc = 0.0, 0.0
        extend_ok = True
        for c in by_name["extend"]:
            fields = dict(ln.split(",", 1) for ln in c.stdout.split())
            if c.code != 0 or set(fields) != {"value", "discrepancy"}:
                extend_ok = False
                continue
            re_, im_ = (float(x) for x in fields["value"].split(","))
            worst_value = max(worst_value, abs(complex(re_, im_) - expected))
            worst_disc = max(worst_disc, float(fields["discrepancy"]))
        out.append(Check(
            "cli_extend_value",
            extend_ok and worst_value <= VALUE_TOL * (1 + abs(expected)) and worst_disc < 1e-8,
            f"|value - f(z)| {worst_value:.1e}, discrepancy {worst_disc:.1e} < 1e-8",
        ))
        # control: |z2|^2 is not extendible, so neither command may pass it
        env = child_env()
        g_test = Child([sys.executable, "-m", "disctrace.cli", "test", "--function",
                        str(self.g_path), f"--point={self.point}"], env)
        g_extend = Child([sys.executable, "-m", "disctrace.cli", "extend", "--function",
                          str(self.g_path), "--points", *SCENE_ARGS, f"--at={self.at}"], env)
        out.append(Check(
            "cli_control_not_extendible",
            g_test.code == 1 and g_test.stdout.strip().endswith("summary,fail")
            and g_extend.code == 1 and "not extendible" in g_extend.stderr,
            f"|z2|^2: test exit {g_test.code}, extend exit {g_extend.code}",
        ))
        return out

    def figures(self, walls: list[float]) -> dict:
        figures = {"command_s": statistics.median(c.wall for _, c in self.children)}
        for name in self.commands:
            figures[f"{name}_command_s"] = statistics.median(
                c.wall for m, c in self.children if m == name)
        return figures


WORKLOADS = {
    "kernel-d8": lambda: KernelWorkload(d=8, discs=30, stability=True, fault=False),
    "kernel-d12": lambda: KernelWorkload(d=12, discs=50, stability=False, fault=True),
    "lifts": LiftsWorkload,
    "cli": CliWorkload,
}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------


def layer_metrics(total: dict, rounds: int, wl, overhead_pct: float) -> dict:
    def get(name, key):
        return total.get(name, {}).get(key, 0.0) / rounds

    build_s = get("verification.build_moment_matrix", "total_s")
    entries = get("verification.build_moment_matrix", "work")
    main_s = get("cli.main", "total_s")
    startup_s = 0.0
    if isinstance(wl, CliWorkload):
        startup_s = sum(c.wall - m for c, m in wl.traced_children) / rounds
    values = {
        "verification.build_moment_matrix_s": (build_s, "s"),
        "verification.moment_entries_per_s": (entries / build_s if build_s else 0.0, "1/s"),
        "verification.rank_decision_s": (get("verification.kernel_experiment", "self_s"), "s"),
        "verification.sample_disc_family_s": (get("verification.sample_disc_family", "total_s"), "s"),
        "verification.lift_pair_min_distance_s":
            (get("verification.lift_pair_min_distance", "total_s"), "s"),
        "verification.lemma_suite_self_s": (get("verification.lemma_suite", "self_s"), "s"),
        "moments.restrict_to_disc_calls": (get("moments.restrict_to_disc", "calls"), "count"),
        "moments.restrict_to_disc_s": (get("moments.restrict_to_disc", "total_s"), "s"),
        "moments.extension_value_s": (get("moments.extension_value", "total_s"), "s"),
        "moments.extendibility_test_s": (get("moments.extendibility_test", "total_s"), "s"),
        "discs.lift_calls": (get("discs.lift", "calls"), "count"),
        "discs.lift_s": (get("discs.lift", "total_s"), "s"),
        "discs.disc_from_line_calls": (get("discs.disc_from_line", "calls"), "count"),
        "discs.disc_from_line_s": (get("discs.disc_from_line", "total_s"), "s"),
        "discs.disc_from_lift_point_s": (get("discs.disc_from_lift_point", "total_s"), "s"),
        "geometry.cp1point_constructions": (get("geometry.CP1Point", "calls"), "count"),
        "geometry.cp1_distance_s": (get("geometry.cp1_distance", "total_s"), "s"),
        "boundary.gram_matrix_s": (get("boundary.gram_matrix", "total_s"), "s"),
        "crlifts.transversality_rank_s": (get("crlifts.transversality_rank", "total_s"), "s"),
        "crlifts.direction_sweep_winding_s":
            (get("crlifts.direction_sweep_winding", "total_s"), "s"),
        "cli.main_s": (main_s, "s"),
        "cli.startup_s": (startup_s, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    OUT.mkdir(exist_ok=True)

    setup_walls = [] if args.trace else measure_setup()
    wl = WORKLOADS[args.workload]()
    wl.prepare(np.random.default_rng(args.seed))
    wl.warm_up()

    # rounds run until --seconds have passed; a traced run alternates
    # untraced and traced rounds and ends after a traced one
    recorder = Recorder()
    walls = {False: [], True: []}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced and wl.in_process:
            recorder.install()
        t0 = time.perf_counter()
        a, f = wl.run_round(traced)
        wall = time.perf_counter() - t0
        if traced and wl.in_process:
            recorder.uninstall()
        walls[traced].append(wall)
        attempted, failed = attempted + a, failed + f
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or walls[True]):
            break

    checks = wl.checks()
    correct = all(c.ok for c in checks)
    untraced = walls[False]
    figures = {"round_s": statistics.median(untraced), **wl.figures(untraced)}

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        if wl.in_process:
            recorder.save(OUT / f"{args.workload}-s{args.seed}.spans.npz")
            summaries = [summarize(recorder.arrays())]
        else:
            summaries = wl.summaries
        traced_round = statistics.median(walls[True])
        overhead = 100.0 * (traced_round / figures["round_s"] - 1.0)
        metrics = layer_metrics(merge(summaries), len(walls[True]), wl, overhead)
        print(f"tracing overhead: traced round {traced_round:.4f} s against untraced "
              f"{figures['round_s']:.4f} s ({overhead:+.1f}%)")
    else:
        peak = (wl.peak_rss_mb() if not wl.in_process
                else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
            "round_s": {"value": figures["round_s"], "unit": "s"},
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(untraced)} untraced, {len(walls[True])} traced")
    for name, value in figures.items():
        print(f"  {name:40s} {value:.6g}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {attempted}  failed {failed}")
    for c in checks:
        print(f"  check {c.name:32s} {'pass' if c.ok else 'FAIL'}  {c.detail}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "figures": figures,
        "round_walls": {"untraced": walls[False], "traced": walls[True]},
        "setup_walls": setup_walls,
        "checks": [vars(c) for c in checks],
        "environment": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "threads_env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
