"""The benchmark's workloads: fixed lists of CLI jobs and the check behind each.

A job is one ``quadversary`` command line.  Its check reads the report it
wrote (by column name, so added columns do not break it) and returns a list
of problems; an empty list means the output is correct.  Every check is
independent of the library: it recomputes the expected value from the job's
parameters with exact integer or rational arithmetic where it can, and with
a stated statistical tolerance where the report is a Monte Carlo estimate.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# union_box_volume's Monte Carlo fallback draws this many points; the CLI's
# --mc-samples flag does not reach it.
UNION_MC_SAMPLES = 200_000
# Tolerance of every statistical check, in standard errors.
Z = 5.0

Check = Callable[[Path], list[str]]


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``--out`` is appended by the harness."""

    name: str
    argv: tuple[str, ...]
    check: Check
    fmt: str = "csv"
    seed: int | None = None


def job_seed(workload_seed: int, job_name: str) -> int:
    """63-bit job seed derived from the workload seed and the job's name."""
    digest = hashlib.sha256(f"{workload_seed}/{job_name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _one_row(path: Path) -> dict[str, str]:
    rows = _rows(path)
    if len(rows) != 1:
        raise ValueError(f"expected one report row, found {len(rows)}")
    return rows[0]


def _manifest(path: Path) -> dict:
    with open(path.parent / (path.stem + ".manifest.json")) as fh:
        return json.load(fh)


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# --- monotone adversary -------------------------------------------------


def _grid_scan_certificate(dim: int, budget: int) -> Fraction:
    """Certificate of the grid-scan transcript by counting grid cells.

    Grid-scan queries the first ``budget`` centres (2i+1)/(2m) of the
    smallest m^d lattice that holds them.  With 2m cells per axis every box
    face lies on a cell boundary, so counting the cell centres inside the
    union of boxes gives its volume exactly.  Coordinates are kept in units
    of 1/(4m): corners are 4i+2 and cell centres 2j+1.
    """
    m = 1
    while m**dim < budget:
        m += 1
    idx = np.array(list(itertools.islice(itertools.product(range(m), repeat=dim), budget)))
    corners = 4 * idx + 2
    upper = (2 * idx + 1).sum(axis=1) >= dim * m  # the probe's step at sum = d/2
    cells = 2 * np.array(list(itertools.product(range(2 * m), repeat=dim))) + 1

    def covered(boxes: np.ndarray, below: bool) -> int:
        if boxes.size == 0:
            return 0
        if below:
            inside = (cells[:, None, :] <= boxes[None, :, :]).all(axis=2)
        else:
            inside = (cells[:, None, :] >= boxes[None, :, :]).all(axis=2)
        return int(inside.any(axis=1).sum())

    total = cells.shape[0]
    gap = total - covered(corners[~upper], True) - covered(corners[upper], False)
    return Fraction(gap, 2 * total)


def monotone_adversary(
    name: str, dim: int, budget: int, algorithm: str, workload_seed: int
) -> Job:
    seed = job_seed(workload_seed, name) if algorithm == "uniform-random" else None
    argv = ["adversary", "--class", "monotone", "--d", str(dim),
            "--budget", str(budget), "--algorithm", algorithm]
    if seed is not None:
        argv += ["--seed", str(seed)]
    exact = _grid_scan_certificate(dim, budget) if algorithm == "grid-scan" else None

    def check(path: Path) -> list[str]:
        row = _one_row(path)
        cert = float(row["error_lower_bound"])
        problems: list[str] = []
        _expect(problems, int(row["n"]) == budget, f"n={row['n']}, expected {budget}")
        _expect(problems, 0.0 <= cert <= 0.5, f"certificate {cert} outside [0, 1/2]")
        if exact is not None:
            _expect(problems, abs(cert - float(exact)) <= 1e-12,
                    f"certificate {cert} != grid count {exact}")
        else:
            # Each of the two union volumes has standard error <= 1/(2 sqrt(N)).
            se = math.sqrt(2 * 0.25 / UNION_MC_SAMPLES) / 2
            floor = (1 - budget * 2.0**-dim) / 2 - Z * se
            _expect(problems, cert >= floor, f"certificate {cert} below {floor}")
        return problems

    return Job(name, tuple(argv), check, seed=seed)


# --- convex adversary ---------------------------------------------------


def convex_adversary(
    name: str,
    dim: int,
    budget: int,
    algorithm: str,
    mc_samples: int,
    workload_seed: int,
    expected: float | None = None,
) -> Job:
    seed = job_seed(workload_seed, name) if algorithm == "uniform-random" else None
    argv = ["adversary", "--class", "convex", "--d", str(dim), "--budget", str(budget),
            "--algorithm", algorithm, "--mc-samples", str(mc_samples)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    n = min(budget, 2**dim) if algorithm == "vertex-scan" else budget

    def check(path: Path) -> list[str]:
        row = _one_row(path)
        stat, se = float(row["error_lower_bound_stat"]), float(row["std_error"])
        low, high = float(row["ci_low"]), float(row["ci_high"])
        problems: list[str] = []
        _expect(problems, int(row["n"]) == n, f"n={row['n']}, expected {n}")
        _expect(problems, low <= stat <= high, f"stat {stat} outside [{low}, {high}]")
        if expected is not None:
            _expect(problems, abs(stat - expected) <= Z * se,
                    f"stat {stat} not within {Z} SE ({se}) of {expected}")
        return problems

    return Job(name, tuple(argv), check, seed=seed)


# --- closed forms and the height threshold ------------------------------


def t0_job(name: str) -> Job:
    def check(path: Path) -> list[str]:
        with open(path) as fh:
            obj = json.load(fh)
        problems: list[str] = []
        _expect(problems, 0.0 < obj["t0"] < 1.0, f"t0={obj['t0']} outside (0, 1)")
        _expect(problems, obj["eps0"] == obj["t0"] / 2, f"eps0={obj['eps0']} != t0/2")
        return problems

    return Job(name, ("t0",), check, fmt="json")


def gscan_job(name: str, tstep: float) -> Job:
    rows_expected = round(1 / tstep) + 1

    def check(path: Path) -> list[str]:
        rows = _rows(path)
        problems: list[str] = []
        _expect(problems, len(rows) == rows_expected,
                f"{len(rows)} rows, expected {rows_expected}")
        bad = [r["t"] for r in rows if not 0.0 < float(r["g_min"]) <= 1.0]
        _expect(problems, not bad, f"g_min outside (0, 1] at t={bad[:3]}")
        return problems

    argv = ("gscan", "--tmin", "0", "--tmax", "1", "--tstep", repr(tstep))
    return Job(name, argv, check)


def bounds_job(name: str, problem_class: str, eps: float, dmax: int) -> Job:
    def check(path: Path) -> list[str]:
        rows = _rows(path)
        e = Fraction(eps)
        if problem_class == "convex":
            eps0 = Fraction(_manifest(path)["config"]["eps0"])
        problems: list[str] = []
        _expect(problems, [int(r["d"]) for r in rows] == list(range(1, dmax + 1)),
                "rows do not cover d = 1..dmax in order")
        for r in rows:
            d = int(r["d"])
            if problem_class == "monotone":
                want = math.ceil(Fraction(2) ** d * (1 - 2 * e))
            else:
                want = math.ceil(Fraction(11, 10) ** d * (1 - e / eps0) / (d + 1))
            if int(r["bound"]) != max(0, want):
                problems.append(f"d={d}: bound {r['bound']} != {max(0, want)}")
                break
        return problems

    argv = ("bounds", "--class", problem_class, "--eps", repr(eps), "--dmax", str(dmax))
    return Job(name, argv, check)


# --- baseline quadrature ------------------------------------------------


def staircase_job(name: str, dim: int, cells: int) -> Job:
    """Staircase rule on the product oracle, whose integral is 2^-d."""

    def check(path: Path) -> list[str]:
        row = _one_row(path)
        est, err = float(row["estimate"]), float(row["certified_error_or_rmse"])
        problems: list[str] = []
        _expect(problems, int(row["n"]) == (cells + 1) ** dim, f"n={row['n']}")
        _expect(problems, abs(est - 2.0**-dim) <= err,
                f"bracket {est} +- {err} misses 2^-{dim}")
        return problems

    argv = ("quad", "--method", "staircase", "--oracle", "product",
            "--d", str(dim), "--m", str(cells))
    return Job(name, argv, check)


def mc_job(name: str, dim: int, n: int, workload_seed: int) -> Job:
    """Monte Carlo on the threshold oracle, whose integral is 1/2."""
    seed = job_seed(workload_seed, name)

    def check(path: Path) -> list[str]:
        est = float(_one_row(path)["estimate"])
        tol = Z / math.sqrt(n)
        return [] if abs(est - 0.5) <= tol else [f"estimate {est} not within {tol} of 1/2"]

    argv = ("quad", "--method", "mc", "--oracle", "threshold", "--d", str(dim),
            "--n", str(n), "--seed", str(seed))
    return Job(name, argv, check, seed=seed)


# --- the workloads ------------------------------------------------------


def _monotone_certify(seed: int, smoke: bool) -> list[Job]:
    if smoke:
        return [
            monotone_adversary("mono-d8-b60-random", 8, 60, "uniform-random", seed),
            monotone_adversary("mono-d4-b10-grid", 4, 10, "grid-scan", seed),
        ]
    return [
        monotone_adversary("mono-d10-b100-random", 10, 100, "uniform-random", seed),
        monotone_adversary("mono-d12-b200-random", 12, 200, "uniform-random", seed),
        monotone_adversary("mono-d6-b34-grid", 6, 34, "grid-scan", seed),
        monotone_adversary("mono-d6-b32-grid", 6, 32, "grid-scan", seed),
    ]


def _convex_hull(seed: int, smoke: bool) -> list[Job]:
    if smoke:
        return [
            convex_adversary("cvx-d4-b10-random", 4, 10, "uniform-random", 2000, seed),
            convex_adversary("cvx-d8-b8-vertex", 8, 8, "vertex-scan", 10_000, seed, expected=5 / 12),
            convex_adversary("cvx-d2-b100-grid", 2, 100, "grid-scan", 100, seed),
        ]
    return [
        # How much LP work a random point set needs varies by about 10% from
        # seed to seed, so each random job runs on four point sets.
        *(convex_adversary(f"cvx-d6-b30-random-{k}", 6, 30, "uniform-random", 2_000, seed)
          for k in range(4)),
        *(convex_adversary(f"cvx-d8-b8-random-{k}", 8, 8, "uniform-random", 2_000, seed)
          for k in range(4)),
        # The first 8 vertices span the face x1 = ... = x5 = 0, so the maximal
        # function is max(x1..x5), with integral 5/6 and error floor 5/12.
        convex_adversary("cvx-d8-b8-vertex", 8, 8, "vertex-scan", 100_000, seed, expected=5 / 12),
        convex_adversary("cvx-d2-b1000-grid", 2, 1000, "grid-scan", 100, seed),
    ]


def _bounds_scan(seed: int, smoke: bool) -> list[Job]:
    if smoke:
        return [
            t0_job("t0"),
            gscan_job("gscan-step0.05", 0.05),
            bounds_job("bounds-monotone-d50", "monotone", 0.25, 50),
            bounds_job("bounds-convex-d50", "convex", 0.01, 50),
            staircase_job("quad-staircase-d3-m4", 3, 4),
            mc_job("quad-mc-d5-n1e4", 5, 10_000, seed),
            convex_adversary("cvx-d2-b100-grid", 2, 100, "grid-scan", 10, seed),
        ]
    return [
        t0_job("t0"),
        gscan_job("gscan-step5e-4", 5e-4),
        bounds_job("bounds-monotone-d2000", "monotone", 0.25, 2000),
        bounds_job("bounds-convex-d2000", "convex", 0.01, 2000),
        staircase_job("quad-staircase-d6-m10", 6, 10),
        mc_job("quad-mc-d10-n4e6", 10, 4_000_000, seed),
        convex_adversary("cvx-d2-b4000-grid", 2, 4000, "grid-scan", 10, seed),
    ]


WORKLOADS: dict[str, Callable[[int, bool], list[Job]]] = {
    "monotone-certify": _monotone_certify,
    "convex-hull": _convex_hull,
    "bounds-scan": _bounds_scan,
}


def jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The job list of one workload; the same seed gives the same jobs."""
    return WORKLOADS[workload](seed, smoke)
