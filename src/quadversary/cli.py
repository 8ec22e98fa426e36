"""Command-line harness: run adversaries, evaluate bounds, emit reports.

Subcommands
    adversary  run a registered algorithm against the adversarial probe and
               report certified (monotone) or statistical (convex) error
               lower bounds next to the closed-form bound
    bounds     tabulate query-count lower bounds over a dimension range
    gscan      scan the Chernoff factor over slice heights
    t0         compute the certified height threshold and accuracy cutoff
    quad       run baseline quadrature on built-in integrands
    verify     run the acceptance criteria (quadversary.acceptance), the same
               checks as the pytest acceptance suite; takes about 20 s on
               2 vCPUs

Every report command takes ``--out``; ``adversary`` and ``quad`` also take
``--seed``, and all but ``t0`` (always JSON) take ``--format``.  Reports are
CSV ('.' decimal, LF endings, header row, deterministic row order) or JSON;
every run also writes a manifest with the configuration values it read (any
seed included) and library versions, enough to reproduce the output bytes.
Exit codes: 0 success, 2 configuration error (an unknown algorithm or oracle
id included), 3 internal consistency failure (a monotone fooling pair that
disagrees with the probe included); neither error writes a file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, algorithms, convex, monotone, quadrature
from .core import DomainError, RandomStream, run_algorithm

__all__ = ["ConfigError", "ConsistencyError", "main", "run"]

OUT_DIR_ENV = "QUADVERSARY_OUT_DIR"


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


class ConsistencyError(RuntimeError):
    """An internal consistency gate failed (exit code 3)."""


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _resolve_out(out: str | None, default_name: str) -> Path:
    if out:
        return Path(out)
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / default_name


def _write_report(path: Path, header: list[str], rows: list[list], fmt: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(v) for v in row])
    else:
        obj = [dict(zip(header, row)) for row in rows]
        _write_json(path, obj)


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(out: Path, command: str, config: dict, summary: str) -> int:
    """Write the manifest next to the report ``out``, print the summary line, return 0."""
    manifest = {
        "command": command,
        "config": config,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "quadversary": __version__,
        },
    }
    _write_json(out.parent / (out.stem + ".manifest.json"), manifest)
    print(f"{summary} -> {out}")
    return 0


def _convex_theorem_bound(n: int, dim: int, t0: float) -> float:
    """Error floor implied by the closed-form hull-volume cap."""
    return max(0.0, 0.5 * (1.0 - convex.hull_volume_upper_bound(n, dim, t0)))


def _check_d_and_seed(args) -> None:
    if args.d < 1:
        raise ConfigError("d must be at least 1")
    if not (0 <= args.seed < 2**64):
        raise ConfigError("seed must be a 64-bit nonnegative integer")


def cmd_adversary(args) -> int:
    _check_d_and_seed(args)
    if args.budget < 0:
        raise ConfigError("budget must be nonnegative")
    dim = args.d
    config = {"class": args.problem_class, "d": dim, "budget": args.budget,
              "seed": args.seed, "algorithm": args.algorithm}
    stream = RandomStream(args.seed)
    alg = algorithms.make_algorithm(args.algorithm, dim, args.budget, stream.substream("algorithm"))

    if args.problem_class == "monotone":
        oracle = algorithms.make_oracle("threshold", dim)
        transcript, _ = run_algorithm(alg, oracle, args.budget)
        pair = monotone.build_fooling_pair(transcript.points, dim)
        for name, values in (("f+", pair.fplus_values), ("f-", pair.fminus_values)):
            if not np.array_equal(values(transcript.points), transcript.values):
                raise ConsistencyError(f"{name} disagrees with the probe on the transcript")
        certified = pair.gap.low / 2.0
        theorem = monotone.error_lower_bound(pair.n, dim)
        if certified < theorem - 1e-12:
            raise ConsistencyError(
                f"certified bound {certified} fell below the closed form {theorem}"
            )
        gap = {"gap_low": pair.gap.low, "gap_high": pair.gap.high,
               "guaranteed_gap": 2.0 * theorem,
               "provenance": "exact" if pair.gap.exact else "bracket"}
        out = _resolve_out(args.out, f"adversary.{args.format}")
        if args.format == "json":
            _write_json(out, {
                "d": dim, "L": pair.lower_corners.tolist(), "U": pair.upper_corners.tolist(),
                **gap, "error_lower_bound": certified, "theorem_lower_bound": theorem,
            })
        else:
            header = ["d", "n", "ell", *gap, "error_lower_bound"]
            _write_report(out, header, [[dim, pair.n, pair.ell, *gap.values(), certified]], "csv")
        return _finish(out, "adversary", config,
                       f"adversary monotone d={dim} n={pair.n} certified>={certified!r}")

    if args.mc_samples < 1:
        raise ConfigError("mc-samples must be at least 1")
    oracle = algorithms.zero_oracle(dim)
    transcript, _ = run_algorithm(alg, oracle, args.budget)
    estimate = convex.empirical_error_lower_bound(
        transcript.points, dim, args.mc_samples, stream.substream("hull-mc")
    )
    threshold = convex.default_height_threshold()
    theorem = _convex_theorem_bound(transcript.n, dim, threshold.t0)
    out = _resolve_out(args.out, f"adversary.{args.format}")
    header = [
        "d",
        "n",
        "error_lower_bound_stat",
        "std_error",
        "ci_low",
        "ci_high",
        "error_lower_bound_theorem",
    ]
    rows = [[
        dim,
        transcript.n,
        estimate.value,
        estimate.std_error,
        estimate.value - 3.0 * estimate.std_error,
        estimate.value + 3.0 * estimate.std_error,
        theorem,
    ]]
    _write_report(out, header, rows, args.format)
    return _finish(out, "adversary", {**config, "mc_samples": args.mc_samples, "t0": threshold.t0},
                   f"adversary convex d={dim} n={transcript.n} stat>={estimate.value!r}")


def cmd_bounds(args) -> int:
    if not (0.0 < args.eps < 0.5):
        raise ConfigError("eps must lie in (0, 1/2)")
    if args.dmax < args.d or args.d < 1:
        raise ConfigError("need 1 <= d <= dmax")
    budget = args.budget
    rows = []
    extra: dict = {}
    if args.problem_class == "monotone":
        formula = "monotone-complexity-lower"
        bound_for = lambda d: monotone.complexity_lower_bound(args.eps, d)
    else:
        threshold = convex.default_height_threshold()
        extra["t0"] = threshold.t0
        extra["eps0"] = threshold.eps0
        formula = "convex-complexity-lower"
        bound_for = lambda d: convex.complexity_lower_bound(args.eps, d, threshold.eps0)
    for d in range(args.d, args.dmax + 1):
        bound = bound_for(d)
        rows.append([d, args.eps, bound, formula, "certified-closed-form", bound > budget])
    out = _resolve_out(args.out, "bounds." + args.format)
    header = ["d", "eps", "bound", "formula_id", "provenance", "exceeds_budget"]
    _write_report(out, header, rows, args.format)
    return _finish(out, "bounds", {
        "class": args.problem_class, "eps": args.eps, "d": args.d,
        "dmax": args.dmax, "budget": budget, **extra,
    }, f"bounds {args.problem_class} eps={args.eps} d={args.d}..{args.dmax}")


def cmd_gscan(args) -> int:
    if not (0.0 <= args.tmin <= args.tmax <= 1.0):
        raise ConfigError("need 0 <= tmin <= tmax <= 1")
    if not (args.tstep >= 1e-6):  # find_height_threshold's tolerance; caps rows at 10^6 + 1
        raise ConfigError("tstep must be at least 1e-6")
    rows = []
    t = args.tmin
    while t <= args.tmax + 1e-12:
        bound = convex.chernoff_factor_min((1.0 + t) / 4.0)
        rows.append([
            t,
            bound.s,
            bound.alpha_star,
            bound.g_min,
            convex.CERTIFICATION_LIMIT - bound.g_min,
        ])
        t = round(t + args.tstep, 12)
    out = _resolve_out(args.out, "gscan." + args.format)
    header = ["t", "s", "alpha_star", "g_min", "bound_10_over_11_margin"]
    _write_report(out, header, rows, args.format)
    return _finish(out, "gscan", {"tmin": args.tmin, "tmax": args.tmax, "tstep": args.tstep},
                   f"gscan {len(rows)} heights")


def cmd_t0(args) -> int:
    threshold = convex.default_height_threshold()
    out = _resolve_out(args.out, "t0.json")
    _write_json(out, {**dataclasses.asdict(threshold.bound_at_t0),
                      "t0": threshold.t0, "eps0": threshold.eps0})
    return _finish(out, "t0", {}, f"t0={threshold.t0!r} eps0={threshold.eps0!r}")


def cmd_quad(args) -> int:
    _check_d_and_seed(args)
    dim = args.d
    oracle = algorithms.make_oracle(args.oracle, dim)
    truth = algorithms.true_integral(args.oracle, dim)
    rows = []
    config = {"d": dim, "method": args.method, "oracle": args.oracle}
    if args.method in ("staircase", "both"):
        config["m"] = args.m
        bracket = quadrature.staircase_monotone(oracle, args.m)
        rows.append([dim, "staircase", bracket.samples_used, bracket.estimate,
                     bracket.certified_error, truth])
    if args.method in ("mc", "both"):
        if args.n < 1:
            raise ConfigError("mc needs --n >= 1")
        config.update(n=args.n, seed=args.seed)
        estimate, rmse = quadrature.monte_carlo(oracle, args.n, RandomStream(args.seed))
        rows.append([dim, "mc", args.n, estimate, rmse, truth])
    if args.method == "rate":
        brackets, slope = quadrature.staircase_rate(oracle)
        rows.extend(
            [dim, "staircase", b.samples_used, b.estimate, b.certified_error, truth]
            for b in brackets
        )
        rows.append([dim, "rate-slope", sum(b.samples_used for b in brackets), slope, "", ""])
    out = _resolve_out(args.out, "quad." + args.format)
    header = ["d", "method", "n", "estimate", "certified_error_or_rmse", "true_value_if_known"]
    _write_report(out, header, rows, args.format)
    return _finish(out, "quad", config, f"quad {args.method} oracle={args.oracle} d={dim}")


def cmd_verify(args) -> int:
    from . import acceptance

    failures = 0
    for criterion in acceptance.CRITERIA:
        try:
            line = acceptance.run_criterion(criterion)
        except Exception as exc:  # a crashing criterion is a failing criterion
            failures += 1
            line = f"ACCEPTANCE {criterion.number:2d} FAIL: {type(exc).__name__}: {exc}"
        print(line, flush=True)
    total = len(acceptance.CRITERIA)
    print(f"{total - failures}/{total} criteria passed")
    if failures:
        raise ConsistencyError(f"{failures} acceptance criteria failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadversary",
        description="Adversarial error certificates and baseline quadrature on the unit cube",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(p):
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("adversary", help="run an algorithm against the adversarial probe")
    p.add_argument("--class", dest="problem_class", choices=("monotone", "convex"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--mc-samples", type=int, default=10_000,
                   help="Monte Carlo samples of the hull volume (--class convex only)")
    p.add_argument("--algorithm", type=str, default="constant-half",
                   help=f"one of {', '.join(algorithms.ALGORITHM_IDS)}")
    p.add_argument("--seed", type=int, default=0)
    add_report(p)
    p.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("bounds", help="tabulate query-count lower bounds")
    p.add_argument("--class", dest="problem_class", choices=("monotone", "convex"), required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**6,
                   help="query budget against which bounds are flagged")
    add_report(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("gscan", help="scan the Chernoff factor over slice heights")
    p.add_argument("--tmin", type=float, default=0.0)
    p.add_argument("--tmax", type=float, default=0.4)
    p.add_argument("--tstep", type=float, default=0.02)
    add_report(p)
    p.set_defaults(fn=cmd_gscan)

    p = sub.add_parser("t0", help="compute the certified height threshold")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_t0)

    p = sub.add_parser("quad", help="baseline quadrature on built-in integrands")
    p.add_argument("--method", choices=("staircase", "mc", "both", "rate"), default="staircase")
    p.add_argument("--oracle", type=str, default="threshold",
                   help=f"one of {', '.join(algorithms.ORACLE_IDS)}")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=4, help="staircase cells per axis")
    p.add_argument("--n", type=int, default=0, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0)
    add_report(p)
    p.set_defaults(fn=cmd_quad)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
