"""Benchmark harness for the quadversary CLI.

Usage (from the repository root):

    python3 bench/run.py --workload monotone-certify --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

One run is one fresh, single-client Python process that imports the library
from ``src/`` and drives ``quadversary.cli.main(argv)`` through the
workload's job list, back to back (a closed loop).  One untimed warm-up pass
comes first; then it repeats the list in timed passes while another pass
fits in ``--seconds``, with at least five timed passes.  After each job,
outside its timed region, the harness checks the report and its SHA-256
digest.  BLAS and OpenMP run one thread unless the caller sets their
variables: on a machine of a few shared cores, threads that wait on each
other measure the scheduler, not the program.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
job attempts, and ``metrics`` holds the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``).

End-to-end metrics:
    wall_s       seconds for the job list, set-up excluded: the sum over jobs
                 of each job's median time over the untraced passes, so a
                 burst of load on the host spoils one sample, not the sum
    setup_s      median seconds to import quadversary.cli in a fresh
                 interpreter, over imports spread through the run
    peak_rss_mb  peak resident set of this process (ru_maxrss)

With ``--trace 1``, untraced and traced passes alternate, at least three
of each.  The per-layer metrics are medians over the traced passes, and
``trace.overhead_s`` is the traced ``wall_s`` minus the untraced one.
Reports, digests, spans and a results file with the environment and seed
block go to ``.bench_out/`` in the root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:  # before numpy is imported, here and in every child
    os.environ.setdefault(_var, "1")

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_IMPORTS = 7
MIN_PASSES = 5
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Attempt:
    """One execution of one job: its time, report digest and problems."""

    job: str
    seconds: float
    digest: str | None
    problems: list[str] = field(default_factory=list)


def source_digest() -> str:
    """SHA-256 over the library sources; identifies the code under test."""
    h = hashlib.sha256()
    for path in sorted((SRC / "quadversary").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestBook:
    """Report digests by workload, job, job seed and command line, kept across runs.

    The first digest seen for a key, in this run or an earlier run of the
    same sources, is the reference; a report that differs from it is a
    failed job.  Only reports that passed their check are recorded.
    """

    def __init__(self, path: Path, source: str, workload: str):
        self.path = path
        self.workload = workload
        self.store: dict = json.loads(path.read_text()) if path.exists() else {}
        self.book: dict[str, str] = self.store.setdefault(source, {})

    def key(self, job: workloads.Job) -> str:
        argv = hashlib.sha256("\0".join(job.argv).encode()).hexdigest()[:12]
        return f"{self.workload}/{job.name}/{job.seed}/{argv}"

    def check(self, job: workloads.Job, digest: str) -> list[str]:
        reference = self.book.setdefault(self.key(job), digest)
        return [] if reference == digest else [f"report digest {digest[:12]} != {reference[:12]}"]

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.store, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def run_job(cli, job: workloads.Job, out_dir: Path, tracer: tracing.Tracer | None) -> Attempt:
    """Run one job through ``cli.main``; only the call itself is timed."""
    out = out_dir / f"{job.name}.{job.fmt}"
    argv = [*job.argv, "--out", str(out)]
    captured = io.StringIO()
    span = tracer.job(job.name) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = perf_counter()
        try:
            with span:
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
        except Exception:  # a crashing job is a failed job, not a failed run
            code = "exception\n" + traceback.format_exc()
        seconds = perf_counter() - start
    if code != 0:
        return Attempt(job.name, seconds, None, [f"exit {code}: {captured.getvalue()[-2000:]}"])
    try:
        problems = job.check(out)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return Attempt(job.name, seconds, None, [f"unreadable report: {exc!r}"])
    return Attempt(job.name, seconds, digest, problems)


def run_pass(cli, convex, jobs, out_dir, book: DigestBook | None, tracer=None) -> list[Attempt]:
    """Run the job list once; each pass starts without a cached threshold."""
    convex.default_height_threshold.cache_clear()
    attempts = []
    for job in jobs:
        attempt = run_job(cli, job, out_dir, tracer)
        if book is not None and attempt.digest is not None and not attempt.problems:
            attempt.problems += book.check(job, attempt.digest)
        attempts.append(attempt)
    return attempts


def job_time_sum(passes: list[list[Attempt]], stat=statistics.median) -> float:
    """Sum over jobs of one statistic of each job's times across passes."""
    return sum(stat(times) for times in zip(*([a.seconds for a in p] for p in passes)))


def measure_setup() -> float:
    """Seconds to import quadversary.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import quadversary.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(seed: int, jobs: list[workloads.Job], source: str) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "source_sha256": source,
        "workload_seed": seed,
        "job_seeds": {job.name: job.seed for job in jobs},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the lines to print."""
    setup = [measure_setup()]
    sys.path.insert(0, str(SRC))
    from quadversary import cli, convex

    jobs = workloads.jobs(name, seed)
    source = source_digest()
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    book = DigestBook(OUT / "digests.json", source, name)
    plain: list[list[Attempt]] = []
    traced: list[tuple[list[Attempt], tracing.Tracer]] = []
    start = perf_counter()
    warmup = run_pass(cli, convex, jobs, out_dir, book)
    min_plain, min_traced = (3, 3) if trace else (MIN_PASSES, 0)
    steps: list[float] = []  # seconds per loop step, so the run ends by --seconds
    while (len(plain) < min_plain or len(traced) < min_traced
           or perf_counter() - start + statistics.median(steps) <= seconds):
        step_start = perf_counter()
        if len(setup) < SETUP_IMPORTS:
            setup.append(measure_setup())
        if trace and len(traced) < len(plain):
            tracer = tracing.Tracer()
            with tracer.installed():
                traced.append((run_pass(cli, convex, jobs, out_dir, book, tracer), tracer))
        else:
            plain.append(run_pass(cli, convex, jobs, out_dir, book))
        steps.append(perf_counter() - step_start)
    while len(setup) < SETUP_IMPORTS:
        setup.append(measure_setup())
    book.save()
    env = environment(seed, jobs, source)

    attempts = warmup + [a for p in plain for a in p] + [a for p, _ in traced for a in p]
    failed = [a for a in attempts if a.problems]
    wall = job_time_sum(plain)
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    for i, job in enumerate(jobs):
        times = [p[i].seconds for p in plain]
        lines.append(f"job {job.name} median_s={statistics.median(times):.4f} passes={len(times)}")
    for a in failed:
        lines.append(f"FAILED {a.job}: {'; '.join(a.problems)}")
    lines.append(f"failed_share {len(failed) / len(attempts):.4f} ({len(failed)}/{len(attempts)} job attempts)")

    if trace:
        per_pass = [tracing.layer_metrics(t, sum(a.seconds for a in p)) for p, t in traced]
        values = tracing.median_metrics(per_pass)
        values["trace.wall_s"] = job_time_sum([p for p, _ in traced])
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        spans_file = OUT / f"spans-{name}-seed{seed}.json"
        spans_file.write_text(json.dumps(traced[-1][1].spans))
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    lines += [f"metric {k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    result = {"correct": not failed, "attempted": len(attempts), "failed": len(failed),
              "metrics": metrics}
    record = {
        "workload": name,
        "trace": trace,
        "env": env,
        "setup_imports_s": setup,
        "wall_s_of_job_minima": job_time_sum(plain, min),
        "pass_seconds": {"warmup": [a.seconds for a in warmup],
                         "plain": [[a.seconds for a in p] for p in plain],
                         "traced": [[a.seconds for a in p] for p, _ in traced]},
        "digests": {book.key(j): book.book.get(book.key(j)) for j in jobs},
        "failures": [{"job": a.job, "problems": a.problems} for a in failed],
        "result": result,
    }
    results_file = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    results_file.write_text(json.dumps(record, indent=1, sort_keys=True))
    return result, lines


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        share = result["failed"] / result["attempted"]
        print(f"{name} failed_share {share:.4f} ({result['failed']}/{result['attempted']})")
        for metric, v in result["metrics"].items():
            print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "quadversary" / "cli.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
