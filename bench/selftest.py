"""Smoke-size self-test of the benchmark harness.

Run from the repository root:

    python3 bench/selftest.py

It runs every workload shrunk to a few seconds, twice, and requires every
job to pass its check with identical report digests; runs one traced pass
and requires every per-layer metric; and feeds the harness corrupted
reports, which must count as failed jobs.  It also requires BENCHMARK.json
to name exactly the metrics the harness prints.  Exit code 0 means the
harness works.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys

import run
import tracing
import workloads

OUT = run.OUT / "selftest"


def _corrupt_certificate(path) -> None:
    """Move the monotone certificate by one cell of the 4-per-axis grid."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["error_lower_bound"] = repr(float(rows[0]["error_lower_bound"]) + 1 / 8192)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _truncate(path) -> None:
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _corrupting(job: workloads.Job, corrupt) -> workloads.Job:
    def check(path):
        corrupt(path)
        return job.check(path)

    return dataclasses.replace(job, check=check)


def main() -> int:
    errors: list[str] = []
    shutil.rmtree(OUT, ignore_errors=True)
    sys.path.insert(0, str(run.SRC))
    from quadversary import cli, convex

    books = {}
    for name in workloads.WORKLOADS:
        jobs = workloads.jobs(name, seed=7, smoke=True)
        book = books[name] = run.DigestBook(OUT / "digests.json", "selftest", name)
        for attempt in run.run_pass(cli, convex, jobs, OUT / name, book) + run.run_pass(
            cli, convex, jobs, OUT / name, book
        ):
            if attempt.problems:
                errors.append(f"{name}/{attempt.job}: {attempt.problems}")
        tracer = tracing.Tracer()
        with tracer.installed():
            attempts = run.run_pass(cli, convex, jobs, OUT / name, book, tracer)
        metrics = tracing.layer_metrics(tracer, sum(a.seconds for a in attempts))
        missing = {n for n, _, _ in tracing.PER_LAYER} - set(metrics) - {"trace.overhead_s"}
        if missing or any(a.problems for a in attempts):
            errors.append(f"{name}: traced pass missing {missing} or failed")
        print(f"selftest {name}: {len(jobs)} jobs x 3 passes, "
              f"{sum(a.seconds for a in attempts):.2f} s traced")

    grid = next(j for j in workloads.jobs("monotone-certify", 7, smoke=True) if "grid" in j.name)
    for label, corrupt in (("shifted certificate", _corrupt_certificate), ("truncated", _truncate)):
        (attempt,) = run.run_pass(cli, convex, [_corrupting(grid, corrupt)], OUT / "corrupt", None)
        if not attempt.problems:
            errors.append(f"{label} report of {grid.name} passed its check")
        print(f"selftest corrupted report ({label}): {attempt.problems or 'NOT DETECTED'}")
    if not books["monotone-certify"].check(grid, "0" * 64):
        errors.append("a changed digest was not reported")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["per_layer"]] != [n for n, _, _ in tracing.PER_LAYER]:
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END_UNITS:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
