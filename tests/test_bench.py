import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # The harness wraps library functions (lp.solve, the evaluator, the volume
    # layer) and reads their results, so a library change can break it.
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_traced_spans_open_on_the_main_thread_and_nest_in_their_parents(tmp_path, monkeypatch):
    # The tracer keeps one span stack for the whole process, so a traced layer
    # called from a worker thread would open its span off the main thread and
    # could interleave with the main thread's spans.  Two CPUs make the Monte
    # Carlo job split its blocks across two threads; the main thread pauses
    # after taking each block, so the other thread takes one too.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing
    import workloads
    from quadversary import cli, convex, core

    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    draw, drawn_off_main = core._draw, []

    def draw_pausing_on_main(*args):
        for item in draw(*args):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.02)
            else:
                drawn_off_main.append(item[0])
            yield item

    monkeypatch.setattr(core, "_draw", draw_pausing_on_main)
    off_main = []

    class MainThreadTracer(tracing.Tracer):
        def _open(self, name):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return super()._open(name)

    tracer = MainThreadTracer()
    convex.default_height_threshold.cache_clear()
    with tracer.installed():
        for job in workloads.jobs("bounds-scan", 0, smoke=True):
            out = tmp_path / f"{job.name}.{job.fmt}"
            with tracer.job(job.name):
                assert cli.main([*job.argv, "--out", str(out)]) == 0, job.name
            assert job.check(out) == [], job.name
    assert off_main == []
    assert drawn_off_main  # a worker thread ran the oracle
    for name, start, end, parent, job in tracer.spans:
        assert start <= end, (name, job)
        if parent >= 0:
            _, parent_start, parent_end, _, _ = tracer.spans[parent]
            assert parent_start <= start and end <= parent_end, (name, job)
