import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadversary import acceptance, algorithms, cli, core, monotone
from quadversary.core import RandomStream, run_algorithm


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_adversary_monotone_zero_budget(tmp_path):
    out = tmp_path / "adv.csv"
    code = cli.main([
        "adversary", "--class", "monotone", "--d", "10",
        "--algorithm", "constant-half", "--budget", "0", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["error_lower_bound"]) == 0.5
    assert (tmp_path / "adv.manifest.json").exists()


def test_adversary_monotone_certificate_dominates_closed_form(tmp_path):
    out = tmp_path / "adv.csv"
    code = cli.main([
        "adversary", "--class", "monotone", "--d", "10", "--budget", "100",
        "--algorithm", "uniform-random", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    row = read_csv(out)[0]
    assert int(row["n"]) == 100
    assert float(row["error_lower_bound"]) >= 0.451171875
    assert float(row["gap_low"]) >= float(row["guaranteed_gap"]) - 1e-9


GRID_D3_B4_JSON = """{
  "L": [
    [
      0.25,
      0.25,
      0.25
    ],
    [
      0.25,
      0.25,
      0.75
    ],
    [
      0.25,
      0.75,
      0.25
    ]
  ],
  "U": [
    [
      0.25,
      0.75,
      0.75
    ]
  ],
  "d": 3,
  "error_lower_bound": 0.4375,
  "gap_high": 0.875,
  "gap_low": 0.875,
  "guaranteed_gap": 0.5,
  "provenance": "exact",
  "theorem_lower_bound": 0.25
}
"""


def test_adversary_monotone_json_export(tmp_path):
    out = tmp_path / "adv.json"
    code = cli.main([
        "adversary", "--class", "monotone", "--d", "3", "--budget", "4",
        "--algorithm", "grid-scan", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text() == GRID_D3_B4_JSON
    obj = json.loads(out.read_text())
    # L and U are the probe's split of the transcript
    alg = algorithms.make_algorithm("grid-scan", 3, 4, RandomStream(0).substream("algorithm"))
    points = run_algorithm(alg, algorithms.make_oracle("threshold", 3), 4)[0].points
    labels = monotone.threshold_values(points)
    assert obj["L"] == points[labels == 0].tolist()
    assert obj["U"] == points[labels == 1].tolist()
    assert len(obj["L"]) + len(obj["U"]) == 4


def test_adversary_monotone_reports_exact_only_on_dyadic_corners(tmp_path):
    common = ["adversary", "--class", "monotone", "--d", "6", "--format", "json"]
    out = tmp_path / "random.json"
    assert cli.main([*common, "--algorithm", "uniform-random", "--budget", "10", "--seed", "3",
                     "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["provenance"] == "bracket"  # inclusion-exclusion ran on terms that round
    gap = (1 - acceptance.fraction_union_volume(np.array(obj["L"]).reshape(-1, 6), "lower")
           - acceptance.fraction_union_volume(np.array(obj["U"]).reshape(-1, 6), "upper"))
    assert obj["gap_low"] <= gap <= obj["gap_high"]
    out = tmp_path / "grid.json"
    assert cli.main([*common, "--algorithm", "grid-scan", "--budget", "34",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["provenance"] == "exact"


def test_adversary_monotone_dyadic_csv_bytes(tmp_path):
    out = tmp_path / "adv.csv"
    assert cli.main([
        "adversary", "--class", "monotone", "--d", "3", "--budget", "4",
        "--algorithm", "grid-scan", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (
        b"d,n,ell,gap_low,gap_high,guaranteed_gap,provenance,error_lower_bound\n"
        b"3,4,3,0.875,0.875,0.5,exact,0.4375\n"
    )


def test_adversary_monotone_bracket_at_high_dimension(tmp_path):
    out = tmp_path / "adv.csv"
    code = cli.main([
        "adversary", "--class", "monotone", "--d", "20", "--budget", "1000",
        "--algorithm", "uniform-random", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    row = read_csv(out)[0]
    certificate = float(row["error_lower_bound"])
    assert row["provenance"] == "bracket"
    assert 0.5 * (1.0 - 1000 * 2.0**-20) <= certificate < 0.5
    assert float(row["gap_low"]) <= float(row["gap_high"])


def test_adversary_manifests_record_what_each_class_reads(tmp_path):
    from quadversary import convex

    common = ["--d", "2", "--budget", "3", "--algorithm", "grid-scan", "--seed", "4"]
    config = {"d": 2, "budget": 3, "algorithm": "grid-scan", "seed": 4}
    assert cli.main(["adversary", "--class", "monotone", *common,
                     "--out", str(tmp_path / "m.csv")]) == 0
    manifest = json.loads((tmp_path / "m.manifest.json").read_text())
    assert manifest["command"] == "adversary"
    assert manifest["config"] == {"class": "monotone", **config}
    assert cli.main(["adversary", "--class", "convex", *common, "--mc-samples", "500",
                     "--out", str(tmp_path / "c.csv")]) == 0
    manifest = json.loads((tmp_path / "c.manifest.json").read_text())
    assert manifest["config"] == {
        "class": "convex", **config, "mc_samples": 500,
        "t0": convex.default_height_threshold().t0,
    }


def test_adversary_convex_origin_sampler(tmp_path):
    out = tmp_path / "adv.csv"
    code = cli.main([
        "adversary", "--class", "convex", "--d", "1", "--budget", "1",
        "--algorithm", "vertex-scan", "--mc-samples", "20000", "--out", str(out),
    ])
    assert code == 0
    row = read_csv(out)[0]
    stat = float(row["error_lower_bound_stat"])
    se = float(row["std_error"])
    assert abs(stat - 0.25) <= 3.0 * se + 1e-3
    assert float(row["ci_low"]) <= stat <= float(row["ci_high"])


def test_bounds_monotone_values(tmp_path):
    out = tmp_path / "bounds.csv"
    code = cli.main([
        "bounds", "--class", "monotone", "--eps", "0.25", "--dmax", "3", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out)
    assert [int(r["bound"]) for r in rows] == [1, 2, 4]

    out2 = tmp_path / "bounds2.csv"
    assert cli.main([
        "bounds", "--class", "monotone", "--eps", "0.49", "--d", "10",
        "--dmax", "10", "--out", str(out2),
    ]) == 0
    assert int(read_csv(out2)[0]["bound"]) == 21


def test_bounds_budget_flag(tmp_path):
    out = tmp_path / "bounds.csv"
    code = cli.main([
        "bounds", "--class", "monotone", "--eps", "0.25", "--dmax", "12",
        "--budget", "100", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out)
    flagged = [r for r in rows if r["exceeds_budget"] == "true"]
    assert flagged and all(int(r["bound"]) > 100 for r in flagged)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bounds_past_the_int_digit_limit_are_rejected_before_any_file(tmp_path, fmt):
    # 2^14284, the bound at d = 14285, has 4300 digits, the default limit; at d = 14286, 4301
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for d, code in ((14286, 2), (14285, 0)):
            out = tmp_path / str(d) / f"bounds.{fmt}"
            assert cli.main([
                "bounds", "--class", "monotone", "--eps", "0.25", "--d", str(d),
                "--dmax", str(d), "--format", fmt, "--out", str(out),
            ]) == code
            assert out.exists() == (code == 0)
            assert out.with_name("bounds.manifest.json").exists() == (code == 0)
        rows = read_csv(out) if fmt == "csv" else json.loads(out.read_text())
        bound = rows[0]["bound"]
        assert len(str(bound)) == 4300 and int(bound) == 2**14284
    finally:
        sys.set_int_max_str_digits(limit)


def test_bounds_convex_at_threshold_all_zero(tmp_path):
    from quadversary import convex

    eps0 = convex.default_height_threshold().eps0
    out = tmp_path / "bounds.csv"
    code = cli.main([
        "bounds", "--class", "convex", "--eps", repr(eps0), "--dmax", "5", "--out", str(out),
    ])
    assert code == 0
    assert all(int(r["bound"]) == 0 for r in read_csv(out))


def test_gscan_margins(tmp_path):
    out = tmp_path / "gscan.csv"
    code = cli.main(["gscan", "--tmax", "0.4", "--tstep", "0.1", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    first = rows[0]
    assert float(first["t"]) == 0.0
    assert float(first["bound_10_over_11_margin"]) > 0.0
    # once the scale reaches 1/3 the factor cannot dip below one
    tail = [r for r in rows if float(r["s"]) >= 1.0 / 3.0]
    assert tail and all(abs(float(r["g_min"]) - 1.0) <= 1e-9 for r in tail)


def test_t0_json_contract(tmp_path):
    out = tmp_path / "t0.json"
    code = cli.main(["t0", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"s", "alpha_star", "g_min", "certified", "t0", "eps0"}
    assert obj["certified"] is True
    assert obj["eps0"] == obj["t0"] / 2.0


def test_quad_staircase_row(tmp_path):
    out = tmp_path / "quad.csv"
    code = cli.main([
        "quad", "--method", "staircase", "--oracle", "affine", "--d", "1",
        "--m", "2", "--out", str(out),
    ])
    assert code == 0
    row = read_csv(out)[0]
    # the midpoint of the corner averages 1/4 and 3/4, each rounded outward
    assert float(row["estimate"]) == pytest.approx(0.5, abs=1e-15)
    assert float(row["certified_error_or_rmse"]) == 0.25
    assert float(row["true_value_if_known"]) == 0.5
    manifest = json.loads((tmp_path / "quad.manifest.json").read_text())
    assert manifest["config"] == {"d": 1, "method": "staircase", "oracle": "affine", "m": 2}


@pytest.mark.parametrize("method, unread", [
    ("rate", ["--m", "99", "--n", "5", "--seed", "3"]),
    ("staircase", ["--n", "5", "--seed", "3"]),
    ("mc", ["--m", "99"]),
], ids=["rate", "staircase", "mc"])
def test_quad_manifest_records_only_what_the_method_reads(tmp_path, method, unread):
    # the staircase rules read --m, Monte Carlo reads --n and --seed
    args = ["quad", "--method", method, "--oracle", "product", "--d", "2", "--n", "7"]
    assert cli.main([*args, "--out", str(tmp_path / "a.csv")]) == 0
    assert cli.main([*args, *unread, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    manifests = [(tmp_path / f"{s}.manifest.json").read_bytes() for s in "ab"]
    assert manifests[0] == manifests[1]


def test_quad_mc_reruns_bit_identical(tmp_path):
    args = [
        "quad", "--method", "mc", "--oracle", "threshold", "--d", "5",
        "--n", "10000", "--seed", "7",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seeded_runs_build_one_generator_per_stream(tmp_path, monkeypatch):
    built = []
    generator = RandomStream.generator
    monkeypatch.setattr(RandomStream, "generator",
                        lambda self: built.append(self.path) or generator(self))
    counts = []
    for budget in (10, 1000):
        built.clear()
        assert cli.main([
            "adversary", "--class", "monotone", "--d", "10", "--budget", str(budget),
            "--algorithm", "uniform-random", "--out", str(tmp_path / f"adv{budget}.csv"),
        ]) == 0
        counts.append(len(built))
    assert counts[0] == counts[1]
    built.clear()
    assert cli.main([
        "quad", "--method", "mc", "--oracle", "threshold", "--d", "3", "--n", "400000",
        "--out", str(tmp_path / "mc.csv"),
    ]) == 0
    assert len(built) == 1


def test_csv_reports_match_the_csv_module_and_refuse_cells_that_need_quotes(tmp_path):
    header = ["d", "method", "n", "estimate", "flag"]
    rows = [[3, "mc", 10**400, 0.1, True], [1, "rate-slope", -7, float("inf"), ""],
            [2, "staircase", 0, 5e-324, False]]
    path = tmp_path / "r.csv"
    cli._write_report(path, header, rows, "csv")
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    for row in (header, *rows):
        writer.writerow([cli._format_cell(v) for v in row])
    assert path.read_bytes() == expected.getvalue().encode()
    for cell in ("a,b", 'say "x"', "a\rb", "a\nb"):
        with pytest.raises(ValueError, match="unquoted"):
            cli._write_report(tmp_path / "bad.csv", header, [[1, cell, 2, 0.5, True]], "csv")
    assert not (tmp_path / "bad.csv").exists()


def test_quad_rate_slope(tmp_path):
    out = tmp_path / "rate.csv"
    code = cli.main([
        "quad", "--method", "rate", "--oracle", "product", "--d", "2", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out)
    slope_rows = [r for r in rows if r["method"] == "rate-slope"]
    assert len(slope_rows) == 1
    slope = float(slope_rows[0]["estimate"])
    assert abs(slope - (-0.5)) <= 0.1


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    code = cli.main(["bounds", "--class", "monotone", "--eps", "0.25", "--dmax", "2"])
    assert code == 0
    assert (tmp_path / "bounds.csv").exists()
    assert (tmp_path / "bounds.manifest.json").exists()


def test_second_main_call_builds_no_parser(tmp_path, monkeypatch):
    import argparse

    argv = ["bounds", "--class", "monotone", "--eps", "0.25", "--dmax", "2"]
    assert cli.main([*argv, "--d", "2", "--out", str(tmp_path / "a.csv")]) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    assert cli.main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
    assert built == []
    # the reused parser keeps no value of the first call: --d is back at its default
    assert [r["d"] for r in read_csv(tmp_path / "a.csv")] == ["2"]
    assert [r["d"] for r in read_csv(tmp_path / "b.csv")] == ["1", "2"]


def test_config_errors_exit_2(tmp_path):
    assert cli.main([
        "bounds", "--class", "monotone", "--eps", "0.7", "--dmax", "3",
        "--out", str(tmp_path / "x.csv"),
    ]) == 2
    for problem_class in ("monotone", "convex"):
        assert cli.main([
            "bounds", "--class", problem_class, "--eps", "0.01", "--dmax", "3",
            "--budget", "-1", "--out", str(tmp_path / "x.csv"),
        ]) == 2
    assert cli.main([
        "adversary", "--class", "monotone", "--d", "2", "--algorithm", "nope",
        "--out", str(tmp_path / "y.csv"),
    ]) == 2
    assert cli.main([
        "adversary", "--class", "monotone", "--d", "0",
        "--out", str(tmp_path / "z.csv"),
    ]) == 2
    for bad in (["--budget", "-1"], ["--mc-samples", "0"], ["--seed", "-1"],
                ["--seed", str(2**64)]):
        assert cli.main([
            "adversary", "--class", "convex", "--d", "2", *bad,
            "--out", str(tmp_path / "w.csv"),
        ]) == 2
    for bad in (["--d", "0"], ["--d", "1", "--seed", "-1"], ["--d", "2", "--oracle", "nope"]):
        assert cli.main(["quad", *bad, "--out", str(tmp_path / "q.csv")]) == 2
    # NaN fails every comparison; a step under 1e-6, finer than the heights the
    # threshold search resolves, could ask for 10^9 rows
    for bad in (["--tmin", "nan"], ["--tmax", "nan"], ["--tstep", "nan"],
                ["--tmax", "0.001", "--tstep", "4e-13"], ["--tmax", "0.001", "--tstep", "1e-12"],
                ["--tmax", "0.001", "--tstep", "9e-7"]):
        assert cli.main(["gscan", *bad, "--out", str(tmp_path / "g.csv")]) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["quad", "--method", "mc", "--d", "2", "--n", "0"],
    ["quad", "--method", "both", "--d", "2", "--n", "0"],
    ["adversary", "--class", "convex", "--d", "2", "--mc-samples", "0"],
    ["adversary", "--class", "convex", "--d", "2", "--mc-samples", "-3"],
])
def test_sample_counts_below_one_exit_2_with_one_message(tmp_path, capsys, argv):
    # every Monte Carlo sample count is checked where its blocks are counted
    assert cli.main([*argv, "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == "error: need at least one sample\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("problem_class", ["monotone", "convex"])
@pytest.mark.parametrize("algorithm,dim", [
    ("uniform-random", 10), ("uniform-random", 70), ("grid-scan", 10), ("grid-scan", 70),
    ("vertex-scan", 70),
])
def test_designs_numpy_refuses_to_allocate_exit_2(tmp_path, capsys, problem_class, algorithm, dim):
    # 10^18 points: numpy refuses the (budget, d) draw ("array is too big")
    # and the 8 EB index range before it allocates anything.
    assert cli.main([
        "adversary", "--class", problem_class, "--d", str(dim), "--budget", str(10**18),
        "--algorithm", algorithm, "--out", str(tmp_path / "a.csv"),
    ]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: budget 1000000000000000000 is too large")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["bounds", "--class", "monotone", "--eps", "0.25", "--dmax", "2", "--seed", "3"],
    ["gscan", "--seed", "3"],
    ["t0", "--seed", "3"],
    ["t0", "--format", "csv"],
])
def test_deterministic_commands_reject_unread_flags(tmp_path, argv):
    # bounds, gscan and t0 draw no random numbers, and t0 writes only JSON
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_monotone_adversary_ignores_mc_samples(tmp_path):
    # only the convex hull volume is sampled; --mc-samples 0 is an error there alone
    args = ["adversary", "--class", "monotone", "--d", "3", "--budget", "4",
            "--algorithm", "grid-scan"]
    assert cli.main([*args, "--out", str(tmp_path / "a.csv")]) == 0
    assert cli.main([*args, "--mc-samples", "0", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _strict_holders(points, corners):
    return (points[:, None, :] < corners[None, :, :]).all(axis=2).sum(axis=1)


def _strict_split(points):
    pts = np.asarray(points, dtype=float)
    return (pts.sum(axis=1) > pts.shape[1] / 2.0).astype(int)


@pytest.mark.parametrize("name, mutant", [
    ("_holders", _strict_holders),
    ("threshold_values", _strict_split),
], ids=["strict-box-test", "split-unlike-probe"])
def test_pair_gate_exits_3_when_the_pair_disagrees_with_the_probe(
    tmp_path, monkeypatch, capsys, name, mutant
):
    # Grid-scan at d=4 queries points whose coordinate sum is exactly 2, which
    # the probe maps to 1; the oracle keeps its own reference to the probe.
    from quadversary import monotone

    monkeypatch.setattr(monotone, name, mutant)
    code = cli.main([
        "adversary", "--class", "monotone", "--d", "4", "--budget", "10",
        "--algorithm", "grid-scan", "--out", str(tmp_path / "g.csv"),
    ])
    assert code == 3
    assert "disagrees with the probe" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_consistency_error_is_the_core_class():
    assert cli.ConsistencyError is core.ConsistencyError


def test_gate_failure_exits_3(tmp_path, monkeypatch):
    # force the closed-form bound above any certificate: the gate must trip
    from quadversary import monotone

    monkeypatch.setattr(monotone, "error_lower_bound", lambda n, d: 0.9)
    code = cli.main([
        "adversary", "--class", "monotone", "--d", "4", "--budget", "2",
        "--algorithm", "grid-scan", "--out", str(tmp_path / "g.csv"),
    ])
    assert code == 3


def _fake_criterion(number, cap_s=60.0, check=lambda: "fake detail"):
    return acceptance.Criterion(number, cap_s, check)


def test_verify_subcommand_passes(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CRITERIA", [_fake_criterion(1), _fake_criterion(2)])
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[:18] for line in lines[:2]] == ["ACCEPTANCE  1 PASS", "ACCEPTANCE  2 PASS"]
    assert lines[0].endswith("s < 60s): fake detail")
    assert lines[2:] == ["2/2 criteria passed"]
    with pytest.raises(SystemExit) as exc:  # the criteria take no seed
        cli.main(["verify", "--seed", "1"])
    assert exc.value.code == 2


def _fails():
    raise AssertionError("criterion does not hold")


def _raises():
    raise ZeroDivisionError("crashed")


@pytest.mark.parametrize("cap_s, check, reason", [
    (60.0, _fails, "AssertionError: criterion does not hold"),
    (60.0, _raises, "ZeroDivisionError: crashed"),
    (0.0, lambda: "fast but over a zero cap", "AssertionError: took "),
], ids=["fails", "raises", "over-cap"])
def test_verify_failure_exits_3(monkeypatch, capsys, cap_s, check, reason):
    criteria = [_fake_criterion(1), _fake_criterion(2, cap_s, check), _fake_criterion(3)]
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    assert cli.main(["verify"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith(f"ACCEPTANCE  2 FAIL: {reason}")
    assert " PASS " in lines[0] and " PASS " in lines[2]
    assert lines[3] == "2/3 criteria passed"


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_import_leaves_scipy_optimize_and_special_unloaded():
    done = _fresh_python(
        "-c",
        "import sys, quadversary.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"  # no scipy module at all, optimize and special included


def test_cli_import_loads_no_concurrent_futures_and_starts_no_thread():
    done = _fresh_python(
        "-c",
        "import sys, threading, quadversary.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')), "
        "threading.active_count())",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] 1"


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "bounds.csv"
    done = _fresh_python(
        "-m", "quadversary.cli", "bounds", "--class", "monotone",
        "--eps", "0.25", "--dmax", "3", "--out", str(out),
    )
    assert done.returncode == 0, done.stderr
    assert [int(r["d"]) for r in read_csv(out)] == [1, 2, 3]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the README's ``heading``."""
    text = README.read_text().split(heading, 1)[1]
    return text.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _readme_commands() -> list[list[str]]:
    """The README's quadversary command lines, continuations joined, without verify."""
    joined = _readme_block("## Command line", "sh").replace("\\\n", " ")
    lines = [line for line in joined.splitlines() if line.startswith("quadversary ")]
    return [argv[1:] for argv in map(shlex.split, lines) if argv[1] != "verify"]


def test_readme_commands_run_and_write_their_reports(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) == 8
    for i, argv in enumerate(commands):
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)  # relative --out paths land here too
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(run_dir))
        assert cli.main(argv) == 0, argv
        written = sorted(f.name for f in run_dir.iterdir())
        manifests = [name for name in written if name.endswith(".manifest.json")]
        assert len(manifests) == 1 and len(written) == 2, (argv, written)


def test_readme_quickstart_runs(capsys):
    exec(compile(_readme_block("## Library quickstart", "python"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("certified error >=") and lines[1].startswith("closed form")
    assert abs(float(lines[2]) - 1.0 / 3.0) <= 1e-12  # the evaluator's value at 1/2
