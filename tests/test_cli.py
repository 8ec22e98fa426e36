import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadversary import acceptance, algorithms, cli, monotone
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


def test_adversary_monotone_json_export(tmp_path):
    out = tmp_path / "adv.json"
    code = cli.main([
        "adversary", "--class", "monotone", "--d", "3", "--budget", "4",
        "--algorithm", "grid-scan", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"d", "L", "U", "gap_low", "gap_high", "guaranteed_gap", "provenance",
                        "error_lower_bound", "theorem_lower_bound"}
    assert obj["d"] == 3
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
    assert float(row["estimate"]) == 0.5
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


def test_config_errors_exit_2(tmp_path):
    assert cli.main([
        "bounds", "--class", "monotone", "--eps", "0.7", "--dmax", "3",
        "--out", str(tmp_path / "x.csv"),
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


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "bounds.csv"
    done = _fresh_python(
        "-m", "quadversary.cli", "bounds", "--class", "monotone",
        "--eps", "0.25", "--dmax", "3", "--out", str(out),
    )
    assert done.returncode == 0, done.stderr
    assert [int(r["d"]) for r in read_csv(out)] == [1, 2, 3]
