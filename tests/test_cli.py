"""CLI contract tests: schemas, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_USAGE,
    MAX_GRID_POINTS,
    main,
    parse_complex,
    parse_potential,
)
from kreinlab import entropy, kernel, potentials
from kreinlab.entropy import equivalence_scan
from kreinlab.kernel import Grid
from kreinlab.potentials import build_potential
from kreinlab.verify import run_battery


def run(args):
    return main(args)


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("2") == 2.0
        assert parse_complex("i") == 1j
        assert parse_complex("-i") == -1j
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("0.5+0.5i") == 0.5 + 0.5j
        with pytest.raises(ValueError, match="not a finite number"):
            parse_complex("inf")
        with pytest.raises(ValueError, match="not a finite number"):
            parse_complex("inf+1i")

    def test_potential_specs(self):
        assert parse_potential("zero").l2_norm == 0.0
        assert parse_potential("box:1,1")(0.5) == 1.0
        assert parse_potential("gaussian:1,1")(0.0) == 1.0
        assert parse_potential("gaussian:0.5+0.5i,1").params == (0.5 + 0.5j, 1.0)
        assert parse_potential("box:1,1").is_real
        assert parse_potential("figure1")(0.0) == pytest.approx(math.sin(1.0))
        with pytest.raises(ValueError):
            parse_potential("wavelet:1")


class TestSolve:
    def test_free_phase(self, tmp_path):
        assert run(["solve", "--potential", "zero", "--lambda", "2",
                    "--rmax", "1", "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "krein_path_0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["ReP"]) == pytest.approx(math.cos(2.0), abs=1e-8)
        assert float(rows[-1]["ImP"]) == pytest.approx(math.sin(2.0), abs=1e-8)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["files"] == ["krein_path_0.csv"]
        assert "tolerances" in manifest

    def test_box_frozen(self, tmp_path):
        assert run(["solve", "--potential", "box:1,1", "--lambda", "0",
                    "--rmax", "3", "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "krein_path_0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["RePstar"]) == pytest.approx(math.exp(-1), abs=1e-8)

    def test_missing_potential_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--lambda", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_multiple_lambdas(self, tmp_path):
        assert run(["solve", "--potential", "zero", "--lambda", "1,i",
                    "--rmax", "1", "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["files"] == ["krein_path_0.csv", "krein_path_1.csv"]

    def test_zero_rmax_writes_one_row(self, tmp_path):
        assert run(["solve", "--potential", "box:1,1", "--lambda", "1",
                    "--rmax", "0", "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "krein_path_0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["ReP"]) == 1.0 and float(rows[0]["RePstar"]) == 1.0

    def test_large_lambda_box_path(self, tmp_path):
        # the box generator is constant on [0, 1], so the propagator needs no
        # step of order 1/lambda; P and P* against the closed form e^{rK}(1, 1)
        lam = 1e6
        start = time.perf_counter()
        assert run(["solve", "--potential", "box:1,1", "--lambda", "1e6",
                    "--rmax", "1", "--out", str(tmp_path)]) == EXIT_OK
        assert time.perf_counter() - start < 2.0
        with open(tmp_path / "krein_path_0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        r = np.array([float(row["r"]) for row in rows])
        P = np.array([complex(float(row["ReP"]), float(row["ImP"])) for row in rows])
        Ps = np.array([complex(float(row["RePstar"]), float(row["ImPstar"])) for row in rows])
        # K = ((i lam, -1), (-1, 0)) has the eigenvalues mu with mu^2 - i lam mu = 1
        mu1 = 0.5j * lam + 1j * math.sqrt(lam * lam / 4.0 - 1.0)
        mu2 = -1.0 / mu1
        e1, e2 = np.exp(mu1 * r), np.exp(mu2 * r)
        # e^{rK} = (e1 (K - mu2) - e2 (K - mu1)) / (mu1 - mu2), applied to (1, 1)
        P_ref = (e1 * (1j * lam - 1.0 - mu2) - e2 * (1j * lam - 1.0 - mu1)) / (mu1 - mu2)
        Ps_ref = (e1 * (-1.0 - mu2) - e2 * (-1.0 - mu1)) / (mu1 - mu2)
        assert np.max(np.abs(P - P_ref)) < 1e-8
        assert np.max(np.abs(Ps - Ps_ref)) < 1e-8

    def test_solve_trace(self, tmp_path):
        assert run(["solve", "--potential", "gaussian:1,1", "--lambda", "1,0.5+i",
                    "--rmax", "2", "--out", str(tmp_path)]) == EXIT_OK
        trace = json.loads((tmp_path / "solve_trace.json").read_text())
        assert set(trace["stages_s"]) == {"solve", "write"}
        assert [p["lambda"] for p in trace["paths"]] == [[1.0, 0.0], [0.5, 1.0]]
        for path in trace["paths"]:
            assert path["route"] == "magnus4" and path["substeps"] > 0
            assert 0.0 <= path["error"] < 1e-8 and 0.0 <= path["cumP2_error"] < 1e-8

    def test_negative_rmax_names_the_flag(self, tmp_path, capsys):
        assert run(["solve", "--potential", "box:1,1", "--lambda", "1",
                    "--rmax", "-1", "--out", str(tmp_path)]) == EXIT_USAGE
        assert "--rmax" in capsys.readouterr().err


def assert_no_silent_zeros(out, nsum):
    """Every E, D and ratio in entropy_scan.csv is computed and nonzero, and
    entropy_trace.json carries a route, an error and a node count for each E
    window of the scan and of the sum and each D window of the scan. A sum
    window may be an exact zero, where the tail's bound underflows."""
    with open(out / "entropy_scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["E"]) > 0.0 and float(r["D"]) > 0.0 for r in rows)
    assert all(float(r["ratio"]) > 0.0 for r in rows if r["ratio"])
    trace = json.loads((out / "entropy_trace.json").read_text())
    assert set(trace["stages_s"]) == {"sobolev", "scan", "sum"}
    rs = {float(r["r"]) for r in rows}
    assert [e["r"] for e in trace["E"]] == sorted(rs | set(map(float, range(nsum + 1))))
    assert [d["r"] for d in trace["D"]] == [float(r["r"]) for r in rows]
    for entry in trace["E"] + trace["D"]:
        computed = ("sampled", "expansion")
        assert entry["route"] in computed + (() if entry["r"] in rs else ("exact_zero",))
        assert 0.0 <= entry["error"] <= 1e-6 * entry["value"]
        assert (entry["nodes"] is None) == (entry["route"] != "sampled")
    return trace


class TestEntropy:
    def test_zero_trivial(self, tmp_path):
        assert run(["entropy", "--potential", "zero", "--rmax", "10",
                    "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "entropy_scan.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["E"]) == 0.0 and float(r["D"]) == 0.0 for r in rows)
        assert all(r["ratio"] == "" for r in rows)
        summary = json.loads((tmp_path / "entropy_summary.json").read_text())
        assert summary["band_verdict"] == "trivial"

    def test_gaussian_alpha_fields(self, tmp_path):
        assert run(["entropy", "--potential", "gaussian:1,1", "--rmax", "6",
                    "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "entropy_summary.json").read_text())
        a_e = summary["fit_E"]["alpha_hat"]
        a_d = summary["fit_D"]["alpha_hat"]
        assert abs(a_e - a_d) < 0.3
        assert summary["band_verdict"] == "in-band"
        assert_no_silent_zeros(tmp_path, nsum=30)

    def test_figure1_alpha(self, tmp_path):
        assert run(["entropy", "--potential", "figure1", "--rmax", "8",
                    "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "entropy_summary.json").read_text())
        assert abs(summary["fit_D"]["alpha_hat"] - 1.0) <= 0.3
        trace = assert_no_silent_zeros(tmp_path, nsum=30)
        assert {e["route"] for e in trace["E"]} == {"sampled", "expansion"}

    def test_figure1_scan_is_equivalence_scan(self, tmp_path, monkeypatch):
        # the scan and the sum's remaining windows each take their expansion
        # windows from one tail table: one exp_phase_tail call per frequency,
        # where each window once made 4 (D) or 8 (E)
        calls = []
        tail = kernel.exp_phase_tail

        def counted(*args, **kwargs):
            calls.append(args[1])
            return tail(*args, **kwargs)

        for module in (kernel, entropy, potentials):
            monkeypatch.setattr(module, "exp_phase_tail", counted)
        assert run(["entropy", "--potential", "figure1", "--rmax", "8",
                    "--out", str(tmp_path)]) == EXIT_OK
        assert 0 < len(calls) <= 16
        monkeypatch.undo()
        with open(tmp_path / "entropy_scan.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        scan = equivalence_scan(build_potential("figure1"),
                                np.array([float(r["r"]) for r in rows]))
        assert [float(r["E"]) for r in rows] == list(scan.E)
        assert [float(r["D"]) for r in rows] == list(scan.D)

    def test_complex_coefficient(self, tmp_path):
        assert run(["entropy", "--potential", "gaussian:0.5+0.5i,1", "--rmax", "2",
                    "--out", str(tmp_path)]) == EXIT_OK
        assert_no_silent_zeros(tmp_path, nsum=30)
        with open(tmp_path / "entropy_scan.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        grid = Grid(np.array([float(r["r"]) for r in rows]))
        scan = equivalence_scan(build_potential("gaussian", 0.5 + 0.5j, 1.0), grid)
        assert [float(r["E"]) for r in rows] == list(scan.E)
        assert [float(r["D"]) for r in rows] == list(scan.D)


    def test_cutoff_flag_changes_nothing(self, tmp_path):
        base = ["entropy", "--potential", "box:1,1", "--rmax", "1"]
        assert run(base + ["--out", str(tmp_path / "plain")]) == EXIT_OK
        assert run(base + ["--cutoff", "1", "--out", str(tmp_path / "cut")]) == EXIT_OK
        for name in ("entropy_scan.csv", "entropy_summary.json"):
            assert (tmp_path / "cut" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()
        summary = json.loads((tmp_path / "cut" / "entropy_summary.json").read_text())
        assert set(summary["sobolev"]) == {"value", "tail_bound"}


class TestOpuc:
    def test_single_alpha_orders(self, tmp_path):
        assert run(["opuc", "--alphas", "0.5", "--orders",
                    "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "opuc_summary.json").read_text())
        assert summary["orders"]["rho_alpha"]["flag"] == "polynomial"
        assert summary["orders"]["rho_pi"]["flag"] == "polynomial"
        with open(tmp_path / "opuc_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["Re_alpha"] == "0.5"
        assert float(rows[0]["lambda_n"]) == pytest.approx(0.75)

    def test_factorial_rule_orders(self, tmp_path):
        assert run(["opuc", "--rule", "factorial:0.5,20", "--orders",
                    "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "opuc_summary.json").read_text())
        assert 0.8 <= summary["orders"]["rho_alpha"]["rho"] <= 1.2
        assert 0.8 <= summary["orders"]["rho_pi"]["rho"] <= 1.2

    def test_sampling_radius_is_the_last_one_sampled(self, tmp_path):
        # none of the seven radii 1.5 ... 96 brings the last coefficients of
        # factorial:0.5,10 below 1e-10; the summary once reported 192
        assert run(["opuc", "--rule", "factorial:0.5,10", "--orders",
                    "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "opuc_summary.json").read_text())
        assert summary["orders"]["sampling_radius"] == 96.0

    def test_modulus_violation_exit(self, tmp_path):
        assert run(["opuc", "--alphas", "1.2", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_nan_rule_is_usage_error(self, tmp_path):
        # a NaN coefficient once passed the |alpha| < 1 test and gave a table
        # of nan with rho_alpha = rho_pi = 0, flagged polynomial
        assert run(["opuc", "--rule", "factorial:nan,10", "--orders",
                    "--out", str(tmp_path)]) == EXIT_USAGE
        assert not (tmp_path / "opuc_table.csv").exists()

    @pytest.mark.parametrize("args, code", [
        # alpha_n underflows to 0 from n = 28, so Pi is that of gaussian:0.5,28
        (["--rule", "gaussian:0.5,2000"], EXIT_OK),
        # 1 800 nonzero coefficients: Pi's scale radius^1799 overflows
        (["--alphas", ",".join(["0.1"] * 1800)], EXIT_CHECK_FAILED),
    ])
    def test_long_sequence_orders(self, args, code, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = run(["opuc", *args, "--orders", "--out", str(tmp_path)])
        assert got == code
        if code == EXIT_OK:
            summary = json.loads((tmp_path / "opuc_summary.json").read_text())
            assert summary["orders"]["rho_pi"]["flag"] == "polynomial"


class TestVerify:
    def test_filtered_run_deterministic(self, capsys):
        assert run(["verify", "--only", "opuc", "--seed", "7"]) == EXIT_OK
        first = capsys.readouterr().out
        assert run(["verify", "--only", "opuc", "--seed", "7"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["all_passed"]
        assert all("residual" in c and "tolerance" in c for c in report["checks"])

    def test_only_filter_names(self, capsys):
        run(["verify", "--only", "cd", "--seed", "0"])
        report = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in report["checks"]] == ["krein.cd"]

    def test_unmatched_filter_is_usage_error(self, capsys):
        assert run(["verify", "--only", "krien", "--seed", "0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "matched no check" in captured.err
        assert captured.out == ""

    def test_negative_seed_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--seed", "-1"])
        assert exc.value.code == EXIT_USAGE
        assert "--seed must be a nonnegative integer" in capsys.readouterr().err

    def test_full_battery_passes(self, verify_run):
        code, stdout, out = verify_run
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["all_passed"] and report["n_failed"] == 0
        assert report["n_checks"] >= 30
        assert all(c["residual"] <= c["tolerance"] for c in report["checks"])
        saved = json.loads((out / "verify_report.json").read_text())
        assert saved == report
        # each group has its own generator, so a check run alone draws the same
        # numbers as in the full battery
        residuals = {c["name"]: c["residual"] for c in report["checks"]}
        for name in ("ordered.a4", "ordered.liouville"):
            alone = {r.name: r.residual for r in run_battery(seed=0, only=name)}
            assert alone[name] == residuals[name]


class TestFigure1:
    def test_schema_and_envelope(self, tmp_path):
        assert run(["figure1", "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "figure1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 801
        assert float(rows[0]["f"]) == pytest.approx(math.sin(1.0), abs=1e-12)
        for row in rows:
            r = float(row["r"])
            if r >= 1.0:
                assert abs(float(row["tail"])) <= 2.0 * math.exp(-r)
        r6 = [row for row in rows if abs(float(row["r"]) - 6.0) < 1e-9][0]
        assert abs(float(r6["tail"])) <= 2.0 * math.exp(-6.0)


class TestExitCodes:
    def test_varying_phase_potential_takes_the_ode_route(self, tmp_path):
        # a strongly complex coefficient whose phase varies: E comes from the
        # transfer-matrix Gram ODE in every window that is not past the data
        src = tmp_path / "pot.csv"
        rows = ["r,re,im"]
        rng_vals = [(0.0, 0.9, 0.7), (0.7, -0.8, 0.9), (1.4, 0.7, -0.8),
                    (2.1, -0.6, 0.7), (2.8, 0.8, -0.6), (3.5, 0.0, 0.0)]
        rows += [f"{r},{re},{im}" for r, re, im in rng_vals]
        src.write_text("\n".join(rows) + "\n")
        code = run(["entropy", "--potential", f"sampled:{src}", "--rmax", "1",
                    "--out", str(tmp_path)])
        assert code == EXIT_OK
        trace = json.loads((tmp_path / "entropy_trace.json").read_text())
        assert {e["route"] for e in trace["E"] if 2.0 * e["r"] < 3.5} == {"ode"}

    def test_sampled_disagreement_exit(self, tmp_path, monkeypatch):
        # a sampled E whose passes on all nodes and on every other node
        # disagree raises RouteDisagreement, which the CLI maps to exit 3
        monkeypatch.setattr(entropy, "_entropy_sampled",
                            lambda p, r, n: (1.0, 1.1, 0.0, n))
        code = run(["entropy", "--potential", "gaussian:1,1", "--rmax", "1",
                    "--out", str(tmp_path)])
        assert code == EXIT_INCONSISTENT


class TestInputValidation:
    SOLVE = ["solve", "--potential", "box:1,1", "--rmax", "1"]
    ENTROPY = ["entropy", "--rmax", "1", "--nsum", "2"]

    @pytest.mark.parametrize("args, code", [
        (SOLVE + ["--lambda", "1", "--dr", "0"], EXIT_USAGE),
        (SOLVE + ["--lambda", "1", "--dr", "-0.05"], EXIT_USAGE),
        (ENTROPY + ["--potential", "box:1,1", "--dr", "0"], EXIT_USAGE),
        (SOLVE + ["--lambda", "1", "--tol", "0"], EXIT_USAGE),
        (SOLVE + ["--lambda", "1", "--tol=-1e-10"], EXIT_USAGE),
        (SOLVE + ["--lambda", "1", "--tol", "nan"], EXIT_USAGE),
        (SOLVE + ["--lambda", "1", "--tol", "inf"], EXIT_USAGE),
        (SOLVE + ["--lambda", "nan"], EXIT_USAGE),
        (SOLVE + ["--lambda", "1,1e999"], EXIT_USAGE),
        # constant:1 is not in L2; with a cutoff it is
        (ENTROPY + ["--potential", "constant:1"], EXIT_USAGE),
        (ENTROPY + ["--potential", "constant:1,5"], EXIT_OK),
        (SOLVE + ["--lambda", "inf"], EXIT_USAGE),
        # 1e15 + 1 grid points: rejected before anything is allocated
        (SOLVE + ["--lambda", "1", "--rmax", "1e15"], EXIT_USAGE),
        # a one-point grid: the solve has nothing to step
        (SOLVE + ["--lambda", "1", "--rmax", "0"], EXIT_OK),
        (SOLVE + ["--lambda", "1", "--rmax", "-1"], EXIT_USAGE),
        # rejected by argparse itself, which exits instead of returning
        (["verify", "--seed", "-1"], EXIT_USAGE),
        # a path no step budget resolves: numerical failure, not a hang
        (SOLVE + ["--lambda", "1e300"], EXIT_CHECK_FAILED),
        # E, D and the H^-1 norm overflow: numerical failure, not nan rows
        (ENTROPY + ["--potential", "box:1e200,1"], EXIT_CHECK_FAILED),
        # |c|^2 overflows in the L2 tail: numerical failure, not a traceback
        (ENTROPY + ["--potential", "gaussian:1e308,1"], EXIT_CHECK_FAILED),
        # no clamp to a fixed length: the whole box enters the H^-1 norm, and
        # one too long to sample is refused by the node budget
        (ENTROPY + ["--potential", "box:1,50"], EXIT_OK),
        (ENTROPY + ["--potential", "box:1,1e300"], EXIT_CHECK_FAILED),
        (ENTROPY + ["--potential", "constant:1,1e9"], EXIT_CHECK_FAILED),
        # a step of 6e-305: the Sobolev block stays within its panel
        (ENTROPY + ["--potential", "box:1,1e-300"], EXIT_OK),
        (ENTROPY + ["--potential", "box:1,-1"], EXIT_USAGE),
        (ENTROPY + ["--potential", "gaussian:1,nan"], EXIT_USAGE),
        # square-integrable, but |c| sqrt(L) overflows: numerical failure
        (ENTROPY + ["--potential", "box:1e308,50"], EXIT_CHECK_FAILED),
        (ENTROPY + ["--potential", "constant:1e308,50"], EXIT_CHECK_FAILED),
        # figure1 windows so far out that x0 + 4 == x0: E and D are exactly 0
        # there, and no expansion window is built for them
        (ENTROPY + ["--potential", "figure1", "--rmax", "1e300", "--dr", "1e299"], EXIT_OK),
    ])
    def test_exit_code_in_bounded_time(self, args, code, tmp_path, capsys):
        start = time.perf_counter()
        try:
            got = run(args + ["--out", str(tmp_path)])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert time.perf_counter() - start < 10.0
        assert "Traceback" not in capsys.readouterr().err

    def test_long_box_h_minus1_norm(self, tmp_path):
        # the H^-1 norm of c on [0, L] is c^2 (L - 1 + e^{-L})
        assert run(self.ENTROPY + ["--potential", "box:1,50", "--out", str(tmp_path)]) == EXIT_OK
        sob = json.loads((tmp_path / "entropy_summary.json").read_text())["sobolev"]
        assert sob["tail_bound"] <= 1e-9
        assert abs(sob["value"] - (49.0 + math.exp(-50.0))) <= sob["tail_bound"]


# scales between 1e3 and 4e3 are left out: they run the H^-1 pass near its
# node cap (gaussian:1,1e3 takes 1.8 s and 520 MB)
_FUZZ_ARGS = st.one_of(
    st.builds(lambda family, c, x: ["entropy", "--potential", f"{family}:{c},{x}",
                                    "--rmax", "1", "--nsum", "1"],
              st.sampled_from(["box", "constant", "gaussian"]),
              st.sampled_from(["0", "1e-300", "0.5", "1+1i", "-2", "1e200", "1e308"]),
              st.sampled_from(["1e-300", "1e-3", "0.5", "1", "50", "1e6", "1e300",
                               "nan", "inf", "-1", "0"])),
    st.builds(lambda n: ["opuc", "--rule", f"factorial:0.5,{n}"],
              st.sampled_from([-1, 0, 200, 5000, MAX_GRID_POINTS + 1])),
    # figure1 scans and sums whose tail tables reach past x0 = 36, where the
    # expansion is bound-only
    st.builds(lambda rmax, dr, nsum: ["entropy", "--potential", "figure1", "--rmax", rmax,
                                      "--dr", dr, "--nsum", nsum],
              st.sampled_from(["0", "0.25", "3", "20"]), st.sampled_from(["0.1", "0.25"]),
              st.sampled_from(["0", "1", "40", str(MAX_GRID_POINTS + 1)])),
    st.builds(lambda rule, n: ["opuc", "--rule", f"{rule}:0.5,{n}", "--orders"],
              st.sampled_from(["factorial", "gaussian"]),
              st.sampled_from([-1, 0, 1, 10, 200, 5000, MAX_GRID_POINTS + 1])),
    # complex sampled CSVs c e^{ikx} on n points of [0, 3], of varying phase
    # where k > 0: uniform grids of a few points, and non-uniform ones of a
    # few hundred, on which the passes stack panels of several node counts
    st.builds(lambda c, k, n: (["entropy", "--potential", "sampled:{out}/a.csv",
                                "--rmax", "1", "--nsum", "1"], _csv(c, k, *n)),
              st.sampled_from([1e-300, 0.3, 1 + 1j, 5.0, 1e200, 1e308]),
              st.sampled_from([0.0, 1.0, 30.0]),
              st.sampled_from([(2, 1), (7, 1), (61, 1), (200, 2), (400, 3)])))


def _csv(c, k, n, power=1):
    x = 3.0 * np.linspace(0.0, 1.0, n) ** power
    a = c * np.exp(1j * k * x)
    return "r,re,im\n" + "".join(f"{t!r},{v.real!r},{v.imag!r}\n"
                                  for t, v in zip(x.tolist(), a.tolist()))


# 160 draws cover every figure1 and --orders combination and leave the
# first two kinds more draws than the 60 they had on their own
@given(_FUZZ_ARGS)
@settings(deadline=None, max_examples=160, database=None, derandomize=True)
def test_cli_fuzz_ends_in_an_exit_code(args):
    # any spec ends in a documented exit code in bounded time, with no
    # traceback and no numpy warning; a CSV draw is (args, the CSV's text)
    args, text = args if isinstance(args, tuple) else (args, None)
    err = io.StringIO()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if text is not None:
            Path(out, "a.csv").write_text(text)
        try:
            got = run([a.replace("{out}", out) for a in args] + ["--out", out])
        except SystemExit as exc:
            got = exc.code
    assert got in (0, 1, 2, 3)
    assert time.perf_counter() - start < 10.0
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], args


class TestSampledRoundTrip:
    def test_solve_from_csv(self, tmp_path):
        src = tmp_path / "pot.csv"
        src.write_text("r,re,im\n0.0,1.0,0.0\n1.0,1.0,0.0\n")
        assert run(["solve", "--potential", f"sampled:{src}", "--lambda", "0",
                    "--rmax", "2", "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "krein_path_0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # constant unit coefficient on [0,1]: P* freezes at e^{-1}
        assert float(rows[-1]["RePstar"]) == pytest.approx(math.exp(-1), abs=1e-6)
