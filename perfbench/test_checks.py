"""The benchmark's own checks reject injected errors, and the known Gaussian
tail faults are counted as failed operations without aborting a run.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks as ck  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from kreinlab import build_potential, entropy_E, krein, sobolev_h_minus1  # noqa: E402
from kreinlab.kernel import series_coeffs_from_samples  # noqa: E402
from kreinlab.ordered_exp import f_of_s, random_coeff_pair  # noqa: E402

WORSE = 1.0 + 1e-3


@pytest.fixture(scope="module")
def decay_round(tmp_path_factory):
    wl = workloads.EntropyDecay(0, tmp_path_factory.mktemp("decay"),
                                workloads.build_catalog())
    _, out, errors = run.run_round(wl)
    return wl, out, errors


def test_gaussian_E_rejects_scaled_value():
    ref = refs.gaussian_E_mp(1.0, 1.0, 1.0)
    E = entropy_E(build_potential("gaussian", 1, 1), 1.0)
    assert ck.entropy_window("g", E, ref, atol=0.0).ok
    assert not ck.entropy_window("g", E * WORSE, ref, atol=0.0).ok


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.25])
def test_complex_gaussian_E_rejects_scaled_value(r):
    c = 0.5 + 0.5j
    ref = refs.magnus_E(lambda x: c * np.exp(-x * x), r)
    E = entropy_E(build_potential("gaussian", c, 1), r)
    assert ck.entropy_window("z", E, ref, atol=ck.E_COMPLEX_ATOL).ok
    assert not ck.entropy_window("z", E * WORSE, ref, atol=ck.E_COMPLEX_ATOL).ok


def test_figure1_E_rejects_scaled_value():
    ref = refs.figure1_E(2.0)
    E = entropy_E(build_potential("figure1"), 2.0)
    assert ck.entropy_window("f", E, ref).ok
    assert not ck.entropy_window("f", E * WORSE, ref).ok


def test_figure1_zero_windows_fail_against_reference():
    wl = workloads.EntropyOsc(0, Path("."), {})
    p = build_potential("figure1")
    for r in (4.25, 4.5):
        E = entropy_E(p, r)
        op = ck.entropy_window(f"figure1.E(r={r:g})", E, refs.figure1_E(r))
        assert E == 0.0 and not op.ok and op.name in wl.known_faults


def test_round_outputs_are_read_before_the_next_round(decay_round, tmp_path):
    wl = workloads.EntropyDecay(0, tmp_path, workloads.build_catalog())
    _, out, errors = run.run_round(wl)
    for d in tmp_path.iterdir():
        for f in d.iterdir():
            f.unlink()
    assert not errors
    assert len(run.check_round(wl, out, errors)) == len(
        run.check_round(*decay_round))


def test_box_closed_forms_reject_scaled_values(decay_round):
    _, out, _ = decay_round
    b = out["box:0.5,2"]
    for r, E, D in zip(b["r"][:4], b["E"][:4], b["D"][:4]):
        tol = {"rtol": ck.CLOSED_FORM_RTOL, "atol": ck.CLOSED_FORM_ATOL}
        assert ck.entropy_window("E", E, refs.box_E(0.5, 2.0, r), **tol).ok
        assert not ck.entropy_window("E", E * WORSE, refs.box_E(0.5, 2.0, r), **tol).ok
        assert ck.variation_window("D", D, refs.box_D(0.5, 2.0, r)).ok
        assert not ck.variation_window("D", D * WORSE, refs.box_D(0.5, 2.0, r)).ok


def test_negative_values_are_rejected():
    assert not ck.nonneg_E("E", -1e-8).ok
    assert not ck.nonneg_D("D", -1e-300).ok


def test_sobolev_bracket_rejects_shifted_proxy():
    s = sobolev_h_minus1(build_potential("box", 1, 1))
    H = refs.box_H(1.0, 1.0)
    assert ck.sobolev_bracket("s", s.value, s.tail_bound, H).ok
    assert not ck.sobolev_bracket("s", s.value * WORSE, s.tail_bound, H).ok
    assert not ck.sobolev_bracket("s", s.value - 2 * s.tail_bound, s.tail_bound, H).ok


def test_box_krein_path_rejects_moved_path():
    r = np.arange(0.0, 4.0001, 0.05)
    lam = 0.7 + 0.3j
    kp = krein.solve_krein(build_potential("box", 1, 1), lam, r)
    P_ref, Ps_ref = refs.box_krein(1.0, 1.0, lam, r)
    assert ck.krein_path("k", kp.P, kp.P_star, P_ref, Ps_ref).ok
    moved = kp.P.copy()
    moved[len(r) // 2] += 1e-6
    assert not ck.krein_path("k", moved, kp.P_star, P_ref, Ps_ref).ok
    assert not ck.krein_path("k", kp.P, kp.P_star + 1e-6, P_ref, Ps_ref).ok


def test_pi_zero_rejects_moved_or_reflected_zero():
    z0 = krein.find_pi_zero(build_potential("box", 1, 1))
    assert ck.pi_zero("z", z0, refs.box_pstar(1.0, 1.0, z0)).ok
    moved = z0 + 1e-6
    assert not ck.pi_zero("z", moved, refs.box_pstar(1.0, 1.0, moved)).ok
    assert not ck.pi_zero("z", z0.conjugate(), 0.0).ok


def test_circle_a2_rejects_shifted_coefficients():
    A = random_coeff_pair(np.random.default_rng(5))
    cs = series_coeffs_from_samples(lambda s: f_of_s(A, s, n_grid=1025), 5,
                                    radius=0.8, n_samples=64)
    a2 = refs.a2_quad(A.p, A.q)
    assert ck.circle_a2("a", cs, a2).ok
    shifted = cs.copy()
    shifted[2] += 1e-6
    assert not ck.circle_a2("a", shifted, a2).ok
    odd = cs.copy()
    odd[3] += 1e-6
    assert not ck.circle_a2("a", odd, a2).ok


def test_residual_and_gap_properties():
    assert ck.residual("r", 5e-7).ok
    assert not ck.residual("r", 2e-6).ok
    # a gap growing by 1e-8 per step, as for small Im lambda
    P = np.full(11, 0.5 + 0j)
    Ps = np.sqrt(0.25 + 1e-8 * np.arange(11)) + 0j
    assert ck.gap_nondecreasing("g", P, Ps).ok
    Ps_bad = Ps.copy()
    Ps_bad[5] -= 1e-6
    assert not ck.gap_nondecreasing("g", P, Ps_bad).ok


def test_gaussian_tail_windows_are_the_only_failures(decay_round):
    wl, out, errors = decay_round
    assert not errors
    failed = {op.name for op in run.check_round(wl, out, errors) if not op.ok}
    assert failed == set(wl.known_faults) == {
        "gaussian:1,1.E(r=1.5)", "gaussian:1,1.E(r=1.75)", "gaussian:1,1.E(r=2)",
        "gaussian:0.5+0.5i,1.E(r=1.5)"}


def test_failed_windows_do_not_abort_the_run(decay_round):
    wl, out, errors = decay_round
    per_round = len(run.check_round(wl, out, errors))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "entropy_decay",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert res["attempted"] % per_round == 0
    assert res["failed"] == 4 * res["attempted"] // per_round > 0
    assert set(res["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_run_refuses_a_tree_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "entropy_decay",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip()
