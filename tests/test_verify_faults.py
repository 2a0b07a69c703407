"""Fault injection into the routes the verify battery checks: a check that
no fault in its route can fail shows nothing, so each test here scales one
route's value and asserts that the check that names it fails."""

import pytest

from kreinlab import entropy as ent
from kreinlab import verify
from kreinlab.verify import run_battery


@pytest.mark.parametrize("factor", [1.001, 10.0])
def test_sobolev_closed_form_fails_on_a_scaled_norm(monkeypatch, factor):
    exact = ent.sobolev_h_minus1

    def scaled(p, *args, **kwargs):
        norm = exact(p, *args, **kwargs)
        return ent.SobolevNorm(norm.value * factor, norm.tail_bound)

    [healthy] = run_battery(0, only="entropy.sobolev_closed_form")
    monkeypatch.setattr(ent, "sobolev_h_minus1", scaled)
    [faulty] = run_battery(0, only="entropy.sobolev_closed_form")
    assert healthy.passed and not faulty.passed


def test_diagonal_a4_fails_on_a_scaled_coefficient(monkeypatch):
    exact = verify.diagonal_a_n
    [healthy] = run_battery(0, only="ordered.diagonal_a4")
    monkeypatch.setattr(verify, "diagonal_a_n", lambda g, n: 1.01 * exact(g, n))
    [faulty] = run_battery(0, only="ordered.diagonal_a4")
    assert healthy.passed and not faulty.passed


def test_figure1_routes_fail_on_a_scaled_expansion(monkeypatch):
    # figure1's expansion E and D x 1.01, its sampled route untouched
    [healthy] = run_battery(0, only="entropy.figure1_routes")
    for name in ("_f1_E_job", "_f1_D_job"):
        def scaled(*args, job=getattr(ent, name)):
            window, omega, value = job(*args)
            return window, omega, lambda tails: ent.WindowValue(
                1.01 * value(tails), "expansion", value(tails).error)
        monkeypatch.setattr(ent, name, scaled)
    [faulty] = run_battery(0, only="entropy.figure1_routes")
    assert healthy.passed and not faulty.passed
