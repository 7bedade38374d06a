"""Closed forms of the built-in trajectories against quadrature and algebra."""

import math

import numpy as np
import pytest
from scipy import integrate

from coalgp.errors import SimulationError
from coalgp.trajectories import (
    BoomBustTrajectory,
    ConstantTrajectory,
    ExpGrowthTrajectory,
    parse_trajectory,
)

BUILTINS = [
    ConstantTrajectory(1.0),
    ConstantTrajectory(3.5),
    ExpGrowthTrajectory(25.0, 5.0),
    ExpGrowthTrajectory(2.0, -0.7),
    BoomBustTrajectory(),
    BoomBustTrajectory(3.0, 0.8, 1.5),
]


@pytest.mark.parametrize("traj", BUILTINS)
def test_integral_matches_quadrature(traj, rng):
    for _ in range(6):
        a, b = np.sort(rng.uniform(0.0, 2.0, size=2))
        expected, _ = integrate.quad(traj.inv_ne, a, b, epsabs=1e-12, limit=200)
        assert traj.inv_ne_integral(a, b) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("traj", BUILTINS)
def test_solve_inverts_integral(traj, rng):
    for _ in range(6):
        a = float(rng.uniform(0.0, 1.2))
        target = float(rng.uniform(0.01, 2.0))
        try:
            t = traj.solve_inv_ne_integral(a, target)
        except SimulationError:
            assert isinstance(traj, ExpGrowthTrajectory) and traj.rate < 0
            continue
        assert t >= a
        assert traj.inv_ne_integral(a, t) == pytest.approx(target, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("traj", BUILTINS)
def test_solve_vectorized_matches_scalar(traj, rng):
    a = rng.uniform(0.0, 0.4, size=8)
    target = rng.uniform(0.01, 0.3, size=8)  # reachable even for decaying hazards
    vec = np.asarray(traj.solve_inv_ne_integral(a, target))
    scal = np.array([traj.solve_inv_ne_integral(float(x), float(y)) for x, y in zip(a, target)])
    assert np.allclose(vec, scal, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("traj", BUILTINS)
def test_array_forms_match_scalar_calls(traj, rng):
    # the simulators call these once per round for a whole batch
    a = rng.uniform(0.0, 1.5, size=9)
    b = a + rng.uniform(0.0, 1.0, size=9)
    b[0] = a[0]  # empty interval
    b[1] = a[1] - 0.2  # reversed interval integrates to 0
    integral = traj.inv_ne_integral(a, b)
    sup = traj.sup_inv_ne(a[2:], b[2:])
    for j in range(9):
        assert integral[j] == traj.inv_ne_integral(float(a[j]), float(b[j]))
    assert integral[0] == 0.0 and integral[1] == 0.0
    for j in range(7):
        assert np.broadcast_to(sup, (7,))[j] == traj.sup_inv_ne(float(a[j + 2]), float(b[j + 2]))


def test_expgrowth_closed_form_inverse():
    # unit-exponential draw of 1 under N_e(t) = 25 exp(-5 t) from t=0
    traj = ExpGrowthTrajectory(25.0, 5.0)
    assert traj.solve_inv_ne_integral(0.0, 1.0) == pytest.approx(math.log(126.0) / 5.0, abs=1e-12)


@pytest.mark.parametrize("traj", BUILTINS)
def test_sup_inv_ne_dominates(traj, rng):
    for _ in range(8):
        a = float(rng.uniform(0.0, 1.5))
        b = a + float(rng.uniform(0.01, 1.0))
        sup = traj.sup_inv_ne(a, b)
        ts = np.linspace(a, b, 257)
        assert np.all(traj.inv_ne(ts) <= sup * (1 + 1e-12))
        # tight: attained somewhere on the window
        assert np.max(traj.inv_ne(ts)) >= sup * (1 - 1e-6)


def test_boombust_continuous_at_peak():
    traj = BoomBustTrajectory()
    eps = 1e-9
    assert traj.ne(traj.peak_time - eps) == pytest.approx(traj.ne(traj.peak_time + eps), rel=1e-6)
    # matches the published form exp(4t) then exp(-2t + 3)
    assert traj.ne(0.25) == pytest.approx(math.exp(1.0))
    assert traj.ne(1.0) == pytest.approx(math.exp(1.0))


def test_parse_trajectory():
    assert isinstance(parse_trajectory("constant:1"), ConstantTrajectory)
    tr = parse_trajectory("expgrowth:25,5")
    assert tr.n0 == 25.0 and tr.rate == 5.0
    bb = parse_trajectory("boombust")
    assert (bb.growth, bb.peak_time, bb.decay) == (4.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        parse_trajectory("weird:1")
    with pytest.raises(ValueError):
        parse_trajectory("constant")
