import math

import numpy as np
import pytest

from diracbag import fiber
from diracbag.numerics import Grid1D, eig_sym_tridiag


def test_whole_line_levels():
    assert fiber.whole_line_levels("minus", 1) == 2.0
    assert fiber.whole_line_levels("plus", 1) == 0.0
    assert fiber.whole_line_levels("plus", 3) == 4.0
    with pytest.raises(ValueError):
        fiber.whole_line_levels("minus", 0)
    with pytest.raises(ValueError):
        fiber.whole_line_levels("up", 1)


def test_whole_line_truncated_matches_landau():
    m = fiber.whole_line_matrix("minus", 0.3, Grid1D(-20.0, 20.0, 4001))
    vals, _ = eig_sym_tridiag(m, 3)
    for k in range(1, 4):
        assert vals[k - 1] == pytest.approx(2.0 * k, abs=5e-4)


def _du0(u, step):
    """One-sided second-order derivative of the samples u at the wall."""
    return (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * step)


def test_ground_state_trace_and_robin_residual(a0res):
    a0 = a0res.a0
    grid = fiber.default_grid(a0)
    nu, u = fiber.fiber_eigs("minus", a0, a0, grid)
    assert nu == pytest.approx(a0 * a0, abs=5e-5)
    assert u[0] > 0
    # Robin condition du(0) = (alpha - xi) u(0); here alpha = xi
    assert abs(_du0(u, grid.step) - 0.0 * u[0]) <= 10 * grid.step**2
    # interior positivity of the ground state
    assert np.all(u[:-1] > -1e-12)


def test_robin_residual_general():
    grid = fiber.default_grid(0.5)
    _, u = fiber.fiber_eigs("minus", 2.0, 0.5, grid)
    assert abs(_du0(u, grid.step) - (2.0 - 0.5) * u[0]) <= 10 * grid.step**2


def test_fiber_limits():
    # nu_1^- -> 2k as xi -> +inf ; nu_1^+ -> 2(k-1) as xi -> -inf
    v = fiber.nu_k("minus", 1, 2.0, 8.0)
    assert abs(v - 2.0) < 0.05
    assert v == pytest.approx(1.9999984, abs=1e-5)  # frozen converged value
    vp = fiber.nu_k("plus", 1, 2.0, -8.0)
    assert abs(vp) < 0.05


def test_monotone_in_alpha():
    for xi in (-1.0, 0.5, 2.0):
        vals = [fiber.nu_k("minus", 1, a, xi, n=1001) for a in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(vals) > 0)


def test_unimodal_minus_and_increasing_plus():
    xis = np.arange(-2.0, 6.0 + 1e-9, 0.4)
    minus = np.array([fiber.nu_k("minus", 1, 2.0, x, n=1001) for x in xis])
    signs = np.sign(np.diff(minus))
    flips = np.sum(np.abs(np.diff(signs)) > 0)
    assert flips == 1  # exactly one sign change of the discrete derivative
    plus = np.array([fiber.nu_k("plus", 1, 2.0, x, n=1001) for x in xis])
    assert np.all(np.diff(plus) > 0)


def test_truncation_stability():
    base = fiber.nu_k("minus", 1, 1.0, 2.0)  # x1 = 20 >= |xi| + 12
    doubled, _ = fiber.fiber_eigs("minus", 1.0, 2.0, Grid1D(0.0, 40.0, 8001))
    assert abs(doubled - base) < 1e-10


def test_derivative_identities_single_point():
    alpha, xi = 2.0, 1.0
    d_xi, d_alpha = fiber.fiber_eig_derivatives("minus", alpha, xi)
    nu, u = fiber.fiber_eigs("minus", alpha, xi, fiber.default_grid(xi))
    u0sq = u[0] ** 2
    assert abs(d_alpha - u0sq) <= 1e-3 * u0sq
    pred = -(nu + alpha**2 - 2 * alpha * xi) * u0sq
    assert abs(d_xi - pred) <= 1e-3 * abs(pred)


def test_half_line_matrix_is_rank_one_in_alpha():
    # alpha enters only as (2 alpha / step) e_1 e_1^T on the alpha-free A_xi
    g = fiber.default_grid(1.5, 1001)
    for sign in ("plus", "minus"):
        a_xi = fiber.half_line_matrix(sign, 1.5, g)
        m = fiber.half_line_matrix(sign, 1.5, g, alpha=0.7)
        assert np.array_equal(m.offdiag, a_xi.offdiag)
        assert np.array_equal(m.diag[1:], a_xi.diag[1:])
        assert m.diag[0] - a_xi.diag[0] == pytest.approx(2 * 0.7 / g.step, rel=1e-12)
    with pytest.raises(ValueError):
        fiber.half_line_matrix("sideways", 1.5, g)


def test_nu_values_are_the_lowest_nu_k():
    vals = fiber.nu_values("minus", 3, 2.0, 0.5, 1001)
    assert len(vals) == 3 and list(vals) == sorted(vals)
    for k in (1, 2, 3):
        assert vals[k - 1] == pytest.approx(fiber.nu_k("minus", k, 2.0, 0.5, 1001), abs=1e-11)


def test_critical_point_at_a0(a0res):
    d_xi, _ = fiber.fiber_eig_derivatives("minus", a0res.a0, a0res.a0)
    assert abs(d_xi) < 1e-5


def test_spec_validation():
    grid = fiber.default_grid(0.0, 101)
    with pytest.raises(ValueError, match="sign must be"):
        fiber.fiber_eigs("sideways", 1.0, 0.0, grid)
    with pytest.raises(ValueError, match="alpha must be positive"):
        fiber.fiber_eigs("minus", -1.0, 0.0, grid)
    with pytest.raises(ValueError, match="alpha must be positive"):
        fiber.nu_k("minus", 1, 0.0, 0.0, 101)
    with pytest.raises(ValueError, match="must start at 0"):
        fiber.fiber_eigs("minus", 1.0, 0.0, Grid1D(1.0, 21.0, 101))
