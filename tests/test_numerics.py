import math

import numpy as np
import pytest

from diracbag.numerics import (
    Bracket,
    BracketError,
    Grid1D,
    TridiagSym,
    bisect,
    eig_sym_tridiag,
    integrate,
)


def test_eig_dirichlet_stencil():
    m = TridiagSym(np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0]))
    vals, _ = eig_sym_tridiag(m, 3)
    expected = np.array([2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)])
    assert np.allclose(vals, expected, atol=1e-12)


def test_eig_one_by_one():
    vals, vecs = eig_sym_tridiag(TridiagSym(np.array([5.0]), np.array([])), 1, vectors=True)
    assert vals[0] == 5.0
    assert vecs.shape == (1, 1)


def test_eig_exchange_matrix():
    vals, _ = eig_sym_tridiag(TridiagSym(np.array([0.0, 0.0]), np.array([1.0])), 2)
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_eig_sorted_and_weighted_normalization():
    rng = np.random.default_rng(7)
    d = rng.normal(size=40)
    e = rng.normal(size=39)
    w = rng.uniform(0.5, 2.0, size=40)
    vals, vecs = eig_sym_tridiag(TridiagSym(d, e), 5, vectors=True, weights=w)
    assert np.all(np.diff(vals) >= -1e-14)
    for j in range(5):
        assert np.sum(w * vecs[:, j] ** 2) == pytest.approx(1.0, abs=1e-12)


def test_eig_interlacing_under_refinement():
    # extending a symmetric tridiagonal by one row/column never increases
    # the k-th smallest eigenvalue (Cauchy interlacing)
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(5, 30)
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        sub, _ = eig_sym_tridiag(TridiagSym(d[: n - 1], e[: n - 2]), 3)
        full, _ = eig_sym_tridiag(TridiagSym(d, e), 3)
        assert np.all(full <= sub + 1e-12)


def test_eig_k_out_of_range():
    with pytest.raises(ValueError):
        eig_sym_tridiag(TridiagSym(np.array([1.0, 2.0]), np.array([0.5])), 3)


def test_bisect_sqrt2():
    b = Bracket(1.0, 2.0, -1.0, 2.0)
    root = bisect(lambda x: x * x - 2.0, b, tol=1e-12)
    assert root == pytest.approx(math.sqrt(2), abs=1e-11)


def test_bisect_identity_and_cos():
    assert bisect(lambda x: x, Bracket(-1.0, 1.0, -1.0, 1.0), 1e-12) == pytest.approx(0.0, abs=1e-11)
    root = bisect(math.cos, Bracket(1.0, 2.0, math.cos(1.0), math.cos(2.0)), 1e-12)
    assert root == pytest.approx(math.pi / 2, abs=1e-11)


def test_bisect_invalid_bracket():
    with pytest.raises(BracketError):
        Bracket(0.0, 1.0, 1.0, 2.0)
    with pytest.raises(BracketError):
        Bracket(1.0, 0.0, -1.0, 1.0)


def test_bisect_bracket_independence():
    f = lambda x: (x - 0.7) * (1.0 + 0.1 * x * x)
    roots = []
    for lo, hi in ((0.0, 1.0), (0.5, 2.0), (0.69, 0.75)):
        roots.append(bisect(f, Bracket(lo, hi, f(lo), f(hi)), 1e-12))
    assert max(roots) - min(roots) < 1e-11


def test_integrate_constant_linear():
    g = Grid1D(0.0, 1.0, 101)
    assert integrate(np.ones(101), g) == pytest.approx(1.0, abs=1e-13)
    g2 = Grid1D(0.0, 2.0, 101)
    x = g2.nodes()
    assert integrate(x, g2) == pytest.approx(2.0, abs=1e-13)


def test_integrate_gaussian():
    g = Grid1D(0.0, 20.0, 4001)
    x = g.nodes()
    val = integrate(np.exp(-(x**2)), g)
    assert val == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-8)


def test_integrate_linearity_and_weight():
    g = Grid1D(0.0, 1.0, 51)
    rng = np.random.default_rng(3)
    a = rng.normal(size=51)
    b = rng.normal(size=51)
    lhs = integrate(2.0 * a + 3.0 * b, g)
    rhs = 2.0 * integrate(a, g) + 3.0 * integrate(b, g)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    w = rng.uniform(0.1, 1.0, size=51)
    assert integrate(a, g, weight=w) == pytest.approx(integrate(a * w, g), abs=1e-12)


def test_integrate_length_mismatch():
    g = Grid1D(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        integrate(np.ones(10), g)
    with pytest.raises(ValueError):
        integrate(np.ones(11), g, weight=np.ones(5))


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 5)
    g = Grid1D(0.0, 1.0, 11)
    assert g.step == pytest.approx(0.1)
