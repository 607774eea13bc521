import math

import numpy as np
import pytest
import scipy.linalg

from diracbag import disk, numerics
from diracbag.numerics import (
    Bracket,
    BracketError,
    Grid1D,
    TridiagSym,
    bisect,
    certified_lowest,
    certified_sign,
    count_below,
    eig_sym_tridiag,
    integrate,
    newton,
    pivot_count,
    pivot_resolvent,
)
from scipy.linalg import eigh_tridiagonal


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


def test_eig_sorted_and_unit_normalization():
    rng = np.random.default_rng(7)
    d = rng.normal(size=40)
    e = rng.normal(size=39)
    vals, vecs = eig_sym_tridiag(TridiagSym(d, e), 5, vectors=True)
    assert np.all(np.diff(vals) >= -1e-14)
    for j in range(5):
        assert np.sum(vecs[:, j] ** 2) == pytest.approx(1.0, abs=1e-12)


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


def test_eig_from_a_first_index():
    rng = np.random.default_rng(5)
    m = TridiagSym(rng.normal(size=40), rng.normal(size=39))
    full, _ = eig_sym_tridiag(m, 40)
    vals, vecs = eig_sym_tridiag(m, 3, vectors=True, first=10)
    assert np.max(np.abs(vals - full[10:13])) < 1e-13
    dense = np.diag(m.diag) + np.diag(m.offdiag, 1) + np.diag(m.offdiag, -1)
    assert np.max(np.abs(dense @ vecs - vecs * vals)) < 1e-12
    for k, first in ((3, 38), (1, -1)):
        with pytest.raises(ValueError):
            eig_sym_tridiag(m, k, first=first)


def _counts_below(d, e, shifts):
    vals = eigh_tridiagonal(d, e, eigvals_only=True) if d.size > 1 else d
    return [int(np.sum(vals < s)) for s in shifts], vals


def _clear_shifts(vals, rng, size, gap):
    """Random shifts at least gap * max|eig| away from every eigenvalue."""
    scale = np.max(np.abs(vals))
    cand = rng.uniform(vals.min() - 0.1 * scale, vals.max() + 0.1 * scale, 4 * size)
    far = np.min(np.abs(cand[:, None] - vals[None, :]), axis=1) > gap * scale
    return cand[far][:size]


def test_count_below_random_matches_eigensolve():
    rng = np.random.default_rng(5)
    n = 60
    for _ in range(12):
        d, e = rng.normal(size=n), rng.normal(size=n - 1)
        shifts = [-3.0, -0.5, 0.0, 0.7, 2.5]
        expected, _ = _counts_below(d, e, shifts)
        assert [count_below(TridiagSym(d, e), s) for s in shifts] == expected


def test_count_below_graded_matches_eigensolve():
    # entries spanning sixteen orders of magnitude, shifts kept clear of the
    # eigenvalues by more than the eigensolver's absolute accuracy
    rng = np.random.default_rng(9)
    n = 80
    d = 10.0 ** np.linspace(-8, 8, n) * rng.uniform(0.5, 2.0, n)
    e = np.sqrt(d[:-1] * d[1:]) * rng.uniform(-0.9, 0.9, n - 1)
    vals = eigh_tridiagonal(d, e, eigvals_only=True)
    shifts = _clear_shifts(vals, rng, 40, 1e-9)
    assert shifts.size >= 20
    got = [count_below(TridiagSym(d, e), s) for s in shifts]
    assert got == _counts_below(d, e, shifts)[0]


def test_count_below_orders_one_and_two():
    one = TridiagSym(np.array([2.0]), np.zeros(0))
    assert [count_below(one, x) for x in (1.0, 2.0, 3.0)] == [0, 1, 1]
    two = TridiagSym(np.array([0.0, 0.0]), np.array([1.0]))  # eigenvalues -1, 1
    assert [count_below(two, x) for x in (-1.5, -0.5, 0.5, 1.5)] == [0, 1, 1, 2]


def test_count_below_outside_the_gershgorin_interval():
    rng = np.random.default_rng(13)
    d, e = rng.normal(size=30), rng.normal(size=29)
    reach = np.abs(d) + np.concatenate([[0.0], np.abs(e)]) + np.concatenate([np.abs(e), [0.0]])
    m = TridiagSym(d, e)
    assert count_below(m, -reach.max() - 1.0) == 0
    assert count_below(m, reach.max() + 1.0) == 30


def test_count_below_counts_an_exact_eigenvalue():
    # a diagonal matrix has its diagonal as exact eigenvalues, and an
    # eigenvalue equal to x is counted
    m = TridiagSym(np.array([3.0, 1.0, 2.0, 2.0]), np.zeros(3))
    assert [count_below(m, x) for x in (0.5, 1.0, 1.5, 2.0, 3.0)] == [0, 1, 1, 3, 4]


def _around_the_first_eigenvalue(d, e, gap):
    vals = eigh_tridiagonal(d, e, eigvals_only=True)
    step = gap * np.max(np.abs(vals))
    return [vals[0] - step, vals[0] + step]


def _disk_forms():
    # Q_lambda of two disk modes at their ground roots, and the plus-branch
    # zigzag matrix of mode 0 (its form without the wall row)
    spec = disk.DiskSpec.make(disk.RadialField(1.0, 1.0), 0.1, 2001)
    mats = []
    for mode, branch in ((0, "plus"), (-2, "minus")):
        op = disk._ModeOperator(spec, mode, branch)
        mats.append(op.matrix(disk.mode_E(spec, mode, branch)))
    mats.append(TridiagSym(op.diag[:-1], op.off[:-1]))
    return mats


def test_pivot_count_is_count_below_capped():
    # the LDL^T pivot count against the Sturm count, capped at 1, 3 and
    # beyond n, on the count_below matrices (random, graded, orders one and
    # two, outside the Gershgorin interval, exact eigenvalues), random ones
    # split by zero off-diagonals and disk forms, with levels on both sides
    # of the lowest eigenvalues
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(12):
        d, e = rng.normal(size=60), rng.normal(size=59)
        cases.append((d, e, [-3.0, -0.5, 0.0, 0.7, 2.5] + _around_the_first_eigenvalue(d, e, 1e-9)))
    for _ in range(6):
        d, e = rng.normal(size=40), rng.normal(size=39)
        e[rng.choice(39, size=5, replace=False)] = 0.0
        vals = eigh_tridiagonal(d, e, eigvals_only=True)
        cases.append((d, e, list(_clear_shifts(vals, rng, 12, 1e-9))))
    rng = np.random.default_rng(9)
    d = 10.0 ** np.linspace(-8, 8, 80) * rng.uniform(0.5, 2.0, 80)
    e = np.sqrt(d[:-1] * d[1:]) * rng.uniform(-0.9, 0.9, 79)
    shifts = _clear_shifts(eigh_tridiagonal(d, e, eigvals_only=True), rng, 40, 1e-9)
    cases.append((d, e, list(shifts) + _around_the_first_eigenvalue(d, e, 1e-9)))
    cases.append((np.array([2.0]), np.zeros(0), [1.0, 2.0, 3.0]))
    cases.append((np.array([0.0, 0.0]), np.array([1.0]), [-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]))
    rng = np.random.default_rng(13)
    d, e = rng.normal(size=30), rng.normal(size=29)
    reach = np.abs(d) + np.concatenate([[0.0], np.abs(e)]) + np.concatenate([np.abs(e), [0.0]])
    cases.append((d, e, [-reach.max() - 1.0, reach.max() + 1.0]))
    cases.append((np.array([3.0, 1.0, 2.0, 2.0]), np.zeros(3), [0.5, 1.0, 1.5, 2.0, 3.0]))
    for m in _disk_forms():
        low = eig_sym_tridiag(m, 8)[0]
        levels = np.concatenate([low * (1.0 - 1e-6), low * (1.0 + 1e-6), 0.5 * (low[1:] + low[:-1])])
        cases.append((m.diag, m.offdiag, [-1.0, 0.0] + levels.tolist()))
    got, expected = [], []
    for d, e, levels in cases:
        m = TridiagSym(d, e)
        for cap in (1, 3, m.n + 1):
            got += [pivot_count(m, x, cap) for x in levels]
            expected += [min(cap, count_below(m, x)) for x in levels]
    assert got == expected
    assert {0, 1, 3} < set(got) and max(got) > 3


def test_pivot_count_zero_and_last_pivots():
    # an exactly zero pivot is counted (as -pivmin, like stebz) and the next
    # row continues from it; a non-positive pivot in the last row, met in
    # pttrf's pass or alone after a restart (|), is counted once.  Comments
    # list the pivots of m - x I
    zero_first = TridiagSym(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0]))  # x = 1: 0, +, +
    zero_middle = TridiagSym(np.array([2.0, 2.0, 4.0, 0.0]), np.array([1.0, 1.0, 1.0]))  # x = 1: 1, 0, +, -
    last = TridiagSym(np.array([2.0, 2.0, 0.5]), np.array([1.0, 1.0]))  # x = 0: 2, 1.5, -1/6
    last_alone = TridiagSym(np.array([2.0, -1.0, -3.0]), np.array([1.0, 0.5]))  # 2, -1.5 | -17/6
    for m, x, count in ((zero_first, 1.0, 1), (zero_middle, 1.0, 2), (last, 0.0, 1),
                        (last_alone, 0.0, 2)):
        assert count_below(m, x) == count
        assert [pivot_count(m, x, cap) for cap in (1, 2, 3)] == [min(cap, count) for cap in (1, 2, 3)]


def test_pivot_count_passes(monkeypatch):
    # one pttrf pass per counted pivot, at most cap of them: cap = 1 is a
    # single definiteness pass, as the k = 1 signs always took
    passes = []
    real = scipy.linalg.lapack.dpttrf
    monkeypatch.setattr(scipy.linalg.lapack, "dpttrf",
                        lambda *a, **kw: passes.append(1) or real(*a, **kw))
    m = TridiagSym(np.arange(1.0, 11.0), np.full(9, 0.1))  # eigenvalues near 1..10
    for x, cap, count, calls in ((0.5, 1, 0, 1), (5.5, 1, 1, 1), (5.5, 3, 3, 3), (5.5, 20, 5, 6),
                                 (10.5, 20, 10, 9)):
        passes.clear()
        assert pivot_count(m, x, cap) == count
        assert len(passes) == calls


def test_certified_sign_tiers(monkeypatch):
    # eigenvalues 1, 2, 3 and ||m||_1 = 3.  Every k: pivot counts at x -/+ 64
    # eps * 3 (4.3e-14), then Sturm counts at x -/+ tau, tau = eps (3 + 2|x|).
    # Only levels inside +/- tau are eigensolved, and give the eigenvalue
    # minus the level.
    m = TridiagSym(np.array([3.0, 1.0, 2.0]), np.zeros(2))
    lam1, lam2 = (float(v) for v in eig_sym_tridiag(m, 2)[0])
    eps = np.finfo(float).eps
    tiers = []
    for name in ("pivot_count", "count_below", "eig_sym_tridiag"):
        real = getattr(numerics, name)
        monkeypatch.setattr(numerics, name,
                            lambda *a, f=real, n=name: tiers.append(n) or f(*a))

    def sign(x, k):
        tiers.clear()
        return certified_sign(m, x, k), tiers[-1]

    tau1, tau2 = 5.0 * eps, 7.0 * eps
    assert [sign(x, 1) for x in (0.5, 1.5, 1.0 - 1e-13, 1.0 + 1e-14, 1.0 - 2.0 * tau1)] == [
        (1.0, "pivot_count"), (-1.0, "pivot_count"), (1.0, "pivot_count"),
        (-1.0, "count_below"), (1.0, "count_below")]
    assert [sign(x, 1) for x in (1.0, 1.0 + 0.5 * tau1)] == [
        (lam1 - 1.0, "eig_sym_tridiag"), (lam1 - (1.0 + 0.5 * tau1), "eig_sym_tridiag")]
    assert tiers == ["pivot_count", "pivot_count", "count_below", "count_below", "eig_sym_tridiag"]
    # k = 2 takes the same tiers: 2 + 1e-14 and 2 + 2 tau lie inside the
    # 64 eps band and are count-decided
    assert [sign(x, 2) for x in (1.5, 2.5, 2.0 - 1e-9, 2.0 + 1e-14, 2.0 + 2.0 * tau2)] == [
        (1.0, "pivot_count"), (-1.0, "pivot_count"), (1.0, "pivot_count"),
        (-1.0, "count_below"), (-1.0, "count_below")]
    assert [sign(x, 2) for x in (2.0, 2.0 - 0.5 * tau2)] == [
        (lam2 - 2.0, "eig_sym_tridiag"), (lam2 - (2.0 - 0.5 * tau2), "eig_sym_tridiag")]
    assert tiers == ["pivot_count", "pivot_count", "count_below", "count_below", "eig_sym_tridiag"]


def _sign_scan_matrices():
    rng = np.random.default_rng(7)
    mats = [TridiagSym(rng.normal(size=n), rng.normal(size=n - 1)) for n in (50, 400)]
    d = np.logspace(0, 8, 60)  # graded
    mats.append(TridiagSym(d, np.sqrt(d[:-1] * d[1:]) * rng.uniform(-0.5, 0.5, 59)))
    spec = disk.DiskSpec.make(disk.RadialField(1.0, 1.0), 0.1, 2001)
    for mode, branch in ((0, "plus"), (-2, "minus")):  # Q_lambda at the mode's ground root
        mats.append(disk._ModeOperator(spec, mode, branch).matrix(disk.mode_E(spec, mode, branch)))
    return mats


def test_certified_sign_agrees_with_the_eigensolve_across_the_band(monkeypatch):
    # x steps across lambda_1, lambda_2, lambda_3 by eps ||m||_1 / 8 over +/- 50
    # eps ||m||_1: every sign is that of the eigensolved lambda_k - x, and an
    # eigensolve happens only where the counts cannot decide, within tau plus
    # stebz's final interval (< 2 tau) of lambda_k
    eps = np.finfo(float).eps
    levels = mismatched = 0
    solves, gaps = [], []  # gaps: |x - lambda_k| / tau at the eigensolved levels
    real = numerics.eig_sym_tridiag
    monkeypatch.setattr(numerics, "eig_sym_tridiag", lambda *a: solves.append(1) or real(*a))
    for m in _sign_scan_matrices():
        norm = numerics._norm1(m)
        for k in (1, 2, 3):
            lam = float(real(m, k)[0][k - 1])
            for j in range(-400, 401):
                x = lam + j * norm * eps / 8.0
                before = len(solves)
                mismatched += np.sign(certified_sign(m, x, k)) != np.sign(lam - x)
                levels += 1
                if len(solves) > before:
                    gaps.append(abs(x - lam) / (eps * (norm + 2.0 * abs(x))))
    assert levels == 12015 and mismatched == 0
    assert max(gaps) < 2.0
    assert len(gaps) <= 450  # 373 measured


def test_eig_sym_tridiag_is_stebz_at_zero_tolerance():
    # certified_sign's tau rests on eig_sym_tridiag being LAPACK stebz by
    # index with tol = 0 (stebz's own stopping width); a change of driver or
    # tolerance must fail here
    for m in _sign_scan_matrices()[:3] + [TridiagSym(np.array([3.0, 1.0, 2.0]), np.zeros(2))]:
        for k in (1, 2, 3):
            got = eig_sym_tridiag(m, k)[0]
            mk, w, *_, info = scipy.linalg.lapack.dstebz(m.diag, m.offdiag, 2, 0, 0, 1, k, 0.0, "E")
            assert info == 0 and mk == k
            assert got.tobytes() == w[:k].tobytes()


def _two_blocks(s):
    # [[2, -1], [-1, 2]] and the same block plus s I: eigenvalues 1, 1 + s, 3, 3 + s
    return TridiagSym(np.array([2.0, 2.0, 2.0 + s, 2.0 + s]), np.array([-1.0, 0.0, -1.0]))


def test_certified_lowest_takes_the_lowest_eigenvalue():
    # a certified value lies within the count band 64 eps ||m||_1 of stebz's,
    # from a floor far below lambda_1 and from one just below it
    certified = 0
    for m in _sign_scan_matrices() + [_two_blocks(1.0)]:
        lam = float(eig_sym_tridiag(m, 1)[0][0])
        band = 64.0 * np.finfo(float).eps * numerics._norm1(m)
        for lo in (lam - 1.0, lam - 1e-3 * max(1.0, abs(lam))):
            got = certified_lowest(m, lo)
            if got is not None:
                assert abs(got - lam) <= band  # 0.013 band measured
                certified += 1
    # all but Q_lambda of the plus (0, 1) root from lambda_1 - 1, where the
    # error falls by only (1 / 1.225)^2 a step and the cap comes first
    assert certified == 11
    assert certified_lowest(_two_blocks(1.0), 0.0) == 1.0


def test_certified_lowest_falls_back():
    # s = 1e-9: rho stops falling after one step, 5e-10 above lambda_1 and far
    # outside the band 64 eps ||m||_1 = 4.3e-14, so the count at rho - band is
    # 1; without that count 1 + 5e-10 would be returned
    assert certified_lowest(_two_blocks(1e-9), 0.0) is None
    # s = 1e-15: rho is lambda_1 to rounding, but two eigenvalues lie in the band
    assert certified_lowest(_two_blocks(1e-15), 0.0) is None
    # s = 1e-3: the error falls by (1 + s)^-2 a step, so the cap comes first
    assert certified_lowest(_two_blocks(1e-3), 0.0) is None
    # a floor above lambda_1: m - lo I is indefinite and pttrf fails
    assert certified_lowest(_two_blocks(1.0), 1.5) is None


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


def test_newton_converges_and_falls_back_to_the_midpoint():
    def run(f, df, lo, hi):
        evals = []

        def fd(x):
            evals.append(x)
            return f(x), df(x)

        root = newton(fd, Bracket(lo, hi, f(lo), f(hi)), 1e-12)
        assert all(lo <= x <= hi for x in evals)
        return root, len(evals)

    root, n = run(lambda x: x * x - 2.0, lambda x: 2.0 * x, 1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2), abs=1e-14) and n <= 6
    root, n = run(math.cos, lambda x: -math.sin(x), 1.0, 2.0)
    assert root == pytest.approx(math.pi / 2, abs=1e-14) and n <= 6
    # from the midpoint 9 the Newton step of arctan lands far outside the bracket
    root, _ = run(lambda x: math.atan(x - 0.3), lambda x: 1.0 / (1.0 + (x - 0.3) ** 2),
                  -2.0, 20.0)
    assert root == pytest.approx(0.3, abs=1e-12)
    # a zero derivative leaves plain dichotomy, which still converges
    root, n = run(lambda x: x - 0.7, lambda x: 0.0, 0.0, 1.0)
    assert root == pytest.approx(0.7, abs=1e-12) and n >= 39


def test_newton_between_two_poles():
    # f = 1/(1 - x) - 2/x runs from -inf to +inf on (0, 1): the ends are poles
    # (ZeroDivisionError there), given to the bracket as signed infinities
    evals = []

    def fd(x):
        evals.append(x)
        return 1.0 / (1.0 - x) - 2.0 / x, 1.0 / (1.0 - x) ** 2 + 2.0 / x**2

    root = newton(fd, Bracket(0.0, 1.0, -math.inf, math.inf), 1e-12)
    assert root == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert all(0.0 < x < 1.0 for x in evals) and len(evals) <= 8


def _corner_of_inverse(m, x):
    # G = e_1^T (m - x)^-1 e_1 and G' = |(m - x)^-1 e_1|^2 from the dense inverse
    dense = np.diag(m.diag - x) + np.diag(m.offdiag, 1) + np.diag(m.offdiag, -1)
    y = np.linalg.inv(dense)[:, 0]
    return y[0], y @ y


def test_newton_gives_up_on_a_wrong_derivative():
    # a derivative 1000 times too large keeps every step inside the bracket,
    # each shrinking it a little: uncapped, this took 19106 evaluations and
    # ended 1e-9 from the root, 1000 times the tolerance
    evals = []

    def fd(x):
        evals.append(x)
        return x - 0.3, 1e3

    with pytest.raises(RuntimeError, match=r"100 evaluations on the bracket \[0, 1\]"):
        newton(fd, Bracket(0, 1, -1, 1), 1e-12)
    assert len(evals) == 100


def test_pivot_resolvent_matches_dense_inverse():
    # random indefinite tridiagonals of orders 2, 3, 7 and 60 at levels clear
    # of their eigenvalues: the count is pivot_count's and the Sturm count,
    # and G, G' are the first column of the inverse.  Counts of 2 and more
    # resume below a non-positive pivot
    rng = np.random.default_rng(17)
    counts = []
    for n in (2, 3, 7, 60):
        for _ in range(8):
            m = TridiagSym(rng.normal(size=n), rng.normal(size=n - 1))
            vals = eigh_tridiagonal(m.diag, m.offdiag, eigvals_only=True)
            for x in _clear_shifts(vals, rng, 6, 1e-6):
                count, g, dg = pivot_resolvent(m, x, n + 1)
                assert count == pivot_count(m, x, n + 1) == count_below(m, x)
                g_ref, dg_ref = _corner_of_inverse(m, x)
                assert g == pytest.approx(g_ref, rel=1e-8, abs=1e-12)
                assert dg == pytest.approx(dg_ref, rel=1e-8)
                counts.append(count)
    assert {0, 1, 2} < set(counts) and max(counts) > 20


def test_pivot_resolvent_zero_and_last_pivots():
    # the bottom-up pivots of m - x I (listed from the last row up): an exact
    # zero pivot is resumed as -pivmin and the inverse is still matched; a
    # non-positive pivot alone in row 1 after a restart (|) is counted once;
    # an exactly zero pivot in row 1 is a pole of G
    zero_middle = TridiagSym(np.array([1.0, 3.0, 2.0, 1.0]), np.array([1.0, 1.0, 1.0]))  # 0, +, 2, -
    row1_alone = TridiagSym(np.array([-3.0, -1.0, 2.0]), np.array([0.5, 1.0]))  # 2, -1.5 | -17/6
    for m, x, count in ((zero_middle, 1.0, 2), (row1_alone, 0.0, 2)):
        got, g, dg = pivot_resolvent(m, x, m.n + 1)
        assert got == count_below(m, x) == count
        g_ref, dg_ref = _corner_of_inverse(m, x)
        assert g == pytest.approx(g_ref, rel=1e-12)
        assert dg == pytest.approx(dg_ref, rel=1e-12)
    assert pivot_resolvent(row1_alone, 0.0, 3)[1] == pytest.approx(-6.0 / 17.0, rel=1e-15)
    pole = TridiagSym(np.array([2.0, 2.0]), np.array([-1.0]))  # x = 1: 1, 0
    assert pivot_resolvent(pole, 1.0, 3) == (1, -math.inf, math.inf)
    one = TridiagSym(np.array([3.0]), np.zeros(0))
    assert pivot_resolvent(one, 1.0, 2) == (0, 0.5, 0.25)
    assert pivot_resolvent(one, 4.0, 2) == (1, -1.0, 1.0)


def test_pivot_resolvent_stops_at_the_cap():
    # the count reaches cap: the factorization stops there, G and G' are NaN
    m = TridiagSym(np.arange(1.0, 11.0), np.full(9, 0.1))  # eigenvalues near 1..10
    for x, cap in ((5.5, 1), (5.5, 3), (5.5, 5), (10.5, 10)):
        count, g, dg = pivot_resolvent(m, x, cap)
        assert count == cap == pivot_count(m, x, cap)
        assert math.isnan(g) and math.isnan(dg)
    count, g, dg = pivot_resolvent(m, 5.5, 6)
    assert count == 5 and g == pytest.approx(_corner_of_inverse(m, 5.5)[0], rel=1e-12)


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


def test_integrate_linearity():
    g = Grid1D(0.0, 1.0, 51)
    rng = np.random.default_rng(3)
    a = rng.normal(size=51)
    b = rng.normal(size=51)
    lhs = integrate(2.0 * a + 3.0 * b, g)
    rhs = 2.0 * integrate(a, g) + 3.0 * integrate(b, g)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_integrate_sum_is_exact_in_any_order():
    # the weighted terms are summed exactly and rounded once, so the result
    # equals math.fsum over the terms in grid order, bit for bit, even for
    # signed samples spanning 600 decades
    rng = np.random.default_rng(11)
    for n in (401, 400, 2001, 2000):
        g = Grid1D(0.0, 3.0, n)
        y = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n) * 10.0 ** rng.uniform(-300, 300, n)
        if n % 2:
            w = np.ones(n)
            w[1:-1:2], w[2:-1:2] = 4.0, 2.0
            terms = (g.step / 3.0) * w * y
        else:
            w = np.ones(n)
            w[0] = w[-1] = 0.5
            terms = g.step * w * y
        assert integrate(y, g) == math.fsum(terms)
        assert integrate(y[::-1], g) == math.fsum(terms[::-1])


def test_integrate_length_mismatch():
    g = Grid1D(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        integrate(np.ones(10), g)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 5)
    g = Grid1D(0.0, 1.0, 11)
    assert g.step == pytest.approx(0.1)
