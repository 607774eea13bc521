import math

import numpy as np
import pytest

from diracbag import dispersion, fiber, numerics
from diracbag.numerics import Bracket, Grid1D, bisect


def test_theta_defining_relation():
    for sign, k, xi in (("minus", 1, 0.5), ("minus", 2, 2.0), ("plus", 1, 1.0)):
        pt = dispersion.theta(sign, k, xi, n=2001)
        resid = fiber.nu_k(sign, k, pt.theta, xi, n=2001) - pt.theta**2
        assert abs(resid) <= 1e-9


def _theta_by_bisection(sign, k, xi, n):
    # reference: plain dichotomy of nu_k - alpha^2 over theta's own bracket
    def f(alpha):
        return fiber.nu_k(sign, k, alpha, xi, n) - alpha * alpha

    lo, hi = 1e-8, math.sqrt(2.0 * k) + 1.0
    while f(lo) <= 0.0 and lo < 0.3 * hi:
        lo *= 10.0
    if f(lo) <= 0.0:
        return 0.0
    while f(hi) >= 0.0:
        hi *= 2.0
    return bisect(f, Bracket(lo, hi, f(lo), f(hi)), 1e-10)


def test_theta_matches_bisection_oracle():
    # plus k = 1 at xi = -2 runs the floor loop up to lo = 1e-3 (theta ~ 0.0096);
    # (plus, 3, 8.0) needs one doubling of the upper end
    n = 2001
    for sign, k, xi in (("plus", 1, -2.0), ("plus", 2, 0.5), ("plus", 3, 8.0),
                        ("minus", 1, 1.5), ("minus", 2, -1.0), ("minus", 3, 4.0)):
        got = dispersion.theta(sign, k, xi, n).theta
        assert got > 0.0
        assert abs(got - _theta_by_bisection(sign, k, xi, n)) <= 2e-10


@pytest.fixture
def theta_work(monkeypatch):
    # theta's work by kind: every LAPACK stebz call anywhere (each eigensolve by
    # index or by value, and each Sturm count), every LAPACK gtsv solve, and
    # theta's own LDL^T passes
    work = {"eig": 0, "gtsv": 0, "pass": 0}

    def counted(kind, fn):
        def call(*a, **kw):
            work[kind] += 1
            return fn(*a, **kw)
        return call

    lapack = numerics._lapack
    monkeypatch.setattr(lapack, "dstebz", counted("eig", lapack.dstebz))
    monkeypatch.setattr(lapack, "dgtsv", counted("gtsv", lapack.dgtsv))
    monkeypatch.setattr(dispersion, "pivot_resolvent",
                        counted("pass", dispersion.pivot_resolvent))
    return work


def test_theta_eigensolve_counts(theta_work):
    # no eigensolve and no solve: one LDL^T pass per Newton point counts the
    # poles sqrt(lambda_k), sqrt(lambda_{k+1}) of the secular equation below
    # it, and between them its pivots give H and H'
    points = (("plus", 1, -1.5), ("plus", 1, -1.0), ("plus", 2, 0.5), ("plus", 3, 2.0),
              ("minus", 1, 1.0), ("minus", 2, -1.0), ("minus", 3, 3.0))
    for sign, k, xi in points:
        assert dispersion.theta(sign, k, xi, n=501).theta > 0.0
    assert theta_work["eig"] == theta_work["gtsv"] == 0
    assert theta_work["pass"] <= 125  # 96 measured


def test_theta_sweep_counts(theta_work):
    # the 78 points of the seed-0 benchmark sweep, as `dispersion --branch theta
    # --k 1..3 --xi -2:4:0.5 --n 2001` computes them
    for xi in np.arange(13) * 0.5 - 2.0:
        for sign in ("plus", "minus"):
            for k in (1, 2, 3):
                assert dispersion.theta(sign, k, float(xi), n=2001).theta > 0.0
    assert theta_work["eig"] == theta_work["gtsv"] == 0
    assert theta_work["pass"] <= 1150  # 888 measured


def test_theta_far_field(theta_work):
    # far from the wall (minus at xi = 8, plus at xi = -8) the root sits
    # within rounding of the pole sqrt(lambda_k); plus k = 1 at xi = -8 is the
    # resolution floor
    for sign in ("plus", "minus"):
        for k in (1, 2, 3):
            for xi in (-8.0, 8.0):
                before = theta_work["pass"]
                th = dispersion.theta(sign, k, xi, n=2001).theta
                assert theta_work["pass"] - before <= 44  # 37 measured
                if (sign, k, xi) == ("plus", 1, -8.0):
                    assert th == 0.0
                    continue
                resid = fiber.nu_k(sign, k, th, xi, n=2001) - th * th
                assert abs(resid) <= 5e-10  # 2.4e-10 measured


def test_theta_k_above_grid_raises_before_solving(theta_work):
    # A_xi has n - 1 rows, so k + 1 <= n - 1; a count capped at k + 1 could never reach it
    with pytest.raises(ValueError, match="need 1 <= k <= n - 2, got k=500, n=501"):
        dispersion.theta("minus", 500, 1.0, 501)
    assert theta_work == {"eig": 0, "gtsv": 0, "pass": 0}
    assert dispersion.theta("minus", 499, 1.0, 501).theta > 0.0


def test_theta_lies_in_the_interlacing_bracket():
    # theta^2 = nu_k(theta) lies strictly between the k-th and (k+1)-th
    # eigenvalues of the alpha-free matrix A_xi (rank-one interlacing)
    n = 501
    for sign, k, xi in (("plus", 1, -1.0), ("plus", 2, 0.5), ("plus", 1, 2.0),
                        ("minus", 1, 1.0), ("minus", 2, -1.0), ("minus", 3, 3.0)):
        a_xi = fiber.half_line_matrix(sign, xi, fiber.default_grid(xi, n))
        lam = np.linalg.eigvalsh(np.diag(a_xi.diag) + np.diag(a_xi.offdiag, 1)
                                 + np.diag(a_xi.offdiag, -1))
        th = dispersion.theta(sign, k, xi, n).theta
        assert lam[k - 1] < th * th < lam[k]


def test_theta_is_a_python_float():
    # callers serialise theta and compare it with 0.0 as plain data
    assert type(dispersion.theta("minus", 1, 1.0, n=501).theta) is float
    assert type(dispersion.theta("plus", 1, -8.0, n=501).theta) is float


def test_theta_at_minimum(a0res):
    pt = dispersion.theta("minus", 1, a0res.a0)
    assert pt.theta == pytest.approx(a0res.a0, abs=1e-6)


def test_theta_limits():
    assert abs(dispersion.theta("minus", 1, 8.0).theta - math.sqrt(2)) <= 0.05
    assert dispersion.theta("plus", 1, -8.0).theta == 0.0  # the resolution floor


def test_theta_minus_single_minimum_plus_increasing():
    xis = np.arange(-1.0, 4.0 + 1e-9, 0.5)
    minus = np.array([dispersion.theta("minus", 1, x, n=1001).theta for x in xis])
    signs = np.sign(np.diff(minus))
    assert np.sum(np.abs(np.diff(signs)) > 0) == 1
    plus = np.array([dispersion.theta("plus", 1, x, n=1001).theta for x in xis])
    assert np.all(np.diff(plus) > -1e-12)


def test_nu_of_alpha_large_and_small():
    nu10, _, _ = dispersion.nu_of_alpha(10.0, n=2001)
    assert abs(nu10 - 2.0) < 0.1
    nu005, _, _ = dispersion.nu_of_alpha(0.05, n=2001)
    assert nu005 / 0.05 > 3.0  # frozen slope oracle: ~4.07 on fine grids
    with pytest.raises(ValueError):
        dispersion.nu_of_alpha(0.0)


def test_nu_of_alpha_critical_relation(a0res):
    # at the minimizer, nu = -alpha^2 + 2 alpha xi_alpha, up to the O(step^2)
    # offset between the discrete and continuum eigenvalues
    for alpha in (0.8, 1.5):
        nu, xi_a, _ = dispersion.nu_of_alpha(alpha, n=2001)
        assert nu == pytest.approx(-(alpha**2) + 2 * alpha * xi_a, abs=3e-4)


def test_nu_of_alpha_is_minimum_of_xi_scan():
    # the first sign change of nu_1^- + alpha^2 - 2 alpha xi must be the
    # global minimizer of nu_1^-(alpha, .), not a later critical point; on the
    # grid it sits O(step^2 / alpha) from the discrete minimizer
    n = 2001
    for alpha in (0.05, 2.0, 50.0):
        nu, xi_a, _ = dispersion.nu_of_alpha(alpha, n)
        x1 = dispersion._truncation(alpha)
        top = min((2 + alpha**2) / (2 * alpha), x1 - fiber.TAIL_PAD)
        xs = np.arange(-2.0, top, 0.05)
        scan = np.array([fiber._values("minus", alpha, x, n, x1, 1)[0] for x in xs])
        assert nu <= scan.min() + 5e-5
        if alpha <= 2.0:  # at alpha = 50 the scan is flat to 1e-12; its argmin is noise
            assert abs(xi_a - xs[np.argmin(scan)]) <= 0.05


def test_nu_of_alpha_scan_skips_only_positive_cells(monkeypatch):
    # the xi scan (step 1/4) starts from the last multiple of 1/4 at or below
    # alpha / 2 and takes g = nu_1^- + alpha^2 - 2 alpha xi > 0 there without
    # evaluating it; g is positive there and at every multiple it skips, down
    # to xi = -2, so no sign change is lost
    n = 1001
    for alpha in (0.05, 0.5, 1.3, 2.0, 3.7, 10.0, 23.3, 50.0):
        x1 = dispersion._truncation(alpha)
        start = 0.25 * math.floor(2 * alpha)
        assert start <= alpha / 2 < start + 0.25
        for xi in np.arange(-2.0, start + 0.125, 0.25):
            nu = fiber._values("minus", alpha, xi, n, x1, 1)[0]
            assert nu + alpha * alpha - 2 * alpha * xi > 0.0
        visited = []
        real = fiber.half_line_matrix
        monkeypatch.setattr(
            fiber, "half_line_matrix", lambda s, xi, *a: visited.append(xi) or real(s, xi, *a)
        )
        dispersion.nu_of_alpha(alpha, n)
        monkeypatch.setattr(fiber, "half_line_matrix", real)
        assert visited[0] == start + 0.25


def test_nu_of_alpha_unresolved_minimum_raises():
    # at alpha = 0.0075 on 1001 nodes the discretization error of nu_1^-
    # exceeds the depth of the sign change; the scan stops at the truncation
    with pytest.raises(RuntimeError, match="increase n"):
        dispersion.nu_of_alpha(0.0075, n=1001)


def test_nu_curve_invariants():
    grid = np.arange(0.05, 2.0 + 1e-9, 0.15)
    nu = np.array([dispersion.nu_of_alpha(float(a), 1001)[0] for a in grid])
    assert np.all(np.diff(nu) > 0)
    second = np.diff(nu, 2)
    assert np.all(second <= 1e-6)  # concavity
    assert np.all((nu > 0) & (nu < 2))
    small = grid <= 0.2
    assert np.all(nu[small] / grid[small] > 0.5)


def test_find_a0(a0res):
    assert 0 < a0res.a0 < math.sqrt(2)
    assert abs(a0res.a0 - dispersion.A0_REFERENCE) <= 2e-3
    assert 0 < a0res.u0sq < 2 * a0res.a0
    assert a0res.d2xi_nu > 0
    assert a0res.c0 == pytest.approx(
        a0res.a0 * a0res.u0sq / (2 * a0res.a0 - a0res.u0sq), rel=1e-12
    )


# Continuum values at gamma = 1 from parabolic cylinder functions (40-digit
# mpmath): a0 is the first root of D'_p(-sqrt(2) a) = 0, p = a^2 / 2 - 1; u(0)^2
# = D_p(-sqrt(2) a0)^2 / int_0^inf D_p(sqrt(2)(tau - a0))^2; c0 = a0 u0^2 / (2 a0
# - u0^2) and d_xi^2 nu = 2 a0 u0^2.
A0_EXACT = 1.31325405648101839
U0SQ_EXACT = 0.40548139053156363
C0_EXACT = 0.23975401806981603
D2XI_NU_EXACT = 1.0650001618862799

# find_a0(n) - exact as measured; the truncation is 20 for every n, so each
# doubling of n halves the step
A0_GRID_ERROR = {
    1001: (1.048e-5, -8.92e-5, -6.27e-5, -2.258e-4),
    2001: (2.619e-6, -2.230e-5, -1.568e-5, -5.645e-5),
    4001: (6.518e-7, -5.573e-6, -3.919e-6, -1.411e-5),
}


def _a0_errors(n):
    r = dispersion.find_a0(n)
    return np.array([r.a0 - A0_EXACT, r.u0sq - U0SQ_EXACT, r.c0 - C0_EXACT,
                     r.d2xi_nu - D2XI_NU_EXACT])


def test_exact_a0_constants():
    assert dispersion.A0_EXACT == A0_EXACT
    assert C0_EXACT == pytest.approx(A0_EXACT * U0SQ_EXACT / (2 * A0_EXACT - U0SQ_EXACT), rel=1e-15)
    assert D2XI_NU_EXACT == pytest.approx(2 * A0_EXACT * U0SQ_EXACT, rel=1e-15)


def test_find_a0_within_its_grid_error():
    for n, measured in A0_GRID_ERROR.items():
        err = _a0_errors(n)
        assert np.all(np.sign(err) == np.sign(measured))
        assert np.all(np.abs(err) <= 1.02 * np.abs(measured))


def test_find_a0_converges_at_second_order():
    # each halving of the step cuts every error by 4 (O(step^2))
    errs = [_a0_errors(n) for n in (1001, 2001, 4001)]
    for coarse, fine in zip(errs, errs[1:]):
        assert np.all(np.abs(coarse / fine - 4.0) <= 0.1)


def _d2xi_nu_by_difference(alpha, xi, n, step=0.02):
    nu = [fiber.nu_k("minus", 1, alpha, xi + s, n) for s in (step, 0.0, -step)]
    return (nu[0] - 2 * nu[1] + nu[2]) / step**2


def test_d2xi_nu_matches_second_difference():
    # eq.C3 on the minus branch: d2xi nu = 2 alpha u(0)^2 at the minimizer,
    # against a centered second difference of nu_1^- (9.1e-5 relative at most)
    for n in (1001, 2001, 4001):
        r = dispersion.find_a0(n)
        assert _d2xi_nu_by_difference(r.a0, r.a0, n) == pytest.approx(r.d2xi_nu, rel=1.5e-4)


def test_sign_change_unique_on_scan():
    alphas = np.arange(0.1, 1.5 + 1e-9, 0.05)
    f = []
    for a in alphas:
        nu, _, _ = dispersion.nu_of_alpha(float(a), n=1001)
        f.append(nu - a * a)
    signs = np.sign(f)
    changes = np.sum(signs[1:] * signs[:-1] < 0)
    assert changes == 1


def test_momenta_identities(a0res):
    a0, u0sq = a0res.a0, a0res.u0sq
    mom = dispersion.momenta(a0, a0)
    xi = a0
    assert mom[0] == pytest.approx(1.0, abs=1e-12)
    assert mom[1] == pytest.approx(u0sq / 2, rel=1e-3)
    assert mom[2] == pytest.approx((xi**2 - 1) / 2 + xi * u0sq / 4, rel=1e-3)
    assert mom[3] == pytest.approx((xi**2 - 1) * u0sq / 2, rel=1e-3)
    m4 = 3 / 8 + 3 / 8 * (xi**2 - 1) ** 2 + u0sq * (5 * xi**3 - 9 * xi) / 16
    assert mom[4] == pytest.approx(m4, rel=1e-3)


def test_cxi_pairings(a0res):
    pair0, dpair, fsum = dispersion.cxi_pairings(a0res)
    assert abs(pair0) <= 1e-3 * a0res.u0sq
    assert dpair == pytest.approx(-a0res.d2xi_nu / 2, rel=1e-2)
    assert fsum == pytest.approx(a0res.d2xi_nu / 12, rel=1e-2)
    assert dispersion.CXI_SIGN_CONVENTION == "minus-xi"


def test_theta_second_derivative_is_2c0(a0res):
    d = 0.02
    th = [dispersion.theta("minus", 1, a0res.a0 + s * d).theta for s in (-1, 0, 1)]
    d2 = (th[0] - 2 * th[1] + th[2]) / d**2
    assert d2 == pytest.approx(2 * a0res.c0, rel=1e-2)


def test_lambda_cap(a0res):
    a0 = a0res.a0
    assert dispersion.lambda_cap(a0, 1.0, 1.0) == pytest.approx(a0 * a0, abs=1e-6)
    assert dispersion.lambda_cap(50.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-3)
    assert dispersion.lambda_cap(0.0, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        dispersion.lambda_cap(-1.0, 1.0, 1.0)


def test_c_gamma(a0res):
    cg1 = dispersion.c_gamma(1.0, n=2001)
    assert cg1 == pytest.approx(a0res.a0, abs=1e-5)
    cg2 = dispersion.c_gamma(2.0, n=2001)
    # monotone in gamma: between a0 and the Landau bound sqrt(2)
    assert a0res.a0 < cg2 < math.sqrt(2)
    cg6 = dispersion.c_gamma(6.0, n=2001)
    assert cg2 < cg6 < math.sqrt(2)


def _count_eigensolves(monkeypatch, calls):
    for mod in (fiber, numerics):
        real = mod.eig_sym_tridiag
        monkeypatch.setattr(mod, "eig_sym_tridiag",
                            lambda *a, f=real, **kw: calls.append(1) or f(*a, **kw))


def test_halfplane_eigensolve_counts(monkeypatch):
    # find_a0 and c_gamma are single bisections of nu_1^-(c gamma, xi_c) - c^2
    # on signs certified by definiteness passes; counts, not timings, so the gate
    # cannot flake.  A nested search over xi spent ~2300 solves on a0 alone,
    # and eigensolving every bisection step 36 (c_gamma(0.8): 29).  find_a0's
    # one fixed solve is u^2(0), which also gives d2xi nu = 2 a0 u^2(0).
    # Eigensolves count in fiber (fixed solves) and numerics (signs inside
    # stebz's stopping width, numerics.certified_sign).
    calls, counts = [], []
    _count_eigensolves(monkeypatch, calls)
    for name in ("count_below", "pivot_count"):
        real_count = getattr(numerics, name)
        monkeypatch.setattr(numerics, name, lambda *a, f=real_count: counts.append(1) or f(*a))
    dispersion.find_a0(501)
    a0_calls, a0_counts = len(calls), len(counts)
    dispersion.c_gamma(0.8, 501)
    assert a0_calls <= 2  # 1 measured
    assert len(calls) - a0_calls <= 2  # 0 measured
    assert a0_counts <= 75  # 50 measured, all definiteness passes (k = 1)
    assert len(counts) - a0_counts <= 68  # 45 measured, all definiteness passes (k = 1)
    # at the benchmark's n = 4001 the counts decide find_a0's one in-band sign,
    # which took an eigensolve while the whole band was eigensolved
    calls.clear()
    dispersion.find_a0(4001)
    assert len(calls) == 1  # the u^2(0) solve


def test_nu_of_alpha_eigensolve_counts(monkeypatch):
    calls = []
    _count_eigensolves(monkeypatch, calls)
    for alpha in (1.3, 2.0):
        calls.clear()
        dispersion.nu_of_alpha(alpha, 501)
        # the minimizer's eigenpair; Sturm counts decide every sign in the band
        assert len(calls) <= 2  # 1 measured (2 while the whole band was eigensolved)


def _halfplane_hex():
    a0 = dispersion.find_a0(501)
    out = [[v.hex() for v in (a0.a0, a0.u0sq, a0.d2xi_nu, a0.c0)]]
    out += [dispersion.c_gamma(gamma, 1001).hex() for gamma in (0.1, 0.8, 6.0)]
    # bisected to the rounding limit, many steps fall inside the band
    out.append(dispersion.c_gamma(0.8, 1001, tol=0.0).hex())
    out += [[v.hex() for v in dispersion.nu_of_alpha(alpha, 1001)] for alpha in (0.05, 2.0, 50.0)]
    for search, arg in ((dispersion.c_gamma, 0.05), (dispersion.nu_of_alpha, 0.0075)):
        with pytest.raises(RuntimeError, match="increase n") as err:
            search(arg, 1001)
        out.append(str(err.value))
    return out


def test_halfplane_certified_signs_match_eigensolve_bisection(monkeypatch):
    # as on the disk: with every guard ambiguous (a NaN count passes neither
    # test) each sign of the half-plane searches is eigensolved, and no value
    # or raise may move by a bit.  With no band (guard 0) the tol = 0 root moves.
    certified = _halfplane_hex()
    signs, solves = [], []
    real_sign, real_eig = numerics.certified_sign, numerics.eig_sym_tridiag
    monkeypatch.setattr(dispersion, "certified_sign",
                        lambda *a: signs.append(1) or real_sign(*a))
    monkeypatch.setattr(numerics, "count_below", lambda m, x: math.nan)
    monkeypatch.setattr(numerics, "pivot_count", lambda m, x, cap: math.nan)
    monkeypatch.setattr(
        numerics, "eig_sym_tridiag", lambda *a, **kw: solves.append(1) or real_eig(*a, **kw))
    assert _halfplane_hex() == certified
    assert len(solves) == len(signs) > 0


# float.hex of _halfplane_hex() and of the disk_runs spectra (values and
# provenance, both branches): however the certified searches compute their
# signs, they must return these bits
PINNED_HALFPLANE = [
    ["0x1.503429874bc6ap+0", "0x1.9ed90b3be17f0p-2", "0x1.1068b3107116cp+0",
     "0x1.ea80bb51d61e9p-3"],
    "0x1.b23c7bad068cap-2",
    "0x1.4074402490758p+0",
    "0x1.6a08e2836773ap+0",
    "0x1.40743fd8dfe6ep+0",
    ["0x1.a5b0531cd9404p-3", "0x1.0ac1672530000p+1", "0x1.bb66ad91170b4p+1"],
    ["0x1.e7754fddf25eep+0", "0x1.79dd53f760000p+0", "0x1.3c596b7911a38p-3"],
    ["0x1.ffed0dfb6b744p+0", "0x1.9051e87d1e000p+4", "0x1.4f7be87307612p-309"],
    "failed to bracket c_gamma for gamma=0.05 at n = 1001; the grid does not resolve "
    "the minimum, increase n",
    "no critical point of nu_1^-(0.0075, .) below xi = 8 at n = 1001; the grid does not "
    "resolve the minimum, increase n",
]
PINNED_DISK = {
    0.2: (["0x1.5276aba163be8p-4", "0x1.e4dbc18ab31b9p-3", "0x1.aeb780aeeb41dp-2",
           "0x1.3b8b4c6afbce2p-1", "0x1.7da6476b80d52p-1"],
          [(0, 1), (1, 1), (2, 1), (3, 1), (-1, 1)],
          ["0x1.29bd10ff52bdap-1", "0x1.4872f70b454bap-1", "0x1.944b9a63eee5dp-1",
           "0x1.bdcaba3d7238dp-1", "0x1.f336040ea7185p-1"],
          [(0, 1), (-1, 1), (-2, 1), (1, 1), (-3, 1)]),
    0.1: (["0x1.b8f1d6eca00a4p-8", "0x1.12e59eafbea0cp-5", "0x1.5f92d45664638p-4",
           "0x1.4275b5a6ca558p-3", "0x1.ecfef02ba4174p-3"],
          [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)],
          ["0x1.a99d8a90827d0p-2", "0x1.af39902940ebdp-2", "0x1.bc087278a5ac4p-2",
           "0x1.d5b41774b6c6ap-2", "0x1.0ab520bb6239ap-1"],
          [(-1, 1), (-2, 1), (0, 1), (-3, 1), (-4, 1)]),
    0.05: (["0x1.7ccfa6d710901p-15", "0x1.dc02a8766e0bap-12", "0x1.29599db9063e4p-9",
            "0x1.eeb7bdf8684bcp-8", "0x1.3469882bbf750p-6"],
           [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)],
           ["0x1.2cf57abc7216cp-2", "0x1.2de9fb4831b00p-2", "0x1.35161728d5994p-2",
            "0x1.3556fb6cf4700p-2", "0x1.3d30848efef7ap-2"],
           [(-5, 1), (-4, 1), (-3, 1), (-6, 1), (-2, 1)]),
}


def test_certified_searches_keep_their_pinned_bits(disk_runs):
    assert _halfplane_hex() == PINNED_HALFPLANE
    for h, pinned in PINNED_DISK.items():
        sp = disk_runs[h]["spectrum"]
        assert ([v.hex() for v in sp.pos.tolist()], sp.pos_provenance,
                [v.hex() for v in sp.neg.tolist()], sp.neg_provenance) == pinned


# float.hex of the finite-difference paths outside the searches, generated
# before fiber_eigs lost its spec object: the ground state on the default
# grid, the whole-line levels of C02, the derivative oracle of C04, a shared
# nu solve, the moments and the commutator pairings
PINNED_FD = {
    "fiber_eigs(2, 0.5)": ["0x1.325db82fc33fep+1", "0x1.05e62ce9b0a5ep-1"],
    "fiber_eigs(a0, a0)": ["0x1.b981df2e826cdp+0", "0x1.4606b1fda68dep-1"],
    "whole_line plus": ["-0x1.a36edc095391cp-18", "0x1.fffdf3b4c00fep+0",
                        "0x1.fffd566a049bdp+1"],
    "whole_line minus": ["0x1.ffff97244b0e8p+0", "0x1.fffef9da61108p+1",
                         "0x1.7ffeab3502d24p+2"],
    "fiber_eig_derivatives": ["-0x1.cd5b0403872e0p-2", "0x1.cd5a52f3faa40p-3"],
    "nu_values": ["0x1.325d818a18a3cp+1", "0x1.5ddf2b45b1459p+2", "0x1.1b822663ddad0p+3"],
    "momenta": ["0x1.fffffffffffffp-1", "-0x1.c69c464075744p-2", "0x1.f350ade5da0a3p-2",
                "-0x1.1de9f2735f429p-1", "0x1.91d729cb0a88fp-1"],
    "cxi_pairings": ["0x1.6d3a96d989e16p-14", "-0x1.108c7b26178e4p-1",
                     "0x1.6b570519693a0p-4"],
}


def test_fd_paths_keep_their_pinned_bits(a0res):
    got = {}
    for key, (alpha, xi) in (("fiber_eigs(2, 0.5)", (2.0, 0.5)),
                             ("fiber_eigs(a0, a0)", (a0res.a0, a0res.a0))):
        nu, u = fiber.fiber_eigs("minus", alpha, xi, fiber.default_grid(xi))
        got[key] = [nu.hex(), float(u[0]).hex()]
    for sign in ("plus", "minus"):
        m = fiber.whole_line_matrix(sign, 0.4, Grid1D(-20.0, 20.0, 4001))
        got[f"whole_line {sign}"] = [v.hex() for v in numerics.eig_sym_tridiag(m, 3)[0].tolist()]
    got["fiber_eig_derivatives"] = [v.hex() for v in fiber.fiber_eig_derivatives("minus", 2.0, 1.0)]
    got["nu_values"] = [v.hex() for v in fiber.nu_values("minus", 3, 2.0, 0.5, 1001)]
    got["momenta"] = [v.hex() for v in dispersion.momenta(2.0, 0.5, 1001).tolist()]
    got["cxi_pairings"] = [v.hex() for v in dispersion.cxi_pairings(dispersion.find_a0(1001), 1001)]
    assert got == PINNED_FD


def test_cxi_pairings_eigensolve_count(monkeypatch):
    # one ground state at (a0, a0) gives pair0 and the final sum; two more
    # give the centered difference dpair
    at_a0 = dispersion.find_a0(1001)
    calls = []
    _count_eigensolves(monkeypatch, calls)
    dispersion.cxi_pairings(at_a0, 1001)
    assert len(calls) == 3


def test_c_gamma_small_gamma_is_first_root():
    # at gamma = 0.1, f(c) = nu_1^-(c gamma, xi_c) - c^2 changes sign again
    # near c = 0.75 and 1.4; the returned c must be the root of nu(c gamma) = c^2
    n = 1001
    for gamma in (0.1, 0.2):
        c = dispersion.c_gamma(gamma, n)
        assert dispersion.nu_of_alpha((c - 1e-7) * gamma, n)[0] > (c - 1e-7) ** 2
        assert dispersion.nu_of_alpha((c + 1e-7) * gamma, n)[0] < (c + 1e-7) ** 2
    # below the grid's resolution f never dips below zero near the root;
    # the search must raise, not return the tail root near sqrt(2)
    with pytest.raises(RuntimeError, match="increase n"):
        dispersion.c_gamma(0.05, n)


def test_nu_of_alpha_u0sq_gives_d2xi_nu_at_a0(a0res):
    # nu(alpha)'s minimizer at alpha = a0 is xi = a0, so its u(0)^2 is
    # find_a0's, and 2 a0 u(0)^2 is the second xi-derivative there
    d2x = 2.0 * a0res.a0 * dispersion.nu_of_alpha(a0res.a0)[2]
    assert d2x == pytest.approx(a0res.d2xi_nu, rel=1e-6)


def test_nu_prime_is_u0_squared(a0res):
    # nu'(alpha) = u(0)^2 at the minimizer (Hellmann-Feynman); a centred
    # difference of nu agrees within a few delta^2 = 1e-6
    n, delta = fiber.DEFAULT_N, 1e-3
    for alpha in (a0res.a0, 2.0):
        u0sq = dispersion.nu_of_alpha(alpha, n)[2]
        fd = (dispersion.nu_of_alpha(alpha + delta, n)[0]
              - dispersion.nu_of_alpha(alpha - delta, n)[0]) / (2 * delta)
        assert u0sq == pytest.approx(fd, rel=5e-6)


def test_interior_c0():
    assert dispersion.interior_c0(np.eye(2), 1.0) == pytest.approx(1.0)
    assert dispersion.interior_c0(np.diag([4.0, 1.0]), 2.0) == pytest.approx(1.0)
    assert dispersion.interior_c0(np.diag([2.0, 2.0]), 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        dispersion.interior_c0(np.diag([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        dispersion.interior_c0(np.eye(2), 0.0)
