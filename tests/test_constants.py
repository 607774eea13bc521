import cmath
import math

import numpy as np
import pytest

from diracbag import constants as ck


def closed_form_ck(k: int, b0: float, R: float) -> float:
    return b0**k / math.factorial(k - 1) * (R**2 / 2) ** (k - 1) * R


def rotated(theta: float, hess: np.ndarray) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ hess @ rot.T


def test_bargmann_isotropic_closed_form():
    for b0 in (1.0, 2.0, 0.95):
        w = ck.BargmannWeight.isotropic(b0)
        for k in range(1, ck.MAX_K + 1):
            d2 = ck.bargmann_distance(k, w) ** 2
            expected = 2 * math.pi * 2 ** (k - 1) * math.factorial(k - 1) / b0**k
            assert d2 == pytest.approx(expected, rel=1e-13)


# bargmann_distance(k, w) for k = 1..12 from the binomial-expansion Gram
# matrix that the Gauss-Hermite rule replaced; w = diag(1, 2) and
# R(theta) diag(1, 3) R(theta)^T
PINNED_BARGMANN = {
    "diag(1, 2)": [
        1.4904500894290902, 1.2907676405183803, 1.5808610478831087,
        2.371291571824663, 4.10719748196018, 7.953553723608408, 16.872035317485064,
        38.65868948517177, 94.69406336336831, 246.022393380751, 673.7600725302309,
        1935.228472692982,
    ],
    "theta=0": [
        1.3467736870885982, 1.0996361107912678, 1.2697504091519431,
        1.7956982494514644, 2.9323629621100475, 5.353737803801132,
        10.70747560760226, 23.130790982465808, 53.4182736011824,
        130.84751326328208, 337.84682650756497, 914.8935311439267,
    ],
    "theta=0.3": [
        1.3467736870885985, 1.0996361107912678, 1.2697504091519434,
        1.7956982494514644, 2.9323629621100484, 5.3537378038011285,
        10.707475607602273, 23.130790982465808, 53.418273601182605,
        130.8475132632831, 337.8468265075653, 914.8935311439614,
    ],
    "theta=1.1": [
        1.3467736870885982, 1.0996361107912676, 1.269750409151943,
        1.795698249451464, 2.9323629621100458, 5.353737803801129,
        10.707475607602266, 23.1307909824658, 53.41827360118254,
        130.84751326328154, 337.84682650756395, 914.8935311439125,
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_BARGMANN))
def test_bargmann_matches_pinned_values(name):
    hess = (np.diag([1.0, 2.0]) if name.startswith("diag")
            else rotated(float(name.split("=")[1]), np.diag([1.0, 3.0])))
    w = ck.BargmannWeight(hess)
    for k, want in enumerate(PINNED_BARGMANN[name], start=1):
        assert ck.bargmann_distance(k, w) == pytest.approx(want, rel=1e-13)


def test_bargmann_anisotropic_against_quadrature():
    # brute-force 2D Gaussian quadrature oracle for hess = diag(1, 2), k = 2
    hess = np.diag([1.0, 2.0])
    w = ck.BargmannWeight(hess)
    val = ck.bargmann_distance(2, w) ** 2

    n = 1201
    L = 7.0
    y = np.linspace(-L, L, n)
    yy1, yy2 = np.meshgrid(y, y, indexing="ij")
    weight = np.exp(-(yy1**2) - 2.0 * yy2**2)
    z = yy1 + 1j * yy2
    dx = (2 * L / (n - 1)) ** 2

    def inner(f, g):
        return np.sum(np.conj(f) * g * weight) * dx

    g00 = inner(np.ones_like(z), np.ones_like(z)).real
    g01 = inner(np.ones_like(z), z)
    g11 = inner(z, z).real
    oracle = g11 - abs(g01) ** 2 / g00
    assert val == pytest.approx(oracle, rel=1e-6)


def test_bargmann_rotation_invariance():
    base = np.diag([1.0, 3.0])
    ref = ck.bargmann_distance(3, ck.BargmannWeight(base))
    for angle in (0.3, 1.1, 2.5):
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        val = ck.bargmann_distance(3, ck.BargmannWeight(rot @ base @ rot.T))
        assert val == pytest.approx(ref, rel=1e-10)


def test_bargmann_errors():
    w = ck.BargmannWeight.isotropic(1.0)
    with pytest.raises(ValueError):
        ck.bargmann_distance(0, w)
    with pytest.raises(ValueError):
        ck.bargmann_distance(ck.MAX_K + 1, w)
    with pytest.raises(ValueError):
        ck.BargmannWeight(np.diag([1.0, -1.0]))


def hardy_oracle(k: int, R: float, z_min: complex, n_basis: int = 48) -> float:
    """Boundary-norm distance of (z - z_min)^{k-1} to the span of
    (z - z_min)^j, k <= j < n_basis, by least squares on 1024 trapezoid
    samples of the circle: a truncation, independent of the closed form."""
    theta = 2.0 * math.pi * np.arange(1024) / 1024
    zs = R * np.exp(1j * theta) - z_min
    scale = float(np.max(np.abs(zs)))
    zn = zs / scale  # keep powers O(1)
    sw = math.sqrt(2.0 * math.pi * R / 1024)
    basis = sw * zn[:, None] ** np.arange(k, n_basis)
    target = sw * zn ** (k - 1)
    coef = np.linalg.lstsq(basis, target, rcond=None)[0]
    return float(np.linalg.norm(target - basis @ coef)) * scale ** (k - 1)


@pytest.mark.parametrize("a", [0.0, 0.1, -0.2, 0.2j, 0.15 - 0.1j, 0.2 * cmath.exp(1.7j)],
                         ids=["0", "0.1", "-0.2", "0.2i", "0.15-0.1i", "0.2exp(1.7i)"])
def test_hardy_matches_truncated_projection(a):
    # z_min = a R; the truncation agrees to 1.5e-15 for |a| <= 0.2, k <= 12
    for R in (0.5, 1.0, 2.0):
        curve = ck.BoundaryCurve.circle(R, z_min=a * R)
        for k in range(1, 13):
            want = hardy_oracle(k, R, a * R)
            assert ck.hardy_distance(k, curve) == pytest.approx(want, rel=1e-12)


def test_hardy_depends_only_on_abs_z_min():
    ref = ck.hardy_distance(3, ck.BoundaryCurve.circle(1.0, z_min=0.3))
    assert ref == pytest.approx(hardy_oracle(3, 1.0, 0.3), rel=1e-12)
    for z_min in (0.3j, 0.3 * cmath.exp(1.7j), -0.3):
        assert ck.hardy_distance(3, ck.BoundaryCurve.circle(1.0, z_min=z_min)) == pytest.approx(
            ref, rel=1e-15)
        assert hardy_oracle(3, 1.0, z_min) == pytest.approx(ref, rel=1e-12)
    with pytest.raises(ValueError, match="need k >= 1"):
        ck.hardy_distance(0, ck.BoundaryCurve.circle(1.0))


def test_hardy_disk_closed_form():
    for R in (1.0, 2.0):
        curve = ck.BoundaryCurve.circle(R)
        for k in (1, 2, 3, 4):
            d2 = ck.hardy_distance(k, curve) ** 2
            assert d2 == pytest.approx(2 * math.pi * R ** (2 * k - 1), rel=1e-10)


def test_circle_needs_interior_z_min():
    for z_min in (1.0, 1.5, 0.6 + 0.8j):
        with pytest.raises(ValueError, match=r"need \|z_min\| < R"):
            ck.BoundaryCurve.circle(1.0, z_min=z_min)
    assert ck.BoundaryCurve.circle(2.0, z_min=1.5).z_min == 1.5


def test_ck_disk_values():
    cases = [
        (1.0, 1.0, 1, 1.0),
        (1.0, 1.0, 2, 0.5),
        (2.0, 1.0, 1, 2.0),
        (1.0, 2.0, 1, 2.0),
        (1.0, 2.0, 2, 4.0),
    ]
    for b0, R, k, expected in cases:
        res = ck.ck_constant(k, ck.BargmannWeight.isotropic(b0),
                             ck.BoundaryCurve.circle(R))
        assert res.Ck == pytest.approx(expected, rel=1e-9)
        assert res.Ck == pytest.approx((res.dist_H / res.dist_B) ** 2, rel=1e-12)


def test_ck_radius_scaling():
    w = ck.BargmannWeight.isotropic(1.0)
    for k in (1, 2, 3):
        c1 = ck.ck_constant(k, w, ck.BoundaryCurve.circle(1.0)).Ck
        c2 = ck.ck_constant(k, w, ck.BoundaryCurve.circle(2.0)).Ck
        assert c2 / c1 == pytest.approx(2 ** (2 * k - 1), rel=1e-9)


def test_lambda_plus_prediction():
    res = ck.CkResult(k=1, dist_H=1.0, dist_B=1.0, Ck=1.0)
    val = ck.lambda_plus_prediction(res, -0.25, 0.1)
    assert val == pytest.approx(math.exp(-5.0), rel=1e-14)
    res2 = ck.CkResult(k=2, dist_H=1.0, dist_B=math.sqrt(2.0), Ck=0.5)
    val2 = ck.lambda_plus_prediction(res2, -0.25, 0.1)
    assert val2 == pytest.approx(0.5 * 10.0 * math.exp(-5.0), rel=1e-14)
    # h -> infinity: the exponential factor tends to 1
    big = ck.lambda_plus_prediction(res, -0.25, 1e9)
    assert big == pytest.approx(1.0, rel=1e-8)
    with pytest.raises(ValueError):
        ck.lambda_plus_prediction(res, -0.25, 0.0)
