import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from diracbag import effective
from diracbag.dispersion import A0Result


def make_a0res():
    # frozen reference values of the computed gap constant
    return A0Result(a0=1.3132547, u0sq=0.4054765, d2xi_nu=1.0649198,
                    c0=0.2397506, grid_n=4001)


def test_flux_th():
    th = effective.flux_th(math.pi, 2 * math.pi, 0.1, 1.31236)
    assert th == pytest.approx(5.0 - 1.31236 / math.sqrt(0.1) + 0.5, rel=1e-14)
    assert th == pytest.approx(1.34989, abs=1e-4)
    # area = 0 limit
    th0 = effective.flux_th(0.0, 2 * math.pi, 0.1, 1.0)
    assert th0 == pytest.approx(-1.0 / math.sqrt(0.1) + 0.5, rel=1e-14)
    with pytest.raises(ValueError):
        effective.flux_th(1.0, 0.0, 0.1, 1.0)


def test_qeff_disk_half_integer_tie():
    eff = effective.qeff_disk(0.5, 1.0, 2)
    assert eff.values[0] == pytest.approx(0.25 - 1 / 12, rel=1e-14)
    assert eff.values[1] == eff.values[0]  # exact multiplicity 2
    assert eff.m_sequence == [-1, 0]  # tie broken toward the smaller m


def test_qeff_disk_simple_values():
    eff = effective.qeff_disk(0.0, 1.0, 3)
    assert eff.values[0] == pytest.approx(-1 / 12, rel=1e-14)
    assert eff.values[1] == pytest.approx(1 - 1 / 12, rel=1e-14)
    assert eff.values[2] == pytest.approx(1 - 1 / 12, rel=1e-14)
    eff3 = effective.qeff_disk(0.3, 1.0, 1)
    assert eff3.values[0] == pytest.approx(0.09 - 1 / 12, rel=1e-12)
    assert eff3.m_sequence == [0]


def test_qeff_disk_greedy_is_global_min():
    for t_h in (0.17, 1.34989, 4.62694):
        eff = effective.qeff_disk(t_h, 1.0, 1)
        brute = min((m + t_h) ** 2 - 1 / 12 for m in range(-64, 65))
        assert eff.values[0] == pytest.approx(brute, rel=1e-14)


def test_qeff_general_matches_disk():
    for R in (1.0, 2.0):
        spec = effective.EffSpec.disk(R, 0.1, 1.3132547)
        got = effective.qeff_general(spec, 4)
        want = effective.qeff_disk(spec.t_h, R, 4)
        assert np.max(np.abs(got.values - want.values)) < 1e-10


@pytest.mark.parametrize("h", [0.006, 0.001])
@pytest.mark.parametrize("kappa", [1.0, np.ones(4)], ids=["constant", "samples"])
def test_qeff_general_centres_on_the_levels(h, kappa):
    # at small h the lowest levels sit near m = -t_h: a window around m = 0
    # misses them and the +8-mode check raises CutoffError
    t_h = effective.flux_th(math.pi, 2 * math.pi, h, 1.3132547)
    got = effective.qeff_general(effective.EffSpec(L=2 * math.pi, t_h=t_h, kappa=kappa), 5)
    want = effective.qeff_disk(t_h, 1.0, 5)
    assert np.max(np.abs(got.values - want.values)) < 1e-12


def test_gauge_periodicity_both_routes():
    spec = effective.EffSpec.disk(1.0, 0.1, 1.3132547)
    base = effective.qeff_general(spec, 4)
    shifted = effective.EffSpec.disk(1.0, 0.1, 1.3132547)
    shifted.t_h = spec.t_h + 2 * math.pi / spec.L
    moved = effective.qeff_general(shifted, 4)
    assert np.max(np.abs(base.values - moved.values)) < 1e-10
    d1 = effective.qeff_disk(spec.t_h, 1.0, 4)
    d2 = effective.qeff_disk(spec.t_h + 1.0, 1.0, 4)
    assert np.max(np.abs(d1.values - d2.values)) < 1e-10


def test_qeff_general_variable_kappa_against_fd():
    # smooth curvature profile; real-space periodic finite differences as the
    # independent oracle: (D + t)^2 - kappa^2/12 with D = -i d/ds
    import scipy.sparse
    import scipy.sparse.linalg

    L = 2 * math.pi
    t_h = 0.37

    def kappa(s):
        return 1.0 + 0.3 * np.cos(2 * np.pi * s / L) + 0.1 * np.sin(4 * np.pi * s / L)

    spec = effective.EffSpec(L=L, t_h=t_h, kappa=kappa(L * np.arange(4096) / 4096))
    got = effective.qeff_general(spec, 4)
    # the band solve's values; the dense solve gave 0x1.7db90d612d837p-5,
    # 0x1.3ef0295b77447p-2, 0x1.ca2553ad174fcp+0, 0x1.48e71f6a1c62fp+1 (|delta|
    # at most 4.1e-13)
    assert [v.hex() for v in got.values.tolist()] == [
        "0x1.7db90d61303dbp-5", "0x1.3ef0295b77333p-2", "0x1.ca2553ad1795ap+0",
        "0x1.48e71f6a1c9c9p+1"]

    n = 8192
    s = L * np.arange(n) / n
    ds = L / n
    main = np.full(n, 2.0 / ds**2, dtype=complex) + t_h**2 - kappa(s) ** 2 / 12.0
    u = -1.0 / ds**2 - 1j * t_h / ds  # coupling j -> j+1 (cyclic)
    mat = scipy.sparse.diags(
        [main, np.full(n - 1, u), np.full(n - 1, np.conj(u)), [np.conj(u)], [u]],
        offsets=[0, 1, -1, n - 1, -(n - 1)],
        format="csc",
    )
    vals = scipy.sparse.linalg.eigsh(
        mat, k=4, sigma=-1.0, which="LM", return_eigenvectors=False,
        v0=np.ones(n),
    )
    vals = np.sort(vals.real)
    assert np.max(np.abs(got.values - vals)) < 1e-6


def _dense_values(spec, count):
    # the dense Toeplitz solve the band solve replaced: every mode of the
    # window coupled through c_(i-j), all eigenvalues, the lowest count kept
    cutoff = effective._cutoff(count)
    modes = round(-spec.t_h * spec.L / (2 * math.pi)) + np.arange(-cutoff, cutoff + 1)
    c = effective._kappa_coefficients(spec, 2 * cutoff)
    mat = np.diag((2 * math.pi * modes / spec.L + spec.t_h) ** 2) - scipy.linalg.toeplitz(
        c[2 * cutoff:], c[2 * cutoff::-1])
    return np.linalg.eigvalsh(mat)[:count]


def test_qeff_general_constant_kappa_keeps_the_dense_bits():
    # a constant kappa leaves the diagonal alone: the band has one row and
    # its values are the dense solve's, bit for bit
    for R, h, count in itertools.product((0.5, 1.0, 2.0), (0.2, 0.1, 0.05, 0.02), (1, 3, 5)):
        spec = effective.EffSpec.disk(R, h, 1.3132547)
        got = effective.qeff_general(spec, count).values
        assert got.tobytes() == _dense_values(spec, count).tobytes()


@pytest.mark.parametrize("profile", ["cosine", "complex"])
def test_qeff_general_band_matches_the_dense_solve(profile):
    # real coefficients (an even profile) and complex ones (the sine term of
    # test_qeff_general_variable_kappa_against_fd), from 256 and 4096 samples.
    # Both solves err by about eps ||A|| ~ 9e-13, the outer modes' (2 pi 64 / L)^2
    # setting ||A||: 8.2e-13 measured (cosine, 256 samples, t_h = 0)
    worst = 0.0
    for samples, t_h, count in itertools.product((256, 4096), (0.0, 0.37, 5.2), (1, 4, 8)):
        s = 2 * math.pi * np.arange(samples) / samples
        kappa = 1.0 + 0.3 * np.cos(s) + (0.1 * np.sin(2 * s) if profile == "complex" else 0.0)
        spec = effective.EffSpec(L=2 * math.pi, t_h=t_h, kappa=kappa)
        got = effective.qeff_general(spec, count).values
        want = _dense_values(spec, count)
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    assert worst <= 1e-12


@pytest.mark.parametrize("profile", ["constant", "cosine"])
def test_qeff_general_band_solve_is_scipys(profile, monkeypatch):
    # qeff_general calls LAPACK zhbevx with the arguments scipy's
    # eigvals_banded passes, so its values are scipy's bit for bit
    bands, real = [], effective._lapack.zhbevx
    monkeypatch.setattr(effective._lapack, "zhbevx", lambda band, *a, **kw: bands.append(
        band.copy()) or real(band, *a, **kw))
    s = 2 * math.pi * np.arange(256) / 256
    kappa = 1.0 if profile == "constant" else 1.0 + 0.3 * np.cos(s)
    for t_h, count in itertools.product((0.0, 0.37, 5.2), (1, 4, 8)):
        bands.clear()
        got = effective.qeff_general(effective.EffSpec(L=2 * math.pi, t_h=t_h, kappa=kappa),
                                     count).values
        want = scipy.linalg.eigvals_banded(bands[0], lower=True, select="i",
                                           select_range=(0, count - 1))
        assert bands[0].shape[0] == (1 if profile == "constant" else 3)
        assert got.tobytes() == want.tobytes()


def test_qeff_general_failed_band_solve_raises():
    # a NaN sample reaches the band; LAPACK's failure is an error, not values
    with pytest.raises(np.linalg.LinAlgError):
        effective.qeff_general(effective.EffSpec(L=6.0, t_h=0.3, kappa=[1.0, math.nan]), 3)


def test_qeff_boundedness_over_flux():
    spec = effective.EffSpec.disk(1.0, 0.1, 1.3132547)
    for t in np.linspace(0.0, 1.0, 7):
        spec.t_h = t
        vals = effective.qeff_general(spec, 4).values
        bound = (np.arange(1, 5) / 2 + 1) ** 2 + 1.0 / 12.0
        assert np.all(np.abs(vals) <= bound)


def test_qeff_cutoff_error_on_unresolved_kappa():
    # kappa^2/12 couples mode 0 to modes +-65: beyond the cutoff
    # max(64, 4 count + 16) = 64, inside the check with 8 more modes
    s = 2 * math.pi * np.arange(1024) / 1024
    spec = effective.EffSpec(L=2 * math.pi, t_h=0.37, kappa=1.0 + 0.5 * np.cos(65 * s))
    with pytest.raises(effective.CutoffError,
                       match=r"changed by 8\.2\d*e-07 .*Fourier content beyond the Galerkin cutoff"):
        effective.qeff_general(spec, 4)


@pytest.mark.parametrize("samples", [7, 8, 256])
def test_kappa_coefficients_against_the_loop(samples):
    # reference: c_p = fft(kappa^2/12)[p mod N] / N for |p| <= N/2, else 0
    s = 2 * math.pi * np.arange(samples) / samples
    kappa = 1.0 + 0.3 * np.cos(s) + 0.1 * np.sin(3 * s)
    spec = effective.EffSpec(L=2 * math.pi, t_h=0.37, kappa=kappa)
    spectrum = np.fft.fft(kappa**2 / 12.0) / samples
    n_modes = 144
    want = [spectrum[p % samples] if 2 * abs(p) <= samples else 0.0
            for p in range(-n_modes, n_modes + 1)]
    got = effective._kappa_coefficients(spec, n_modes)
    assert got.tolist() == want


@pytest.mark.parametrize("samples", [5, 8, 16, 64])
def test_qeff_general_short_kappa_file(samples):
    # kappa^2 = (1 + 0.3 cos s)^2 has frequencies |p| <= 2, so a few samples
    # determine it; coefficients above N/2 are zero, not aliases of lower ones
    def spec(n):
        s = 2 * math.pi * np.arange(n) / n
        return effective.EffSpec(L=2 * math.pi, t_h=0.37, kappa=1.0 + 0.3 * np.cos(s))

    want = effective.qeff_general(spec(4096), 5).values
    got = effective.qeff_general(spec(samples), 5).values
    assert np.max(np.abs(got - want)) < 1e-10


def test_lambda_minus_prediction():
    a0res = make_a0res()
    eff = effective.qeff_disk(1.34989, 1.0, 3)
    val = effective.lambda_minus_prediction(1, 0.1, a0res, eff)
    expected = a0res.a0 * math.sqrt(0.1) + a0res.c0 * 0.1**1.5 * eff.values[0]
    assert val == pytest.approx(expected, rel=1e-14)
    # degenerate c0 = 0: prediction collapses to the leading order for all n
    flat = A0Result(a0=a0res.a0, u0sq=a0res.u0sq, d2xi_nu=a0res.d2xi_nu,
                    c0=0.0, grid_n=4001)
    for n in (1, 2, 3):
        assert effective.lambda_minus_prediction(n, 0.1, flat, eff) == pytest.approx(
            a0res.a0 * math.sqrt(0.1), rel=1e-14)
    # spacing form
    gap_pred = (effective.lambda_minus_prediction(2, 0.1, a0res, eff)
                - effective.lambda_minus_prediction(1, 0.1, a0res, eff))
    assert gap_pred == pytest.approx(
        a0res.c0 * 0.1**1.5 * (eff.values[1] - eff.values[0]), rel=1e-12)
    with pytest.raises(ValueError):
        effective.lambda_minus_prediction(9, 0.1, a0res, eff)
