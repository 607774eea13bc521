import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from diracbag import disk, effective, numerics
from diracbag.numerics import Grid1D


def test_radial_phi_constant_field(unit_field):
    gauge = disk.radial_phi(unit_field)
    r = np.array([0.0, 0.3, 0.7, 1.0])
    assert np.max(np.abs(gauge.phi_at(r) - (r**2 - 1) / 4)) < 1e-8
    assert gauge.phi_min == pytest.approx(-0.25, abs=1e-9)
    assert gauge.hess == pytest.approx(0.5)
    assert gauge.phi[-1] == 0.0


def test_radial_phi_quartic_field():
    field = disk.RadialField(lambda r: 4 * r**2, 1.0)
    gauge = disk.radial_phi(field)
    r = np.array([0.0, 0.5, 1.0])
    assert np.max(np.abs(gauge.phi_at(r) - (r**4 - 1) / 4)) < 1e-7
    assert np.max(np.abs(gauge.dphi_at(r) - r**3)) < 1e-7


def test_radial_field_validation():
    with pytest.raises(ValueError):
        disk.RadialField(1.0, -1.0)
    r = np.linspace(0, 1, 11)
    # a field of one sign is accepted, isolated zeros included
    assert np.all(disk.RadialField(-1.0, 1.0).samples(r) == -1.0)
    assert np.array_equal(disk.RadialField(lambda x: -4 * x**2, 1.0).samples(r), -4 * r**2)
    # a sign change or a field that vanishes everywhere is not
    for bad in (lambda x: x - 0.5, lambda x: 0 * x, 0.0):
        with pytest.raises(ValueError, match="keep one sign and not vanish"):
            disk.RadialField(bad, 1.0).samples(r)


def test_reversed_field_gauge_is_the_exact_negation(unit_field):
    # cumulative sums and interpolation are sign-symmetric, so phi(-B) is
    # -phi(B) bit for bit and phi(0) is a maximum
    fwd, rev = disk.radial_phi(unit_field), disk.radial_phi(disk.RadialField(-1.0, 1.0))
    assert np.array_equal(rev.phi, -fwd.phi) and np.array_equal(rev.dphi, -fwd.dphi)
    assert rev.phi_min == -fwd.phi_min > 0 and rev.hess == -0.5


def test_mode_ell_sign_change_around_root(unit_field):
    spec = disk.DiskSpec.make(unit_field, 0.1, n=1001)
    e1 = disk.mode_E(spec, 0, "plus", 1)
    assert disk.mode_ell(spec, 0, "plus", 0.9 * e1, 1)[0] > 0
    assert disk.mode_ell(spec, 0, "plus", 1.1 * e1, 1)[0] < 0


def test_mode_ell_lower_bound_inequality(unit_field):
    # |ell_k(lambda)| >= lambda |E_k - lambda| holds for the discrete form
    spec = disk.DiskSpec.make(unit_field, 0.2, n=1001)
    for m, sign in ((0, "minus"), (-1, "minus"), (1, "plus")):
        for k in (1, 2):
            ek = disk.mode_E(spec, m, sign, k)
            for lam in (0.5 * ek, 0.9 * ek, 1.3 * ek, 2.0 * ek):
                ell = disk.mode_ell(spec, m, sign, lam, k)[k - 1]
                assert abs(ell) >= lam * abs(ek - lam) * (1 - 1e-9)


def test_mode_E_root_residual_and_ordering(unit_field):
    spec = disk.DiskSpec.make(unit_field, 0.2, n=1001)
    e1 = disk.mode_E(spec, 0, "minus", 1)
    e2 = disk.mode_E(spec, 0, "minus", 2)
    assert e1 < e2
    resid = disk.mode_ell(spec, 0, "minus", e1, 1)[0]
    assert abs(resid) <= 1e-8 * e1**2


def test_hardy_quotients(unit_field):
    spec = disk.DiskSpec.make(unit_field, 0.1, n=1001)
    nus = disk.hardy_nu_k(spec, 5)
    assert nus[0] == pytest.approx(1.0 / (math.exp(5.0) - 1.0), rel=1e-9)
    assert np.all(np.diff(nus) >= 0)
    # nu_1(h) e^{1/(2h)} -> 1 from above as h -> 0
    seq = []
    for h in (0.2, 0.1, 0.05):
        s = disk.DiskSpec.make(unit_field, h, n=1001)
        seq.append(disk.hardy_nu_k(s, 1)[0] * math.exp(1.0 / (2 * h)))
    assert np.all(np.diff(seq) < 0)
    assert seq[-1] == pytest.approx(1.0, abs=1e-4)


def test_dirac_spectrum_basic(disk_runs):
    run = disk_runs[0.2]
    sp = run["spectrum"]
    assert np.all(np.diff(sp.pos) >= 0)
    assert np.all(np.diff(sp.neg) >= 0)
    assert np.all(sp.pos > 0) and np.all(sp.neg > 0)
    assert len(sp.pos_provenance) == sp.pos.size
    # upper bound by the Hardy quotients, entry by entry
    assert np.all(sp.pos <= run["hardy"] + 1e-12)


def test_charge_conjugation_small(unit_field):
    fwd = disk.dirac_spectrum(disk.DiskSpec.make(unit_field, 0.2, n=1001), 3)
    rev = disk.dirac_spectrum(disk.DiskSpec.make(disk.RadialField(-1.0, 1.0), 0.2, n=1001), 3)
    assert np.allclose(fwd.pos, rev.neg, atol=1e-8)
    assert np.allclose(fwd.neg, rev.pos, atol=1e-8)


def test_grid_refinement_stability(unit_field):
    spec1 = disk.DiskSpec(field=unit_field, h=0.2, m_range=(-4, 4),
                          rgrid=disk._shifted_grid(1.0, 1001))
    spec2 = disk.DiskSpec(field=unit_field, h=0.2, m_range=(-4, 4),
                          rgrid=disk._shifted_grid(1.0, 2001))
    for m, sign in ((0, "minus"), (1, "plus")):
        v1 = disk.mode_E(spec1, m, sign, 1)
        v2 = disk.mode_E(spec2, m, sign, 1)
        assert abs(v1 - v2) < 4e-5


def test_dirac_spectrum_widens_a_narrow_mode_window(unit_field, monkeypatch):
    # an end mode of (-1, 1) holds one of the four lowest roots, so the window
    # widens until none does; each (m, k) root does not depend on the window.
    # The pivot counts settle the window before any root is bisected: 8
    # bisections, 11 while each narrower window's selected roots were bisected
    spec = disk.DiskSpec.make(unit_field, 0.2, n=1001)
    wide = disk.dirac_spectrum(spec, 4)
    bisected, real = [], disk._bisect_ell
    monkeypatch.setattr(disk, "_bisect_ell", lambda op, k, lo, hi:
                        bisected.append((op.m, op.field_sign, k)) or real(op, k, lo, hi))
    narrow = disk.dirac_spectrum(dataclasses.replace(spec, m_range=(-1, 1)), 4)
    assert len(bisected) == 8 == len(set(bisected))
    assert _spectrum_hex(narrow) == _spectrum_hex(wide)
    assert any(abs(m) >= 1 for m, _ in narrow.pos_provenance + narrow.neg_provenance)


@pytest.mark.parametrize("branch", ("plus", "minus"))
def test_zigzag_widens_a_narrow_mode_window(unit_field, branch):
    # on (-1, 1) the third value used to come from an end mode: 1.0691 for the
    # plus branch where the window (-15, 15) gives 0.9562
    spec = disk.DiskSpec.make(unit_field, 0.2, n=1001)
    wide = disk.zigzag_spectrum(spec, branch, 3).tolist()
    for m_range in ((-1, 1), (-3, 3)):
        assert disk.zigzag_spectrum(dataclasses.replace(spec, m_range=m_range), branch, 3).tolist() == wide


FIELDS = (1.0, -1.0, 0.95, lambda r: 1.0 + r**2)
FIELD_IDS = ("1", "-1", "0.95", "1+r^2")


def _prefix(parts, count):
    return tuple(part[:count] for part in parts)


@pytest.mark.parametrize("B", FIELDS, ids=FIELD_IDS)
def test_values_do_not_depend_on_the_count(B):
    # each (m, k) value is solved from its mode alone (count-free brackets for
    # the roots, the branch's floor and the index for the zigzags), so the
    # values and the provenance at count c are the first c of count 12; the
    # flux window test compares its counts with one count-12 solve on this premise
    for R, h in itertools.product((0.5, 1.0), (0.2, 0.1)):
        spec = disk.DiskSpec.make(disk.RadialField(B, R), h, n=501)
        full = _spectrum_hex(disk.dirac_spectrum(spec, 12))
        zigzags = {branch: disk.zigzag_spectrum(spec, branch, 12).tolist()
                   for branch in ("plus", "minus")}
        for count in (1, 2, 5, 8):
            assert _spectrum_hex(disk.dirac_spectrum(spec, count)) == _prefix(full, count)
            for branch, values in zigzags.items():
                assert disk.zigzag_spectrum(spec, branch, count).tolist() == values[:count]


@pytest.mark.parametrize("B", FIELDS, ids=FIELD_IDS)
def test_flux_window_keeps_every_value(B):
    # the default window |m| <= ceil(|Phi| / h) + 2 gives the bits and the
    # provenance of the window |m| <= ceil(3 R^2 / h) it replaced, on both
    # zigzags too, at counts 1, 5 and 12; the wide window is solved once, at
    # count 12, whose first values are those of every smaller count (above).
    # An end mode of the default window holding a selected root means it
    # widened (count 12 at R = 1, h = 0.1: mode 8 of (-7, 7))
    widened = False
    for R, h in itertools.product((0.5, 1.0), (0.2, 0.1, 0.05)):
        spec = disk.DiskSpec.make(disk.RadialField(B, R), h, n=1001)
        m_max = math.ceil(3.0 * R**2 / h)
        wide = dataclasses.replace(spec, m_range=(-m_max, m_max))
        full = _spectrum_hex(disk.dirac_spectrum(wide, 12))
        zigzags = {branch: disk.zigzag_spectrum(wide, branch, 12).tolist()
                   for branch in ("plus", "minus")}
        for count in (1, 5, 12):
            sp = disk.dirac_spectrum(spec, count)
            assert _spectrum_hex(sp) == _prefix(full, count)
            for branch, values in zigzags.items():
                assert disk.zigzag_spectrum(spec, branch, count).tolist() == values[:count]
            widened |= max(abs(m) for m, _ in sp.pos_provenance + sp.neg_provenance) \
                >= spec.m_range[1]
    assert widened


def test_flux_window_of_a_constant_field(unit_field):
    # Phi / h = B R^2 / (2 h): 2.5 and 5 at the benchmark's h = 0.2 and 0.1
    for h, m_max in ((0.2, 5), (0.1, 7), (0.05, 12)):
        assert disk.DiskSpec.make(unit_field, h).m_range == (-m_max, m_max)
        assert disk.DiskSpec.make(disk.RadialField(-1.0, 1.0), h).m_range == (-m_max, m_max)


def _brute_force_roots(spec, field_sign, count):
    # every root (m, k <= count) of the window, bisected one by one
    m_lo, m_hi = spec.m_range
    roots = sorted(
        (disk.mode_E(spec, m, field_sign, k), m, k)
        for m in range(m_lo, m_hi + 1)
        for k in range(1, count + 1)
    )
    return roots[:count]


@pytest.mark.parametrize("b0", (1, -1))
def test_dirac_spectrum_matches_brute_force(b0):
    # the Sturm screening may only skip roots that cannot be selected, so
    # values and provenance equal the full per-mode search bit for bit
    count = 5
    spec = disk.DiskSpec(field=disk.RadialField(b0, 1.0), h=0.2, m_range=(-4, 4),
                         rgrid=disk._shifted_grid(1.0, 1001))
    sp = disk.dirac_spectrum(spec, count)
    for sign, values, prov in (("plus", sp.pos, sp.pos_provenance),
                               ("minus", sp.neg, sp.neg_provenance)):
        best = _brute_force_roots(spec, sign, count)
        assert values.tolist() == [v for v, _, _ in best]
        assert prov == [(m, k) for _, m, k in best]


def _screen_every_mode(count_at, modes, count, lo, hi, steps):
    # the screen without pruning: every mode counted at every probe
    def counts(y):
        return [count_at(i, y) for i in range(modes)]

    while sum(counts(hi)) < count:
        lo, hi = hi, 2.0 * hi
    for _ in range(steps):
        mid = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        lo, hi = (lo, mid) if sum(counts(mid)) >= count else (mid, hi)
    return counts(hi * (1.0 + 1e-3))


def test_screen_counts_only_live_modes(monkeypatch):
    # a mode's root count never grows as the threshold falls, so skipping the
    # modes without a root at the last accepted probe changes no count
    real, screens = disk._screen, []

    def both(*args):
        screens.append(real(*args))
        assert screens[-1] == _screen_every_mode(*args)
        return screens[-1]

    monkeypatch.setattr(disk, "_screen", both)
    for h in (0.2, 0.1, 0.05):
        for b0 in (1.0, -1.0):
            disk.dirac_spectrum(disk.DiskSpec.make(disk.RadialField(b0, 1.0), h, n=1001), 5)
        spec = disk.DiskSpec.make(disk.RadialField(1.0, 1.0), h, n=1001)
        for branch in ("plus", "minus"):
            disk.zigzag_spectrum(spec, branch, 3)
    assert len(screens) == 18 and all(sum(c) >= 3 for c in screens)


def test_screen_counts_a_root_just_above_the_threshold():
    # a root in (x, x (1 + 1e-3)] whose mode held none at the threshold x is
    # still counted: the final count uses the live modes of a probe above it
    probes = []

    def screen(roots):
        def count_at(i, y):
            probes.append(y)
            return sum(r <= y for r in roots[i])
        return disk._screen(count_at, len(roots), 1, 0.25, 0.5, 8)

    assert screen([[1.0]]) == [1]
    x = probes[-1] / (1.0 + 1e-3)
    roots = [[1.0], [x * (1.0 + 5e-4)]]
    assert screen(roots) == [1, 1]
    assert _screen_every_mode(lambda i, y: sum(r <= y for r in roots[i]), 2, 1, 0.25, 0.5, 8) == [1, 1]


def test_zigzag_bisected_threshold_keeps_values(unit_field, monkeypatch):
    # bisecting the zigzag threshold only skips eigensolves of modes above it
    def values():
        return [[v.hex() for v in disk.zigzag_spectrum(spec, branch, count).tolist()]
                for spec in specs for branch in ("plus", "minus") for count in (1, 3, 5)]

    specs = [disk.DiskSpec.make(unit_field, h, n=1001) for h in (0.2, 0.1, 0.05)]
    bisected = values()
    real = disk._screen
    monkeypatch.setattr(disk, "_screen", lambda *args: real(*args[:-1], 0))
    assert values() == bisected


def test_disk_eigensolve_counts(unit_field, monkeypatch):
    # counts, not timings, so the gate cannot flake; bisecting two roots in
    # every mode and deepening took 4306 solves for the spectrum, an
    # eigensolve at every bisection step 338, and the zigzag solved every one
    # of the 31 modes per branch.  Screens that recounted every mode took
    # 1176 Sturm counts.
    calls, counts, sturm = [], [], []
    real_pivots, real_sturm = numerics.pivot_count, numerics.count_below
    # the mode screens count by pivots and the zigzag solves in disk; the
    # bisection signs count, and eigensolve inside their band, in numerics
    for mod in (disk, numerics):
        real = mod.eig_sym_tridiag
        monkeypatch.setattr(
            mod, "eig_sym_tridiag", lambda *a, f=real, **kw: calls.append(1) or f(*a, **kw)
        )
        monkeypatch.setattr(
            mod, "pivot_count", lambda *a: counts.append(1) or real_pivots(*a)
        )
    monkeypatch.setattr(
        numerics, "count_below", lambda *a: counts.append(1) or sturm.append(1) or real_sturm(*a)
    )
    spec = disk.DiskSpec.make(unit_field, 0.2, n=501)
    disk.dirac_spectrum(spec, 5)
    spectrum_calls = len(calls)
    # 35 measured while every sign within 64 eps ||Q_lambda||_1 was eigensolved
    assert spectrum_calls <= 6  # 4 measured
    # 729 measured: 148 screen counts (214 on the window (-15, 15)), 525
    # pivot-tier sign counts, 56 Sturm counts
    assert len(counts) <= 1108
    assert len(sturm) <= 80  # 56 measured, all in-band; 270 while the screens took them
    sturm.clear()
    disk.zigzag_spectrum(spec, "plus", 3)
    disk.zigzag_spectrum(spec, "minus", 3)
    # 6 measured, one per selected value (9 with a doubled-only threshold)
    assert len(calls) - spectrum_calls <= 9
    assert sturm == []  # the zigzag screens count by pivots


def test_dirac_spectrum_eigensolves_at_the_benchmark_configuration(unit_field, monkeypatch):
    # the benchmark's disk spectra: 165 eigensolves while every sign within
    # 64 eps ||Q_lambda||_1 was eigensolved, now only those within stebz's
    # stopping width of ell_k's zero (numerics.certified_sign)
    calls, sturm = [], []
    for mod in (disk, numerics):
        real = mod.eig_sym_tridiag
        monkeypatch.setattr(
            mod, "eig_sym_tridiag", lambda *a, f=real, **kw: calls.append(1) or f(*a, **kw))
    real_sturm = numerics.count_below
    monkeypatch.setattr(numerics, "count_below", lambda *a: sturm.append(1) or real_sturm(*a))
    for h in (0.2, 0.1):
        disk.dirac_spectrum(disk.DiskSpec.make(unit_field, h, n=2001), 5)
    assert len(calls) <= 60  # 48 measured
    # the screens and the signs outside 64 eps ||Q_lambda||_1 count by pivots
    assert len(sturm) <= 300  # 280 measured, 821 while they took Sturm counts


def test_disk_counts_at_the_benchmark_configuration(unit_field, monkeypatch):
    # one benchmark repetition's disk solves: dirac_spectrum(spec, 5), both
    # zigzags of 3 values and the Galerkin operator of 5 at h = 0.2 and 0.1,
    # n = 2001.  Counts, not timings, so the gate cannot flake
    built, pivots, zigzag_ks, bisected, certified, dense, bands = [], [], [], [], [], [], []
    real_init, real_pivots = disk._ModeOperator.__init__, disk.pivot_count
    real_eig, real_bisect = disk.eig_sym_tridiag, disk._bisect_ell
    real_lowest, real_dense, real_band = (disk.certified_lowest, np.linalg.eigvalsh,
                                          scipy.linalg.eigvals_banded)
    monkeypatch.setattr(disk._ModeOperator, "__init__",
                        lambda op, *a: built.append(1) or real_init(op, *a))
    monkeypatch.setattr(disk, "pivot_count", lambda *a: pivots.append(1) or real_pivots(*a))
    monkeypatch.setattr(disk, "eig_sym_tridiag",
                        lambda t, k, **kw: zigzag_ks.append(k) or real_eig(t, k, **kw))
    monkeypatch.setattr(disk, "_bisect_ell", lambda *a: bisected.append(1) or real_bisect(*a))
    monkeypatch.setattr(disk, "certified_lowest", lambda t, lo: certified.append(
        real_lowest(t, lo)) or certified[-1])
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a, **kw: dense.append(1) or real_dense(*a, **kw))
    monkeypatch.setattr(scipy.linalg, "eigvals_banded", lambda band, **kw: bands.append(
        band.shape) or real_band(band, **kw))
    for h in (0.2, 0.1):
        spec = disk.DiskSpec.make(unit_field, h, n=2001)
        disk.dirac_spectrum(spec, 5)
        disk.zigzag_spectrum(spec, "plus", 3)
        disk.zigzag_spectrum(spec, "minus", 3)
        effective.qeff_general(effective.EffSpec.disk(1.0, h, 1.3132547), 5)
    # the windows (-5, 5) and (-7, 7), once per solver call: 4 * (11 + 15);
    # 368 from the window |m| <= ceil(3 R^2 / h), (-15, 15) and (-30, 30)
    assert len(built) <= 104
    assert len(pivots) <= 530  # 517 measured; 1117 on the wider window
    # each selected zigzag value is the first of its mode, certified from the
    # branch's floor: no eigensolve (one per value, 12, while each held value
    # was eigensolved from its index; 36 while every held mode gave 3)
    assert zigzag_ks == []
    assert len(certified) == 12 and None not in certified
    assert len(bisected) == 20  # each selected root, once
    # a constant kappa makes the Galerkin matrices (129 and 145 rows) diagonal:
    # 4 one-row band solves, no dense eigensolve
    assert dense == [] and bands == [(1, 129), (1, 145)] * 2


def test_mode_operator_norm_is_the_matrix_norm(unit_field, monkeypatch):
    # ell_sign sizes its bands by the wall row and the cached max over the
    # other rows; max is exact, so the norm is bit for bit that of the matrix
    exact = []
    real = disk.certified_sign
    monkeypatch.setattr(disk, "certified_sign", lambda t, x, k, norm: exact.append(
        norm == numerics._norm1(t)) or real(t, x, k, norm))
    spec = disk.DiskSpec.make(unit_field, 0.1, n=2001)
    for m, branch in ((-20, "plus"), (-3, "minus"), (0, "plus"), (0, "minus"), (20, "plus")):
        op = disk._ModeOperator(spec, m, branch)
        for lam in (1e-9, 1e-3, 0.3, 1.0, 3.0):
            op.ell_sign(lam, 1)
    assert exact == [True] * 25


def _spectrum_hex(sp):
    return ([v.hex() for v in sp.pos.tolist()], sp.pos_provenance,
            [v.hex() for v in sp.neg.tolist()], sp.neg_provenance)


def test_certified_signs_match_eigensolve_bisection(unit_field, monkeypatch):
    # the Sturm counts decide a bisection sign only outside the eigensolver's
    # rounding band; with every guard ambiguous (a NaN count passes neither
    # test) each sign is eigensolved, and the roots must not move by a bit.
    # Count and eigensolve roots part most at the plus-branch ground roots:
    # about 5e-8 relative at h = 0.1 and 2.4e-4 at h = 0.05.
    spec01 = disk.DiskSpec.make(unit_field, 0.1, n=2001)
    spec02 = disk.DiskSpec.make(disk.RadialField(-1.0, 1.0), 0.2, n=501)
    spec005 = disk.DiskSpec.make(unit_field, 0.05, n=2001)

    def roots():
        return (_spectrum_hex(disk.dirac_spectrum(spec01, 5)),
                _spectrum_hex(disk.dirac_spectrum(spec02, 5)),
                disk.mode_E(spec005, 0, "plus", 1).hex())

    certified = roots()
    signs, solves = [], []
    real_sign = disk._ModeOperator.ell_sign
    monkeypatch.setattr(disk._ModeOperator, "ell_sign",
                        lambda op, lam, k: signs.append(1) or real_sign(op, lam, k))
    # the signs count and eigensolve in numerics; the mode screens keep
    # their real counts in disk
    monkeypatch.setattr(numerics, "count_below", lambda m, x: math.nan)
    monkeypatch.setattr(numerics, "pivot_count", lambda m, x, cap: math.nan)
    for mod in (disk, numerics):
        real = mod.eig_sym_tridiag
        monkeypatch.setattr(
            mod, "eig_sym_tridiag", lambda *a, f=real, **kw: solves.append(1) or f(*a, **kw))
    assert roots() == certified
    assert len(solves) == len(signs)


# float.hex of the reversed-field disk at h = 0.2, n = 501, generated while the
# reversal was an option of the solvers (B = 1 with the field flipped in the
# mode form and the Hardy weight) rather than the field B = -1 itself
PINNED_REVERSED = (
    ["0x1.29bd105529babp-1", "0x1.487324f1c67c4p-1", "0x1.944b99a416034p-1",
     "0x1.bdcaa7238d8aep-1", "0x1.f335f48a95348p-1"],
    [(0, 1), (-1, 1), (-2, 1), (1, 1), (-3, 1)],
    ["0x1.527678cd78b46p-4", "0x1.e4dbc17d85fb8p-3", "0x1.aeb78832ed1a4p-2",
     "0x1.3b8b4ce0abb54p-1", "0x1.7da82caf515fbp-1"],
    [(0, 1), (1, 1), (2, 1), (3, 1), (-1, 1)],
)
PINNED_REVERSED_E = {
    (-2, "plus", 1): "0x1.944b99a416034p-1", (-2, "plus", 2): "0x1.79cd4685dc7d0p+0",
    (-2, "minus", 1): "0x1.17a11c740582ep+0", (-2, "minus", 2): "0x1.a9abe08a2418ap+0",
    (0, "plus", 1): "0x1.29bd105529babp-1", (0, "plus", 2): "0x1.0a2861b1f35c4p+0",
    (0, "minus", 1): "0x1.527678cd78b46p-4", (0, "minus", 2): "0x1.d81a5bdff889cp-1",
    (3, "plus", 1): "0x1.5ce7da6f8a996p+0", (3, "plus", 2): "0x1.f5f8f50663d44p+0",
    (3, "minus", 1): "0x1.3b8b4ce0abb54p-1", (3, "minus", 2): "0x1.8ea8cf38e77c6p+0",
}
PINNED_REVERSED_ELL = {
    (0, "plus", 0.3): ["0x1.2c55856caa4bap-3", "0x1.63c941f0118f7p-1", "0x1.0a3b892a76604p+1"],
    (-2, "minus", 0.5): ["0x1.c8c05fde00e9ap-1", "0x1.2aaa1579c5862p+1", "0x1.22167bf655ee0p+2"],
    (3, "plus", 0.7): ["0x1.95266cab10490p-1", "0x1.665bc37d8f5f7p+1", "0x1.5868d9ff8f389p+2"],
}


def test_reversed_field_keeps_its_pinned_bits():
    spec = disk.DiskSpec.make(disk.RadialField(-1.0, 1.0), 0.2, n=501)
    assert _spectrum_hex(disk.dirac_spectrum(spec, 5)) == PINNED_REVERSED
    for (m, branch, k), pinned in PINNED_REVERSED_E.items():
        assert disk.mode_E(spec, m, branch, k).hex() == pinned
    for (m, branch, lam), pinned in PINNED_REVERSED_ELL.items():
        assert [v.hex() for v in disk.mode_ell(spec, m, branch, lam, 3).tolist()] == pinned


def test_h_floor_follows_the_exponentially_small_branch(unit_field):
    # for B < 0 the minus branch holds the exponentially small roots: its
    # (0, 1) root at h = 0.03 is the forward plus one, about 5.8e-8, which
    # sinks under ell_k's rounding (5.1e-7 came out), so it is refused; the
    # plus branch is the forward minus one on the sqrt(h) scale
    def spec_at(field):
        return disk.DiskSpec(field=field, h=0.03, m_range=(-3, 3),
                             rgrid=disk._shifted_grid(1.0, 2001))

    rev = spec_at(disk.RadialField(-1.0, 1.0))
    with pytest.raises(ValueError, match=r"supported range .*minus-branch .*\(h >= 0\.05\)"):
        disk.mode_E(rev, 0, "minus", 1)
    with pytest.raises(ValueError, match="supported range"):  # dirac_spectrum's minus half
        disk._merge_modes(rev, "minus", 1)
    fwd_minus = disk.mode_E(spec_at(unit_field), 0, "minus", 1)
    assert abs(disk.mode_E(rev, 0, "plus", 1) / fwd_minus - 1.0) < 1e-9


def test_hardy_quotients_rise_with_the_mode():
    # the first kmax quotients are the kmax smallest: bitwise the sorted
    # kmax + 8 the bound used to be taken from
    for b in (1.0, 0.95, lambda r: 1.0 + r**2, lambda r: 4.0 * r**2):
        for h in (0.2, 0.1, 0.05, 0.02):
            spec = disk.DiskSpec.make(disk.RadialField(b, 1.0), h)
            ratios = disk._hardy_ratios(spec, range(20))
            for kmax in (1, 3, 5, 12):
                old = np.sort(ratios[:kmax + 8])[:kmax]
                assert [v.hex() for v in disk.hardy_nu_k(spec, kmax).tolist()] == \
                    [v.hex() for v in old.tolist()]


def test_bisect_errors_name_the_mode(unit_field, monkeypatch):
    spec = disk.DiskSpec.make(unit_field, 0.2, n=501)
    for sign, side in ((1.0, "negative upper"), (-1.0, "positive lower")):
        monkeypatch.setattr(disk._ModeOperator, "ell_sign", lambda op, lam, k, s=sign: s)
        with pytest.raises(RuntimeError, match=rf"no {side} bracket for ell_k "
                           r"\(mode m=-2, minus branch, k=3, last lambda=\d"):
            disk.mode_E(spec, -2, "minus", 3)


def test_zigzag_bounds_and_pauli_shift(unit_field):
    spec = disk.DiskSpec.make(unit_field, 0.2, n=1001)
    plus = disk.zigzag_spectrum(spec, "plus", 3)
    minus = disk.zigzag_spectrum(spec, "minus", 3)
    assert plus[0] >= 2 * 0.2 * (1 - 1e-3)
    assert np.all(minus >= -1e-12)
    # constant field: the two Pauli branches differ exactly by 2 h B
    assert np.allclose(plus - minus, 2 * 0.2, atol=1e-10)
    # zigzag Dirac spectrum is the symmetric set +-sqrt(alpha_k)
    dirac_levels = np.sqrt(minus)
    assert np.all(dirac_levels >= 0)
    # a reversed field swaps the branches, up to the grid error (1.0e-6 measured)
    rev = disk.DiskSpec.make(disk.RadialField(-1.0, 1.0), 0.2, n=1001)
    assert np.allclose(disk.zigzag_spectrum(rev, "plus", 3), minus, rtol=0, atol=5e-6)
    assert np.allclose(disk.zigzag_spectrum(rev, "minus", 3), plus, rtol=0, atol=5e-6)


def test_zigzag_minus_exponentially_small(unit_field):
    spec = disk.DiskSpec.make(unit_field, 0.2, n=1001)
    a1 = disk.zigzag_spectrum(spec, "minus", 1)[0]
    # ground level tracks e^{2 phi_min / h} = e^{-2.5}
    assert a1 == pytest.approx(math.exp(-2.5), rel=0.12)


# first three minus-branch zigzag values of the unit disk, B = 1: exact
# alpha^- = h (|m| - m - 2 a) with a a root of M(a, |m| + 1, 1 / (2 h)) = 0
# (Kummer), from 40-digit mpmath
ZIGZAG_EXACT = {
    0.2: [0.083950787083780677652, 0.26912151951128276851, 0.55617456658751439954],
    0.1: [0.0054946079992477422646, 0.024348642348414841734, 0.061636386732216792603],
    0.05: [4.0213351693631224225e-5, 3.5041085064138026213e-4, 1.5164579335396658367e-3],
}


def test_zigzag_matches_exact_kummer_values(unit_field):
    ground_err = {}
    for h, exact in ZIGZAG_EXACT.items():
        spec = disk.DiskSpec.make(unit_field, h, n=2001)
        minus = disk.zigzag_spectrum(spec, "minus", 3)
        plus = disk.zigzag_spectrum(spec, "plus", 3)
        assert np.all(np.abs(minus / exact - 1) <= 2.5e-5)  # 1.1e-5 measured at h = 0.05
        assert np.all(np.abs(plus / (np.array(exact) + 2 * h) - 1) <= 1e-6)
    # the minus ground value's grid error is O(step^2)
    for n in (1001, 2001):
        spec = disk.DiskSpec.make(unit_field, 0.05, n=n)
        ground_err[n] = abs(disk.zigzag_spectrum(spec, "minus", 1)[0] / ZIGZAG_EXACT[0.05][0] - 1)
    assert 3 <= ground_err[1001] / ground_err[2001] <= 5


# zigzag values for B = 1 + r^2 on the unit disk at n = 2001, from the
# separate Dirichlet assembly the mode form replaced
ZIGZAG_VARFIELD = {
    (0.2, "plus"): [0.5407356609709584, 0.7375850787200335, 1.0098233613577436],
    (0.2, "minus"): [0.06291258156649142, 0.21099810310412584, 0.4503056314659185],
    (0.1, "plus"): [0.23202109147039224, 0.2657569323117226, 0.30636369698569554],
    (0.1, "minus"): [0.002518984048039895, 0.012568090354125584, 0.03503765958833632],
}


def test_zigzag_variable_field():
    field = disk.RadialField(lambda r: 1.0 + r**2, 1.0)
    for (h, branch), before in ZIGZAG_VARFIELD.items():
        vals = disk.zigzag_spectrum(disk.DiskSpec.make(field, h, n=2001), branch, 3)
        assert np.all(vals >= (2 * h if branch == "plus" else 0.0))  # min B = 1
        assert np.all(np.abs(vals / before - 1) <= 1e-5)  # 3.6e-6 measured


@pytest.mark.parametrize("B", FIELDS, ids=FIELD_IDS)
def test_zigzag_first_values_match_the_eigensolve(B, monkeypatch):
    # each held mode's first value, by certified inverse iteration from the
    # branch's floor, lies within 2e-10 of the stebz value it replaced; the
    # reference takes every value from stebz (certified_lowest refused).  For
    # B = -1 the minus floor 0 sits below the Landau-shifted values, so its
    # iterations are the longest (26 solves, under the cap of 64)
    firsts, real = [], disk.certified_lowest
    worst = 0.0
    for h, n in itertools.product((0.25, 0.2, 0.1, 0.05), (501, 2001)):
        spec = disk.DiskSpec.make(disk.RadialField(B, 1.0), h, n=n)
        for branch in ("plus", "minus"):
            monkeypatch.setattr(disk, "certified_lowest", lambda t, lo: firsts.append(
                real(t, lo)) or firsts[-1])
            got = disk.zigzag_spectrum(spec, branch, 3)
            monkeypatch.setattr(disk, "certified_lowest", lambda t, lo: None)
            want = disk.zigzag_spectrum(spec, branch, 3)
            worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 2e-10  # 8.7e-11 measured (6.4e-11 for B = -1)
    assert len(firsts) >= 48 and None not in firsts  # every first value certified


def test_oracle_against_minmax_roots(unit_field):
    spec = disk.DiskSpec.make(unit_field, 0.1, n=2001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        orc = disk.dirac_radial_direct(spec, -3, 2)
    neg = orc[orc < 0]
    pos = orc[orc > 0]
    assert neg.size and pos.size
    assert np.all(np.abs(orc) > 1e-6)  # no zero modes
    em = disk.mode_E(spec, 2, "minus", 1)  # conjugate mode -(m+1) = 2
    assert abs(em + neg[-1]) / em < 1e-6
    ep = disk.mode_E(spec, -3, "plus", 1)
    assert abs(ep - pos[0]) / ep < 1e-6


def _oracle_entries_by_loop(spec, m):
    # the staggered stencil entry by entry, the loop the oracle's assembly replaced
    N, h = spec.rgrid.n, spec.h
    delta = spec.field.R / N
    edges = np.arange(1, N + 1) * delta
    centers = (np.arange(1, N + 1) - 0.5) * delta
    w_c = -h * m / centers + spec.gauge.dphi_at(centers)
    u_e = h * (m + 1) / edges - spec.gauge.dphi_at(edges)
    bad = (np.abs(w_c) > h / delta) | (np.abs(u_e) > h / delta)
    cut = int(np.nonzero(bad)[0].max()) + 1 if np.any(bad) else 0
    nf = N - cut
    out = []
    for j in range(cut + 1, N + 1):  # ghat equation at center j
        if j >= cut + 2:
            out.append((nf + j - cut - 1, j - cut - 2, -h / delta + 0.5 * w_c[j - 1]))
        elif m == 0 and cut == 0:  # regularity closure f(0) ~ f(delta)
            out.append((nf, 0, -h / delta + 0.5 * w_c[0]))
        out.append((nf + j - cut - 1, j - cut - 1, h / delta + 0.5 * w_c[j - 1]))
    for j in range(cut + 1, N):  # f equation at interior edge j
        out.append((j - cut - 1, nf + j - cut, -h / delta - 0.5 * u_e[j - 1]))
        out.append((j - cut - 1, nf + j - cut - 1, h / delta - 0.5 * u_e[j - 1]))
    w0, w1, w2 = 8.0 / (3.0 * delta), -3.0 / delta, 1.0 / (3.0 * delta)
    return out + [(nf - 1, nf - 1, h * w0 + u_e[N - 1]), (nf - 1, 2 * nf - 1, -h * w1),
                  (nf - 1, 2 * nf - 2, -h * w2)]


def test_oracle_bands_match_the_stencil_loop():
    # the interleaved bands hold the loop's entries bit for bit (the closure's
    # two f_1 entries summed), and the symmetric form keeps the spectrum: the
    # dense one of the loop's matrix is real and equal to it
    for h, B, m in itertools.product((0.2, 0.1), (1.0, -1.0, lambda r: 1.0 + r**2),
                                     (-3, -1, 0, 1, 4)):
        spec = disk.DiskSpec.make(disk.RadialField(B, 1.0), h, n=201)
        entries = _oracle_entries_by_loop(spec, m)
        size = 1 + max(i for i, _, _ in entries)
        dense = np.zeros((size, size))
        for i, j, v in entries:
            dense[i, j] += v
        nf = size // 2
        order = np.column_stack([nf + np.arange(nf), np.arange(nf)]).ravel()  # ghat_t, f_t
        inter = dense[np.ix_(order, order)]
        *_, diag, sup, sub, corner = disk._staggered_bands(spec, m)
        for got, want in ((diag, np.diag(inter)), (sup, np.diag(inter, 1)),
                          (sub, np.diag(inter, -1)), (corner, inter[-1, -4])):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        rest = inter - np.diag(diag) - np.diag(sup, 1) - np.diag(sub, -1)
        rest[-1, -4] -= corner
        assert not np.any(rest)
        t = disk._symmetric_form(m, diag, sup, sub, corner)[0]
        ref = np.linalg.eigvals(dense)
        assert not np.any(ref.imag)
        ref = np.sort(ref.real)
        got = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))  # 1.3e-14 measured


def test_oracle_window_holds_the_nearest_eigenvalues():
    # where the filters drop nothing, the grown window returns the 2 count
    # eigenvalues of the whole spectrum nearest sigma
    checked = 0
    for h, m, count, sigma in itertools.product((0.2, 0.1), (-3, 0, 2), (1, 2, 3),
                                                (0.0, -0.5, 0.7)):
        spec = disk.DiskSpec.make(disk.RadialField(1.0, 1.0), h, n=201)
        with warnings.catch_warnings(record=True) as filtered:
            warnings.simplefilter("always")
            got = disk.dirac_radial_direct(spec, m, count, sigma=sigma)
        if filtered:
            continue
        t = disk._symmetric_form(m, *disk._staggered_bands(spec, m)[2:])[0]
        every = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True)
        nearest = np.sort(every[np.argsort(np.abs(every - sigma))[:2 * count]])
        assert np.max(np.abs(got - nearest)) < 1e-12
        checked += 1
    assert checked >= 30  # 37 of the 54


@pytest.mark.parametrize("h", (0.2, 0.1))
def test_oracle_eigenpair_count(disk_runs, monkeypatch, h):
    # the benchmark's oracle call (as `disk --oracle`) takes 3 eigenpairs:
    # the 2 around sigma and one more on the nearer side
    spec, sp = disk_runs[h]["spec"], disk_runs[h]["spectrum"]
    pairs, real = [], disk.eig_sym_tridiag
    monkeypatch.setattr(disk, "eig_sym_tridiag",
                        lambda t, k, **kw: pairs.append(k) or real(t, k, **kw))
    m, _ = sp.neg_provenance[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        direct = disk.dirac_radial_direct(spec, -(m + 1), 1, sigma=-sp.neg[0])
    assert abs(direct[direct < 0][-1] + sp.neg[0]) / sp.neg[0] < 1e-6
    assert sum(pairs) <= 4


def test_oracle_mode_conjugation(unit_field):
    # spectrum negation under field flip combined with m <-> -(m+1):
    # negatives of mode m match -E_k of the flipped problem at mode -(m+1)
    spec = disk.DiskSpec.make(unit_field, 0.1, n=2001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        o1 = disk.dirac_radial_direct(spec, 1, 2)
    em = disk.mode_E(spec, -2, "minus", 1)
    assert abs(em + o1[o1 < 0][-1]) / em < 1e-5


def test_positive_branch_h_floor(unit_field, disk_runs):
    spec = disk.DiskSpec(field=unit_field, h=0.01, m_range=(-3, 3),
                         rgrid=disk._shifted_grid(1.0, 501))
    with pytest.raises(ValueError, match="supported range"):
        disk.mode_E(spec, 0, "plus", 1)
    # the negative branch stays available below the floor
    assert disk.mode_E(spec, -3, "minus", 1) > 0
    # just below the floor the plus (0, 1) root was off the exact one by 2e-3
    # to 6e-3 relative at n = 1001..4001 (h = 0.045), by up to 0.24 at
    # h = 0.04: both entry points refuse it
    spec = disk.DiskSpec(field=unit_field, h=0.045, m_range=(-3, 3),
                         rgrid=disk._shifted_grid(1.0, 501))
    with pytest.raises(ValueError, match=r"supported range .*\(h >= 0\.05\)"):
        disk.mode_E(spec, 0, "plus", 1)
    with pytest.raises(ValueError, match=r"supported range .*\(h >= 0\.05\)"):
        disk.dirac_spectrum(spec, 1)
    # at the floor the (0, 1) root is within 1e-4 of the exact one, the root of
    # M(a, 1, z) = (lam R / 2h) M(a + 1, 2, z), a = -lam^2 / 2h, z = R^2 / 2h
    # (Kummer M; 40-digit mpmath)
    exact = 4.539966408134329e-05
    sp = disk_runs[0.05]["spectrum"]
    assert sp.pos_provenance[0] == (0, 1)
    assert abs(sp.pos[0] / exact - 1.0) < 1e-4
