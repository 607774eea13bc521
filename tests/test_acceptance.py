"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 8 (monotone-error clause) and 9 probe asymptotic regimes that the
direct solver shows are not yet reached at the stated h values; they are
implemented exactly as stated and report honestly.
"""

import math
import warnings

import numpy as np
import pytest

from diracbag import constants as ck
from diracbag import disk, dispersion, effective, fiber
from diracbag.numerics import Grid1D, eig_sym_tridiag


def report(cid: str, ok: bool, detail: str) -> bool:
    print(f"[ACCEPTANCE] {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_c01_a0_value_and_grid_stability(a0res):
    base = a0res.a0
    fine = dispersion.find_a0(8001)
    ok = abs(base - 1.31236) <= 2e-3 and abs(fine.a0 - base) <= 2e-3
    assert report(
        "C01 a0",
        ok,
        f"a0={base:.6f} (|a0-1.31236|={abs(base - 1.31236):.2e}), "
        f"doubling shift {abs(fine.a0 - base):.2e}",
    )


def test_c02_whole_line_landau_levels():
    worst = 0.0
    for sign in ("plus", "minus"):
        m = fiber.whole_line_matrix(sign, 0.4, Grid1D(-20.0, 20.0, 16001))
        vals, _ = eig_sym_tridiag(m, 3)
        for k in (1, 2, 3):
            worst = max(worst, abs(vals[k - 1] - fiber.whole_line_levels(sign, k)))
    assert report("C02 Landau", worst <= 1e-4, f"max |nu_k - 2k or 2(k-1)| = {worst:.2e}")


def test_c03_dispersion_limits():
    tm = dispersion.theta("minus", 1, 8.0).theta
    tp = dispersion.theta("plus", 1, -8.0).theta
    ok = abs(tm - math.sqrt(2)) <= 0.05 and tp <= 0.05
    assert report("C03 limits", ok,
                  f"|theta-(8)-sqrt2|={abs(tm - math.sqrt(2)):.2e}, theta+(-8)={tp:.2e}")


def test_c04_derivative_identities():
    worst_a = worst_x = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for xi in (-1.0, 0.0, 1.0, 2.0):
            d_xi, d_alpha = fiber.fiber_eig_derivatives("minus", alpha, xi)
            nu, u = fiber.fiber_eigs("minus", alpha, xi, fiber.default_grid(xi))
            u0sq = u[0] ** 2
            worst_a = max(worst_a, abs(d_alpha - u0sq) / max(abs(d_alpha), u0sq))
            pred = -(nu + alpha**2 - 2 * alpha * xi) * u0sq
            worst_x = max(worst_x, abs(d_xi - pred) / max(abs(d_xi), abs(pred)))
    ok = worst_a <= 1e-3 and worst_x <= 1e-3
    assert report("C04 derivatives", ok,
                  f"max rel resid: d_alpha {worst_a:.2e}, d_xi {worst_x:.2e}")


def test_c05_momenta(a0res):
    a0, u0sq = a0res.a0, a0res.u0sq
    mom = dispersion.momenta(a0, a0)
    xi = a0
    exact = [
        u0sq / 2,
        (xi**2 - 1) / 2 + xi * u0sq / 4,
        (xi**2 - 1) * u0sq / 2,
        3 / 8 + 3 / 8 * (xi**2 - 1) ** 2 + u0sq * (5 * xi**3 - 9 * xi) / 16,
    ]
    worst = max(abs(mom[j + 1] - exact[j]) / abs(exact[j]) for j in range(4))
    assert report("C05 momenta", worst <= 1e-3, f"max rel dev M1..M4 = {worst:.2e}")


def test_c06_commutator_pairings(a0res):
    pair0, dpair, fsum = dispersion.cxi_pairings(a0res)
    ok0 = abs(pair0) <= 1e-3 * a0res.u0sq
    okd = abs(dpair + a0res.d2xi_nu / 2) <= 1e-2 * abs(a0res.d2xi_nu / 2)
    okf = abs(fsum - a0res.d2xi_nu / 12) <= 1e-2 * abs(a0res.d2xi_nu / 12)
    assert report(
        "C06 pairings", ok0 and okd and okf,
        f"<Cu,u>={pair0:.2e}, d<Cu,u> rel={abs(dpair + a0res.d2xi_nu / 2) / (a0res.d2xi_nu / 2):.2e}, "
        f"final rel={abs(fsum - a0res.d2xi_nu / 12) / (a0res.d2xi_nu / 12):.2e}",
    )


def test_c07_theta_curvature(a0res):
    d = 0.02
    th = [dispersion.theta("minus", 1, a0res.a0 + s * d).theta for s in (-1, 0, 1)]
    d2 = (th[0] - 2 * th[1] + th[2]) / d**2
    rel = abs(d2 - 2 * a0res.c0) / (2 * a0res.c0)
    assert report("C07 theta''", rel <= 1e-2,
                  f"d2 theta = {d2:.6f} vs 2c0 = {2 * a0res.c0:.6f} (rel {rel:.2e})")


def test_c08_leading_negative_order(a0res, disk_runs):
    errs = {}
    for h in (0.2, 0.1, 0.05):
        e1 = disk_runs[h]["spectrum"].neg[0] / math.sqrt(h)
        errs[h] = abs(e1 - a0res.a0)
    close = errs[0.05] <= 0.15
    decreasing = errs[0.2] > errs[0.1] > errs[0.05]
    assert report(
        "C08 e1 trend", close and decreasing,
        f"|e1-a0| = {errs[0.2]:.6f} (h=0.2) -> {errs[0.1]:.6f} (h=0.1) -> "
        f"{errs[0.05]:.6f} (h=0.05); bound 0.15 {'ok' if close else 'violated'}, "
        f"monotone decrease {'ok' if decreasing else 'violated'}",
    )


def test_c09_fine_structure_gaps(a0res, disk_runs):
    lines = []
    all_ok = True
    for h, neg in (
        (0.05, disk_runs[0.05]["spectrum"].neg),
        (0.02, _neg_at_002(a0res)),
    ):
        spec_eff = effective.EffSpec.disk(1.0, h, a0res.a0)
        eff = effective.qeff_disk(spec_eff.t_h, 1.0, 5)
        direct = np.diff(neg)[:3]
        pred = a0res.c0 * h**1.5 * np.diff(eff.values)[:3]
        ratios = direct / pred
        ok = bool(np.all(np.abs(ratios - 1.0) <= 0.25))
        all_ok = all_ok and ok
        lines.append(f"h={h}: gap ratios {np.round(ratios, 3).tolist()}")
    assert report("C09 fine structure", all_ok, "; ".join(lines))


def _neg_at_002(a0res):
    field = disk.RadialField(1.0, 1.0)
    spec = disk.DiskSpec(field=field, h=0.02, m_range=(-40, 10),
                         rgrid=disk._shifted_grid(1.0, 4001))
    vals, _ = disk._merge_modes(spec, "minus", 5)
    return vals


def test_c10_positive_asymptotics(disk_runs):
    r01 = disk_runs[0.1]["spectrum"].pos[0] * math.exp(1.0 / 0.2)
    r005 = disk_runs[0.05]["spectrum"].pos[0] * math.exp(1.0 / 0.1)
    ok = abs(r01 - 1.0) <= 0.25 and abs(r005 - 1.0) <= 0.15
    assert report("C10 lambda+ rate", ok,
                  f"lam1+ e^(1/2h) = {r01:.4f} (h=0.1, tol 25%), {r005:.4f} (h=0.05, tol 15%)")


def test_c11_hardy_upper_bound(disk_runs):
    worst = -np.inf
    for h, run in disk_runs.items():
        excess = np.max(run["spectrum"].pos - run["hardy"])
        worst = max(worst, excess)
    assert report("C11 upper bound", worst <= 1e-12,
                  f"max(lambda_k+ - nu_k) = {worst:.3e} over k <= 5, h in (0.2, 0.1, 0.05)")


def test_c12_no_zero_modes(disk_runs):
    smallest = min(
        min(run["spectrum"].pos[0], run["spectrum"].neg[0]) for run in disk_runs.values()
    )
    assert report("C12 zero gap", smallest > 1e-6, f"min |eigenvalue| = {smallest:.3e}")


def test_c13_charge_conjugation(disk_runs):
    spec = disk.DiskSpec.make(disk.RadialField(-1.0, 1.0), 0.1, n=2001)
    rev = disk.dirac_spectrum(spec, 5)
    fwd = disk_runs[0.1]["spectrum"]
    dev = max(
        float(np.max(np.abs(fwd.pos - rev.neg))),
        float(np.max(np.abs(fwd.neg - rev.pos))),
    )
    assert report("C13 conjugation", dev <= 1e-8, f"max per-entry deviation = {dev:.3e}")


def test_c14_zigzag(unit_field):
    ok_bound = True
    details = []
    a1m = {}
    for h in (0.2, 0.1):
        spec = disk.DiskSpec.make(unit_field, h, n=2001)
        plus = disk.zigzag_spectrum(spec, "plus", 1)[0]
        a1m[h] = disk.zigzag_spectrum(spec, "minus", 1)[0]
        ok_bound = ok_bound and plus >= 2 * h * (1 - 1e-3)
        details.append(f"alpha1+({h})={plus:.5f} vs 2h={2 * h}")
    ratio = a1m[0.1] / a1m[0.2]
    target = math.exp(-2.5)  # e^{2 phi_min (1/0.1 - 1/0.2)}
    ok_ratio = target / 10 <= ratio <= target * 10
    details.append(f"alpha1-(0.1)/alpha1-(0.2) = {ratio:.4f} vs e^-2.5 = {target:.4f}")
    assert report("C14 zigzag", ok_bound and ok_ratio, "; ".join(details))


def test_c15_constants_closed_forms():
    worst = 0.0
    for b0 in (1.0, 2.0):
        w = ck.BargmannWeight.isotropic(b0)
        for R in (1.0, 2.0):
            curve = ck.BoundaryCurve.circle(R)
            for k in (1, 2, 3, 4):
                dh2 = ck.hardy_distance(k, curve) ** 2
                db2 = ck.bargmann_distance(k, w) ** 2
                ckv = ck.ck_constant(k, w, curve).Ck
                worst = max(
                    worst,
                    abs(dh2 - 2 * math.pi * R ** (2 * k - 1)) / (2 * math.pi * R ** (2 * k - 1)),
                    abs(db2 - 2 * math.pi * 2 ** (k - 1) * math.factorial(k - 1) / b0**k)
                    / (2 * math.pi * 2 ** (k - 1) * math.factorial(k - 1) / b0**k),
                    abs(ckv - b0**k / math.factorial(k - 1) * (R**2 / 2) ** (k - 1) * R)
                    / (b0**k / math.factorial(k - 1) * (R**2 / 2) ** (k - 1) * R),
                )
    assert report("C15 constants", worst <= 1e-6, f"max rel dev = {worst:.2e}")


def test_c16_effective_operator():
    spec = effective.EffSpec.disk(1.0, 0.1, 1.3132547)
    base = effective.qeff_general(spec, 4).values
    shifted = effective.EffSpec.disk(1.0, 0.1, 1.3132547)
    shifted.t_h = spec.t_h + 2 * math.pi / spec.L
    dev_gauge = float(np.max(np.abs(effective.qeff_general(shifted, 4).values - base)))
    dev_disk = float(np.max(np.abs(base - effective.qeff_disk(spec.t_h, 1.0, 4).values)))
    half = effective.qeff_disk(0.5, 1.0, 4)
    mult = (half.values[1] - half.values[0] == 0.0) and (half.values[3] - half.values[2] == 0.0)
    ok = dev_gauge <= 1e-10 and dev_disk <= 1e-10 and mult
    assert report(
        "C16 effective", ok,
        f"gauge dev {dev_gauge:.2e}, disk-vs-Galerkin dev {dev_disk:.2e}, "
        f"half-integer pairs exact: {mult}",
    )


def test_c17_oracle_equivalence(unit_field):
    pairs = [(0.1, -3), (0.1, 4), (0.2, -5)]
    worst = 0.0
    details = []
    for h, m in pairs:
        spec = disk.DiskSpec.make(unit_field, h, n=4001)
        em = disk.mode_E(spec, -(m + 1), "minus", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            orc = disk.dirac_radial_direct(spec, m, 2, sigma=-em)
        neg = orc[orc < 0]
        rel = min(abs(v + em) / em for v in neg)
        worst = max(worst, rel)
        details.append(f"(h={h}, m={m}): rel {rel:.2e}")
    assert report("C17 oracle", worst <= 1e-4, "; ".join(details))
