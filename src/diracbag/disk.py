"""Direct Dirac spectra on a disk with a radial magnetic field.

The MIT-bag Dirac operator on a disk separates into angular modes.  With the
Coulomb gauge potential A = grad(phi)^perp and the spinor ansatz
u = f(r) e^{i m theta}, v = g(r) e^{i (m+1) theta}, the off-diagonal blocks
act radially as

    d^x u = -i e^{i(m+1)theta} (h f' - (h m / r) f + phi' f)
    d   v = -i e^{i m theta}   (h g' + (h (m+1) / r) g - phi' g)

and the wall condition v = i n u becomes g(R) = i f(R); writing g = -i ghat
makes the radial system real with ghat(R) = -f(R).

Positive eigenvalues come per mode from the unique zero of the k-th
eigenvalue ell_k(lambda) of the quadratic form

    Q_lambda(f) = int |h f' - (h m / r) f +- phi' f|^2 r dr
                  + h lambda R |f(R)|^2 - lambda^2 int |f|^2 r dr,

negative ones from the same construction with the field flipped (charge
conjugation; ``RadialField(-B, R)`` is that flipped field).  A staggered
first-order discretization of the radial system serves as an independent
oracle.  Interleaved (ghat_0, f_0, ghat_1, f_1, ...), its matrix is
tridiagonal but for one wall entry, which two elementary similarity steps
fold into the band; every off-diagonal product is then positive (else it
raises), so a diagonal similarity makes it symmetric and its spectrum real.  Its
eigenpairs nearest a shift are solved by value in windows around it that
double until enough of them pass the oracle's filters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from .numerics import (Grid1D, TridiagSym, _norm1, certified_lowest, certified_sign,
                       eig_sym_tridiag, eig_sym_window, integrate, pivot_count)

__all__ = [
    "RadialField",
    "RadialGauge",
    "DiskSpec",
    "DiracSpectrum",
    "radial_phi",
    "check_grid",
    "mode_ell",
    "mode_E",
    "dirac_spectrum",
    "hardy_nu_k",
    "zigzag_spectrum",
    "dirac_radial_direct",
]

_GAUGE_N = 16385  # nodes of the internal [0, R] gauge grid
_ROOT_REL_TOL = 1e-9  # relative width at which every disk root bisection stops
POSITIVE_H_MIN = 0.05  # below it ell_k's rounding error swamps the plus roots' lambda^2


@dataclass(frozen=True)
class RadialField:
    """Radial magnetic profile B(r) on [0, R], of one sign and not identically
    zero (isolated zeros are allowed); ``RadialField(-B, R)`` reverses it."""

    B: Union[float, Callable[[np.ndarray], np.ndarray]]
    R: float

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError(f"R must be positive, got {self.R}")

    def samples(self, r: np.ndarray) -> np.ndarray:
        if callable(self.B):
            vals = np.asarray(self.B(r), dtype=float)
        else:
            vals = np.full_like(r, float(self.B))
        # isolated zeros (e.g. B ~ r^2 at the center) are tolerated
        if not (np.all(vals >= 0.0) or np.all(vals <= 0.0)) or not np.any(vals):
            raise ValueError("field must keep one sign and not vanish on [0, R]")
        return vals


@dataclass
class RadialGauge:
    """Coulomb-gauge data: phi'' + phi'/r = B, phi(R) = 0.

    phi'(r) = (1/r) int_0^r s B(s) ds, so for B > 0 phi is subharmonic with
    its minimum ``phi_min`` at the center; ``hess`` is the Hessian scale B(0)/2
    there.  For B < 0 phi(0) is a maximum and ``hess`` is negative.
    """

    r: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    phi_min: float
    hess: float

    def phi_at(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.r, self.phi)

    def dphi_at(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.r, self.dphi)


def radial_phi(field: RadialField) -> RadialGauge:
    """Gauge potential of a radial field by cumulative quadrature."""
    grid = Grid1D(0.0, field.R, _GAUGE_N)
    r = grid.nodes()
    b = field.samples(r)
    h = grid.step
    # I(r) = int_0^r s B ds, cumulative trapezoid; phi' = I / r.
    integrand = r * b
    flux = np.concatenate(
        [[0.0], np.cumsum(0.5 * h * (integrand[1:] + integrand[:-1]))]
    )
    dphi = np.zeros_like(r)
    dphi[1:] = flux[1:] / r[1:]
    # phi(r) = -int_r^R phi'; integrate phi' once more and shift to phi(R)=0.
    anti = np.concatenate([[0.0], np.cumsum(0.5 * h * (dphi[1:] + dphi[:-1]))])
    phi = anti - anti[-1]
    hess = 0.5 * float(b[0])
    return RadialGauge(r=r, phi=phi, dphi=dphi, phi_min=float(phi[0]), hess=hess)


def _shifted_grid(R: float, n: int) -> Grid1D:
    # nodes (i + 1/2) * delta with the last node exactly at R; the origin is
    # avoided (mode-m radial functions behave like r^|m| there).
    delta = 2.0 * R / (2 * n - 1)
    return Grid1D(delta / 2.0, R, n)


@dataclass
class DiskSpec:
    """Disk problem: field, semiclassical parameter, mode window, radial grid."""

    field: RadialField
    h: float
    m_range: Tuple[int, int]  # where the solvers' mode window starts (``_lowest``, ``make``)
    rgrid: Grid1D

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"h must be positive, got {self.h}")

    @classmethod
    def make(cls, field: RadialField, h: float, n: int = 2001) -> "DiskSpec":
        """The window |m| <= ceil(|Phi| / h) + 2 on the n-node shifted grid,
        Phi = R phi'(R) the flux (B R^2 / 2 for a constant field): the modes
        whose orbit centre lies in the disk, which hold the low-lying values.
        ``check_grid`` still checks |m| <= ceil(3 R^2 / h)."""
        spec = cls(field=field, h=h, m_range=(0, 0), rgrid=_shifted_grid(field.R, n))
        m_max = math.ceil(abs(field.R * spec.gauge.dphi[-1]) / h) + 2
        spec.m_range = (-m_max, m_max)
        return spec

    @cached_property
    def gauge(self) -> RadialGauge:
        return radial_phi(self.field)

    @cached_property
    def _cells(self) -> Tuple[np.ndarray, ...]:
        """Nodes, flux midpoints, exact cell integrals of r dr, lumped masses
        and phi' at the flux midpoints; shared by every mode operator."""
        g = self.rgrid
        nodes = g.nodes()
        flux = np.arange(1, g.n) * g.step
        mass = nodes * g.step
        mass[-1] = self.field.R * g.step / 2.0 - g.step**2 / 8.0
        return nodes, flux, flux * g.step, mass, self.gauge.dphi_at(flux)

    @cached_property
    def _hardy(self) -> Tuple[Grid1D, np.ndarray, float, Dict[int, float]]:
        """The fine grid of the Hardy integrals, their weight e^{-2 phi / h}
        scaled by its maximum e^{scale} (so it never overflows), that scale,
        and the quotients integrated so far by mode (``_hardy_ratios``)."""
        fine = Grid1D(0.0, self.field.R, 8193)
        logw = -2.0 * self.gauge.phi_at(fine.nodes()) / self.h
        scale = float(np.max(logw))
        return fine, np.exp(logw - scale), scale, {}


@dataclass
class DiracSpectrum:
    """Signed disk Dirac spectrum; ``neg`` holds |negative eigenvalues|."""

    pos: np.ndarray
    neg: np.ndarray
    pos_provenance: List[Tuple[int, int]]  # (mode, k) per entry
    neg_provenance: List[Tuple[int, int]]


class _ModeOperator:
    """lambda-independent pieces of the mode-m quadratic form Q_lambda.

    The branch name fixes s = +1 (plus) or -1 (minus) in W = -h m / r + s phi';
    phi' carries the field's sign.  Inner closure: the zero-flux solution of
    h f' + W f = 0 is r^m e^{-s phi/h}, regular at the origin exactly when
    m >= 0; those modes keep the free (natural) end of the shifted grid so
    the state stays exactly representable (this is what makes the discrete
    roots respect their Hardy bounds).  For m < 0 the solution is singular
    yet grid normalizable, so the inner end is closed with a Dirichlet node.
    On top of that, the leading cells where |W| exceeds the mesh-Peclet bound
    h/step are dropped entirely (the physical states are r^|m|-small there,
    so the cut is far below the discretization error).
    """

    def __init__(self, spec: DiskSpec, m: int, field_sign: str):
        self.m, self.field_sign = m, field_sign
        if field_sign not in ("plus", "minus"):
            raise ValueError(f"field_sign must be 'plus' or 'minus', got {field_sign!r}")
        n, delta, h = spec.rgrid.n, spec.rgrid.step, spec.h
        _, flux, c, mass, dphi = spec._cells
        s = 1.0 if field_sign == "plus" else -1.0
        w = -h * m / flux + s * dphi

        bad = np.abs(w) > h / delta
        j0 = int(np.nonzero(bad)[0].max()) + 1 if np.any(bad) else 0
        if j0 > n - 8:
            raise ValueError(
                f"mode m={m} unresolvable on this grid (centrifugal cut at {j0}/{n})"
            )
        w = w[j0:]
        c = c[j0:]
        a = 0.5 * w - h / delta
        b = 0.5 * w + h / delta

        mass = mass[j0:]
        kd = np.zeros(mass.size)
        kd[:-1] += c * a * a
        kd[1:] += c * b * b
        ko = c * a * b
        self.first = j0 + 1 if m < 0 else j0  # node index of the first unknown
        if m < 0:  # node j0 is the ghost zero; unknowns start at node j0 + 1
            kd, ko, mass = kd[1:], ko[1:], mass[1:]

        self.h = h
        self.R = spec.field.R
        self.diag = kd / mass
        self.wall = kd[-1], mass[-1]  # lambda enters only the last row
        sqrt_mass = np.sqrt(mass)
        self.off = ko / (sqrt_mass[:-1] * sqrt_mass[1:])

    def matrix(self, lam: float) -> TridiagSym:
        """Q_lambda relative to the L2 norm (without the -lambda^2 shift)."""
        diag = self.diag.copy()
        kd, mass = self.wall
        diag[-1] = (kd + self.h * lam * self.R) / mass
        return TridiagSym(diag, self.off)

    @cached_property
    def rest(self) -> float:
        """||Q_0||_1; only the wall row depends on lambda, and it grows with it."""
        return _norm1(self.matrix(0.0))

    def ell_sign(self, lam: float, k: int) -> float:
        """Sign of ell_k(lambda), or its eigensolved value (``certified_sign``)."""
        t = self.matrix(lam)  # max is exact: the norm is _norm1(t), bit for bit
        return certified_sign(t, lam * lam, k, max(self.rest, abs(t.diag[-1]) + abs(self.off[-1])))


def check_grid(spec: DiskSpec) -> None:
    """Raise ValueError unless the radial grid resolves every mode |m| <=
    ceil(3 R^2 / h) on both branches; the end modes carry the largest
    centrifugal term."""
    m_max = math.ceil(3.0 * spec.field.R**2 / spec.h)
    for m in (-m_max, m_max):
        for field_sign in ("plus", "minus"):
            _ModeOperator(spec, m, field_sign)


def mode_ell(spec: DiskSpec, m: int, field_sign: str, lam: float, k: int) -> np.ndarray:
    """ell_1(lambda)..ell_k(lambda) for angular mode m."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return eig_sym_tridiag(_ModeOperator(spec, m, field_sign).matrix(lam), k)[0] - lam * lam


def _bisect_ell(op: _ModeOperator, k: int, lo: float, hi: float) -> float:
    """Dichotomy on ell_k with geometric bracket expansion, to ``_ROOT_REL_TOL``.

    ell_k is positive below its unique zero and negative above it (the
    discrete form satisfies the same second-order structure in lambda as the
    continuum one), so plain sign bisection applies.  Signs are eigensolved
    only within stebz's stopping width of ell_k = 0, where counts cannot
    decide them (``numerics.certified_sign``): the root is that of eigensolving every step.
    """
    where = f"mode m={op.m}, {op.field_sign} branch, k={k}, last lambda"
    f_lo = op.ell_sign(lo, k)
    f_hi = op.ell_sign(hi, k)
    grow = 0
    while f_lo <= 0.0:
        lo *= 0.25
        f_lo = op.ell_sign(lo, k)
        grow += 1
        if grow > 60:
            raise RuntimeError(f"no positive lower bracket for ell_k ({where}={lo:.6g})")
    grow = 0
    while f_hi >= 0.0:
        hi *= 2.0
        f_hi = op.ell_sign(hi, k)
        grow += 1
        if grow > 60:
            raise RuntimeError(f"no negative upper bracket for ell_k ({where}={hi:.6g})")
    while hi - lo > _ROOT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        f_mid = op.ell_sign(mid, k)
        if f_mid == 0.0:
            return mid
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _hardy_ratios(spec: DiskSpec, ms: Sequence[int]) -> np.ndarray:
    """Boundary-to-bulk quotients h R^{2m+1} / int r^{2m+1} e^{-2 phi / h} dr
    of the weighted holomorphic modes r^m e^{-phi/h}, one per m >= 0 in ``ms``;
    each bounds E_1^{(m)} on the plus branch from above.  On [0, R] the factor
    (r/R)^{2m+1} falls with m under a positive weight, so the quotients rise
    with m.  Each is integrated once per spec (``DiskSpec._hardy``)."""
    fine, weight, scale, ratios = spec._hardy
    for m in ms:
        if m not in ratios:
            x = fine.nodes() / spec.field.R
            ratios[m] = spec.h * math.exp(-scale) / integrate(x ** (2 * m + 1) * weight, fine)
    return np.array([ratios[m] for m in ms])


def _bracket_for(spec: DiskSpec, m: int, field_sign: str, k: int) -> Tuple[float, float]:
    """Initial dichotomy bracket for the k-th root of mode m.

    Minus branch roots live on the sqrt(h) scale.  Plus-branch ground roots
    of the holomorphic modes (m >= 0) are exponentially small; their Hardy
    quotient bounds them above and fixes the scale of the bracket, keeping
    the lower end clear of the eigensolver noise floor.  For B < 0 the
    exponentially small roots are the minus branch's, and the h floor
    follows them (the brackets still follow the branch name).
    """
    h = spec.h
    small = "plus" if spec.gauge.phi_min < 0.0 else "minus"  # phi(0) < 0 exactly for B > 0
    if field_sign == small and h < POSITIVE_H_MIN:
        raise ValueError(
            f"h={h} below the supported range for the exponentially small "
            f"{field_sign}-branch roots (h >= {POSITIVE_H_MIN}): there lambda^2 sinks "
            f"under the rounding error of ell_k, a few eps * ||Q_lambda||_1, which "
            f"grows like n^2"
        )
    if field_sign == "minus":
        return 0.5 * math.sqrt(h), 1.5 * math.sqrt(h)
    hi = 2.0 * math.sqrt(2.0 * h)
    if k == 1 and m >= 0:
        ratio = float(_hardy_ratios(spec, [m])[0])
        if ratio < 0.5 * math.sqrt(h):
            return 0.25 * ratio, hi
        return 1e-9, max(hi, 2.0 * ratio)
    return 1e-9, hi


def mode_E(spec: DiskSpec, m: int, field_sign: str, k: int = 1) -> float:
    """Unique positive zero E_k of ell_k(lambda) for angular mode m."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    op = _ModeOperator(spec, m, field_sign)
    lo, hi = _bracket_for(spec, m, field_sign, k)
    return _bisect_ell(op, k, lo, hi)


def _screen(count_at: Callable[[int, float], int], modes: int, count: int,
            lo: float, hi: float, steps: int) -> List[int]:
    """Per-mode root counts at x (1 + 1e-3), x holding ``count`` roots in all:
    hi doubles until it does, then ``steps`` bisections (geometric while lo > 0)
    lower it.  ``count_at(i, y)``, mode i's roots below y, never grows as y
    falls, so a probe counts only the modes holding a root at the last accepted
    probe, and the final count those at the smallest accepted probe above it."""
    def at(y: float, prev: List[int]) -> List[int]:  # modes without a root in prev count 0
        return [count_at(i, y) if held else 0 for i, held in enumerate(prev)]

    every = [1] * modes
    for _ in range(60):
        got = at(hi, every)
        if sum(got) >= count:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise RuntimeError(f"fewer than {count} roots below {hi:.6g}")
    accepted = [(hi, got)]
    for _ in range(steps):
        mid = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        got = at(mid, accepted[-1][1])
        if sum(got) >= count:
            hi = mid
            accepted.append((mid, got))
        else:
            lo = mid
    top = hi * (1.0 + 1e-3)
    return at(top, next((got for y, got in reversed(accepted) if y >= top), every))


def _lowest(spec: DiskSpec, count: int, build: Callable, below: Callable, values: Callable,
            lo: float, hi: float) -> List[Tuple[float, int, int]]:
    """The ``count`` smallest (value, m, k), sorted, over the angular modes
    from the window ``spec.m_range`` on.  ``build(m)`` makes mode m's operator
    (ValueError if the grid cannot resolve it), ``below(op, y)`` counts its
    values below y, capped at ``count``, and ``values(op, j)`` gives its j
    smallest, ascending; ``_screen`` from [lo, hi] says how many each
    mode holds.  While an end mode holds a screened value the window widens,
    span -> 1.5 span + 2, reusing the operators built; only then is each
    held mode's ``values`` called, once."""
    ops = {}
    m_lo, m_hi = spec.m_range
    while True:
        ms = range(m_lo, m_hi + 1)
        ops.update((m, build(m)) for m in ms if m not in ops)
        held = _screen(lambda i, y: below(ops[ms[i]], y), len(ms), count, lo, hi, 8)
        if not (held[0] or held[-1]):
            return sorted((v, m, k) for m, j in zip(ms, held) if j
                          for k, v in enumerate(values(ops[m], j), 1))[:count]
        span = max(abs(m_lo), abs(m_hi))
        m_lo, m_hi = -int(1.5 * span) - 2, int(1.5 * span) + 2


def _merge_modes(
    spec: DiskSpec, field_sign: str, count: int
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """The ``count`` smallest roots E_k^{(m)} over the modes (``_lowest``).

    ell_k(lambda) < 0 exactly when Q_lambda has at least k eigenvalues below
    lambda^2, so one count from the LDL^T pivots of Q_lambda - lambda^2
    (``pivot_count``, capped at ``count``: no mode holds more selected roots)
    per mode gives that mode's number of roots below lambda; the screen
    recounts only modes still holding one.  Every (m, k) it counts is bisected
    as in ``mode_E``.  Count and eigensolve part within stebz's stopping width
    in ell_k, which moved roots by up to 2.4e-4 relative (plus-branch ground
    root, h = 0.05, n = 2001) and under 1e-7 for m >= 2: the screen's 1e-3
    margin costs a few bisections at most and can never drop a selected root.
    """
    # the branch's generic root scale (k > 1 needs no Hardy quotient); it
    # also enforces the h floor of the exponentially small branch
    lo, hi = _bracket_for(spec, spec.m_range[0], field_sign, 2)
    selected = _lowest(spec, count, lambda m: _ModeOperator(spec, m, field_sign),
                       lambda op, lam: pivot_count(op.matrix(lam), lam * lam, count),
                       lambda op, j: [_bisect_ell(op, k, *_bracket_for(spec, op.m, field_sign, k))
                                      for k in range(1, j + 1)], lo, hi)
    return np.array([v for v, _, _ in selected]), [(m, k) for _, m, k in selected]


def dirac_spectrum(spec: DiskSpec, count: int) -> DiracSpectrum:
    """First ``count`` positive and negative disk Dirac eigenvalues.

    Negative eigenvalues are the positive zeros of the charge-conjugate
    (field-flipped) problem and are stored with positive sign; the reversed
    field ``RadialField(-B, R)`` swaps ``pos`` and ``neg``.  The exponentially
    small side needs h >= ``POSITIVE_H_MIN`` for either sign.  The mode window
    starts at ``spec.m_range`` and widens as needed (``_lowest``).
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    pos, pos_prov = _merge_modes(spec, "plus", count)
    neg, neg_prov = _merge_modes(spec, "minus", count)
    return DiracSpectrum(pos=pos, neg=neg, pos_provenance=pos_prov, neg_provenance=neg_prov)


def hardy_nu_k(spec: DiskSpec, kmax: int) -> np.ndarray:
    """Hardy-quotient upper bounds nu_1(h) <= ... <= nu_kmax(h).

    Per angular mode n >= 0 the quotient of the weighted holomorphic state
    r^n e^{-phi/h} is

        r_n = h R^{2n+1} / int_0^R r^{2n+1} e^{-2 phi(r)/h} dr ;

    the weight is scaled by its maximum so it never overflows.  The quotients
    rise with n, so the first kmax modes give the kmax smallest.
    """
    if kmax < 1:
        raise ValueError(f"need kmax >= 1, got {kmax}")
    return _hardy_ratios(spec, range(kmax))


def zigzag_spectrum(spec: DiskSpec, branch: str, count: int) -> np.ndarray:
    """Zigzag (Pauli-Dirichlet) eigenvalues alpha_k^{+-}(h).

    Radial Dirichlet problem per mode m:
        h^2 (-f'' - f'/r + (m/r - A/h)^2 f) +- h B f,  f(R) = 0,
    with A = phi'.  The minus branch is the plus-field form Q_lambda of
    ``_ModeOperator`` without its wall row and column (f(R) = 0): a sum of
    squares, so >= 0.  The plus branch adds 2 h B at the operator's nodes.
    For B > 0 it is bounded below by 2 b0 h and the minus branch is
    exponentially small in 1/h; a reversed field swaps the two.  The mode
    window starts at ``spec.m_range`` and widens as needed (``_lowest``).
    """
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    bvals = spec.field.samples(spec._cells[0])

    def build(m: int) -> TridiagSym:
        op = _ModeOperator(spec, m, "plus")
        diag = op.diag[:-1]
        if branch == "plus":
            diag = diag + 2.0 * spec.h * bvals[op.first:-1]
        return TridiagSym(diag, op.off[:-1])

    # only modes with a value below a threshold holding ``count`` values can
    # contribute; the screen doubles and bisects that threshold from the
    # branch's floor (the plus form is the minus one, >= 0, plus diag(2 h B)),
    # and each value a mode holds is solved on its own from the mode and the
    # floor, so no value depends on the screen
    lo = 2.0 * spec.h * max(float(np.min(bvals)), 0.0) if branch == "plus" else 0.0

    def values(t: TridiagSym, j: int) -> List[float]:
        # a mode's first value by inverse iteration from the floor where pivot
        # counts certify it, every other one eigensolved from its index
        first = certified_lowest(t, lo)
        return [first if k == 0 and first is not None else eig_sym_tridiag(t, 1, first=k)[0][0]
                for k in range(j)]

    selected = _lowest(spec, count, build, lambda t, x: pivot_count(t, x, count), values,
                       lo, lo + spec.h * float(np.max(np.abs(bvals))))
    return np.array([v for v, _, _ in selected])


def _staggered_bands(spec: DiskSpec, m: int
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The staggered radial system of ``dirac_radial_direct`` in the interleaved
    order (ghat_0, f_0, ghat_1, f_1, ...): the f and ghat nodes the centrifugal
    cut keeps, then the matrix's diagonal, super- and sub-diagonal and its one
    entry outside the band, the wall row's coupling to ghat_{nf-2}."""
    N, R, h = spec.rgrid.n, spec.field.R, spec.h
    delta = R / N
    edges = np.arange(1, N + 1) * delta
    centers = (np.arange(1, N + 1) - 0.5) * delta
    w_c = -h * m / centers + spec.gauge.dphi_at(centers)  # h f' + w f  at centers
    u_e = h * (m + 1) / edges - spec.gauge.dphi_at(edges)  # -h g' - u g  at edges

    # centrifugal cut, as in the second-order route: drop the leading cells
    # where the averaged coupling would violate the mesh-Peclet bound
    bad = (np.abs(w_c) > h / delta) | (np.abs(u_e) > h / delta)
    cut = int(np.nonzero(bad)[0].max()) + 1 if np.any(bad) else 0
    if cut > N - 8:
        raise ValueError(f"mode m={m} unresolvable on this grid (cut at {cut}/{N})")
    nf = N - cut  # f unknowns: edges cut+1..N, ghat unknowns: centers cut+1..N

    wc, ue = w_c[cut:], u_e[cut:N - 1]
    sup, sub = np.empty(2 * nf - 1), np.empty(2 * nf - 1)
    # each ghat equation (center t, row 2t) couples f_{t-1} and f_t; at m = 0
    # without a cut the regularity closure f(0) ~ f(delta) adds its f_{-1} to f_0
    sup[0::2] = h / delta + 0.5 * wc
    sub[1::2] = -h / delta + 0.5 * wc[1:]
    if m == 0 and cut == 0:
        sup[0] += -h / delta + 0.5 * wc[0]
    # each interior f equation (edge t, row 2t + 1) couples ghat_t and ghat_{t+1}
    sup[1::2] = -h / delta - 0.5 * ue
    sub[0:-1:2] = h / delta - 0.5 * ue
    # f equation at the wall edge, using ghat(R) = -f(R) in a one-sided
    # second-order closure of ghat'(R)
    w0, w1, w2 = 8.0 / (3.0 * delta), -3.0 / delta, 1.0 / (3.0 * delta)
    diag = np.zeros(2 * nf)
    diag[-1] = h * w0 + u_e[N - 1]
    sub[-1] = -h * w1
    return edges[cut:], centers[cut:], diag, sup, sub, -h * w2


def _symmetric_form(m: int, diag: np.ndarray, sup: np.ndarray, sub: np.ndarray, corner: float
                    ) -> Tuple[TridiagSym, float, float, np.ndarray]:
    """T = S E2 E1 A E1^-1 E2^-1 S^-1 for A = ``_staggered_bands``, which it
    overwrites; returns T, mu, nu and 1/s up to a factor (at most 1), so that
    an eigenvector y of T gives x = E1^-1 E2^-1 S^-1 y of A.

    With L the wall row, E1 = I - mu e_L e_{L-2}^T clears the corner A[L, L-3]
    and E2 = I - nu e_L e_{L-1}^T the entry E1 puts at (L, L-2); the
    tridiagonal left is diagonally similar to a symmetric one, s_{i+1} / s_i =
    sqrt(sup_i / sub_i), when every product sup_i sub_i is positive
    (Wilkinson 1965)."""
    L = diag.size - 1
    mu = corner / sub[L - 3]
    sub[L - 1] -= mu * sup[L - 2]
    sub[L - 2] += mu * sup[L - 1]
    nu = mu * diag[L] / sub[L - 2]
    diag[L] -= nu * sup[L - 1]
    diag[L - 1] += nu * sup[L - 1]
    sub[L - 1] += nu * diag[L]
    prod = sup * sub
    if not np.all(prod > 0.0):
        i = int(np.argmin(prod > 0.0))
        raise ValueError(f"mode m={m}: the staggered system is not similar to a symmetric "
                         f"tridiagonal (off-diagonal product {prod[i]:.3g} at row {i})")
    log_s = np.append(0.0, np.cumsum(0.5 * np.log(sup / sub)))
    return TridiagSym(diag, np.copysign(np.sqrt(prod), sup)), mu, nu, np.exp(log_s.min() - log_s)


def dirac_radial_direct(spec: DiskSpec, m: int, count: int, sigma: float = 0.0) -> np.ndarray:
    """Signed eigenvalues of the first-order radial system (oracle).

    Staggered grid: f on edges j*delta (j = 1..N, the last exactly at R),
    ghat on centers (j - 1/2)*delta.  The wall condition ghat(R) = -f(R)
    enters through a one-sided second-order closure of ghat'(R).  In the
    order (ghat_0, f_0, ghat_1, f_1, ...) the matrix is tridiagonal but for
    one wall entry; two elementary similarity steps fold that entry into the
    band and a diagonal one makes it symmetric (``_symmetric_form``), so the
    spectrum is real.

    Returns the 2*count eigenvalues closest to the shift ``sigma`` that pass
    the oscillation and origin filters, ascending.  The eigenpairs are solved
    by value (``eig_sym_window``) in (sigma - r, sigma + r], r = sqrt(h)
    first; while fewer than 2*count pass, r doubles and only the two new
    annuli are solved, until the window holds the whole spectrum (r >=
    ||T||_1 + |sigma|).  Every eigenvalue within r has then been examined,
    so no value outside it can be nearer sigma than those kept.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    r_f, r_g, *bands = _staggered_bands(spec, m)
    t, mu, nu, inv_s = _symmetric_form(m, *bands)
    R = spec.field.R
    r_inner = max(8.0 * (R / spec.rgrid.n), 0.02 * R)
    keep = []

    def passes(lam: float, y: np.ndarray) -> bool:
        x = y * inv_s
        x[-1] += nu * x[-2] + mu * x[-3]
        g_part, f_part = x[0::2], x[1::2]
        ref = np.max(np.abs(f_part))
        if ref > 0:
            sig = f_part[np.abs(f_part) > 1e-8 * ref]
            if sig.size > 3:
                flips = np.mean(sig[1:] * sig[:-1] < 0.0)
                if flips > 0.6:
                    warnings.warn(f"filtered oscillatory mode at lambda={lam:.6g} (m={m})")
                    return False
        # the grid normalizes the continuum-inadmissible singular solutions
        # (~ r^{-|m|} or r^{-|m+1|}); they sit entirely at the inner cut
        total = np.sum(r_f * f_part**2) + np.sum(r_g * g_part**2)
        inner = (
            np.sum(r_f[r_f < r_inner] * f_part[r_f < r_inner] ** 2)
            + np.sum(r_g[r_g < r_inner] * g_part[r_g < r_inner] ** 2)
        )
        if inner > 0.5 * total:
            warnings.warn(f"filtered origin-concentrated mode at lambda={lam:.6g} (m={m})")
            return False
        return True

    def solve(lo: float, hi: float) -> None:
        vals, vecs = eig_sym_window(t, lo, hi)
        keep.extend(float(lam) for lam, y in zip(vals, vecs.T) if passes(lam, y))

    r, top = math.sqrt(spec.h), _norm1(t) + abs(sigma)
    solve(sigma - r, sigma + r)
    while len(keep) < 2 * count and r < top:
        solve(sigma - 2.0 * r, sigma - r)
        solve(sigma + r, sigma + 2.0 * r)
        r *= 2.0
    keep.sort(key=lambda x: abs(x - sigma))
    return np.array(sorted(keep[:2 * count]))
