"""Shared numerical kernels.

Symmetric tridiagonal eigensolves (by index, or by value window with Rayleigh
quotients), eigenvalue counts (Sturm sequences and LDL^T pivots) and the signs
and lowest eigenvalues they certify, the corner entry of a shifted inverse and
its derivative from the same pivots, bracketed bisection and safeguarded
Newton, and composite quadrature.  The LAPACK routines come from scipy's
extension module, loaded without the ``scipy.linalg`` package.  Everything
here is a pure function of its inputs; callers may fan out over parameter
grids freely.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Grid1D",
    "TridiagSym",
    "Bracket",
    "EigenConvergenceError",
    "BracketError",
    "eig_sym_tridiag",
    "eig_sym_window",
    "count_below",
    "pivot_count",
    "pivot_resolvent",
    "certified_sign",
    "certified_lowest",
    "bisect",
    "newton",
    "integrate",
]

# Default root tolerance; discretization error dominates far above it.
ROOT_TOL = 1e-10

_SIGN_GUARD = 64.0 * np.finfo(float).eps
"""Signs are first counted from LDL^T pivots at x -/+ this band per unit of
||T||_1: pttrf's pivots err from the Sturm count's by a few eps * ||T||_1."""

# eig_sym_window's stebz tolerance per unit of |lo| + |hi|, and the gap, in
# tolerances, below which values share one Rayleigh-Ritz step
_WINDOW_TOL = 1e-6
_RITZ_RUN = 1e3

# inverse iteration steps certified_lowest takes before it gives up: zigzag modes
# |m| <= 3 took at most 47 (h = 0.25 to 0.05, n = 501 and 2001, four fields)
_INVERSE_MAX_STEPS = 64

# newton's evaluations before it gives up: theta takes at most 35 (both signs, k = 1..4,
# xi in [-8, 8], n up to 4001); halving its widest bracket (~400) to 1e-10 would take ~43
_NEWTON_MAX_EVALS = 100


def _load_flapack():
    """scipy's LAPACK extension, ``scipy.linalg._flapack``, without the
    ``scipy.linalg`` package: importing that package also clones numpy for its
    array API layer (numpy.f2py, numpy.testing, numpy.ma, numpy.random), about
    0.15 s of every process's start-up, while this module needs only the
    LAPACK routines.  It is the module scipy itself uses: one already imported
    is reused, and one loaded here is registered under the same name, so a later
    ``import scipy.linalg`` reuses it.  Without the extension file in scipy's
    directory (another layout), it is imported through the package."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # a top-level spec imports nothing
    spec = None
    if scipy is not None and scipy.submodule_search_locations:
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
    if spec is None:
        return importlib.import_module(name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_lapack = _load_flapack()


class EigenConvergenceError(RuntimeError):
    """Raised when the tridiagonal eigensolver fails to converge."""

    def __init__(self, size: int, detail: str = ""):
        self.size = size
        super().__init__(f"tridiagonal eigensolve failed for size {size}: {detail}")


class BracketError(ValueError):
    """Raised when a root bracket does not enclose a sign change."""


class Grid1D(NamedTuple("Grid1D", [("x0", float), ("x1", float), ("n", int)])):
    """Uniform grid with n nodes on [x0, x1]."""

    __slots__ = ()

    def __new__(cls, x0: float, x1: float, n: int):
        if n < 3:
            raise ValueError(f"Grid1D needs n >= 3, got {n}")
        if not x1 > x0:
            raise ValueError(f"Grid1D needs x1 > x0, got [{x0}, {x1}]")
        return super().__new__(cls, x0, x1, n)

    @property
    def step(self) -> float:
        return (self.x1 - self.x0) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.n)


class TridiagSym(NamedTuple("TridiagSym", [("diag", np.ndarray), ("offdiag", np.ndarray)])):
    """Real symmetric tridiagonal matrix (diag length n, offdiag length n-1)."""

    __slots__ = ()

    def __new__(cls, diag: np.ndarray, offdiag: np.ndarray):
        d = np.asarray(diag, dtype=float)
        e = np.asarray(offdiag, dtype=float)
        if e.shape != (max(d.shape[0] - 1, 0),):
            raise ValueError(
                f"offdiag length {e.shape} incompatible with diag length {d.shape}"
            )
        return super().__new__(cls, d, e)

    @property
    def n(self) -> int:
        return self.diag.shape[0]


class Bracket(NamedTuple("Bracket", [("lo", float), ("hi", float), ("f_lo", float),
                                     ("f_hi", float)])):
    """Sign-changing interval for the dichotomy method."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, f_lo: float, f_hi: float):
        if not lo < hi:
            raise BracketError(f"need lo < hi, got [{lo}, {hi}]")
        if not f_lo * f_hi < 0.0:
            raise BracketError(
                f"no sign change on [{lo}, {hi}]: f_lo={f_lo:.3e}, f_hi={f_hi:.3e}"
            )
        return super().__new__(cls, lo, hi, f_lo, f_hi)


def _stebz(m: TridiagSym, select: int, lo: float, hi: float, il: int, iu: int, tol: float,
           vectors: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """LAPACK stebz's eigenvalues of m (select 1: in (lo, hi]; 2: indices il..iu,
    counted from 1), ascending, and with ``vectors`` stein's unit eigenvectors
    as columns (else None): the calls scipy's ``eigh_tridiagonal`` makes, whose
    block-ordered values are sorted after stein."""
    found, w, iblock, isplit, info = _lapack.dstebz(m.diag, m.offdiag, select, lo, hi, il, iu,
                                                    tol, "B" if vectors else "E")
    z = np.empty((m.n, 0))
    if vectors and found and info == 0:
        z, info = _lapack.dstein(m.diag, m.offdiag, w[:found], iblock, isplit)
    if info != 0:
        where = f"({lo}, {hi}]" if select == 1 else f"indices {il}..{iu}"
        raise EigenConvergenceError(m.n, f"stebz/stein info={info} on {where}")
    if not vectors:
        return w[:found], None
    order = np.argsort(w[:found])
    return w[order], z[:, order]


def eig_sym_tridiag(
    m: TridiagSym,
    k: int,
    vectors: bool = False,
    first: int = 0,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The k eigenvalues (ascending) of a symmetric tridiagonal matrix from
    index ``first`` on (0: the smallest).

    Values are computed by Sturm-sequence bisection (LAPACK stebz, tolerance
    0) and, when requested, eigenvectors by inverse iteration (LAPACK stein),
    with unit Euclidean norm; a LAPACK failure (non-finite entries among its
    causes) raises EigenConvergenceError.

    Returns (values, vectors_or_None); vectors are columns.
    """
    if k < 1 or first < 0 or first + k > m.n:
        raise ValueError(f"need 1 <= k, 0 <= first and first + k <= n, "
                         f"got k={k}, first={first}, n={m.n}")
    if m.n == 1:
        return m.diag.copy(), np.ones((1, 1)) if vectors else None
    return _stebz(m, 2, 0.0, 1.0, first + 1, first + k, 0.0, vectors)


def eig_sym_window(m: TridiagSym, lo: float, hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of a symmetric tridiagonal matrix with values in (lo, hi],
    ascending: (values, unit vectors as columns), both empty for an empty window.

    LAPACK stebz bisects the values only to ``_WINDOW_TOL`` * (|lo| + |hi|)
    and stein finds their vectors by inverse iteration; each value returned is
    its vector's Rayleigh quotient y^T m y, whose error is quadratic in the
    vector's.  Inverse iteration from so coarse a shift leaves the vectors of
    values fewer than ``_RITZ_RUN`` tolerances apart mixed, so each such run
    is first rotated onto its Ritz vectors (one Rayleigh-Ritz step)."""
    if not lo < hi:
        return np.empty(0), np.empty((m.n, 0))
    if m.n == 1:
        inside = lo < m.diag[0] <= hi
        return m.diag[:int(inside)].copy(), np.ones((1, int(inside)))
    tol = _WINDOW_TOL * (abs(lo) + abs(hi))
    w, z = _stebz(m, 1, lo, hi, 0, 0, tol, True)
    tz = m.diag[:, None] * z
    tz[:-1] += m.offdiag[:, None] * z[1:]
    tz[1:] += m.offdiag[:, None] * z[:-1]
    vals = np.empty(w.size)
    for run in np.split(np.arange(w.size), np.nonzero(np.diff(w) > _RITZ_RUN * tol)[0] + 1):
        vals[run], rot = np.linalg.eigh(z[:, run].T @ tz[:, run])
        z[:, run] = z[:, run] @ rot
    return vals, z


def count_below(m: TridiagSym, x: float) -> int:
    """Number of eigenvalues <= x of a symmetric tridiagonal matrix, from one
    O(n) Sturm sequence (LAPACK stebz on (-inf, x] with an infinite tolerance,
    so nothing is refined).  Exact for a matrix within a few eps * ||m||_1 of
    ``m`` (Kahan), the accuracy of ``eig_sym_tridiag``'s eigenvalues."""
    if m.n == 1:
        return int(m.diag[0] <= x)
    found, *_, info = _lapack.dstebz(m.diag, m.offdiag, 1, -math.inf, x, 0, 0, math.inf, "B")
    if info != 0:
        raise ValueError(f"Sturm count failed at x={x} (stebz info={info})")
    return int(found)


def _ldl_passes(d: np.ndarray, e: np.ndarray, cap: int, offdiag: np.ndarray) -> int:
    """min(cap >= 1, number of pivots <= 0) of the tridiagonal (d, e) = L D L^T,
    factored in place up to the pivot that reaches cap (d becomes the pivots,
    e the multipliers).  LAPACK pttrf stops at a pivot p <= 0: it is counted,
    set to -pivmin = -tiny * max(1, max offdiag^2) if |p| < pivmin (as in
    stebz), and the next pass resumes below it; cap = 1 is one pass."""
    found = 0
    while d.size > 1:
        row = _lapack.dpttrf(d, e, overwrite_d=1, overwrite_e=1)[2]
        found += row > 0
        if row == 0 or found == cap or row == d.size:
            return found
        if found == 1:
            pivmin = np.finfo(float).tiny * max(1.0, float(np.max(offdiag ** 2)))
        p = d[row - 1] if abs(d[row - 1]) >= pivmin else -pivmin
        d[row] -= e[row - 1] ** 2 / p
        e[row - 1] /= p
        d, e = d[row:], e[row:]  # views: the next pass writes into the caller's arrays
    return found + int(d[0] <= 0.0)


def pivot_count(m: TridiagSym, x: float, cap: int) -> int:
    """min(cap >= 1, ``count_below(m, x)``) from the pivots of m - x I = L D L^T
    (Sylvester's law of inertia), exact for a matrix within a few eps * ||m||_1 of m."""
    return _ldl_passes(m.diag - x, m.offdiag.copy(), cap, m.offdiag)


def pivot_resolvent(m: TridiagSym, x: float, cap: int) -> Tuple[int, float, float]:
    """(count, G, G') from one factorization m - x I = U D U^T bottom up
    (``_ldl_passes`` on the reversed rows): count as ``pivot_count``, and below
    cap G = e_1^T (m - x I)^-1 e_1, G' = dG/dx = |y|^2, y = (m - x I)^-1 e_1
    (else NaN).  Row 1 is factored last and U e_1 = e_1, so G = 1 / gamma_1,
    its pivot (Dhillon and Parlett 2004); U^T y = G e_1 gives y_1 = G, y_(i+1)
    = -u_i y_i with the multipliers u.  gamma_1 = 0 exactly is a pole: G = -inf."""
    d, u = m.diag[::-1] - x, m.offdiag[::-1].copy()
    found = _ldl_passes(d, u, cap, m.offdiag)
    if found == cap:
        return found, math.nan, math.nan
    g = 1.0 / float(d[-1]) if d[-1] != 0.0 else -math.inf
    y = np.cumprod(-u[::-1])
    return found, g, (1.0 + float(y @ y)) * g * g


def _norm1(m: TridiagSym) -> float:
    """||m||_1, the largest absolute row sum."""
    off = np.abs(m.offdiag)  # row i reaches |e_(i-1)| + |e_i|
    return float(np.max(np.abs(m.diag) + (np.append(off, 0.0) + np.append(0.0, off))))


def certified_sign(m: TridiagSym, x: float, k: int, norm: Optional[float] = None) -> float:
    """-1.0 or +1.0, the sign of lambda_k(m) - x, where counts decide it, else
    that difference, eigensolved: searches on signs and on values agree.  Every
    k counts first by ``pivot_count`` at x -/+ ``_SIGN_GUARD`` * ||m||_1, then
    by ``count_below`` at x -/+ tau = eps (||m||_1 + 2|x|).  At tol = 0 stebz
    returns the midpoint of an [a, b] with its own count < k at a and >= k at
    b, narrower than max(eps ||m||_1, pivmin, 2 eps max(|a|, |b|)) up to
    rounding; that count is ``count_below``'s, monotone in x (Demmel, Dhillon,
    Ren 1995), so if it decides at x -/+ tau, the midpoint lies on its side.
    ``norm``, when given, must be ``_norm1(m)``; otherwise it is computed."""
    if norm is None:
        norm = _norm1(m)
    tau = np.finfo(float).eps * (norm + 2.0 * abs(x))
    tiers = ((lambda t, y: pivot_count(t, y, k), _SIGN_GUARD * norm), (count_below, tau))
    for below, band in tiers:
        if below(m, x - band) >= k:
            return -1.0
        if below(m, x + band) < k:
            return 1.0
    return float(eig_sym_tridiag(m, k)[0][k - 1] - x)


def certified_lowest(m: TridiagSym, lo: float) -> Optional[float]:
    """The smallest eigenvalue of m by inverse iteration with one factorization
    m - lo I = L D L^T (LAPACK pttrf/pttrs), for a floor lo below it, or None.

    From the unit vector of ones each step solves (m - lo I) y = x and takes
    the Rayleigh quotient of y, rho = lo + x.y / y.y (no cancellation while
    m - lo I is definite), until rho stops falling.  rho is kept only when
    ``pivot_count`` finds no eigenvalue at rho - ``_SIGN_GUARD`` * ||m||_1 and
    exactly one at rho + that band; None when the factorization fails (lo is
    not below the spectrum), the iteration takes ``_INVERSE_MAX_STEPS``, or
    the counts do not certify rho (e.g. a second eigenvalue within the band)."""
    d, e, info = _lapack.dpttrf(m.diag - lo, m.offdiag)
    if info != 0:
        return None
    x = np.full(m.n, 1.0 / math.sqrt(m.n))
    rho = math.inf
    for _ in range(_INVERSE_MAX_STEPS):
        y = _lapack.dpttrs(d, e, x)[0]
        yy = float(y @ y)
        step = lo + float(x @ y) / yy
        if not step < rho:
            break
        rho, x = step, y / math.sqrt(yy)
    else:
        return None
    band = _SIGN_GUARD * _norm1(m)
    if pivot_count(m, rho - band, 1) == 0 and pivot_count(m, rho + band, 2) == 1:
        return rho
    return None


def bisect(f: Callable[[float], float], b: Bracket, tol: float = ROOT_TOL) -> float:
    """Root of f on a sign-changing bracket by plain dichotomy."""
    lo, hi = b.lo, b.hi
    f_lo = b.f_lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at rounding limit
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def newton(
    fd: Callable[[float], Tuple[float, float]], b: Bracket, tol: float = ROOT_TOL
) -> float:
    """Root of f on a sign-changing bracket by safeguarded Newton (rtsafe).

    ``fd(x)`` returns (f(x), f'(x)).  Iteration starts at the midpoint and
    never evaluates the bracket ends, so they may be poles (give ``b.f_lo``
    and ``b.f_hi`` as signed infinities); every evaluation shrinks the bracket
    to the side that keeps the sign change, and a step that would leave it
    (or a zero derivative) is replaced by the midpoint.  Stops when the step
    or the bracket is at most ``tol``, or the step is lost to rounding, and
    raises RuntimeError after ``_NEWTON_MAX_EVALS`` evaluations (a wrong
    derivative can keep every step inside while the bracket barely shrinks).
    """
    lo, hi = b.lo, b.hi
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_MAX_EVALS):
        f, df = fd(x)
        if f == 0.0:
            return x
        if (f < 0.0) == (b.f_lo < 0.0):
            lo = x
        else:
            hi = x
        nxt = x - f / df if df != 0.0 else math.nan
        if not (lo < nxt < hi or nxt == x):  # nxt == x: the step is lost to rounding
            nxt = 0.5 * (lo + hi)
            if nxt <= lo or nxt >= hi:  # interval at rounding limit
                return nxt
        if abs(nxt - x) <= tol or hi - lo <= tol:
            return nxt
        x = nxt
    raise RuntimeError(f"newton: no convergence in {_NEWTON_MAX_EVALS} evaluations on the "
                       f"bracket [{b.lo!r}, {b.hi!r}]")


def integrate(
    samples: Sequence[float],
    grid: Grid1D,
) -> float:
    """Composite quadrature of samples on a uniform grid.

    Simpson's rule when the node count is odd (even interval count),
    composite trapezoid otherwise.  The terms are summed exactly (``math.fsum``),
    so their order cannot change the bits; largest first keeps fsum fast.
    """
    y = np.asarray(samples, dtype=float)
    if y.shape != (grid.n,):
        raise ValueError(f"samples length {y.shape} != grid n {grid.n}")
    h = grid.step
    coeff = np.ones(grid.n)
    if grid.n % 2 == 1:
        coeff[1:-1:2] = 4.0
        coeff[2:-1:2] = 2.0
        terms = (h / 3.0) * coeff * y
    else:
        coeff[0] = coeff[-1] = 0.5
        terms = h * coeff * y
    return math.fsum(terms[np.argsort(-np.abs(terms))].tolist())
