"""Dispersion curves, the gap constant a0 and related spectral identities.

The first negative dispersion curve of the half-plane problem has a unique
minimum; its location and value define the universal constant a0 (the
half-plane gap in units of sqrt(B)) together with the derived coupling
constant c0 that scales the boundary fine structure.  The module also
carries the moment and commutator-pairing identities that cross-check the
curvature coefficients, the gap constant c_gamma of a boundary coefficient
gamma, the rate Lambda(a) and the interior-well coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import fiber
from .numerics import (ROOT_TOL, Bracket, Grid1D, bisect, certified_sign, integrate, newton,
                       pivot_resolvent)

__all__ = [
    "ThetaPoint",
    "A0Result",
    "CXI_SIGN_CONVENTION",
    "theta",
    "nu_of_alpha",
    "find_a0",
    "momenta",
    "cxi_pairings",
    "lambda_cap",
    "c_gamma",
    "interior_c0",
]

# The commutator operator C_xi is implemented with the "-xi" inner sign,
# C_xi = 2(tau*M - xi - d/dtau + tau^2(xi - tau)); the opposite printed sign
# fails the <C u, u> = 0 closure, which the pairing test enforces.
CXI_SIGN_CONVENTION = "minus-xi"

A0_REFERENCE = 1.31236  # reported value of the gap constant
A0_EXACT = 1.31325405648101839  # continuum a0: D'_p(-sqrt(2) a0) = 0, p = a0^2 / 2 - 1

_XI_SCAN_STEP = 0.25
_ALPHA_EPS = 1e-8


@dataclass(frozen=True)
class ThetaPoint:
    """One point of a Dirac dispersion curve: nu_k^{sign}(theta, xi) = theta^2."""

    sign: str
    k: int
    xi: float
    theta: float


@dataclass(frozen=True)
class A0Result:
    """The gap constant and the quantities derived from it (d2xi_nu = 2 a0 u0sq)."""

    a0: float
    u0sq: float
    d2xi_nu: float
    c0: float
    grid_n: int


def theta(sign: str, k: int, xi: float, n: int = fiber.DEFAULT_N) -> ThetaPoint:
    """Dispersion-curve point: the unique alpha > 0 with nu_k(alpha, xi) = alpha^2.

    alpha enters the fiber matrix only as the rank-one term (2 alpha / step)
    e_1 e_1^T on the alpha-free A_xi, so nu_k(alpha) is the root between the
    eigenvalues lambda_k < lambda_{k+1} of A_xi of the secular equation
    1 + (2 alpha / step) G(nu) = 0, G(s) = e_1^T (A_xi - s)^{-1} e_1 (Golub
    1973).  So theta is the root of H(alpha) = step / (2 alpha) + G(alpha^2),
    H' = -step / (2 alpha^2) + 2 alpha G'(alpha^2), and nu_k > alpha^2
    exactly where alpha^2 < lambda_k, or where alpha^2 is in [lambda_k,
    lambda_{k+1}) and H < 0.  Nothing is eigensolved or solved: one LDL^T
    pass per alpha (``pivot_resolvent``, capped at k + 1) counts the
    eigenvalues <= alpha^2, which gives the sign off (sqrt(lambda_k),
    sqrt(lambda_{k+1})), and on it G and G' come from the same pivots.  The
    count is exact for a matrix within a few eps * ||A_xi||_1 of A_xi, the
    error of stebz's lambda_k.  The lower end steps up by 10x from 1e-8
    until nu_k > alpha^2 (a root below that resolution floor is returned as
    theta = 0.0), the upper end doubles from sqrt(2k) + 1, and safeguarded
    Newton, which bisects where the derivative is 0, runs between.
    """
    if not 1 <= k <= n - 2:  # A_xi has n - 1 rows; the bracket needs lambda_{k+1}
        raise ValueError(f"need 1 <= k <= n - 2, got k={k}, n={n}")
    grid = fiber.default_grid(xi, n)
    a_xi = fiber.half_line_matrix(sign, xi, grid)
    half_step = 0.5 * grid.step

    def hd(alpha: float) -> Tuple[float, float]:
        poles, g, dg = pivot_resolvent(a_xi, alpha * alpha, k + 1)
        if poles != k:  # outside (sqrt(lambda_k), sqrt(lambda_{k+1})): the sign only
            return (-1.0 if poles < k else 1.0), 0.0
        return half_step / alpha + g, -half_step / alpha**2 + 2.0 * alpha * dg

    # the lower end clears the O(step^2) floor of nu_k: near a zero mode the
    # discrete nu dips a few 1e-6 below zero, a fake sign change at alpha ~ 0
    lo, hi = _ALPHA_EPS, math.sqrt(2.0 * k) + 1.0
    while hd(lo)[0] >= 0.0:
        if lo >= 0.3 * hi:  # the first plus curve deep in its flat tail
            return ThetaPoint(sign=sign, k=k, xi=xi, theta=0.0)
        lo *= 10.0
    for _ in range(64):  # ends once alpha^2 > ||A_xi||_1 >= lambda_{k+1}
        if hd(hi)[0] > 0.0:
            root = newton(hd, Bracket(lo, hi, -1.0, 1.0))
            return ThetaPoint(sign=sign, k=k, xi=xi, theta=float(root))
        hi *= 2.0
    raise RuntimeError(f"theta_{k}^{sign}({xi}) lies above alpha = {hi:.3g}; no bracket")


def _truncation(alpha: float) -> float:
    """One fiber truncation per alpha, shared by every xi the searches visit
    (up to x1 - TAIL_PAD >= alpha + 6).  A fixed grid step keeps the domain's
    xi-dependence out of the root functions, which for large alpha resolve a
    minimum only ~1e-5 deep."""
    return max(fiber.MIN_LENGTH, alpha + 6.0 + fiber.TAIL_PAD)


def _first_sign_change(f: Callable[[float], float], lo: float, f_lo: float, step: float,
                       beyond: Callable[[float], bool], message: str, tol: float) -> float:
    """Bisect, to ``tol``, the first cell of lo, lo + step, ... where f (> 0
    at lo, given as f_lo) turns <= 0; RuntimeError(message) once a visited
    point is ``beyond`` the search."""
    hi, f_hi = lo + step, f(lo + step)
    while f_hi > 0.0:
        if beyond(hi):
            raise RuntimeError(message)
        lo, f_lo = hi, f_hi
        hi += step
        f_hi = f(hi)
    return bisect(f, Bracket(lo, hi, f_lo, f_hi), tol)


def nu_of_alpha(alpha: float, n: int = fiber.DEFAULT_N) -> Tuple[float, float, float]:
    """(nu(alpha), xi_alpha, u^2(0)) for the half-plane ground energy.

    nu(alpha) = min over xi of nu_1^-(alpha, xi).  By Hellmann-Feynman,
    d_xi nu_1^- = -(nu_1^- + alpha^2 - 2 alpha xi) u(0)^2, so the minimizer
    xi_alpha is the first sign change of g(xi) = nu_1^- + alpha^2 - 2 alpha xi
    (later ones sit at a local maximum or in the flat tail).  g is stepped by
    1/4 from the last multiple of 1/4 at or below alpha / 2 (g >= nu_1^- > 0
    up to there) to (2 + alpha^2) / (2 alpha), the bound nu < 2 gives, or the
    end of the truncation; the first sign-changing cell is bisected on signs
    of g, eigensolved only where eigenvalue counts cannot decide (``certified_sign``).
    At small alpha g dips only ~alpha / 3 below zero; below the grid's error
    (alpha < ~0.03 at n = 1001, ~0.002 at n = 4001) RuntimeError is raised.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    x1 = _truncation(alpha)
    grid = Grid1D(0.0, x1, n)

    def g(xi: float) -> float:
        t = fiber.half_line_matrix("minus", xi, grid, alpha)
        return certified_sign(t, 2.0 * alpha * xi - alpha * alpha, 1)

    xi_max = min((2.0 + alpha * alpha) / (2.0 * alpha), x1 - fiber.TAIL_PAD)
    xi_a = _first_sign_change(
        g, _XI_SCAN_STEP * math.floor(0.5 * alpha / _XI_SCAN_STEP), 1.0, _XI_SCAN_STEP,
        lambda xi: xi > xi_max,
        f"no critical point of nu_1^-({alpha}, .) below xi = {xi_max:.6g} "
        f"at n = {n}; the grid does not resolve the minimum, increase n", ROOT_TOL)
    nu, u = fiber.fiber_eigs("minus", alpha, xi_a, grid)
    return nu, xi_a, float(u[0]) ** 2


def find_a0(n: int = fiber.DEFAULT_N) -> A0Result:
    """The unique positive solution of nu(alpha) = alpha^2, with derived data.

    a0 = c_gamma(1) to 1e-8, the root of nu_1^-(a, a) = a^2 on certified
    signs, comes with u^2(0) at (a0, a0), the coupling constant c0 = a0 u^2(0)
    / (2 a0 - u^2(0)) and the second xi-derivative of nu_1^- there, 2 a0 u^2(0): the
    derivative of d_xi nu_1^- = -(nu_1^- + alpha^2 - 2 alpha xi) u(0)^2 where
    d_xi nu_1^- and nu_1^- + alpha^2 - 2 alpha xi vanish.
    """
    a0 = c_gamma(1.0, n, 1e-8)
    _, u = fiber.fiber_eigs("minus", a0, a0, Grid1D(0.0, _truncation(a0), n))
    u0sq = float(u[0]) ** 2
    c0 = a0 * u0sq / (2.0 * a0 - u0sq)
    return A0Result(a0=a0, u0sq=u0sq, d2xi_nu=2.0 * a0 * u0sq, c0=c0, grid_n=n)


def _ground_state(alpha: float, xi: float, n: int):
    """Ground eigenpair of the minus fiber with sampled derivative."""
    g = fiber.default_grid(xi, n)
    nu, u = fiber.fiber_eigs("minus", alpha, xi, g)
    du = np.gradient(u, g.step, edge_order=2)
    du[0] = (alpha - xi) * u[0]  # Robin relation, exact at the wall
    return g, g.nodes(), u, du, nu


def momenta(alpha: float, xi: float, n: int = fiber.DEFAULT_N) -> np.ndarray:
    """Moments M_j = int (xi - tau)^j u^2 dtau, j = 0..4, of the normalized
    ground state."""
    g, tau, u, _, _ = _ground_state(alpha, xi, n)
    return np.array([integrate((xi - tau) ** j * u**2, g) for j in range(5)])


def _cxi_apply(tau: np.ndarray, u: np.ndarray, du: np.ndarray, nu: float, xi: float) -> np.ndarray:
    # C_xi u = 2(tau M u - xi u - u' + tau^2 (xi - tau) u), with M u = nu u.
    return 2.0 * (tau * nu * u - xi * u - du + tau**2 * (xi - tau) * u)


def _cxi_pair(alpha: float, xi: float, n: int) -> float:
    g, tau, u, du, nu = _ground_state(alpha, xi, n)
    return integrate(_cxi_apply(tau, u, du, nu, xi) * u, g)


def cxi_pairings(at_a0: A0Result, n: int = fiber.DEFAULT_N) -> Tuple[float, float, float]:
    """Commutator pairings of the ground state at alpha = xi = a0.

    Returns (pair0, dpair, final_sum):
      pair0     = <C_xi u, u>                       (vanishes at the minimum)
      dpair     = d/dxi <C_xi u, u>                 (equals -d2xi_nu / 2)
      final_sum = <C_xi u, k0> + <C_{xi,2} u, u>    (equals  d2xi_nu / 12)
    with d2xi_nu = 2 a0 u(0)^2; dpair is an independent centered difference.
    """
    a0 = at_a0.a0
    g, tau, u, du, nu = _ground_state(a0, a0, n)
    xi = a0
    cu = _cxi_apply(tau, u, du, nu, xi)
    pair0 = integrate(cu * u, g)

    delta = 1e-3
    dpair = (_cxi_pair(a0, a0 + delta, n) - _cxi_pair(a0, a0 - delta, n)) / (2 * delta)

    p1 = xi - tau
    p2 = p1**2
    k0 = (-xi / 2.0 + (2.0 / 3.0) * p1) * u + (
        (2.0 / 3.0) * (1.0 - xi**2) + xi * p1 - p2 / 3.0
    ) * du
    c2u = (
        -4.0 * tau * (du + p1 * u)
        + 2.0 * tau**2 * nu * u
        + (8.0 / 3.0) * p1 * tau**3 * u
        - 4.0 * tau**2 * u
        + tau**4 * u
    )
    final_sum = integrate(cu * k0, g) + integrate(c2u * u, g)
    return pair0, dpair, final_sum


def lambda_cap(a: float, b0: float, b0p: float, n: int = fiber.DEFAULT_N) -> float:
    """Leading negative-eigenvalue rate Lambda(a) = min(2 b0, b0' nu(a / sqrt(b0')))."""
    if a < 0 or b0 <= 0 or b0p <= 0:
        raise ValueError("need a >= 0 and positive field bounds")
    if a == 0.0:
        return 0.0
    nu, _, _ = nu_of_alpha(a / math.sqrt(b0p), n)
    return min(2.0 * b0, b0p * nu)


def c_gamma(gamma: float, n: int = fiber.DEFAULT_N, tol: float = 1e-7) -> float:
    """Gap constant for a constant boundary coefficient gamma.

    With the boundary term weighted by gamma, the half-plane energy becomes
    nu(c * gamma); the constant is the unique positive root of nu(c gamma)
    = c^2 (gamma = 1 recovers a0).  There xi = (nu + alpha^2) / (2 alpha)
    puts the minimizer at xi_c = c (1 + gamma^2) / (2 gamma), so c is a root
    of f(c) = nu_1^-(c gamma, xi_c) - c^2, with no inner minimization.
    f >= nu(c gamma) - c^2 > 0 below c, but f turns positive again where
    xi_c meets a local maximum of nu_1^- (near c = 0.75 at gamma = 0.1), so
    c is the *first* sign change: c steps so that xi_c advances by the xi
    step of nu_of_alpha, then that cell is bisected on signs decided as
    there.  Where f never dips below zero (see nu_of_alpha) RuntimeError is
    raised, not a tail root.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    slope = (1.0 + gamma * gamma) / (2.0 * gamma)

    def f(c: float) -> float:
        grid = Grid1D(0.0, _truncation(c * gamma), n)
        return certified_sign(fiber.half_line_matrix("minus", c * slope, grid, c * gamma), c * c, 1)

    c_max = math.sqrt(2.0) + 0.2  # nu < 2 puts the root below sqrt(2)
    return _first_sign_change(
        f, 1e-3, f(1e-3), _XI_SCAN_STEP / slope,
        lambda c: c > c_max or c * slope > _truncation(c * gamma) - fiber.TAIL_PAD,
        f"failed to bracket c_gamma for gamma={gamma} at n = {n}; "
        "the grid does not resolve the minimum, increase n", tol)


def interior_c0(hessB: np.ndarray, B0: float) -> float:
    """Interior-well coefficient sqrt(det Hess B) / B(x0)."""
    h = np.asarray(hessB, dtype=float)
    if h.shape != (2, 2):
        raise ValueError(f"expected a 2x2 Hessian, got shape {h.shape}")
    if B0 <= 0:
        raise ValueError(f"B0 must be positive, got {B0}")
    if np.any(np.linalg.eigvalsh(0.5 * (h + h.T)) <= 0):
        raise ValueError("Hessian must be positive definite")
    return math.sqrt(float(np.linalg.det(h))) / B0
