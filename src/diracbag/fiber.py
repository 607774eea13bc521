"""Fibered half-line and whole-line Schrodinger operators.

After a Fourier transform along the flat boundary, the half-plane magnetic
Dirac problem reduces to the one-parameter family of operators

    -d^2/dtau^2 + (tau +- xi)^2 -+ 1        on (0, +inf)

with the Robin condition u'(0) = (alpha - xi) u(0).  This module discretizes
them by second-order finite differences on a truncated domain and returns
eigenvalues together with boundary traces of the ground state.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from .numerics import Grid1D, TridiagSym, eig_sym_tridiag, integrate

__all__ = [
    "default_grid",
    "whole_line_levels",
    "whole_line_matrix",
    "fiber_eigs",
    "fiber_eig_derivatives",
    "half_line_matrix",
    "nu_values",
    "nu_k",
]

DEFAULT_N = 4001
TAIL_PAD = 12.0  # Gaussian tail beyond the classical turning point
MIN_LENGTH = 20.0


def default_grid(xi: float, n: int = DEFAULT_N) -> Grid1D:
    """Truncated half-line tau-domain: eigenfunctions decay like Gaussians
    near |xi|, so 12 units past the turning point puts the tail below double
    precision."""
    return Grid1D(0.0, max(MIN_LENGTH, abs(xi) + TAIL_PAD), n)


def whole_line_levels(sign: str, k: int) -> float:
    """Landau levels of the whole-line fiber: 2(k-1) for plus, 2k for minus."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if sign == "plus":
        return 2.0 * (k - 1)
    if sign == "minus":
        return 2.0 * k
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


def _potential(sign: str, xi: float, tau: np.ndarray) -> np.ndarray:
    if sign == "plus":
        return (tau + xi) ** 2 - 1.0
    if sign == "minus":
        return (tau - xi) ** 2 + 1.0
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


def half_line_matrix(sign: str, xi: float, grid: Grid1D, alpha: float = 0.0) -> TridiagSym:
    """Robin at 0 via a ghost node folded into the first row; Dirichlet at x1.

    The folded matrix is nonsymmetric only in its first off-diagonal pair;
    the similarity diag(1/sqrt(2), 1, ...) restores symmetry, so only the
    first off-diagonal entry changes to -sqrt(2)/step^2.  alpha enters only
    the first diagonal entry, 2 (alpha - xi) / step: the default alpha = 0
    gives the alpha-free matrix A_xi, and the fiber matrix is
    A_xi + (2 alpha / step) e_1 e_1^T, a rank-one modification.
    """
    h = grid.step
    tau = grid.nodes()[:-1]  # Dirichlet: drop the last node
    diag = 2.0 / h**2 + _potential(sign, xi, tau)
    diag[0] += 2.0 * (alpha - xi) / h
    off = np.full(tau.size - 1, -1.0 / h**2)
    off[0] = -np.sqrt(2.0) / h**2
    return TridiagSym(diag, off)


def whole_line_matrix(sign: str, xi: float, grid: Grid1D) -> TridiagSym:
    """The whole-line fiber on the interior nodes of ``grid``, Dirichlet at
    both ends."""
    h = grid.step
    tau = grid.nodes()[1:-1]
    diag = 2.0 / h**2 + _potential(sign, xi, tau)
    off = np.full(tau.size - 1, -1.0 / h**2)
    return TridiagSym(diag, off)


def fiber_eigs(sign: str, alpha: float, xi: float, grid: Grid1D) -> Tuple[float, np.ndarray]:
    """Ground eigenvalue and ground state u of the half-line fiber.

    u is sampled on ``grid.nodes()``, has unit L2 norm under the grid
    quadrature and is positive at its maximum, so u[0] is the boundary trace.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if grid.x0 != 0.0:
        raise ValueError("half-line grid must start at 0")
    vals, vecs = eig_sym_tridiag(half_line_matrix(sign, xi, grid, alpha), 1, vectors=True)
    u = np.zeros(grid.n)
    u[:-1] = vecs[:, 0]
    u[0] *= np.sqrt(2.0)  # undo the symmetrizing similarity
    u /= np.sqrt(integrate(u**2, grid))
    if u[np.argmax(np.abs(u))] < 0:
        u *= -1.0
    return float(vals[0]), u


@functools.lru_cache(maxsize=200_000)
def _values(sign: str, alpha: float, xi: float, n: int, x1: float, k: int) -> Tuple[float, ...]:
    """Values-only half-line solve, cached for parameter scans."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    vals, _ = eig_sym_tridiag(half_line_matrix(sign, xi, Grid1D(0.0, x1, n), alpha), k)
    return tuple(float(v) for v in vals)


def nu_values(sign: str, k: int, alpha: float, xi: float, n: int = DEFAULT_N) -> Tuple[float, ...]:
    """The k lowest eigenvalues nu_1..k^{sign}(alpha, xi) of the half-line
    fiber on ``default_grid(xi, n)``, from one solve.

    The truncation follows |xi|; a scan over xi that must keep the grid step
    fixed calls ``_values`` with its own truncation.
    """
    return _values(sign, alpha, xi, n, default_grid(xi, n).x1, k)


def nu_k(sign: str, k: int, alpha: float, xi: float, n: int = DEFAULT_N) -> float:
    """k-th eigenvalue nu_k^{sign}(alpha, xi) of the half-line fiber."""
    return nu_values(sign, k, alpha, xi, n)[k - 1]


def fiber_eig_derivatives(sign: str, alpha: float, xi: float) -> Tuple[float, float]:
    """(d nu_1/d xi, d nu_1/d alpha) by centered differences of step 1e-4,
    at n = DEFAULT_N.

    Oracle for the identities d_alpha nu = u(0)^2 and
    d_xi nu^{+-} = +-(nu + alpha^2 - 2 alpha xi) u(0)^2.
    """
    # one common truncation so the xi-dependence of the domain never enters
    x1 = max(MIN_LENGTH, abs(xi) + TAIL_PAD + 1.0)
    step = 1e-4

    def val(a: float, x: float) -> float:
        return _values(sign, a, x, DEFAULT_N, x1, 1)[0]

    d_xi = (val(alpha, xi + step) - val(alpha, xi - step)) / (2 * step)
    d_alpha = (val(alpha + step, xi) - val(alpha - step, xi)) / (2 * step)
    return d_xi, d_alpha
