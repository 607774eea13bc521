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
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .numerics import Grid1D, TridiagSym, eig_sym_tridiag, integrate

__all__ = [
    "FiberSpec",
    "FiberEigen",
    "default_grid",
    "whole_line_levels",
    "fiber_eigs",
    "fiber_eig_derivatives",
    "half_line_matrix",
    "nu_values",
    "nu_k",
]

DEFAULT_N = 4001
TAIL_PAD = 12.0  # Gaussian tail beyond the classical turning point
MIN_LENGTH = 20.0


def default_grid(xi: float, n: int = DEFAULT_N, domain: str = "half_line") -> Grid1D:
    """Truncated tau-domain: eigenfunctions decay like Gaussians near |xi|,
    so 12 units past the turning point puts the tail below double precision."""
    x1 = max(MIN_LENGTH, abs(xi) + TAIL_PAD)
    if domain == "whole_line":
        return Grid1D(-x1, x1, n)
    return Grid1D(0.0, x1, n)


@dataclass(frozen=True)
class FiberSpec:
    """Parameters of one fiber operator."""

    sign: str  # 'plus' | 'minus'
    alpha: float
    xi: float
    domain: str = "half_line"  # 'half_line' | 'whole_line'
    grid: Optional[Grid1D] = None

    def __post_init__(self):
        if self.sign not in ("plus", "minus"):
            raise ValueError(f"sign must be 'plus' or 'minus', got {self.sign!r}")
        if self.domain not in ("half_line", "whole_line"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.domain == "half_line" and self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.grid is None:
            object.__setattr__(self, "grid", default_grid(self.xi, domain=self.domain))
        elif self.domain == "half_line" and self.grid.x0 != 0.0:
            raise ValueError("half-line grid must start at 0")


@dataclass
class FiberEigen:
    """Eigenvalues and sampled eigenfunctions of a fiber operator.

    ``functions[:, j]`` is the j-th eigenvector sampled on ``grid.nodes()``
    and normalized to unit L2 norm under the grid quadrature.  ``u0``/``du0``
    are the boundary trace and derivative of the (sign-normalized positive)
    ground state; both are zero-filled for whole-line problems.
    """

    values: np.ndarray
    u0: float
    du0: float
    functions: np.ndarray
    grid: Grid1D


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


def _assemble_whole_line(spec: FiberSpec) -> TridiagSym:
    g = spec.grid
    h = g.step
    tau = g.nodes()[1:-1]  # Dirichlet at both ends
    v = _potential(spec.sign, spec.xi, tau)
    diag = 2.0 / h**2 + v
    off = np.full(tau.size - 1, -1.0 / h**2)
    return TridiagSym(diag, off)


def fiber_eigs(spec: FiberSpec, k: int = 1) -> FiberEigen:
    """First k eigenpairs of the fiber operator."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    g = spec.grid
    h = g.step
    if spec.domain == "whole_line":
        mat = _assemble_whole_line(spec)
        vals, vecs = eig_sym_tridiag(mat, k, vectors=True)
        funcs = np.zeros((g.n, k))
        funcs[1:-1, :] = vecs
    else:
        mat = half_line_matrix(spec.sign, spec.xi, g, spec.alpha)
        vals, vecs = eig_sym_tridiag(mat, k, vectors=True)
        funcs = np.zeros((g.n, k))
        funcs[:-1, :] = vecs
        funcs[0, :] *= np.sqrt(2.0)  # undo the symmetrizing similarity

    # L2-normalize with the grid quadrature and fix signs: positive at the max.
    for j in range(k):
        u = funcs[:, j]
        nrm = np.sqrt(integrate(u**2, g))
        u /= nrm
        if u[np.argmax(np.abs(u))] < 0:
            u *= -1.0

    u0 = float(funcs[0, 0])
    du0 = float((-3.0 * funcs[0, 0] + 4.0 * funcs[1, 0] - funcs[2, 0]) / (2.0 * h))
    return FiberEigen(values=vals, u0=u0, du0=du0, functions=funcs, grid=g)


@functools.lru_cache(maxsize=200_000)
def _values(sign: str, alpha: float, xi: float, n: int, x1: float, k: int) -> Tuple[float, ...]:
    """Values-only half-line solve, cached for parameter scans."""
    spec = FiberSpec(sign, alpha, xi, grid=Grid1D(0.0, x1, n))
    vals, _ = eig_sym_tridiag(half_line_matrix(sign, xi, spec.grid, alpha), k)
    return tuple(float(v) for v in vals)


def nu_values(
    sign: str, k: int, alpha: float, xi: float, n: int = DEFAULT_N, x1: Optional[float] = None
) -> Tuple[float, ...]:
    """The k lowest eigenvalues nu_1..k^{sign}(alpha, xi) of the half-line
    fiber, from one solve.

    ``x1`` overrides the truncation; scans over xi should fix it so the grid
    step does not drift with the parameter.
    """
    if x1 is None:
        x1 = max(MIN_LENGTH, abs(xi) + TAIL_PAD)
    return _values(sign, alpha, xi, n, x1, k)


def nu_k(
    sign: str, k: int, alpha: float, xi: float, n: int = DEFAULT_N, x1: Optional[float] = None
) -> float:
    """k-th eigenvalue nu_k^{sign}(alpha, xi) of the half-line fiber."""
    return nu_values(sign, k, alpha, xi, n, x1)[k - 1]


def fiber_eig_derivatives(spec: FiberSpec) -> Tuple[float, float]:
    """(d nu_1/d xi, d nu_1/d alpha) by centered differences of step 1e-4.

    Oracle for the identities d_alpha nu = u(0)^2 and
    d_xi nu^{+-} = +-(nu + alpha^2 - 2 alpha xi) u(0)^2.
    """
    if spec.domain != "half_line":
        raise ValueError("parameter derivatives are defined for half-line fibers")
    n = spec.grid.n
    # one common truncation so the xi-dependence of the domain never enters
    x1 = max(MIN_LENGTH, abs(spec.xi) + TAIL_PAD + 1.0)
    step = 1e-4

    def val(alpha: float, xi: float) -> float:
        return _values(spec.sign, alpha, xi, n, x1, 1)[0]

    d_xi = (val(spec.alpha, spec.xi + step) - val(spec.alpha, spec.xi - step)) / (2 * step)
    d_alpha = (val(spec.alpha + step, spec.xi) - val(spec.alpha - step, spec.xi)) / (2 * step)
    return d_xi, d_alpha
