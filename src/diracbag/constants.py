"""Semiclassical prefactors for the positive eigenvalues.

The k-th positive eigenvalue behaves like C_k h^{1-k} e^{2 phi_min / h}
where C_k is a squared ratio of two projection distances: the boundary-norm
(Hardy) distance of (z - z_min)^{k-1} to the holomorphic functions vanishing
to order k at z_min, over the Gaussian-weighted (Segal-Bargmann) distance of
z^{k-1} to the lower-degree polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BargmannWeight",
    "BoundaryCurve",
    "CkResult",
    "TruncationError",
    "bargmann_distance",
    "hardy_distance",
    "ck_constant",
    "lambda_plus_prediction",
]

MAX_K = 12  # Gram matrices become numerically rank-deficient beyond this
HARDY_BASIS = 48  # Hardy truncation degree; 8 more check its convergence


class TruncationError(RuntimeError):
    """Polynomial truncation of the Hardy projection did not converge."""


@dataclass(frozen=True)
class BargmannWeight:
    """Anisotropic Gaussian weight exp(-Hess(y, y)) with a 2x2 SPD Hessian."""

    hess: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.hess, dtype=float)
        if h.shape != (2, 2):
            raise ValueError(f"expected 2x2 Hessian, got {h.shape}")
        h = 0.5 * (h + h.T)
        if np.any(np.linalg.eigvalsh(h) <= 0):
            raise ValueError("Hessian must be positive definite")
        object.__setattr__(self, "hess", h)

    @classmethod
    def isotropic(cls, b0: float) -> "BargmannWeight":
        """Weight of a radial field: Hessian scale B(0)/2 in each direction."""
        return cls(hess=np.eye(2) * (b0 / 2.0))


@dataclass
class BoundaryCurve:
    """Closed positively oriented boundary: sample points and arclength weights."""

    points: np.ndarray  # complex samples of the curve
    weights: np.ndarray  # arclength quadrature weights
    z_min: complex

    @classmethod
    def circle(cls, radius: float, z_min: complex = 0.0) -> "BoundaryCurve":
        if not radius > 0:
            raise ValueError(f"R must be positive, got {radius}")
        if not abs(z_min) < radius:
            raise ValueError(f"need |z_min| < R, got |z_min| = {abs(z_min)}, R = {radius}")
        n = 1024
        theta = 2.0 * math.pi * np.arange(n) / n
        pts = radius * np.exp(1j * theta)
        w = np.full(n, 2.0 * math.pi * radius / n)  # trapezoid on a closed curve
        return cls(points=pts, weights=w, z_min=complex(z_min))


@dataclass(frozen=True)
class CkResult:
    k: int
    dist_H: float
    dist_B: float
    Ck: float


def _residual2(gram: np.ndarray, cross: np.ndarray, norm2: float) -> float:
    """Squared distance to a span from Gram data: norm2 - Re<cross, gram^-1 cross>."""
    return max(norm2 - float(np.vdot(cross, np.linalg.solve(gram, cross)).real), 0.0)


def bargmann_distance(k: int, w: BargmannWeight) -> float:
    """Distance of z^{k-1} to the span of 1..z^{k-2} in the Gaussian norm.

    The Gram entries <z^a, z^b> have degree <= 2(k - 1) in each principal
    coordinate v_i = x / sqrt(d_i), in which exp(-Hess(y, y)) dy becomes
    exp(-|x|^2) dx / sqrt(d_1 d_2), so k Gauss-Hermite nodes per axis are exact.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > MAX_K:
        raise ValueError(f"Gram matrix ill-conditioned for k={k} > {MAX_K}")
    d, axes = np.linalg.eigh(w.hess)
    x, wx = np.polynomial.hermite.hermgauss(k)
    v = np.meshgrid(x / math.sqrt(d[0]), x / math.sqrt(d[1]), indexing="ij")
    y = np.tensordot(axes, v, axes=1)  # back from the eigen-axes
    weights = np.outer(wx, wx).ravel() / math.sqrt(d[0] * d[1])
    P = (y[0] + 1j * y[1]).reshape(-1, 1) ** np.arange(k)  # z^0..z^{k-1} at the nodes
    gram = (P.conj().T * weights) @ P
    return math.sqrt(_residual2(gram[:-1, :-1], gram[:-1, -1], gram[-1, -1].real))


def _hardy_residual(k: int, curve: BoundaryCurve, n_basis: int) -> float:
    """Squared boundary-norm distance of (z - z_min)^{k-1} to the span of
    (z - z_min)^j, k <= j < n_basis (the admissible polynomial directions)."""
    zs = curve.points - curve.z_min
    scale = float(np.max(np.abs(zs)))
    zn = zs / scale  # keep powers O(1)
    w = curve.weights
    target = zn ** (k - 1)
    degs = np.arange(k, n_basis)
    basis = zn[:, None] ** degs[None, :]
    gram = (basis.conj().T * w) @ basis
    rhs = basis.conj().T @ (w * target)
    norm2 = float(np.sum(w * np.abs(target) ** 2))
    gram += 1e-13 * np.eye(degs.size) * np.trace(gram).real / degs.size
    return _residual2(gram, rhs, norm2) * scale ** (2 * (k - 1))


def hardy_distance(k: int, curve: BoundaryCurve) -> float:
    """Boundary-norm distance of (z - z_min)^{k-1} to the order-k vanishing
    subspace, by constrained least squares over polynomial truncations.

    The vanishing constraints are eliminated by working in the monomial basis
    centered at z_min with degrees k..HARDY_BASIS - 1; the truncation enlarged
    by 8 must agree to 1e-8 relative.
    """
    if not 1 <= k <= HARDY_BASIS - 8:
        raise ValueError(f"need 1 <= k <= {HARDY_BASIS - 8}, got {k}")
    d2 = _hardy_residual(k, curve, HARDY_BASIS)
    d2_fine = _hardy_residual(k, curve, HARDY_BASIS + 8)
    if abs(d2_fine - d2) > 1e-8 * max(d2, 1e-300):
        raise TruncationError(
            f"Hardy distance not converged at {HARDY_BASIS} basis degrees: "
            f"{d2:.12e} vs {d2_fine:.12e}"
        )
    return math.sqrt(d2)


def ck_constant(k: int, w: BargmannWeight, curve: BoundaryCurve) -> CkResult:
    """C_k = (dist_H / dist_B)^2 for the given weight and boundary."""
    dist_h = hardy_distance(k, curve)
    dist_b = bargmann_distance(k, w)
    return CkResult(k=k, dist_H=dist_h, dist_B=dist_b, Ck=(dist_h / dist_b) ** 2)


def lambda_plus_prediction(ck: CkResult, phi_min: float, h: float) -> float:
    """Leading-order positive eigenvalue C_k h^{1-k} e^{2 phi_min / h}."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    return ck.Ck * h ** (1 - ck.k) * math.exp(2.0 * phi_min / h)
