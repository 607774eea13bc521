"""Semiclassical prefactors for the positive eigenvalues.

The k-th positive eigenvalue behaves like C_k h^{1-k} e^{2 phi_min / h}
where C_k is a squared ratio of two projection distances: the boundary-norm
(Hardy) distance of (z - z_min)^{k-1} to the holomorphic functions vanishing
to order k at z_min, over the Gaussian-weighted (Segal-Bargmann) distance of
z^{k-1} to the lower-degree polynomials.

On a circle of radius R the functions vanishing to order k at z_min are
B_a^k H^2, B_a the Blaschke factor of a = z_min / R (Nikolski, *Operators,
Functions, and Systems*, 2002): the Hardy distance is one Szego-kernel
component in closed form.  The Segal-Bargmann distance comes from a QR
factorization of the monomials on an exact Gauss-Hermite rule.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = ["BargmannWeight", "BoundaryCurve", "CkResult", "bargmann_distance",
           "hardy_distance", "ck_constant", "lambda_plus_prediction"]

MAX_K = 40  # QR's dist_B^2 is within 1e-14 of the isotropic closed form up to here


class BargmannWeight(NamedTuple("BargmannWeight", [("hess", np.ndarray)])):
    """Anisotropic Gaussian weight exp(-Hess(y, y)) with a 2x2 SPD Hessian."""

    __slots__ = ()

    def __new__(cls, hess: np.ndarray):
        h = np.asarray(hess, dtype=float)
        if h.shape != (2, 2):
            raise ValueError(f"expected 2x2 Hessian, got {h.shape}")
        h = 0.5 * (h + h.T)
        if not np.all(np.linalg.eigvalsh(h) > 0):
            raise ValueError("Hessian must be positive definite")
        return super().__new__(cls, h)

    @classmethod
    def isotropic(cls, b0: float) -> "BargmannWeight":
        """Weight of a radial field: Hessian scale B(0)/2 in each direction."""
        return cls(hess=np.eye(2) * (b0 / 2.0))


class BoundaryCurve(NamedTuple("BoundaryCurve", [("radius", float), ("z_min", complex)])):
    """Circle of the given radius about the origin, with an interior z_min."""

    __slots__ = ()

    def __new__(cls, radius: float, z_min: complex):
        if not radius > 0:
            raise ValueError(f"R must be positive, got {radius}")
        if not abs(z_min) < radius:
            raise ValueError(f"need |z_min| < R, got |z_min| = {abs(z_min)}, R = {radius}")
        return super().__new__(cls, radius, z_min)

    @classmethod
    def circle(cls, radius: float, z_min: complex = 0.0) -> "BoundaryCurve":
        return cls(radius=radius, z_min=complex(z_min))


class CkResult(NamedTuple):
    k: int
    dist_H: float
    dist_B: float
    Ck: float


def bargmann_distance(k: int, w: BargmannWeight) -> float:
    """Distance of z^{k-1} to the span of 1..z^{k-2} in the Gaussian norm.

    The products z^a conj(z^b), a, b < k, have degree <= 2(k - 1) in each
    principal coordinate v_i = x / sqrt(d_i), in which exp(-Hess(y, y)) dy
    becomes exp(-|x|^2) dx / sqrt(d_1 d_2), so k Gauss-Hermite nodes per axis
    integrate them exactly; |R_kk| of the weighted samples is the distance.
    """
    if not 1 <= k <= MAX_K:
        raise ValueError(f"need 1 <= k <= {MAX_K}, got {k}")
    d, axes = np.linalg.eigh(w.hess)
    x, wx = hermgauss(k)
    v = np.meshgrid(x / math.sqrt(d[0]), x / math.sqrt(d[1]), indexing="ij")
    y = np.tensordot(axes, v, axes=1)  # back from the eigen-axes
    weights = np.outer(wx, wx).ravel() / math.sqrt(d[0] * d[1])
    P = (y[0] + 1j * y[1]).reshape(-1, 1) ** np.arange(k)  # z^0..z^{k-1} at the nodes
    r = np.linalg.qr(np.sqrt(weights)[:, None] * P, mode="r")
    return float(abs(r[-1, -1]))


def hardy_distance(k: int, curve: BoundaryCurve) -> float:
    """Boundary-norm distance of (z - z_min)^{k-1} to B_a^k H^2, a = z_min / R:
    sqrt(2 pi R^{2k-1} (1 - |a|^2)^{2k-1})."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    R, a = curve.radius, abs(curve.z_min) / curve.radius
    return math.sqrt(2.0 * math.pi * (R * (1.0 - a * a)) ** (2 * k - 1))


def ck_constant(k: int, w: BargmannWeight, curve: BoundaryCurve) -> CkResult:
    """C_k = (dist_H / dist_B)^2 for the given weight and boundary."""
    dist_h = hardy_distance(k, curve)
    dist_b = bargmann_distance(k, w)
    return CkResult(k=k, dist_H=dist_h, dist_B=dist_b, Ck=(dist_h / dist_b) ** 2)


def lambda_plus_prediction(ck: CkResult, phi_min: float, h: float) -> float:
    """Leading-order positive eigenvalue C_k h^{1-k} e^{2 phi_min / h}."""
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    return ck.Ck * h ** (1 - ck.k) * math.exp(2.0 * phi_min / h)
