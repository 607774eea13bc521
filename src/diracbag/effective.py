"""Effective boundary operator for the negative-eigenvalue fine structure.

For a constant unit field the negative eigenvalues split on the h^{3/2}
scale according to the periodic boundary operator

    (D_s + t_h)^2 - kappa(s)^2 / 12,        t_h = |Omega|/(h |dOmega|)
                                                  - a0 / sqrt(h)
                                                  + pi / |dOmega|,

whose spectrum is a periodic function of t_h with period 2 pi / |dOmega|.
On a disk the eigenvalues are explicit through a greedy integer selection;
generally a Fourier-Galerkin matrix is exact up to the cutoff because the
magnetic part is diagonal in Fourier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np
import scipy.linalg

from .dispersion import A0Result

__all__ = [
    "EffSpec",
    "EffSpectrum",
    "CutoffError",
    "flux_th",
    "qeff_disk",
    "qeff_general",
    "lambda_minus_prediction",
]


class CutoffError(RuntimeError):
    """kappa has Fourier content beyond the Galerkin cutoff."""


@dataclass
class EffSpec:
    """Effective operator data: geometry, flux constant and curvature profile.

    ``kappa`` holds uniform samples over one period (Fourier-interpolated);
    a constant is one sample.
    """

    L: float
    t_h: float
    kappa: Union[float, np.ndarray]

    @classmethod
    def disk(cls, R: float, h: float, a0: float) -> "EffSpec":
        L = 2.0 * math.pi * R
        area = math.pi * R * R
        return cls(
            L=L,
            t_h=flux_th(area, L, h, a0),
            kappa=1.0 / R,
        )


@dataclass
class EffSpectrum:
    """Ascending eigenvalues; ``m_sequence`` is filled by the disk route."""

    values: np.ndarray
    m_sequence: Optional[List[int]] = None


def flux_th(area: float, L: float, h: float, a0: float) -> float:
    """Flux constant t_h = area/(h L) - a0/sqrt(h) + pi/L."""
    if L <= 0 or h <= 0 or area < 0:
        raise ValueError("need L > 0, h > 0, area >= 0")
    return area / (h * L) - a0 / math.sqrt(h) + math.pi / L


def qeff_disk(t_h: float, R: float, count: int) -> EffSpectrum:
    """Disk spectrum |m_n / R + t_h|^2 - 1/(12 R^2) by greedy mode selection.

    m_n minimizes |m / R + t_h| over the integers not chosen before; ties
    (half-integer R t_h) are broken toward the smaller m, giving the exact
    multiplicity-2 pairs.  For R = 1 this is the closed form with integer
    momenta; for general R the momentum lattice is Z / R, matching the
    gauge period 2 pi / |dOmega| = 1/R.
    """
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    center = int(round(-t_h * R))
    cands = sorted(
        range(center - count - 2, center + count + 3),
        key=lambda m: (abs(m / R + t_h), m),
    )
    ms = cands[:count]
    vals = np.array([(m / R + t_h) ** 2 - 1.0 / (12.0 * R * R) for m in ms])
    order = np.argsort(vals, kind="stable")
    return EffSpectrum(values=vals[order], m_sequence=[ms[i] for i in order])


def _kappa_coefficients(spec: EffSpec, n_modes: int) -> np.ndarray:
    """Fourier coefficients c_p of kappa^2 / 12 for |p| <= n_modes."""
    vals = np.atleast_1d(np.asarray(spec.kappa, dtype=float))
    spectrum = np.fft.fft(vals**2 / 12.0) / vals.size
    # N samples interpolate with frequencies |p| <= N/2 only; aliases of the
    # sampled spectrum above that are not the curvature's
    p = np.arange(-n_modes, n_modes + 1)
    return np.where(2 * np.abs(p) <= vals.size, spectrum[p % vals.size], 0.0)


def _cutoff(count: int) -> int:
    """Galerkin modes ``qeff_general`` keeps on each side of its centre."""
    return max(64, 4 * count + 16)


def qeff_general(spec: EffSpec, count: int) -> EffSpectrum:
    """Fourier-Galerkin spectrum of (D_s + t_h)^2 - kappa^2 / 12.

    Momentum modes 2 pi m / L are exactly diagonal; only kappa^2/12 couples
    them, through its Toeplitz matrix of Fourier coefficients c_(i-j): a
    Hermitian band as wide as the highest p with c_p above the FFT's rounding
    (diagonal for a constant kappa), whose ``count`` lowest values are
    solved.  The lowest levels sit near the mode centre = round(-t_h L /
    (2 pi)), as on the disk; the modes |m - centre| <= max(64, 4 count + 16)
    are kept, and the values are checked against a solve with 8 more on
    each side.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    cutoff = _cutoff(count)
    centre = round(-spec.t_h * spec.L / (2.0 * math.pi))

    def solve(cutoff: int) -> np.ndarray:
        modes = centre + np.arange(-cutoff, cutoff + 1)
        c = _kappa_coefficients(spec, 2 * cutoff)[2 * cutoff:]  # c_0 .. c_{2 cutoff}
        # the band ends at the last c_p above eps c_0: the FFT computes each c_p
        # to about eps log2(N) rms(kappa^2 / 12) >= eps c_0, so the ones below
        # are its rounding, not the curvature's (none at all for a constant kappa)
        above = np.flatnonzero(np.abs(c) > np.finfo(float).eps * abs(c[0]))
        width = int(np.max(above, initial=0))
        # lower band storage: row p holds the entries (j + p, j) = -c_p
        band = np.tile(-c[:width + 1, None], modes.size)
        band[0] += (2.0 * math.pi * modes / spec.L + spec.t_h) ** 2
        return scipy.linalg.eigvals_banded(band, lower=True, select="i",
                                           select_range=(0, count - 1))

    vals = solve(cutoff)
    ref = solve(cutoff + 8)
    err = float(np.max(np.abs(vals - ref)))
    if err > 1e-9 * max(1.0, float(np.max(np.abs(vals)))):
        raise CutoffError(
            f"eigenvalues changed by {err:.3e} from cutoff {cutoff} to {cutoff + 8}: "
            "kappa has Fourier content beyond the Galerkin cutoff"
        )
    return EffSpectrum(values=vals, m_sequence=None)


def lambda_minus_prediction(
    n: int, h: float, a0res: A0Result, eff: EffSpectrum
) -> float:
    """Fine-structure prediction a0 sqrt(h) + c0 h^{3/2} lambda_n."""
    if n < 1 or n > eff.values.size:
        raise ValueError(f"n={n} outside the computed spectrum (len {eff.values.size})")
    return a0res.a0 * math.sqrt(h) + a0res.c0 * h**1.5 * float(eff.values[n - 1])
