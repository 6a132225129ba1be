"""Eavesdropper information bounds for subcarrier-wave QKD.

A subcarrier-wave transmitter phase-modulates a carrier with index m; the
information-carrying sidebands then hold the fraction 1 - J0(m)^2 of the
total power |alpha0|^2, where J0 is the order-zero Bessel function of the
first kind.  Illuminating the modulator can shift its effective index by a
multiplicative factor dm, and after the legitimate parties recalibrate, the
attacked index m*dm raises the an eavesdropper's accessible information,
measured here by the Holevo bound

    chi = h((1 - exp(-|alpha0|^2 * (1 - J0(2m)^2))) / 2)

with h the binary entropy in bits.  chi grows with the index only while 2m
stays below the first zero of J0 (about 2.4048), i.e. m <= 1.2024; operations
that compare attacked and baseline information refuse indices beyond that
window instead of reporting non-monotone values.
"""

from __future__ import annotations

import math

import numpy as np

from .statemath import remap_grid

__all__ = [
    "J0_DOMAIN_MAX",
    "HOLEVO_INDEX_MAX",
    "bessel_j0",
    "binary_entropy",
    "holevo_bound",
    "holevo_curve",
]

# The power series below is accurate to well under 1e-10 for |t| <= 12; the
# indices arising here never exceed ~2.4, so larger arguments are refused
# rather than handled with an asymptotic branch.
J0_DOMAIN_MAX = 12.0
_SERIES_CUTOFF = 1e-16

# Largest modulation index for which 1 - J0(2m)^2 is still increasing
# (half the first zero of J0, truncated).
HOLEVO_INDEX_MAX = 1.2024


def bessel_j0(t: float) -> float:
    """Order-zero Bessel function of the first kind by its power series.

    Sums (-t^2/4)^k / (k!)^2 and stops as soon as a term drops below 1e-16;
    the series alternates, so the truncation error is bounded by the first
    omitted term.  Arguments beyond |t| = 12, and NaN, are refused.
    """
    t = float(t)
    if not abs(t) <= J0_DOMAIN_MAX:  # NaN fails too; the series would never end
        raise ValueError(f"|t| must be <= {J0_DOMAIN_MAX} for the J0 series, got {t}")
    q = -0.25 * t * t
    total = 1.0
    term = 1.0
    k = 1
    while True:
        term *= q / (k * k)
        if abs(term) < _SERIES_CUTOFF:
            return total
        total += term
        k += 1


def binary_entropy(p: float) -> float:
    """Binary entropy h(p) in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def holevo_bound(alpha0_sq: float, m: float) -> float:
    """Eavesdropper information bound chi for the sideband encoding, in bits."""
    if alpha0_sq < 0:
        raise ValueError(f"alpha0_sq must be >= 0, got {alpha0_sq}")
    if not math.isfinite(alpha0_sq):
        raise ValueError(f"alpha0_sq must be finite, got {alpha0_sq}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    p = (1.0 - math.exp(-alpha0_sq * (1.0 - bessel_j0(2.0 * m) ** 2))) / 2.0
    return binary_entropy(p)


def holevo_curve(
    alpha0_sq: float = 1.0,
    m: float = 0.434,
    dm_max: float = 2.0,
    step: float = 0.01,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Holevo bound swept over attack factors dm in [0, dm_max].

    Returns (dm, chi_attacked, chi_baseline) arrays; chi_baseline is constant.
    The end of the sweep must keep the attacked index inside the monotone
    window.
    """
    if m * dm_max > HOLEVO_INDEX_MAX:
        raise ValueError(
            f"attacked index m*dm_max = {m * dm_max:.6g} exceeds the monotone "
            f"window [0, {HOLEVO_INDEX_MAX}]"
        )
    dms = remap_grid(dm_max, step)
    attacked = np.array([holevo_bound(alpha0_sq, m * dm) for dm in dms])
    baseline = np.full_like(attacked, holevo_bound(alpha0_sq, m))
    return dms, attacked, baseline
