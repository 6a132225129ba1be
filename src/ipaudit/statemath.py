"""Unambiguous discrimination of phase-remapped coherent-state constellations.

A phase-coding transmitter prepares 2N coherent states equally spaced on a
circle in phase space, state k sitting at angle k*pi/N.  An attacker that
shifts the modulator's effective half-wave voltage rescales the whole phase
grid by a factor x, moving state k to angle k*x*pi/N (and possibly shrinking
the amplitude).  For an equiprobable set of pure states the optimal success
probability of unambiguous state discrimination (USD) equals the minimal
eigenvalue of the Gram matrix of the set, so the security question "does the
remapping help an eavesdropper run USD?" reduces to eigenvalue analysis of a
small Hermitian Toeplitz matrix.

This module builds the Gram matrices of remapped constellations, a whole
sweep of them as one stacked array, finds their minimal eigenvalues with one
batched Hermitian eigensolve, and evaluates the USD probability and its ratio
against the undistorted x = 1 grid.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MAX_GRID_POINTS",
    "MAX_GRAM_ENTRIES",
    "gram_matrix",
    "usd_probability",
    "usd_ratio",
    "grid_steps",
    "remap_grid",
    "ratio_curve",
]

# Largest number of points a sweep grid may hold; bounds the work that one
# request can trigger.
MAX_GRID_POINTS = 10**6
# Largest number of complex entries K * M^2 in one stack of K Gram matrices
# of size M = 2N (256 MiB of complex128).  The smallest power of two that
# admits a full MAX_GRID_POINTS grid plus its x = 1 baseline at N = 2.
MAX_GRAM_ENTRIES = 2**24

_EPS = float(np.finfo(float).eps)
# A float64 Hermitian eigensolve fixes each eigenvalue only to within about
# M*eps*lambda_max (the Weyl bound).  Errors of up to 0.75 of that bound have
# been seen against the exact circulant series, so a baseline must clear it
# by this factor.
_WEYL_FACTOR = 4


def gram_matrix(alpha_mag: float, n_half: int, remap_x) -> np.ndarray:
    """Pairwise-overlap matrices of remapped 2N-state constellations.

    State k (k = 0 .. 2N-1) has complex amplitude alpha_mag * exp(i*phi_k)
    with phi_k = k * x * pi / N; x = 1 is the unperturbed, equally spaced
    constellation.  remap_x is a scalar or a 1-d array of factors x, and the
    result has shape remap_x.shape + (2N, 2N).

    The overlap of two coherent states of equal modulus a separated by a
    phase angle phi is exp(a^2 * (exp(i*phi) - 1)); states j and k are
    separated by phi_(k-j), so each matrix is Toeplitz, indexed by |k - j|,
    with the lower triangle the exact conjugate of the upper one: Hermitian
    to the last bit, with a unit diagonal.  A stack of more than
    MAX_GRAM_ENTRIES entries is refused before anything is allocated.
    """
    if not (math.isfinite(alpha_mag) and alpha_mag >= 0):
        raise ValueError(f"alpha_mag must be finite and >= 0, got {alpha_mag}")
    try:
        alpha_sq = alpha_mag**2
    except OverflowError:  # a Python float squared past the largest double
        alpha_sq = math.inf
    if not math.isfinite(alpha_sq):
        raise ValueError(f"alpha_mag must be finite when squared, but {alpha_mag}**2 overflows")
    if n_half < 1:
        raise ValueError(f"n_half must be a positive integer, got {n_half}")
    xs = np.asarray(remap_x, dtype=float)
    if xs.size * (2 * n_half) ** 2 > MAX_GRAM_ENTRIES:
        raise ValueError(
            f"{xs.size} Gram matrices of size {2 * n_half} hold more than "
            f"MAX_GRAM_ENTRIES = {MAX_GRAM_ENTRIES} entries"
        )
    bad = ~(np.isfinite(xs) & (xs >= 0))
    if np.any(bad):
        raise ValueError(f"remap_x must be finite and >= 0, got {xs[bad].flat[0]}")
    k = np.arange(2 * n_half)
    phases = xs[..., None] * k * math.pi / n_half
    upper = np.exp(alpha_sq * (np.exp(1j * phases) - 1.0))
    d = k[None, :] - k[:, None]
    g = upper[..., abs(d)]
    np.conjugate(g, out=g, where=d < 0)
    return g


def _usd_curve(alpha_mag: float, n_half: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(x) and f(x) = P(x) / P(1) over xs, solved with x = 1 in one stack.

    P is the minimal Gram eigenvalue, clamped at 0 because coinciding states
    make the matrix singular and the eigenvalue may come out at -1e-15 or so.
    P(1) must clear _WEYL_FACTOR * M * eps * lambda_max to serve as the
    denominator; alpha_mag = 0 (an all-ones Gram matrix) fails that too.
    """
    lams = np.linalg.eigvalsh(gram_matrix(alpha_mag, n_half, np.append(xs, 1.0)))
    ps = np.maximum(lams[:, 0], 0.0)
    p1 = ps[-1]
    bound = _WEYL_FACTOR * 2 * n_half * _EPS * lams[-1, -1]
    if not p1 > bound:
        raise ValueError(
            f"undefined ratio: baseline USD probability at x = 1 is P(1) = {p1:.3g} "
            f"for N = {n_half}, alpha = {alpha_mag:g}, not above the resolution "
            f"bound {_WEYL_FACTOR}*M*eps*lambda_max = {bound:.3g}"
        )
    return ps[:-1], ps[:-1] / p1


def usd_probability(alpha_mag: float, n_half: int, remap_x: float) -> float:
    """Optimal USD success probability of the remapped constellation.

    Equals the minimal Gram eigenvalue of the equiprobable set, clamped at 0
    to never report a negative probability.
    """
    return max(float(np.linalg.eigvalsh(gram_matrix(alpha_mag, n_half, remap_x))[0]), 0.0)


def usd_ratio(alpha_mag: float, n_half: int, remap_x: float) -> float:
    """USD probability at remap factor x relative to the undistorted grid.

    f(x) = P(x) / P(1).  Raises when the baseline P(1) is not resolvable.
    """
    return float(_usd_curve(alpha_mag, n_half, np.array([remap_x]))[1][0])


def grid_steps(span: float, step: float) -> int:
    """round(span / step), the number of steps of a sweep over [0, span].

    Refuses non-finite or non-positive spans and steps, and sweeps of more
    than MAX_GRID_POINTS points, before anything is allocated.
    """
    if not (0 < span < math.inf and 0 < step < math.inf):
        raise ValueError(f"sweep end and step must be finite and positive, got {span} and {step}")
    steps = span / step
    if not steps < MAX_GRID_POINTS - 0.5:
        raise ValueError(
            f"a sweep to {span:g} in steps of {step:g} has more than "
            f"MAX_GRID_POINTS = {MAX_GRID_POINTS} points"
        )
    return round(steps)


def remap_grid(x_max: float = 2.0, step: float = 0.01) -> np.ndarray:
    """Evaluation grid [0, x_max] with the given step, endpoints included."""
    n = grid_steps(x_max, step)
    # Multiples of the step rather than cumulative sums: the grid then hits
    # round values (and in particular x = 1.0) exactly.
    return np.round(np.arange(n + 1) * step, 12)


def ratio_curve(
    alpha_mag: float = 1.0,
    n_half: int = 2,
    x_max: float = 2.0,
    step: float = 0.01,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """USD probability P(x) and ratio f(x) = P(x) / P(1) over a remap grid.

    Returns (x, P, f).  The whole grid and the baseline x = 1 are solved in
    one batched eigensolve.
    """
    xs = remap_grid(x_max, step)
    ps, fs = _usd_curve(alpha_mag, n_half, xs)
    return xs, ps, fs
