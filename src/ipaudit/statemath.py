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

This module builds the remapped constellations and their Gram matrices,
computes minimal eigenvalues by two independent routes (a general Hermitian
eigensolver and, for symmetric constellations where the Gram matrix is
circulant, a discrete-Fourier-transform diagonalization), and evaluates the
USD probability, its ratio against the undistorted x = 1 grid, and the
small-amplitude asymptotic of the undistorted probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StateSet",
    "GramMatrix",
    "gram_matrix",
    "eigenvalues",
    "min_eigenvalue",
    "usd_probability",
    "usd_ratio",
    "usd_asymptotic",
    "remap_grid",
    "ratio_curve",
]

# Validation tolerances for matrices built outside gram_matrix().
_HERMITIAN_TOL = 1e-12
_TOEPLITZ_TOL = 1e-12
_DIAGONAL_TOL = 1e-12
_CIRCULANT_TOL = 1e-10
_DFT_IMAG_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class StateSet:
    """A set of 2N coherent states with phases remapped by a factor x.

    State k (k = 0 .. 2N-1) has complex amplitude alpha_mag * exp(i*phases[k])
    with phases[k] = k * remap_x * pi / n_half.  remap_x = 1 reproduces the
    unperturbed, equally spaced constellation.
    """

    alpha_mag: float
    n_half: int
    remap_x: float
    phases: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha_mag) and self.alpha_mag >= 0):
            raise ValueError(f"alpha_mag must be finite and >= 0, got {self.alpha_mag}")
        if self.n_half < 1:
            raise ValueError(f"n_half must be a positive integer, got {self.n_half}")
        if not (math.isfinite(self.remap_x) and self.remap_x >= 0):
            raise ValueError(f"remap_x must be finite and >= 0, got {self.remap_x}")
        phases = tuple(
            k * self.remap_x * math.pi / self.n_half for k in range(2 * self.n_half)
        )
        object.__setattr__(self, "phases", phases)

    @property
    def size(self) -> int:
        """Number of states M = 2N."""
        return 2 * self.n_half


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian Toeplitz matrix of pairwise overlaps of a state set.

    Entries satisfy entry[j][k] = conj(entry[k][j]), the diagonal is 1, and
    entry[j][k] depends only on k - j.  Positive semidefiniteness follows from
    the construction (it is a Gram matrix) and is checked by the test suite
    rather than at every instantiation.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be a square matrix, got shape {entries.shape}")
        if entries.shape[0] < 1:
            raise ValueError("empty matrix")
        if np.max(np.abs(entries - entries.conj().T)) > _HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian")
        if np.max(np.abs(np.diagonal(entries) - 1.0)) > _DIAGONAL_TOL:
            raise ValueError("diagonal entries must equal 1")
        for offset in range(-entries.shape[0] + 1, entries.shape[0]):
            diag = np.diagonal(entries, offset)
            if np.max(np.abs(diag - diag[0])) > _TOEPLITZ_TOL:
                raise ValueError("matrix is not Toeplitz")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def first_row(self) -> np.ndarray:
        return self.entries[0]

    def is_circulant(self, tol: float = _CIRCULANT_TOL) -> bool:
        """True when every row is the previous one rotated right by one."""
        first = self.entries[0]
        for j in range(1, self.dim):
            if np.max(np.abs(self.entries[j] - np.roll(first, j))) > tol:
                return False
        return True


def gram_matrix(states: StateSet) -> GramMatrix:
    """Pairwise-overlap matrix of a remapped constellation.

    The overlap of two coherent states of equal modulus a separated by a
    phase angle d is exp(a^2 * (exp(i*d) - 1)); the separation between states
    j and k is (k - j) * x * pi / N, so the matrix is Toeplitz and Hermitian
    by construction.
    """
    a_sq = states.alpha_mag**2
    m = states.size
    # Overlap for nonnegative index separation d; negative separations are the
    # exact conjugates, which keeps the matrix Hermitian to the last bit.
    upper = np.exp(a_sq * (np.exp(1j * np.asarray(states.phases)) - 1.0))
    entries = np.empty((m, m), dtype=complex)
    for j in range(m):
        for k in range(m):
            d = k - j
            entries[j, k] = upper[d] if d >= 0 else upper[-d].conjugate()
    return GramMatrix(entries)


def eigenvalues(gram: GramMatrix, method: str = "general") -> np.ndarray:
    """All eigenvalues of a Gram matrix, sorted ascending.

    method "general" uses a Hermitian eigensolver and works for any valid
    matrix.  method "circulant-dft" diagonalizes by the DFT of the first row,
    lambda_q = sum_k entry[0][k] * exp(-2*pi*i*q*k / M); it is only valid for
    circulant matrices (integer remap factors) and raises otherwise.
    """
    if method == "general":
        return np.linalg.eigvalsh(gram.entries)
    if method == "circulant-dft":
        if not gram.is_circulant():
            raise ValueError(
                "circulant-dft method requires a circulant Gram matrix "
                "(integer remap factor); use method='general'"
            )
        m = gram.dim
        q = np.arange(m)
        phase = np.exp(-2j * np.pi * np.outer(q, q) / m)
        lams = phase @ gram.first_row
        worst = float(np.max(np.abs(lams.imag)))
        if worst > _DFT_IMAG_TOL:
            raise ValueError(
                f"DFT eigenvalues have non-vanishing imaginary parts ({worst:.3e})"
            )
        return np.sort(lams.real)
    raise ValueError(f"unknown method {method!r}; expected 'general' or 'circulant-dft'")


def min_eigenvalue(gram: GramMatrix, method: str = "general") -> float:
    """Smallest eigenvalue of a Gram matrix."""
    return float(eigenvalues(gram, method)[0])


def usd_probability(alpha_mag: float, n_half: int, remap_x: float) -> float:
    """Optimal USD success probability of the remapped constellation.

    Equals the minimal Gram eigenvalue of the equiprobable set.  Degenerate
    constellations (coinciding states) make the Gram matrix singular; the
    numerical eigenvalue may then come out at -1e-15 or so, so the result is
    clamped at 0 to never report a negative probability.
    """
    states = StateSet(alpha_mag, n_half, remap_x)
    lam = min_eigenvalue(gram_matrix(states))
    return max(lam, 0.0)


def _usd_baseline(alpha_mag: float, n_half: int) -> float:
    """P(1), the USD probability of the undistorted grid, when resolvable.

    A float64 eigensolve fixes each eigenvalue only to within about
    M * eps * lambda_max (the Weyl bound, M = 2N states), so a P(1) at or
    below that bound cannot serve as the denominator of f(x) and is refused.
    alpha_mag = 0 (identical states, all-ones Gram matrix) is refused too.
    """
    lams = eigenvalues(gram_matrix(StateSet(alpha_mag, n_half, 1.0)))
    p1 = max(float(lams[0]), 0.0)
    bound = 2 * n_half * _EPS * float(lams[-1])
    if p1 <= bound:
        raise ValueError(
            f"undefined ratio: baseline USD probability at x = 1 is P(1) = {p1:.3g} "
            f"for N = {n_half}, alpha = {alpha_mag:g}, not above the resolution "
            f"bound M*eps*lambda_max = {bound:.3g}"
        )
    return p1


def usd_ratio(alpha_mag: float, n_half: int, remap_x: float) -> float:
    """USD probability at remap factor x relative to the undistorted grid.

    f(x) = P(x) / P(1).  Raises when the baseline P(1) is not resolvable.
    """
    baseline = _usd_baseline(alpha_mag, n_half)
    return usd_probability(alpha_mag, n_half, remap_x) / baseline


def usd_asymptotic(alpha_mag: float, n_half: int) -> float:
    """Small-amplitude approximation of the undistorted USD probability.

    2N * (|alpha|^2)^(2N-1) / (2N-1)!, the leading term of P(x=1) as the
    amplitude goes to zero.
    """
    if alpha_mag < 0:
        raise ValueError(f"alpha_mag must be >= 0, got {alpha_mag}")
    if n_half < 1:
        raise ValueError(f"n_half must be a positive integer, got {n_half}")
    two_n = 2 * n_half
    return two_n * alpha_mag ** (2 * (two_n - 1)) / math.factorial(two_n - 1)


def remap_grid(x_max: float = 2.0, step: float = 0.01) -> np.ndarray:
    """Evaluation grid [0, x_max] with the given step, endpoints included."""
    if x_max <= 0 or step <= 0:
        raise ValueError("x_max and step must be positive")
    n = int(round(x_max / step))
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

    Returns (x, P, f).  Each grid point is eigensolved once, plus once more
    for the baseline P(1).
    """
    xs = remap_grid(x_max, step)
    baseline = _usd_baseline(alpha_mag, n_half)
    ps = np.array([usd_probability(alpha_mag, n_half, x) for x in xs])
    return xs, ps, ps / baseline
