"""Tests for the phase-remapped constellation / USD probability machinery.

Expected values marked "frozen" were computed beforehand with a 40-digit
mpmath oracle (closed forms and high-precision Hermitian eigensolves); the
brute-force checks below recompute Gram matrices from the raw coherent-state
overlap formula rather than reusing the library's construction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipaudit.statemath import (
    MAX_GRAM_ENTRIES,
    MAX_GRID_POINTS,
    gram_matrix,
    ratio_curve,
    remap_grid,
    usd_probability,
    usd_ratio,
)

# Frozen oracle values.
EXP_M2 = 0.1353352832366127        # e^-2
P_TWO_STATE_X1 = 0.8646647167633873   # 1 - e^-2
P_TWO_STATE_X05 = 0.6321205588285577  # 1 - e^-1
RATIO_X05 = 0.7310585786300049        # (1-e^-1)/(1-e^-2)
P_EXACT_SMALL = 0.019801326693244698  # 1 - e^-0.02


def usd_asymptotic(alpha: float, n_half: int) -> float:
    """Small-amplitude oracle for the undistorted USD probability: the leading
    term 2N * alpha^(2(2N-1)) / (2N-1)! of P(x = 1) as alpha goes to zero."""
    two_n = 2 * n_half
    return two_n * alpha ** (2 * (two_n - 1)) / math.factorial(two_n - 1)


def closed_form_two_state(alpha: float, x: float) -> float:
    return 1.0 - math.exp(-(alpha**2) * (1.0 - math.cos(math.pi * x)))


def brute_force_gram(alpha: float, n_half: int, x: float) -> np.ndarray:
    """Overlap matrix from the generic coherent-state inner product.

    <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a)*b) for complex amplitudes a, b.
    Independent of the Toeplitz construction used by the library.
    """
    amps = [alpha * np.exp(1j * k * x * np.pi / n_half) for k in range(2 * n_half)]
    m = len(amps)
    g = np.empty((m, m), dtype=complex)
    for j in range(m):
        for k in range(m):
            a, b = amps[j], amps[k]
            g[j, k] = np.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + np.conj(a) * b)
    return g


def min_eigenvalue(g: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(g)[0])


class TestStateSet:
    """The remapped constellation as gram_matrix builds and checks it."""

    def test_phases_follow_the_remap_law(self):
        # Row 0 holds <state 0|state k> = exp(a^2 (e^(i phi_k) - 1)), so with
        # a = 1 the phase law phi_k = k * x * pi / N is read back exactly.
        g = gram_matrix(1.0, 3, 0.7)
        assert g.shape == (6, 6)
        for k in range(6):
            phase = k * 0.7 * math.pi / 3
            assert g[0, k] == np.exp(np.exp(1j * phase) - 1.0)

    def test_unit_factor_reproduces_equal_spacing(self):
        # Equally spaced states on the full circle: every row is the one
        # above rotated by one place, i.e. the matrix is circulant.
        g = gram_matrix(0.5, 2, 1.0)
        for j in range(4):
            assert np.max(np.abs(g[j] - np.roll(g[0], j))) < 1e-15

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha_mag=-0.1, n_half=1, remap_x=1.0),
            dict(alpha_mag=1.0, n_half=0, remap_x=1.0),
            dict(alpha_mag=1.0, n_half=1, remap_x=-0.5),
            dict(alpha_mag=math.nan, n_half=1, remap_x=1.0),
            dict(alpha_mag=math.inf, n_half=1, remap_x=1.0),
            dict(alpha_mag=1.0, n_half=1, remap_x=math.nan),
            dict(alpha_mag=1.0, n_half=1, remap_x=math.inf),
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        valid = dict(alpha_mag=1.0, n_half=1, remap_x=1.0)
        bad = next(k for k in kwargs if kwargs[k] != valid[k])
        with pytest.raises(ValueError, match=bad):
            gram_matrix(**kwargs)

    def test_rejects_any_invalid_factor_in_a_sweep(self):
        with pytest.raises(ValueError, match="remap_x must be finite and >= 0, got nan"):
            gram_matrix(1.0, 2, np.array([0.0, 0.5, math.nan, 1.0]))


class TestGramMatrix:
    def test_two_state_entry_magnitude(self):
        g = gram_matrix(1.0, 1, 1.0)
        assert abs(abs(g[0, 1]) - EXP_M2) < 1e-12
        assert np.all(np.diagonal(g) == 1.0)

    def test_zero_remap_gives_all_ones(self):
        g = gram_matrix(1.0, 2, 0.0)
        assert np.allclose(g, 1.0, atol=1e-15)

    def test_zero_amplitude_gives_all_ones(self):
        g = gram_matrix(0.0, 3, 0.7)
        assert np.array_equal(g, np.ones((6, 6), dtype=complex))

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
    @pytest.mark.parametrize("n_half", [1, 2, 3])
    @pytest.mark.parametrize("x", [0.0, 0.37, 1.0, 1.61, 2.0])
    def test_matches_raw_overlap_formula(self, alpha, n_half, x):
        g = gram_matrix(alpha, n_half, x)
        expected = brute_force_gram(alpha, n_half, x)
        assert np.max(np.abs(g - expected)) < 1e-13

    def test_is_exactly_hermitian(self):
        for n_half in (1, 2, 4):
            g = gram_matrix(1.3, n_half, np.array([0.0, 0.37, 1.0, 1.61]))
            assert np.array_equal(g, np.conj(np.swapaxes(g, -1, -2)))

    def test_has_unit_diagonal(self):
        g = gram_matrix(1.3, 3, np.array([0.0, 0.37, 1.0, 1.61]))
        assert np.all(np.diagonal(g, axis1=-2, axis2=-1) == 1.0)

    def test_is_toeplitz(self):
        for g in gram_matrix(1.3, 3, np.array([0.37, 1.0, 1.61])):
            for offset in range(-5, 6):
                diag = np.diagonal(g, offset)
                assert np.all(diag == diag[0])

    def test_stack_matches_scalar_calls_bit_for_bit(self):
        xs = np.array([0.0, 0.37, 1.0, 1.61, 2.0])
        stack = gram_matrix(0.9, 3, xs)
        assert stack.shape == (5, 6, 6)
        for x, g in zip(xs, stack):
            assert np.array_equal(g, gram_matrix(0.9, 3, float(x)))


class TestMinEigenvalue:
    def test_identity_matrix(self):
        # Four states 90 degrees apart at |alpha| = 10 overlap by e^-100:
        # the Gram matrix is the identity to double precision.
        g = gram_matrix(10.0, 2, 1.0)
        assert np.max(np.abs(g - np.eye(4))) < 1e-40
        assert min_eigenvalue(g) == pytest.approx(1.0, abs=1e-12)

    def test_all_ones_matrix_is_singular(self):
        for n_half in (1, 2, 3):
            g = gram_matrix(1.0, n_half, 0.0)
            assert np.array_equal(g, np.ones((2 * n_half, 2 * n_half), dtype=complex))
            assert abs(min_eigenvalue(g)) < 1e-9

    def test_symmetric_two_by_two(self):
        e = math.exp(-2.0)
        g = gram_matrix(1.0, 1, 1.0)
        assert np.max(np.abs(g - np.array([[1.0, e], [e, 1.0]]))) < 1e-16
        assert min_eigenvalue(g) == pytest.approx(P_TWO_STATE_X1, abs=1e-12)

    @pytest.mark.parametrize("n_half", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0])
    def test_dft_agrees_with_general_on_circulant(self, n_half, alpha, x):
        # At integer x the matrix is circulant and the DFT of its first row
        # diagonalizes it; that DFT is computed here, outside the library.
        g = gram_matrix(alpha, n_half, x)
        dft = np.fft.fft(g[0])
        assert np.max(np.abs(dft.imag)) < 1e-10
        assert np.max(np.abs(np.linalg.eigvalsh(g) - np.sort(dft.real))) < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_half", [1, 2, 3, 4])
    def test_eigenvalue_sum_equals_trace(self, alpha, n_half):
        lams = np.linalg.eigvalsh(gram_matrix(alpha, n_half, np.arange(0.0, 2.01, 0.25)))
        assert np.max(np.abs(lams.sum(axis=-1) - 2 * n_half)) < 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_half", [1, 2, 3, 4])
    def test_gram_positive_semidefinite(self, alpha, n_half):
        lams = np.linalg.eigvalsh(gram_matrix(alpha, n_half, np.arange(0.0, 2.01, 0.2)))
        assert lams.min() >= -1e-9


class TestUsdProbability:
    def test_frozen_two_state_points(self):
        assert usd_probability(1.0, 1, 1.0) == pytest.approx(P_TWO_STATE_X1, abs=1e-10)
        assert usd_probability(1.0, 1, 0.5) == pytest.approx(P_TWO_STATE_X05, abs=1e-10)

    def test_identical_states_are_indiscriminable(self):
        assert usd_probability(1.0, 2, 0.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_matches_closed_form_for_two_states(self, alpha):
        for x in np.arange(0.1, 1.95, 0.1):
            expected = closed_form_two_state(alpha, float(x))
            assert abs(usd_probability(alpha, 1, float(x)) - expected) < 1e-10

    def test_never_negative_on_degenerate_sets(self):
        for n_half in (2, 3, 4):
            assert usd_probability(1.0, n_half, 2.0) >= 0.0


class TestUsdRatio:
    def test_identity_point(self):
        for n_half in (1, 2, 3, 4):
            assert abs(usd_ratio(1.0, n_half, 1.0) - 1.0) < 1e-12

    def test_frozen_two_state_ratio(self):
        assert usd_ratio(1.0, 1, 0.5) == pytest.approx(RATIO_X05, abs=1e-10)

    def test_degenerate_four_state_set(self):
        # At x = 2 the four states collapse onto two doubled ones; the Gram
        # matrix is singular, so the brute-force eigensolve and the library
        # must both report zero.
        lam = np.linalg.eigvalsh(brute_force_gram(1.0, 2, 2.0)).min()
        assert abs(lam) < 1e-12
        assert usd_ratio(1.0, 2, 2.0) < 1e-12

    def test_zero_amplitude_is_an_error(self):
        with pytest.raises(ValueError, match="undefined ratio"):
            usd_ratio(0.0, 2, 0.5)

    def test_unresolvable_baseline_is_an_error(self):
        # At N = 10 the exact P(1) = 20 e^-1 / 19! ~ 6e-17 lies far below the
        # float64 resolution 4*M*eps*lambda_max ~ 1e-13 of the eigensolve.
        with pytest.raises(ValueError, match=r"undefined ratio.*N = 10.*4\*M\*eps"):
            usd_ratio(1.0, 10, 0.5)
        with pytest.raises(ValueError, match="undefined ratio"):
            ratio_curve(1.0, 10)

    @pytest.mark.parametrize("alpha, n_half", [(0.85, 8), (1.2, 10)])
    def test_baseline_within_four_times_the_bound_is_an_error(self, alpha, n_half):
        # The exact circulant series puts P(1) at 1.64x (N = 8) and 1.31x
        # (N = 10) of M*eps*lambda_max: above the bound itself, but inside
        # the eigensolver's observed error, so f cannot be trusted.
        with pytest.raises(ValueError, match="undefined ratio"):
            ratio_curve(alpha, n_half)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.5])
    @pytest.mark.parametrize("n_half", [1, 2, 3, 4])
    def test_bounded_by_unity(self, alpha, n_half):
        for x in np.arange(0.0, 2.01, 0.05):
            f = usd_ratio(alpha, n_half, float(x))
            assert 0.0 <= f <= 1.0 + 1e-12


class TestUsdAsymptotic:
    def test_two_state_reduction(self):
        assert usd_asymptotic(0.1, 1) == pytest.approx(0.02, abs=1e-15)

    def test_direct_substitution(self):
        assert usd_asymptotic(1.0, 2) == pytest.approx(4.0 / 6.0, rel=1e-15)

    def test_small_amplitude_agreement_two_states(self):
        alpha = math.sqrt(0.01)
        exact = usd_probability(alpha, 1, 1.0)
        assert exact == pytest.approx(P_EXACT_SMALL, abs=1e-10)
        assert exact / usd_asymptotic(alpha, 1) == pytest.approx(0.990066, abs=1e-4)

    @pytest.mark.parametrize("n_half", [1, 2, 3])
    def test_agreement_window(self, n_half):
        alpha = math.sqrt(0.01)
        ratio = usd_probability(alpha, n_half, 1.0) / usd_asymptotic(alpha, n_half)
        assert 0.98 <= ratio <= 1.02


class TestCurves:
    def test_grid_hits_round_values_exactly(self):
        xs = remap_grid(2.0, 0.01)
        assert xs[0] == 0.0
        assert xs[100] == 1.0
        assert xs[-1] == 2.0
        assert len(xs) == 201

    def test_ratio_curve_contains_identity_point(self):
        xs, ps, fs = ratio_curve(1.0, 2, x_max=2.0, step=0.25)
        i = np.flatnonzero(xs == 1.0)[0]
        assert fs[i] == 1.0

    def test_grid_is_capped_before_allocation(self):
        # 1e18 points would be refused by numpy only after trying; the count
        # is checked first, so this is cheap.
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            remap_grid(1e9, 1e-9)
        assert len(remap_grid(MAX_GRID_POINTS - 1, 1.0)) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            remap_grid(MAX_GRID_POINTS, 1.0)

    def test_gram_stack_is_capped_before_allocation(self):
        # 4e10 entries (640 GB) are refused from the sizes alone.
        with pytest.raises(ValueError, match="MAX_GRAM_ENTRIES"):
            gram_matrix(1.0, 10**5, 1.0)
        # The cap admits the largest grid the point cap allows at N = 2,
        # plus the appended x = 1 baseline; that stack is never built here.
        assert MAX_GRAM_ENTRIES >= 16 * (MAX_GRID_POINTS + 1)

    def test_alpha_whose_square_overflows_is_refused(self):
        with pytest.raises(ValueError, match="alpha_mag must be finite"):
            gram_matrix(1e200, 2, 1.0)

    @pytest.mark.parametrize(
        "x_max, step",
        [(math.inf, 0.01), (math.nan, 0.01), (2.0, math.nan), (2.0, math.inf),
         (2.0, 0.0), (0.0, 0.01), (-1.0, 0.01)],
    )
    def test_grid_rejects_non_finite_or_non_positive(self, x_max, step):
        with pytest.raises(ValueError, match="finite and positive"):
            remap_grid(x_max, step)

    def test_ratio_curve_matches_pointwise_calls(self):
        xs, ps, fs = ratio_curve(1.0, 1, x_max=1.0, step=0.5)
        assert list(xs) == [0.0, 0.5, 1.0]
        assert list(ps) == [usd_probability(1.0, 1, x) for x in xs]
        assert list(fs) == [usd_ratio(1.0, 1, x) for x in xs]

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.3, 2.0),
        n_half=st.integers(1, 4),
        x_max=st.floats(0.05, 2.5),
        step=st.sampled_from([0.01, 0.05, 0.1, 0.25]),
    )
    def test_ratio_curve_is_the_pointwise_probability(self, alpha, n_half, x_max, step):
        xs, ps, fs = ratio_curve(alpha, n_half, x_max, step)
        assert [float(p) for p in ps] == [usd_probability(alpha, n_half, x) for x in xs]
        assert np.all((fs >= 0.0) & (fs <= 1.0))
