"""Tests for the phase-remapped constellation / USD probability machinery.

Expected values marked "frozen" were computed beforehand with a 40-digit
mpmath oracle (closed forms and high-precision Hermitian eigensolves); the
brute-force checks below recompute Gram matrices from the raw coherent-state
overlap formula rather than reusing the library's construction.
"""

import math

import numpy as np
import pytest

from ipaudit.statemath import (
    GramMatrix,
    StateSet,
    eigenvalues,
    gram_matrix,
    min_eigenvalue,
    ratio_curve,
    remap_grid,
    usd_asymptotic,
    usd_probability,
    usd_ratio,
)

# Frozen oracle values.
EXP_M2 = 0.1353352832366127        # e^-2
P_TWO_STATE_X1 = 0.8646647167633873   # 1 - e^-2
P_TWO_STATE_X05 = 0.6321205588285577  # 1 - e^-1
RATIO_X05 = 0.7310585786300049        # (1-e^-1)/(1-e^-2)
P_EXACT_SMALL = 0.019801326693244698  # 1 - e^-0.02


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


class TestStateSet:
    def test_phases_follow_the_remap_law(self):
        s = StateSet(1.0, 3, 0.7)
        assert len(s.phases) == 6
        for k, phase in enumerate(s.phases):
            assert phase == k * 0.7 * math.pi / 3

    def test_unit_factor_reproduces_equal_spacing(self):
        s = StateSet(0.5, 2, 1.0)
        assert s.phases == tuple(k * math.pi / 2 for k in range(4))

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
        with pytest.raises(ValueError):
            StateSet(**kwargs)


class TestGramMatrix:
    def test_two_state_entry_magnitude(self):
        g = gram_matrix(StateSet(1.0, 1, 1.0))
        assert abs(abs(g.entries[0, 1]) - EXP_M2) < 1e-12
        assert np.all(np.diagonal(g.entries) == 1.0)

    def test_zero_remap_gives_all_ones(self):
        g = gram_matrix(StateSet(1.0, 2, 0.0))
        assert np.allclose(g.entries, 1.0, atol=1e-15)

    def test_zero_amplitude_gives_all_ones(self):
        g = gram_matrix(StateSet(0.0, 3, 0.7))
        assert np.array_equal(g.entries, np.ones((6, 6), dtype=complex))

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
    @pytest.mark.parametrize("n_half", [1, 2, 3])
    @pytest.mark.parametrize("x", [0.0, 0.37, 1.0, 1.61, 2.0])
    def test_matches_raw_overlap_formula(self, alpha, n_half, x):
        g = gram_matrix(StateSet(alpha, n_half, x))
        expected = brute_force_gram(alpha, n_half, x)
        assert np.max(np.abs(g.entries - expected)) < 1e-13

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 0.5], [0.4, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            GramMatrix(bad)

    def test_rejects_non_unit_diagonal(self):
        bad = np.array([[2.0, 0.0], [0.0, 2.0]], dtype=complex)
        with pytest.raises(ValueError, match="diagonal"):
            GramMatrix(bad)

    def test_rejects_non_toeplitz(self):
        bad = np.array(
            [[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]], dtype=complex
        )
        with pytest.raises(ValueError, match="Toeplitz"):
            GramMatrix(bad)


class TestMinEigenvalue:
    def test_identity_matrix(self):
        g = GramMatrix(np.eye(4, dtype=complex))
        assert min_eigenvalue(g) == pytest.approx(1.0, abs=1e-12)

    def test_all_ones_matrix_is_singular(self):
        for m in (2, 4, 6):
            g = GramMatrix(np.ones((m, m), dtype=complex))
            assert abs(min_eigenvalue(g)) < 1e-9

    def test_symmetric_two_by_two(self):
        e = math.exp(-2.0)
        g = GramMatrix(np.array([[1.0, e], [e, 1.0]], dtype=complex))
        assert min_eigenvalue(g) == pytest.approx(P_TWO_STATE_X1, abs=1e-12)

    @pytest.mark.parametrize("n_half", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0])
    def test_dft_agrees_with_general_on_circulant(self, n_half, alpha, x):
        g = gram_matrix(StateSet(alpha, n_half, x))
        general = eigenvalues(g, "general")
        dft = eigenvalues(g, "circulant-dft")
        assert np.max(np.abs(general - dft)) < 1e-10

    def test_dft_refuses_non_circulant(self):
        g = gram_matrix(StateSet(1.0, 2, 0.5))
        with pytest.raises(ValueError, match="circulant"):
            eigenvalues(g, "circulant-dft")

    def test_unknown_method(self):
        g = gram_matrix(StateSet(1.0, 1, 1.0))
        with pytest.raises(ValueError, match="method"):
            eigenvalues(g, "qr")

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_half", [1, 2, 3, 4])
    def test_eigenvalue_sum_equals_trace(self, alpha, n_half):
        for x in np.arange(0.0, 2.01, 0.25):
            g = gram_matrix(StateSet(alpha, n_half, float(x)))
            lams = eigenvalues(g)
            assert abs(lams.sum() - 2 * n_half) < 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_half", [1, 2, 3, 4])
    def test_gram_positive_semidefinite(self, alpha, n_half):
        for x in np.arange(0.0, 2.01, 0.2):
            g = gram_matrix(StateSet(alpha, n_half, float(x)))
            assert eigenvalues(g).min() >= -1e-9


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
        # float64 resolution M*eps*lambda_max ~ 3e-14 of the eigensolve.
        with pytest.raises(ValueError, match="undefined ratio.*N = 10"):
            usd_ratio(1.0, 10, 0.5)
        with pytest.raises(ValueError, match="undefined ratio"):
            ratio_curve(1.0, 10)

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

    def test_ratio_curve_matches_pointwise_calls(self):
        xs, ps, fs = ratio_curve(1.0, 1, x_max=1.0, step=0.5)
        assert list(xs) == [0.0, 0.5, 1.0]
        assert list(ps) == [usd_probability(1.0, 1, x) for x in xs]
        assert list(fs) == [usd_ratio(1.0, 1, x) for x in xs]
