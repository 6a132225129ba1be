"""Tests for the subcarrier-wave sideband/Holevo machinery.

scipy.special.j0 and mpmath serve as independent oracles for the hand-rolled
power series; frozen constants were computed with a 40-digit mpmath session.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import j0 as scipy_j0

from ipaudit.scw import (
    HOLEVO_INDEX_MAX,
    bessel_j0,
    binary_entropy,
    holevo_bound,
    holevo_curve,
)

# Frozen oracle values.
J0_AT_1 = 0.7651976865579666
J0_AT_0434 = 0.9534624516135298
J0_AT_0868 = 0.8203300397790952
SIDEBAND_AT_0434 = 0.0909093533631           # 1 - J0(0.434)^2
CHI_BASELINE = 0.582873427154                # chi(1, 0.434)
CHI_DM12 = 0.677461209173                    # chi(1, 0.5208)
H_FIG_ARG = 0.582872731655                   # h(0.139479)


def oracle_chi(alpha0_sq: float, m: float) -> float:
    """Holevo bound evaluated with mpmath Bessel/entropy routines."""
    mp.mp.dps = 40
    p = (1 - mp.e ** (-alpha0_sq * (1 - mp.besselj(0, 2 * m) ** 2))) / 2
    if p == 0:
        return 0.0
    h = -p * mp.log(p, 2) - (1 - p) * mp.log(1 - p, 2)
    return float(h)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_frozen_points(self):
        assert bessel_j0(1.0) == pytest.approx(J0_AT_1, abs=1e-9)
        assert bessel_j0(0.434) == pytest.approx(J0_AT_0434, abs=1e-10)
        assert bessel_j0(0.868) == pytest.approx(J0_AT_0868, abs=1e-5)

    def test_against_scipy_across_domain(self):
        ts = np.linspace(-12.0, 12.0, 481)
        worst = max(abs(bessel_j0(float(t)) - scipy_j0(t)) for t in ts)
        assert worst < 1e-10

    def test_even_function(self):
        for t in (0.3, 1.7, 6.5, 11.9):
            assert bessel_j0(t) == bessel_j0(-t)

    def test_domain_limit(self):
        bessel_j0(12.0)  # boundary itself is allowed
        with pytest.raises(ValueError, match="<= 12"):
            bessel_j0(12.000001)

    def test_within_four_eps_of_mpmath_where_holevo_bound_evaluates_it(self):
        # holevo_bound takes J0(2m) for m up to HOLEVO_INDEX_MAX.  The series
        # meets 4 eps there; one cut off at 1e-12 instead of 1e-16 errs by ~1e-12.
        ts = np.linspace(-2 * HOLEVO_INDEX_MAX, 2 * HOLEVO_INDEX_MAX, 241).tolist()
        with mp.workdps(30):
            worst = max(abs(mp.mpf(bessel_j0(t)) - mp.besselj(0, t)) for t in ts)
        assert worst <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("t", [0.5, 2.0, 7.3, 12.0])
    def test_truncation_error_bounded_by_first_omitted_term(self, t):
        # Replay the implementation's stopping rule, then bound the residual
        # of the truncated series in exact arithmetic.
        q = -0.25 * t * t
        term = 1.0
        n_terms = 0
        k = 1
        while True:
            term *= q / (k * k)
            if abs(term) < 1e-16:
                break
            n_terms = k
            k += 1
        mp.mp.dps = 60
        qq = mp.mpf(-0.25) * mp.mpf(t) ** 2
        partial = mp.mpf(1)
        tk = mp.mpf(1)
        for j in range(1, n_terms + 1):
            tk *= qq / (j * j)
            partial += tk
        omitted = abs(tk * qq / ((n_terms + 1) ** 2))
        assert abs(partial - mp.besselj(0, t)) <= omitted


class TestBinaryEntropy:
    def test_boundary_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_fig_baseline_argument(self):
        assert binary_entropy(0.139479) == pytest.approx(H_FIG_ARG, abs=1e-5)

    def test_symmetry(self):
        for p in np.arange(0.01, 0.5, 0.01):
            assert abs(binary_entropy(float(p)) - binary_entropy(float(1 - p))) < 1e-12

    @pytest.mark.parametrize("p", [-0.01, 1.01, 2.0])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            binary_entropy(p)


class TestSidebandPower:
    """The sideband share 1 - J0(m)^2 of a unit total power, from bessel_j0."""

    def test_working_point_gives_one_to_ten(self):
        carrier = bessel_j0(0.434) ** 2
        assert 1.0 - carrier == pytest.approx(SIDEBAND_AT_0434, abs=1e-9)
        assert 1.0 - carrier == pytest.approx(0.090910, abs=1e-4)
        assert (1.0 - carrier) / carrier == pytest.approx(0.100, abs=0.002)

    def test_no_modulation_no_sidebands(self):
        assert 1.0 - bessel_j0(0.0) ** 2 == 0.0

    def test_domain_error_propagates(self):
        with pytest.raises(ValueError, match="<= 12"):
            bessel_j0(13.0)
        with pytest.raises(ValueError, match="<= 12"):
            holevo_bound(1.0, 6.5)  # J0 of 2m = 13


class TestHolevoBound:
    def test_baseline_working_point(self):
        chi = holevo_bound(1.0, 0.434)
        assert chi == pytest.approx(CHI_BASELINE, abs=1e-9)
        assert chi == pytest.approx(0.5829, abs=0.005)

    def test_attacked_working_point(self):
        chi = holevo_bound(1.0, 0.5208)
        assert chi == pytest.approx(CHI_DM12, abs=1e-9)
        assert chi == pytest.approx(0.6775, abs=0.005)

    def test_no_modulation_leaks_nothing(self):
        assert holevo_bound(1.0, 0.0) == 0.0
        assert holevo_bound(7.0, 0.0) == 0.0

    def test_against_mpmath_oracle(self):
        for a0 in (0.5, 1.0, 2.0):
            for m in (0.1, 0.434, 0.9, 1.2):
                assert holevo_bound(a0, m) == pytest.approx(oracle_chi(a0, m), abs=1e-9)

    @pytest.mark.parametrize("alpha0_sq", [0.5, 1.0, 2.0])
    def test_monotone_in_m_inside_window(self, alpha0_sq):
        ms = np.arange(0.0, HOLEVO_INDEX_MAX + 1e-12, 0.01)
        chis = [holevo_bound(alpha0_sq, float(m)) for m in ms]
        assert all(b >= a for a, b in zip(chis, chis[1:]))
        assert all(0.0 <= c <= 1.0 for c in chis)


class TestHolevoGain:
    """The attacked index m*dm against the baseline m, through the public
    holevo_bound and holevo_curve."""

    def test_identity_factor(self):
        dms, attacked, baseline = holevo_curve(1.0, 0.434, 1.0, 0.01)
        assert dms[-1] == 1.0
        assert attacked[-1] == baseline[-1] == holevo_bound(1.0, 0.434)

    def test_published_attack_point(self):
        attacked = holevo_bound(1.0, 0.434 * 1.2)
        baseline = holevo_bound(1.0, 0.434)
        assert attacked == pytest.approx(0.6775, abs=0.005)
        assert baseline == pytest.approx(0.5829, abs=0.005)
        assert attacked > baseline

    def test_vanishing_factor_kills_the_channel(self):
        dms, attacked, _ = holevo_curve(1.0, 0.434, 2.0, 0.01)
        assert dms[0] == 0.0 and attacked[0] == 0.0
        assert holevo_bound(1.0, 0.434 * 1e-9) < 1e-8

    def test_gain_nonnegative_for_amplifying_factors(self):
        dms, attacked, baseline = holevo_curve(1.0, 0.434, 2.0, 0.01)
        assert np.all(attacked[dms >= 1.0] >= baseline[dms >= 1.0])

    def test_monotone_window_enforced(self):
        with pytest.raises(ValueError, match="monotone"):
            holevo_curve(1.0, 0.7, 2.0)  # attacked index 1.4 > 1.2024

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha0_sq"):
            holevo_curve(-1.0, 0.4, 1.0)
        with pytest.raises(ValueError, match="m must be >= 0"):
            holevo_curve(1.0, -0.4, 1.0)
        with pytest.raises(ValueError, match="finite and positive"):
            holevo_curve(1.0, 0.4, 0.0)
        with pytest.raises(ValueError, match="finite and positive"):
            holevo_curve(1.0, 0.4, -1.0)

    @pytest.mark.parametrize("alpha0_sq", [math.nan, math.inf, -1.0])
    def test_rejects_alpha0_sq_outside_zero_to_inf(self, alpha0_sq):
        with pytest.raises(ValueError, match="alpha0_sq must be"):
            holevo_bound(alpha0_sq, 0.4)


class TestHolevoCurve:
    def test_window_end_is_inside_the_window(self):
        m = HOLEVO_INDEX_MAX  # m * dm_max lands exactly on the window's end
        dms, attacked, _ = holevo_curve(1.0, m, 1.0, 0.01)
        assert dms[-1] * m == HOLEVO_INDEX_MAX
        assert attacked[-1] == holevo_bound(1.0, HOLEVO_INDEX_MAX)

    def test_shape_and_endpoints(self):
        dms, attacked, baseline = holevo_curve(1.0, 0.434, 2.0, 0.01)
        assert len(dms) == 201
        assert dms[0] == 0.0 and dms[-1] == 2.0
        assert attacked[0] == 0.0
        assert np.all(baseline == baseline[0])

    def test_strictly_increasing_beyond_identity(self):
        dms, attacked, _ = holevo_curve(1.0, 0.434, 2.0, 0.01)
        sel = dms >= 1.0
        vals = attacked[sel]
        assert np.all(np.diff(vals) > 0)

    def test_identity_row_matches_baseline(self):
        dms, attacked, baseline = holevo_curve(1.0, 0.434, 2.0, 0.01)
        i = np.flatnonzero(dms == 1.0)[0]
        assert attacked[i] == baseline[i]

    def test_window_violation_is_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            holevo_curve(1.0, 0.7, 2.0, 0.01)
