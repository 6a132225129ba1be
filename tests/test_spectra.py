"""Tests for spectrum loading, run aggregation, insertion loss and resampling."""

import math

import numpy as np
import pytest

from ipaudit.spectra import (
    DEFAULT_FLOOR_DB,
    LossSpectrum,
    Spectrum,
    aggregate_runs,
    canonical_grid,
    insertion_loss,
    load_loss_csv,
    load_spectrum,
    resample,
    write_loss_csv,
    write_spectrum,
)


def flat(values, w=None, unit="linear-power"):
    w = np.array([400.0, 401.0, 402.0]) if w is None else np.asarray(w, dtype=float)
    return Spectrum(w, np.full(w.size, float(values)) if np.isscalar(values) else values, unit=unit)


class TestCanonicalGrid:
    def test_span_and_step(self):
        g = canonical_grid()
        assert g[0] == 400.0 and g[-1] == 800.0
        assert len(g) == 401
        assert np.all(np.diff(g) == 1.0)


class TestSpectrumType:
    def test_basic_construction(self):
        s = Spectrum([400.0, 401.0], [1.0, 0.5])
        assert len(s) == 2
        assert s.unit == "linear-power"

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Spectrum([400.0, 401.0], [1.0])

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            Spectrum([401.0, 400.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            Spectrum([400.0, 400.0], [1.0, 1.0])

    def test_rejects_negative_linear_power(self):
        with pytest.raises(ValueError, match=">= 0"):
            Spectrum([400.0, 401.0], [1.0, -0.1])

    def test_db_values_may_be_negative(self):
        s = Spectrum([400.0, 401.0], [-3.0, -6.0], unit="dB")
        assert s.values[0] == -3.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            Spectrum(np.array([]), np.array([]))

    def test_arrays_are_immutable(self):
        s = Spectrum([400.0, 401.0], [1.0, 0.5])
        with pytest.raises(ValueError):
            s.values[0] = 2.0

    def test_does_not_freeze_caller_arrays(self):
        w = np.array([400.0, 401.0])
        v = np.array([1.0, 0.5])
        Spectrum(w, v)
        w[0] = 399.0  # caller's arrays stay writable
        v[0] = 2.0


class TestLoadSpectrum:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# unit: linear-power\nwavelength_nm,value\n400,1.0\n401,0.5\n")
        s = load_spectrum(p)
        assert len(s) == 2
        assert s.values[1] == 0.5
        assert s.unit == "linear-power"

    def test_unit_defaults_to_linear(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,value\n400,1.0\n401,0.5\n")
        assert load_spectrum(p).unit == "linear-power"

    def test_db_unit_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# unit: dB\nwavelength_nm,value\n400,-1.0\n401,-2.0\n")
        assert load_spectrum(p).unit == "dB"

    def test_rows_are_sorted(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,value\n402,2.0\n400,1.0\n401,0.5\n")
        s = load_spectrum(p)
        assert list(s.wavelengths_nm) == [400.0, 401.0, 402.0]
        assert list(s.values) == [1.0, 0.5, 2.0]

    def test_duplicate_wavelength_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,value\n500,1.0\n500,0.9\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_spectrum(p)

    def test_empty_data_section(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# unit: linear-power\nwavelength_nm,value\n")
        with pytest.raises(ValueError, match="empty spectrum"):
            load_spectrum(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,value\n400,1.0\n401,abc\n")
        with pytest.raises(ValueError, match="malformed"):
            load_spectrum(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("lambda,power\n400,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_spectrum(p)

    def test_negative_linear_power_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,value\n400,-1.0\n")
        with pytest.raises(ValueError, match=">= 0"):
            load_spectrum(p)

    def test_write_then_load_roundtrip(self, tmp_path):
        s = Spectrum([400.0, 450.5, 800.0], [0.1, 2.25e-7, 3.0], meta="fixture")
        p = tmp_path / "s.csv"
        write_spectrum(s, p)
        back = load_spectrum(p)
        assert np.array_equal(back.wavelengths_nm, s.wavelengths_nm)
        assert np.array_equal(back.values, s.values)


class TestAggregateRuns:
    def test_identical_runs(self):
        runs = [flat(1.5) for _ in range(10)]
        agg = aggregate_runs(runs)
        assert agg.n_runs == 10
        assert np.array_equal(agg.spectrum.values, runs[0].values)
        assert np.all(agg.stddev == 0.0)

    def test_two_point_statistics(self):
        runs = [flat(0.9), flat(1.1)]
        agg = aggregate_runs(runs)
        assert np.allclose(agg.spectrum.values, 1.0)
        assert np.allclose(agg.stddev, math.sqrt(0.02), atol=1e-12)

    def test_single_run_has_no_stddev(self):
        agg = aggregate_runs([flat(1.0)])
        assert agg.n_runs == 1
        assert agg.stddev is None

    def test_median_mode_resists_outliers(self):
        runs = [flat(1.0), flat(1.0), flat(1.0), flat(100.0)]
        agg = aggregate_runs(runs, mode="median")
        assert np.all(agg.spectrum.values == 1.0)

    def test_grid_mismatch(self):
        a = flat(1.0, w=[400.0, 401.0])
        b = flat(1.0, w=[400.0, 402.0])
        with pytest.raises(ValueError, match="grids"):
            aggregate_runs([a, b])

    def test_empty_list(self):
        with pytest.raises(ValueError, match="no runs"):
            aggregate_runs([])

    def test_noise_averaging_concentrates(self):
        # Zero-mean Gaussian noise of scale sigma: the mean of n runs should
        # sit within 4*sigma/sqrt(n) of the truth essentially always.  The
        # pass rate over seeded trials must clear 99%.
        rng = np.random.default_rng(20240817)
        truth = 1.0
        sigma = 0.05
        n_runs = 10
        grid = 400.0 + np.arange(10.0)
        bound = 4 * sigma / math.sqrt(n_runs)
        passes = 0
        trials = 300
        for _ in range(trials):
            runs = [
                Spectrum(grid, truth + rng.normal(0.0, sigma, grid.size))
                for _ in range(n_runs)
            ]
            agg = aggregate_runs(runs)
            if np.all(np.abs(agg.spectrum.values - truth) < bound):
                passes += 1
        assert passes / trials >= 0.99


class TestInsertionLoss:
    def test_identity(self):
        loss = insertion_loss(flat(1.0), flat(1.0))
        assert np.all(loss.loss_db == 0.0)
        assert not loss.floored.any()

    def test_twenty_db(self):
        loss = insertion_loss(flat(1.0), flat(0.01))
        assert np.allclose(loss.loss_db, 20.0, atol=1e-12)

    def test_filter_correction_cancels(self):
        loss = insertion_loss(flat(1.0), flat(0.5), filters=flat(0.5))
        assert np.allclose(loss.loss_db, 0.0, atol=1e-12)

    def test_db_filter_accepted(self):
        filters = flat(-3.0103, unit="dB")  # about half transmission
        loss = insertion_loss(flat(1.0), flat(0.5), filters=filters)
        assert np.allclose(loss.loss_db, 0.0, atol=1e-3)

    def test_floor_flagging(self):
        mes = flat(np.array([1.0, 1e-9, 0.0]))
        loss = insertion_loss(flat(1.0), mes, floor_db=50.0)
        assert not loss.floored[0]
        assert loss.floored[1] and loss.loss_db[1] == 50.0
        assert loss.floored[2] and loss.loss_db[2] == 50.0  # -inf ratio floors too

    def test_negative_loss_clamped_and_noted(self):
        loss = insertion_loss(flat(1.0), flat(1.1))
        assert np.all(loss.loss_db == 0.0)
        assert "clamped" in loss.meta

    def test_zero_reference_power(self):
        ref = flat(np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="zero reference"):
            insertion_loss(ref, flat(1.0))

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="resample"):
            insertion_loss(flat(1.0, w=[400.0, 401.0, 402.0]), flat(1.0, w=[400.0, 401.5, 402.0]))

    def test_roundtrip_recovers_synthetic_loss(self):
        # Construct P_mes = P_ref * T_f * 10^(-L/10) and recover L.
        grid = canonical_grid()
        rng = np.random.default_rng(7)
        target = 25.0 + 20.0 * np.sin(grid / 37.0) + rng.uniform(0, 10, grid.size)
        ref = Spectrum(grid, np.full(grid.size, 2.0))
        tf = Spectrum(grid, np.full(grid.size, 0.25))
        mes = Spectrum(grid, ref.values * tf.values * 10.0 ** (-target / 10.0))
        loss = insertion_loss(ref, mes, filters=tf)
        below = ~loss.floored
        assert loss.floored.any()  # the fixture must actually cross the floor
        assert np.all(np.abs(loss.loss_db[below] - target[below]) < 1e-9)
        assert np.all(target[loss.floored] > DEFAULT_FLOOR_DB)

    def test_flooring_is_monotone(self):
        grid = canonical_grid()
        target = np.linspace(10.0, 70.0, grid.size)
        ref = Spectrum(grid, np.ones(grid.size))
        mes = Spectrum(grid, 10.0 ** (-target / 10.0))
        low = insertion_loss(ref, mes, floor_db=45.0)
        high = insertion_loss(ref, mes, floor_db=60.0)
        assert np.all(high.loss_db >= low.loss_db)

    def test_run_statistics_propagate(self):
        runs = [flat(0.9), flat(1.1)]
        agg = aggregate_runs(runs)
        loss = insertion_loss(flat(1.0), agg)
        assert loss.n_runs == 2
        # d(loss)/loss: (10/ln10) * sigma/mean = 4.3429 * 0.1414.. / 1.0
        expected = (10 / math.log(10)) * math.sqrt(0.02) / 1.0
        assert np.allclose(loss.stddev_db, expected, rtol=1e-12)

    def test_reference_scatter_kept_with_one_measurement_run(self):
        ref = aggregate_runs([flat(0.9), flat(1.0), flat(1.1)])
        loss = insertion_loss(ref, flat(0.5))
        assert loss.n_runs == 3
        # sample stddev of (0.9, 1.0, 1.1) is 0.1 around a mean of 1.0
        expected = (10 / math.log(10)) * 0.1 / 1.0
        assert np.allclose(loss.stddev_db, expected, rtol=1e-12)

    def test_run_count_is_the_larger_side(self):
        ref = aggregate_runs([flat(0.9), flat(1.0), flat(1.1)])
        mes = aggregate_runs([flat(0.45), flat(0.55)])
        loss = insertion_loss(ref, mes)
        assert loss.n_runs == 3
        rel_sq = 0.1**2 + (math.sqrt(0.005) / 0.5) ** 2
        assert np.allclose(loss.stddev_db, (10 / math.log(10)) * math.sqrt(rel_sq), rtol=1e-12)

    def test_plain_spectra_carry_no_statistics(self):
        loss = insertion_loss(flat(1.0), flat(0.5))
        assert loss.n_runs == 1
        assert loss.stddev_db is None


class TestLossSpectrumType:
    def test_floored_points_must_sit_at_floor(self):
        with pytest.raises(ValueError, match="floor"):
            LossSpectrum(
                [400.0, 401.0], [10.0, 49.0], [False, True], floor_db=50.0
            )

    def test_stddev_presence_follows_n_runs(self):
        with pytest.raises(ValueError, match="stddev"):
            LossSpectrum([400.0], [1.0], [False], n_runs=3)
        with pytest.raises(ValueError, match="stddev"):
            LossSpectrum([400.0], [1.0], [False], n_runs=1, stddev_db=[0.1])

    def test_rejects_negative_losses(self):
        with pytest.raises(ValueError, match=">= 0"):
            LossSpectrum([400.0], [-1.0], [False])


class TestResample:
    def test_idempotent_on_own_grid(self):
        s = flat(np.array([1.0, 2.0, 4.0]))
        out = resample(s, s.wavelengths_nm)
        assert np.array_equal(out.values, s.values)

    def test_linear_midpoint(self):
        s = Spectrum([400.0, 402.0], [0.0, 2.0])
        out = resample(s, [401.0])
        assert out.values[0] == 1.0

    def test_extrapolation_refused(self):
        s = Spectrum([400.0, 402.0], [0.0, 2.0])
        with pytest.raises(ValueError, match="extrapolation"):
            resample(s, [399.0])
        with pytest.raises(ValueError, match="extrapolation"):
            resample(s, [402.5])

    def test_values_between_bracketing_samples(self):
        rng = np.random.default_rng(3)
        w = np.sort(rng.uniform(400, 800, 40))
        w = np.unique(w)
        s = Spectrum(w, rng.uniform(0, 5, w.size))
        grid = np.linspace(w[0], w[-1], 101)
        out = resample(s, grid)
        for gw, gv in zip(out.wavelengths_nm, out.values):
            i = np.searchsorted(w, gw, side="right") - 1
            i = min(i, w.size - 2)
            lo, hi = sorted((s.values[i], s.values[i + 1]))
            assert lo - 1e-12 <= gv <= hi + 1e-12

    def test_exact_on_shared_grid_points(self):
        s = Spectrum([400.0, 401.0, 402.0], [0.123456789, 2.0, 3.0])
        out = resample(s, [400.0, 400.5, 401.0])
        assert out.values[0] == s.values[0]
        assert out.values[2] == s.values[1]


class TestLossCsvRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        grid = np.array([400.0, 401.0, 402.0])
        loss = LossSpectrum(
            grid,
            [10.123456789012345, 50.0, 0.0],
            [False, True, False],
            floor_db=50.0,
            n_runs=10,
            stddev_db=[0.01, 0.5, 0.0001],
            meta="fixture",
        )
        p = tmp_path / "loss.csv"
        write_loss_csv(loss, p)
        back = load_loss_csv(p)
        assert np.array_equal(back.wavelengths_nm, loss.wavelengths_nm)
        assert np.array_equal(back.loss_db, loss.loss_db)
        assert np.array_equal(back.floored, loss.floored)
        assert np.array_equal(back.stddev_db, loss.stddev_db)
        assert back.floor_db == loss.floor_db
        assert back.n_runs == loss.n_runs

    def test_malformed_row_names_path_and_line(self, tmp_path):
        p = tmp_path / "loss.csv"
        p.write_text("# floor_db: 50.0\nwavelength_nm,loss_db,floored\n400,1.0,0\n401,x,0\n")
        with pytest.raises(ValueError, match=r"loss\.csv:4: malformed row"):
            load_loss_csv(p)

    def test_bad_header_names_path_and_line(self, tmp_path):
        p = tmp_path / "loss.csv"
        p.write_text("wavelength_nm,loss\n400,1.0\n")
        with pytest.raises(ValueError, match=r"loss\.csv:1: expected header"):
            load_loss_csv(p)

    def test_roundtrip_without_statistics(self, tmp_path):
        grid = np.array([400.0, 401.0])
        loss = LossSpectrum(grid, [1.0, 2.0], [False, False])
        p = tmp_path / "loss.csv"
        write_loss_csv(loss, p)
        back = load_loss_csv(p)
        assert back.stddev_db is None
        assert np.array_equal(back.loss_db, loss.loss_db)
