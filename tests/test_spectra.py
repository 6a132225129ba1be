"""Tests for spectrum loading, run aggregation, insertion loss and resampling."""

import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ipaudit.spectra import (
    DEFAULT_FLOOR_DB,
    Cells,
    LossSpectrum,
    Spectrum,
    _read_csv,
    aggregate_runs,
    canonical_grid,
    cells,
    csv_text,
    insertion_loss,
    json_text,
    load_loss_csv,
    load_spectrum,
    loss_csv_text,
    resample,
    write_files,
)


def read_csv_oracle(path, headers):
    """The CSV format defined line by line: the reader as it stood before it
    handed the data rows to numpy, kept as the reference `_read_csv` must match."""
    comments = []
    n_cols = 0
    values = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line.lstrip("#").strip())
            continue
        parts = line.split(",")
        if not n_cols:
            if [c.strip() for c in parts] not in headers:
                expected = " or ".join(repr(",".join(h)) for h in headers)
                raise ValueError(f"{path}:{lineno}: expected header {expected}, got {line!r}")
            n_cols = len(parts)
            continue
        if len(parts) != n_cols:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
        try:
            values.extend(map(float, parts))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from exc
    if not values:
        raise ValueError(f"{path}: empty spectrum")
    return comments, np.array(values).reshape(-1, n_cols)


SPECTRUM_HEADERS = [["wavelength_nm", "value"]]
LOSS_HEADERS = [["wavelength_nm", "loss_db", "floored"],
                ["wavelength_nm", "loss_db", "floored", "stddev_db"]]

# Cells that numpy and float() both read, that only float() reads (an
# underscore, non-ASCII digits), and that neither reads.
_CELLS_BOTH = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.sampled_from([" 1.5 ", "\t2", "1e5", "-2.5E-3", ".5", "1.", "+7", "nan", "-inf",
                     "Infinity", "1e400"]),
)
_CELLS_ANY = st.one_of(
    _CELLS_BOTH,
    st.sampled_from(["1_0", "\u0661\u0662", "\uff13"]),
    st.sampled_from(["", " ", "abc", "0x10", "1 0", "#"]),
)
_FILLER = st.sampled_from(["", "   ", "\t", "# unit: dB", "#", "  # note, 1,2"])


@st.composite
def csv_files(draw):
    """Text of a CSV file and the header set to read it with.

    About half the files are a header and clean rows.  In the rest, blank,
    padded and '#' lines fall between rows, and rows may hold a cell only
    float() reads, a bad or empty cell, one field too few or too many, or a
    trailing comma, or every row may be one field too short or long.  Blank
    and '#' lines may precede the header, and line endings mix \\n, \\r\\n
    and a bare \\r."""
    headers = draw(st.sampled_from([SPECTRUM_HEADERS, LOSS_HEADERS]))
    header = draw(st.sampled_from(headers))
    noisy = draw(st.booleans())
    width = len(header) + (draw(st.sampled_from([0, 0, -1, 1])) if noisy else 0)
    lines = draw(st.lists(_FILLER, max_size=2))
    lines.append(draw(st.sampled_from([",".join(header), " , ".join(header)])))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 5)) if noisy else 5
        if kind == 0:
            lines.append(draw(_FILLER))
            continue
        n = width + (draw(st.sampled_from([-1, 1])) if kind == 1 else 0)
        cells = draw(st.lists(_CELLS_ANY if kind == 2 else _CELLS_BOTH, min_size=n, max_size=n))
        lines.append(",".join(cells) + ("," if kind == 3 else ""))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    return text, headers


def read_outcome(reader, path, headers):
    """Comments and row bits, or the refusal's text."""
    try:
        comments, rows = reader(path, headers)
    except ValueError as exc:
        return str(exc)
    return comments, rows.shape, np.ascontiguousarray(rows).view(np.uint64).tolist()


# Grids and run statistics that both spectrum types refuse: (wavelengths,
# n_runs, stddev, what the one-line refusal names).
BAD_GRIDS_AND_RUNS = [
    ([400.0, math.nan], 1, None, "wavelengths must be 1-d and finite"),
    ([400.0, math.inf], 1, None, "wavelengths must be 1-d and finite"),
    ([400.0, 401.0], 0, None, "n_runs must be >= 1, got 0"),
    ([400.0, 401.0], -3, None, "n_runs must be >= 1, got -3"),
    ([400.0, 401.0], 2, [0.1, math.nan], "non-finite stddev"),
    ([400.0, 401.0], 2, [0.1, -1.0], "stddev(_db)? must be >= 0"),
    ([400.0, 401.0], 2, [0.1], "stddev(_db)? must be on the wavelength grid"),
]
BAD_IDS = ["nan-wavelength", "inf-wavelength", "zero-runs", "negative-runs", "nan-stddev",
           "negative-stddev", "short-stddev"]


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

    @pytest.mark.parametrize("w, n_runs, stddev, message", BAD_GRIDS_AND_RUNS, ids=BAD_IDS)
    def test_rejects_a_bad_grid_or_bad_run_statistics(self, w, n_runs, stddev, message):
        with pytest.raises(ValueError, match=message) as info:
            Spectrum(w, [1.0, 1.0], n_runs=n_runs, stddev=stddev)
        assert "\n" not in str(info.value)

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

    def test_repr_floats_read_back_exactly(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(
            "# unit: linear-power\nwavelength_nm,value\n400.0,0.1\n450.5,2.25e-07\n800.0,3.0\n"
        )
        back = load_spectrum(p)
        assert back.wavelengths_nm.tolist() == [400.0, 450.5, 800.0]
        assert back.values.tolist() == [0.1, 2.25e-7, 3.0]
        assert back.unit == "linear-power"


class TestReadCsv:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_files())
    def test_matches_the_line_by_line_format(self, tmp_path, case):
        text, headers = case
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_outcome(_read_csv, path, headers)
        assert got == read_outcome(read_csv_oracle, path, headers)

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n# note\r\n"])
    def test_a_header_alone_is_an_empty_spectrum_without_a_warning(self, tmp_path, body):
        path = tmp_path / "f.csv"
        path.write_bytes(f"# unit: dB\nwavelength_nm,value{body}".encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: empty spectrum$"):
                _read_csv(path, SPECTRUM_HEADERS)

    def test_forms_only_float_reads_give_the_same_rows(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("wavelength_nm,value\n400,1_0\n\u0664\u0660\u0661,2\n")
        comments, rows = _read_csv(path, SPECTRUM_HEADERS)
        assert comments == [] and rows.tolist() == [[400.0, 10.0], [401.0, 2.0]]

    @pytest.mark.parametrize(
        "text, where",
        [
            ("wavelength_nm,value\n400,1\n# mid\n\n401,2,\n", "5: malformed row '401,2,'"),
            ("wavelength_nm,value\n400,1,0\n401,2,0\n", "2: malformed row '400,1,0'"),
            ("wavelength_nm,value\n\n400\n", "3: malformed row '400'"),
        ],
        ids=["after-a-comment", "every-row-too-long", "one-short-row"],
    )
    def test_a_bad_row_names_its_line(self, tmp_path, text, where):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:{where}')}$"):
            _read_csv(path, SPECTRUM_HEADERS)


class TestAggregateRuns:
    def test_identical_runs(self):
        runs = [flat(1.5) for _ in range(10)]
        agg = aggregate_runs(runs)
        assert agg.n_runs == 10
        assert np.array_equal(agg.values, runs[0].values)
        assert np.all(agg.stddev == 0.0)

    def test_two_point_statistics(self):
        runs = [flat(0.9), flat(1.1)]
        agg = aggregate_runs(runs)
        assert np.allclose(agg.values, 1.0)
        assert np.allclose(agg.stddev, math.sqrt(0.02), atol=1e-12)

    def test_single_run_has_no_stddev(self):
        agg = aggregate_runs([flat(1.0)])
        assert agg.n_runs == 1
        assert agg.stddev is None

    def test_median_mode_resists_outliers(self):
        runs = [flat(1.0), flat(1.0), flat(1.0), flat(100.0)]
        agg = aggregate_runs(runs, mode="median")
        assert np.all(agg.values == 1.0)

    def test_grid_mismatch(self):
        a = flat(1.0, w=[400.0, 401.0])
        b = flat(1.0, w=[400.0, 402.0])
        with pytest.raises(ValueError, match="grids"):
            aggregate_runs([a, b])

    def test_empty_list(self):
        with pytest.raises(ValueError, match="no runs"):
            aggregate_runs([])

    def test_refuses_a_spectrum_already_combined_from_runs(self):
        combined = aggregate_runs([flat(0.9), flat(1.1)])
        for runs in ([combined, flat(1.0)], [flat(1.0), combined]):
            with pytest.raises(ValueError, match="^each run to aggregate must be a single run, "
                                                 "not a combination of 2 runs$"):
                aggregate_runs(runs)

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
            if np.all(np.abs(agg.values - truth) < bound):
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

    @pytest.mark.parametrize("floor_db", [math.nan, math.inf, -math.inf, 0.0, -3.0])
    def test_rejects_a_floor_that_is_not_finite_and_positive(self, floor_db):
        with pytest.raises(ValueError, match="floor_db must be finite and positive"):
            insertion_loss(flat(1.0), flat(1e-9), floor_db=floor_db)

    def test_negative_loss_clamped_and_noted(self):
        loss = insertion_loss(flat(1.0), flat(1.1))
        assert np.all(loss.loss_db == 0.0)
        assert "clamped" in loss.meta

    def test_loss_exactly_at_the_floor_is_not_flagged(self):
        loss = insertion_loss(flat(1.0), flat(0.01), floor_db=20.0)
        assert np.all(loss.loss_db == 20.0)  # -10*log10(0.01) is 20 to the last bit
        assert not loss.floored.any()

    def test_refuses_a_filter_combined_from_runs(self):
        filters = aggregate_runs([flat(0.4), flat(0.6)])
        with pytest.raises(ValueError, match="filter spectrum must be a single run"):
            insertion_loss(flat(1.0), flat(0.5), filters=filters)

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

    @pytest.mark.parametrize("w, n_runs, stddev, message", BAD_GRIDS_AND_RUNS, ids=BAD_IDS)
    def test_rejects_a_bad_grid_or_bad_run_statistics(self, w, n_runs, stddev, message):
        with pytest.raises(ValueError, match=message) as info:
            LossSpectrum(w, [1.0, 1.0], [False, False], n_runs=n_runs, stddev_db=stddev)
        assert "\n" not in str(info.value)


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

    def test_refuses_a_spectrum_combined_from_runs(self):
        combined = aggregate_runs([flat(0.9), flat(1.1), flat(1.0)])
        with pytest.raises(ValueError, match="^the spectrum to resample must be a single run, "
                                             "not a combination of 3 runs$"):
            resample(combined, [400.5])

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
        p.write_text(loss_csv_text(loss), encoding="utf-8")
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

    @pytest.mark.parametrize("floor", ["nan", "inf", "0", "-5", "abc"])
    def test_rejects_a_floor_that_is_not_finite_and_positive(self, tmp_path, floor):
        p = tmp_path / "loss.csv"
        p.write_text(f"# floor_db: {floor}\nwavelength_nm,loss_db,floored\n400,1.0,0\n")
        why = "could not convert" if floor == "abc" else "floor_db must be finite and positive"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: {why}"):
            load_loss_csv(p)

    # A CSV cannot hold a short stddev_db column, so the last case is left out.
    @pytest.mark.parametrize("w, n_runs, stddev, message", BAD_GRIDS_AND_RUNS[:-1],
                             ids=BAD_IDS[:-1])
    def test_rejects_a_bad_grid_or_bad_run_statistics(self, tmp_path, w, n_runs, stddev, message):
        p = tmp_path / "loss.csv"
        header = "wavelength_nm,loss_db,floored" + (",stddev_db" if stddev else "")
        rows = [f"{x!r},1.0,0" + (f",{s!r}" if stddev else "") for x, s in zip(w, stddev or w)]
        p.write_text("\n".join([f"# n_runs: {n_runs}", header, *rows]) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: {message}") as info:
            load_loss_csv(p)
        assert "\n" not in str(info.value)

    def test_roundtrip_without_statistics(self, tmp_path):
        grid = np.array([400.0, 401.0])
        loss = LossSpectrum(grid, [1.0, 2.0], [False, False])
        p = tmp_path / "loss.csv"
        p.write_text(loss_csv_text(loss), encoding="utf-8")
        back = load_loss_csv(p)
        assert back.stddev_db is None
        assert np.array_equal(back.loss_db, loss.loss_db)


def json_oracle(doc):
    """The JSON format as the standard library writes it: the reference for json_text."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def csv_oracle(header, columns, comments):
    """The CSV format written row by row: the reference for csv_text."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    lines = [f"# {c}" for c in comments] + [header] + [",".join(map(repr, r)) for r in rows]
    return "\n".join(lines) + "\n"


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 1e16, 5e-324, 1e-5, 0.1, 1.7976931348623157e308])
_INTS = st.integers(-(2**63), 2**63 - 1)
_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é€😀", "a\"b\\c\n\t", ""])
_BIG_INTS = st.integers(2**64, 2**300) | st.integers(-(2**300), -(2**64))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _BIG_INTS, _FLOATS, _TEXT).map(
    lambda v: (v, v))
# A list of numbers given to json_text as Cells, and to the oracle as the list.
_CELL_LISTS = (st.lists(_FLOATS, max_size=8) | st.lists(_INTS, max_size=8)).map(
    lambda v: (cells(v), v))


def _containers(children, min_size=0):
    """Lists, tuples and str-keyed dicts of (json_text doc, oracle doc) pairs."""
    def split(pairs, kind):
        return kind(a for a, _ in pairs), kind(b for _, b in pairs)

    return st.one_of(
        st.lists(children, min_size=min_size, max_size=4).map(lambda ps: split(ps, list)),
        st.lists(children, min_size=min_size, max_size=4).map(lambda ps: split(ps, tuple)),
        st.dictionaries(_TEXT, children, min_size=min_size, max_size=4).map(
            lambda d: ({k: a for k, (a, _) in d.items()}, {k: b for k, (_, b) in d.items()})),
    )


_DOCS = st.recursive(_SCALARS | _CELL_LISTS, _containers, max_leaves=25)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _docs_with_a_non_finite_number(draw):
    """A doc pair holding NaN or +-inf as a number or in a Cells, among finite values."""
    bad = draw(_NON_FINITE)
    doc, oracle = draw(st.sampled_from([(bad, bad), (cells([1.0, bad]), [1.0, bad])]))
    for _ in range(draw(st.integers(0, 3))):
        others, where = draw(_containers(_DOCS)), draw(_TEXT)
        if isinstance(others[0], dict):
            doc, oracle = {**others[0], where: doc}, {**others[1], where: oracle}
        else:
            at = draw(st.integers(0, len(others[0])))
            doc = type(others[0])([*others[0][:at], doc, *others[0][at:]])
            oracle = type(others[1])([*others[1][:at], oracle, *others[1][at:]])
    return doc, oracle


@st.composite
def _csv_tables(draw):
    """Header, columns (float, int or either as Cells) and comments, and the
    columns as the oracle is given them."""
    n = draw(st.integers(0, 6))
    columns, plain = [], []
    for _ in range(draw(st.integers(1, 4))):
        values = np.array(draw(st.lists(draw(st.sampled_from([_FLOATS, _INTS])),
                                        min_size=n, max_size=n)))
        plain.append(values)
        columns.append(cells(values) if draw(st.booleans()) else values)
    comments = draw(st.lists(st.text(st.characters(exclude_characters="\r\n")), max_size=3))
    header = ",".join(f"c{i}" for i in range(len(columns)))
    return header, columns, comments, plain


class TestRenderers:
    @settings(max_examples=100, deadline=None)
    @given(pair=_DOCS)
    def test_json_is_the_standard_librarys_bytes(self, pair):
        doc, oracle = pair
        assert json_text(doc) == json_oracle(oracle)

    @settings(max_examples=40, deadline=None)
    @given(pair=_docs_with_a_non_finite_number())
    def test_json_refuses_a_non_finite_number_anywhere(self, pair):
        doc, oracle = pair
        with pytest.raises(ValueError):
            json_oracle(oracle)
        with pytest.raises(ValueError):
            json_text(doc)

    @settings(max_examples=60, deadline=None)
    @given(table=_csv_tables())
    def test_csv_is_the_row_by_row_text(self, table):
        header, columns, comments, plain = table
        assert csv_text(header, columns, comments) == csv_oracle(header, plain, comments)

    def test_cells_are_read_only_and_know_if_they_are_finite(self):
        assert cells(np.array([1, 2])) == ("1", "2") and isinstance(cells([0.5]), Cells)
        assert cells([0.1, -0.0]).finite and Cells().finite
        assert not any(cells([1.0, v]).finite for v in (math.nan, math.inf, -math.inf))
        with pytest.raises(AttributeError):
            cells([1.0]).finite = False

    def test_csv_cells_round_trip_exactly(self):
        values = [1e16, 1e-05, -0.0, 5e-324, 0.1]
        text = csv_text("v,flag", [np.array(values), np.array([1, 0, 1, 0, 1])], ["note: x"])
        lines = text.splitlines()
        assert lines[:2] == ["# note: x", "v,flag"]
        cells = [line.split(",") for line in lines[2:]]
        got = np.array([float(v) for v, _ in cells])
        # Compare bit patterns, so -0.0 and the subnormal count too.
        assert np.array_equal(got.view(np.uint64), np.array(values).view(np.uint64))
        assert [f for _, f in cells] == ["1", "0", "1", "0", "1"]
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_json_refuses_non_finite_numbers(self):
        assert json_text({"b": [1.5], "a": True}) == '{\n  "a": true,\n  "b": [\n    1.5\n  ]\n}\n'
        with pytest.raises(ValueError):
            json_text({"x": math.nan})


class TestWriteFiles:
    def test_writes_every_file_with_the_default_mode(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        targets = {tmp_path / "a.csv": "a\n", tmp_path / "sub" / "b.json": "{}\n"}
        write_files(targets)
        for path, text in targets.items():
            assert path.read_text(encoding="utf-8") == text
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.csv", "b.json", "sub"]

    def test_a_directory_target_replaces_nothing(self, tmp_path):
        (tmp_path / "a.csv").write_text("old\n")
        (tmp_path / "b.csv").mkdir()
        targets = [tmp_path / "a.csv", tmp_path / "new" / "c.csv",
                   tmp_path / "new" / "deep" / "d.csv", tmp_path / "b.csv"]
        with pytest.raises(OSError, match="b.csv is a directory"):
            write_files(dict.fromkeys(targets, "new\n"))
        assert (tmp_path / "a.csv").read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]
