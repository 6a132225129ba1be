"""Tests for power conversion, chain budgets, envelopes, bands and verdicts."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipaudit.budget import (
    Chain,
    DEFAULT_THRESHOLDS,
    IpaThreshold,
    Slot,
    assess_ipa,
    convert_power,
    envelope,
    load_chain_config,
)
from ipaudit.components import Component
from ipaudit.spectra import LossSpectrum, canonical_grid

THREE_NW_DBM = -55.228787452803374  # frozen: 10*log10(3e-6)


def make_component(comp_id, curves, floor=120.0, kind="custom"):
    """Component from {direction: (loss array | scalar, floored array | None)}."""
    grid = canonical_grid()
    losses = {}
    for direction, spec in curves.items():
        vals, floored = spec
        vals = np.full(grid.size, float(vals)) if np.isscalar(vals) else np.asarray(vals, float)
        if floored is None:
            floored = np.zeros(grid.size, bool)
        losses[direction] = LossSpectrum(grid, vals, floored, floor_db=floor)
    return Component(id=comp_id, kind=kind, losses=losses, provenance="synthetic")


def single_chain(*components, input_power_dbm=40.0, direction="forward"):
    slots = tuple(Slot(((c.id, direction),)) for c in components)
    return Chain(slots, input_power_dbm=input_power_dbm)


class TestConvertPower:
    def test_one_milliwatt_is_zero_dbm(self):
        assert convert_power(1.0, "mW", "dBm") == 0.0

    def test_three_nanowatt(self):
        assert convert_power(3.0, "nW", "dBm") == pytest.approx(THREE_NW_DBM, abs=1e-9)
        assert convert_power(3.0, "nW", "dBm") == pytest.approx(-55.2288, abs=0.001)

    def test_roundtrip_identity(self):
        for p in (1e-6, 3.0, 42.0, 9.9e7):
            back = convert_power(convert_power(p, "nW", "dBm"), "dBm", "nW")
            assert abs(back - p) / p < 1e-12

    def test_between_linear_units(self):
        assert convert_power(1.0, "W", "mW") == pytest.approx(1000.0, rel=1e-15)
        assert convert_power(2500.0, "nW", "uW") == pytest.approx(2.5, rel=1e-12)

    def test_same_unit_passthrough(self):
        assert convert_power(-17.25, "dBm", "dBm") == -17.25

    def test_nonpositive_linear_power(self):
        with pytest.raises(ValueError, match="positive"):
            convert_power(0.0, "nW", "dBm")
        with pytest.raises(ValueError, match="positive"):
            convert_power(-1.0, "mW", "W")

    def test_unknown_unit(self):
        with pytest.raises(ValueError, match="unit"):
            convert_power(1.0, "dB", "dBm")


class TestIpaThreshold:
    def test_default_registry_has_the_single_published_entry(self):
        assert len(DEFAULT_THRESHOLDS) == 1
        thr = DEFAULT_THRESHOLDS[0]
        assert (thr.power, thr.unit) == (3.0, "nW")
        assert thr.to_dbm() == pytest.approx(THREE_NW_DBM, abs=1e-9)

    def test_dbm_threshold_passthrough(self):
        assert IpaThreshold(-50.0, "dBm").to_dbm() == -50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            IpaThreshold(0.0, "nW")
        with pytest.raises(ValueError):
            IpaThreshold(1.0, "W")

    @pytest.mark.parametrize("unit", ["nW", "dBm"])
    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_power(self, power, unit):
        with pytest.raises(ValueError, match="finite"):
            IpaThreshold(power, unit)

    @pytest.mark.parametrize("wavelength", [-5.0, 0.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_wavelength_that_is_not_finite_and_positive(self, wavelength):
        with pytest.raises(ValueError, match="wavelength_nm must be finite and positive"):
            IpaThreshold(3.0, "nW", wavelength_nm=wavelength)


def chain_total(chain, lib, selection):
    """Brute-force total loss of one concrete selection, summed with fsum."""
    curves = [
        lib[slot.alternatives[a][0]].losses[slot.alternatives[a][1]].loss_db
        for slot, a in zip(chain.slots, selection)
    ]
    if not curves:
        return np.zeros(canonical_grid().size)
    return np.array([math.fsum(col) for col in zip(*curves)])


class TestChainPower:
    """With one alternative per slot, both envelopes are that chain's own
    total, so P = input - fsum(losses) on either side."""

    def power(self, chain, lib):
        env = envelope(chain, lib)
        assert np.array_equal(env.min_total_db, env.max_total_db)
        assert np.array_equal(env.min_conservative, env.max_conservative)
        assert np.array_equal(env.min_total_db, chain_total(chain, lib, [0] * len(chain.slots)))
        return chain.input_power_dbm - env.min_total_db, env.min_conservative

    def test_two_flat_twenty_db_components(self):
        lib = {
            "a": make_component("a", {"forward": (20.0, None)}),
            "b": make_component("b", {"forward": (20.0, None)}),
        }
        power, flags = self.power(single_chain(lib["a"], lib["b"]), lib)
        assert np.all(power == 0.0)
        assert not flags.any()

    def test_empty_chain_passes_input_through(self):
        power, flags = self.power(Chain(()), {})
        assert np.array_equal(envelope(Chain(()), {}).wavelengths_nm, canonical_grid())
        assert np.all(power == 40.0)
        assert not flags.any()

    def test_slot_permutation_invariance(self):
        vals = [0.1, 0.2, 0.3, 7.77]
        lib = {
            f"c{i}": make_component(f"c{i}", {"forward": (v, None)})
            for i, v in enumerate(vals)
        }
        comps = [lib[f"c{i}"] for i in range(len(vals))]
        base, _ = self.power(single_chain(*comps), lib)
        for perm in itertools.permutations(range(4)):
            got, _ = self.power(single_chain(*(comps[i] for i in perm)), lib)
            assert np.array_equal(got, base)

    def test_adding_a_component_never_raises_power(self):
        lib = {
            "a": make_component("a", {"forward": (13.0, None)}),
            "b": make_component("b", {"forward": (0.0, None)}),
        }
        short, _ = self.power(single_chain(lib["a"]), lib)
        longer, _ = self.power(single_chain(lib["a"], lib["b"]), lib)
        assert np.all(longer <= short)

    def test_conservative_flags_follow_floored_points(self):
        grid = canonical_grid()
        floored = grid <= 500.0
        vals = np.where(floored, 50.0, 30.0)
        lib = {"a": make_component("a", {"forward": (vals, floored)}, floor=50.0)}
        _, flags = self.power(single_chain(lib["a"]), lib)
        assert np.array_equal(flags, floored)

    def test_unknown_component_and_direction(self):
        lib = {"a": make_component("a", {"forward": (1.0, None)})}
        with pytest.raises(ValueError, match="unknown component"):
            envelope(Chain((Slot((("ghost", "forward"),)),)), lib)
        with pytest.raises(ValueError, match="no.*direction"):
            envelope(Chain((Slot((("a", "backward"),)),)), lib)

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_input_power(self, power):
        with pytest.raises(ValueError, match="input_power_dbm must be finite"):
            Chain((), input_power_dbm=power)


class TestEnvelope:
    def test_flat_alternatives(self):
        lib = {
            "cheap": make_component("cheap", {"forward": (10.0, None)}),
            "dear": make_component("dear", {"forward": (20.0, None)}),
        }
        chain = Chain((Slot((("cheap", "forward"), ("dear", "forward"))),))
        env = envelope(chain, lib)
        assert np.all(env.min_total_db == 10.0)
        assert np.all(env.max_total_db == 20.0)

    def test_a_floored_pick_in_an_earlier_slot_flags_the_total(self):
        lib = {
            "floored": make_component("floored", {"forward": (50.0, np.ones(401, bool))}, floor=50.0),
            "clean": make_component("clean", {"forward": (10.0, None)}),
        }
        env = envelope(single_chain(lib["floored"], lib["clean"]), lib)
        assert env.min_conservative.all() and env.max_conservative.all()

    def test_single_alternative_degenerate(self):
        lib = {"a": make_component("a", {"forward": (7.5, None)})}
        env = envelope(single_chain(lib["a"]), lib)
        assert np.array_equal(env.min_total_db, env.max_total_db)

    def test_crossing_alternatives_switch_at_the_crossing(self):
        grid = canonical_grid()
        a_vals = np.where(grid < 600.0, 5.0, 15.0)  # cheaper below 600
        b_vals = np.where(grid < 600.0, 15.0, 5.0)  # cheaper above
        lib = {
            "a": make_component("a", {"forward": (a_vals, None)}),
            "b": make_component("b", {"forward": (b_vals, None)}),
        }
        chain = Chain((Slot((("a", "forward"), ("b", "forward"))),))
        env = envelope(chain, lib)
        assert np.all(env.min_total_db == 5.0)
        assert np.all(env.max_total_db == 15.0)
        # brute force over both selections
        pa = 40.0 - chain_total(chain, lib, (0,))
        pb = 40.0 - chain_total(chain, lib, (1,))
        assert np.array_equal(40.0 - env.min_total_db, np.maximum(pa, pb))

    @pytest.mark.parametrize("n_slots", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_alts", [1, 2, 3])
    def test_matches_brute_force_enumeration_exactly(self, n_slots, n_alts):
        grid = canonical_grid()
        rng = np.random.default_rng(1000 * n_slots + n_alts)
        lib = {}
        slots = []
        for s in range(n_slots):
            alts = []
            for a in range(n_alts):
                cid = f"s{s}a{a}"
                vals = rng.uniform(0.0, 40.0, grid.size)
                lib[cid] = make_component(cid, {"forward": (vals, None)})
                alts.append((cid, "forward"))
            slots.append(Slot(tuple(alts)))
        chain = Chain(tuple(slots))
        env = envelope(chain, lib)

        totals = []
        for sel in itertools.product(range(n_alts), repeat=n_slots):
            curves = [lib[f"s{s}a{a}"].losses["forward"].loss_db for s, a in enumerate(sel)]
            totals.append(np.array([math.fsum(col) for col in zip(*curves)]))
        stack = np.vstack(totals)
        assert np.array_equal(env.min_total_db, stack.min(axis=0))
        assert np.array_equal(env.max_total_db, stack.max(axis=0))

    def test_mixed_alternative_counts(self):
        grid = canonical_grid()
        rng = np.random.default_rng(42)
        lib = {}
        slots = []
        for s, count in enumerate((3, 1, 2, 3)):
            alts = []
            for a in range(count):
                cid = f"m{s}a{a}"
                lib[cid] = make_component(cid, {"forward": (rng.uniform(0, 30, grid.size), None)})
                alts.append((cid, "forward"))
            slots.append(Slot(tuple(alts)))
        chain = Chain(tuple(slots))
        env = envelope(chain, lib)
        totals = []
        for sel in itertools.product(*(range(c) for c in (3, 1, 2, 3))):
            curves = [lib[f"m{s}a{a}"].losses["forward"].loss_db for s, a in enumerate(sel)]
            totals.append(np.array([math.fsum(col) for col in zip(*curves)]))
        stack = np.vstack(totals)
        assert np.array_equal(env.min_total_db, stack.min(axis=0))
        assert np.array_equal(env.max_total_db, stack.max(axis=0))

    def test_every_selection_lies_between_the_envelopes(self):
        grid = canonical_grid()
        rng = np.random.default_rng(5)
        lib = {}
        slots = []
        for s in range(3):
            alts = []
            for a in range(2):
                cid = f"e{s}a{a}"
                lib[cid] = make_component(cid, {"forward": (rng.uniform(0, 25, grid.size), None)})
                alts.append((cid, "forward"))
            slots.append(Slot(tuple(alts)))
        chain = Chain(tuple(slots))
        env = envelope(chain, lib)
        for sel in itertools.product(range(2), repeat=3):
            total = chain_total(chain, lib, sel)
            assert np.all(env.min_total_db <= total + 1e-12)
            assert np.all(total <= env.max_total_db + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 3), min_size=0, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_envelope_contains_and_attains_every_selection(self, counts, seed):
        grid = canonical_grid()
        rng = np.random.default_rng(seed)
        lib = {}
        slots = []
        for s, count in enumerate(counts):
            alts = []
            for a in range(count):
                cid = f"h{s}a{a}"
                # a few coarse levels make ties between alternatives common
                vals = rng.choice([0.0, 0.1, 0.3, 7.77, 12.5, 40.0], grid.size)
                lib[cid] = make_component(cid, {"forward": (vals, None)})
                alts.append((cid, "forward"))
            slots.append(Slot(tuple(alts)))
        chain = Chain(tuple(slots))
        env = envelope(chain, lib)
        totals = np.vstack([
            chain_total(chain, lib, sel) for sel in itertools.product(*map(range, counts))
        ])
        assert np.all(env.min_total_db <= totals) and np.all(totals <= env.max_total_db)
        assert np.array_equal(env.min_total_db, totals.min(axis=0))
        assert np.array_equal(env.max_total_db, totals.max(axis=0))


class TestVulnerabilityBands:
    """Bands as assess_ipa reports them for a single-slot chain.

    With one alternative in the slot both envelopes equal the chain's own
    power, input - fsum(loss), so both sides must report the same bands.
    """

    def assess(self, power_fn, threshold=IpaThreshold(3.0, "nW")):
        grid = canonical_grid()
        power = np.array([power_fn(w) for w in grid])
        lib = {"x": make_component("x", {"forward": (40.0 - power, None)})}
        report = assess_ipa(single_chain(lib["x"]), lib, [threshold])
        assert report.min_power == report.max_power
        return report

    def bands(self, power_fn, threshold=IpaThreshold(3.0, "nW")):
        return [(b.lo_nm, b.hi_nm) for b in self.assess(power_fn, threshold).max_power[0].bands]

    def test_single_step_band(self):
        assert self.bands(lambda w: -50.0 if 400.0 <= w <= 410.0 else -60.0) == [(400.0, 410.0)]

    def test_everywhere_below_threshold(self):
        assert self.bands(lambda w: -60.0) == []

    def test_exact_equality_is_protected(self):
        thr = IpaThreshold(THREE_NW_DBM, "dBm")
        assert self.bands(lambda w: THREE_NW_DBM, thr) == []

    def test_multiple_bands_sorted_and_disjoint(self):
        bands = self.bands(lambda w: -50.0 if (450 <= w <= 460) or (700 <= w <= 705) else -60.0)
        assert bands == [(450.0, 460.0), (700.0, 705.0)]

    def test_single_point_band(self):
        assert self.bands(lambda w: -50.0 if w == 612.0 else -60.0) == [(612.0, 612.0)]

    def test_band_reaching_the_grid_end(self):
        assert self.bands(lambda w: -50.0 if w >= 790.0 else -60.0) == [(790.0, 800.0)]

    def test_bands_are_exactly_the_points_above_threshold(self):
        report = self.assess(lambda w: -50.0 if 500.0 <= w <= 505.0 else -60.0)
        assessment = report.max_power[0]
        assert assessment.threshold_dbm == pytest.approx(THREE_NW_DBM, abs=1e-9)
        assert [(b.lo_nm, b.hi_nm) for b in assessment.bands] == [(500.0, 505.0)]
        # bands are exactly the closure of points above the threshold
        above = report.p_max_dbm > assessment.threshold_dbm
        inside = (report.wavelengths_nm >= 500.0) & (report.wavelengths_nm <= 505.0)
        assert np.array_equal(above, inside)


VERDICT_RANK = {"protected": 0, "indeterminate": 1, "vulnerable": 2}

# Per slot, its alternatives as flat curves: (loss_db, floored), where a
# floored curve holds the floor value.  Whole-dB losses keep every sum exact.
FLAT_SLOTS = st.lists(
    st.lists(st.one_of(st.tuples(st.integers(0, 49).map(float), st.just(False)),
                       st.just((50.0, True))), min_size=1, max_size=3),
    max_size=3,
)


def flat_chain(slots, input_power_dbm):
    """Library and chain for FLAT_SLOTS, with a 50 dB floor."""
    lib = {}
    for s, alts in enumerate(slots):
        for a, (loss, floored) in enumerate(alts):
            flags = np.full(canonical_grid().size, floored)
            lib[f"s{s}a{a}"] = make_component(f"s{s}a{a}", {"forward": (loss, flags)}, floor=50.0)
    chain = Chain(
        tuple(Slot(tuple((f"s{s}a{a}", "forward") for a in range(len(alts))))
              for s, alts in enumerate(slots)),
        input_power_dbm=input_power_dbm,
    )
    return lib, chain


def brute_force_verdict(slots, input_power_dbm, threshold_dbm):
    """Verdict from the cheapest selection, found by trying every one.

    Ties go to the first cheapest selection in product order, which is the
    first cheapest alternative in every slot.  Flat curves exceed the
    threshold everywhere or nowhere."""
    best = min(itertools.product(*slots), key=lambda sel: math.fsum(loss for loss, _ in sel))
    if input_power_dbm - math.fsum(loss for loss, _ in best) <= threshold_dbm:
        return "protected"
    return "indeterminate" if any(floored for _, floored in best) else "vulnerable"


class TestMonotoneVerdicts:
    """A higher threshold or a weaker probe never makes a verdict worse."""

    @settings(max_examples=30, deadline=None)
    @given(slots=FLAT_SLOTS, input_power=st.integers(-20, 60),
           thresholds=st.lists(st.integers(-60, 60), min_size=2, max_size=4))
    def test_raising_the_threshold(self, slots, input_power, thresholds):
        thresholds = sorted(thresholds)
        lib, chain = flat_chain(slots, float(input_power))
        report = assess_ipa(chain, lib, [IpaThreshold(float(t), "dBm") for t in thresholds])
        verdicts = [a.verdict for a in report.max_power]
        assert verdicts == [brute_force_verdict(slots, input_power, t) for t in thresholds]
        ranks = [VERDICT_RANK[v] for v in verdicts]
        assert ranks == sorted(ranks, reverse=True)

    @settings(max_examples=30, deadline=None)
    @given(slots=FLAT_SLOTS, threshold=st.integers(-60, 60),
           powers=st.lists(st.integers(-20, 60), min_size=2, max_size=4))
    def test_lowering_the_input_power(self, slots, threshold, powers):
        powers = sorted(powers, reverse=True)
        verdicts = []
        for power in powers:
            lib, chain = flat_chain(slots, float(power))
            report = assess_ipa(chain, lib, [IpaThreshold(float(threshold), "dBm")])
            verdicts.append(report.max_power[0].verdict)
        assert verdicts == [brute_force_verdict(slots, p, threshold) for p in powers]
        ranks = [VERDICT_RANK[v] for v in verdicts]
        assert ranks == sorted(ranks, reverse=True)


class TestAssessIpa:
    def test_hundred_db_chain_is_protected(self):
        lib = {
            "att": make_component("att", {"forward": (60.0, None)}),
            "iso": make_component("iso", {"forward": (40.0, None)}),
        }
        chain = single_chain(lib["att"], lib["iso"])
        report = assess_ipa(chain, lib)
        assert np.all(report.p_max_dbm == -60.0)
        assert report.max_power[0].verdict == "protected"
        assert report.max_power[0].bands == ()
        assert report.verdicts == {"3 nW (reported-minimum)": "protected"}

    def test_ninety_db_window_is_vulnerable_with_highest_severity(self):
        grid = canonical_grid()
        vals = np.where(grid <= 410.0, 90.0, 100.0)
        lib = {"x": make_component("x", {"forward": (vals, None)})}
        report = assess_ipa(single_chain(lib["x"]), lib)
        assessment = report.max_power[0]
        assert assessment.verdict == "vulnerable"
        assert len(assessment.bands) == 1
        band = assessment.bands[0]
        assert (band.lo_nm, band.hi_nm) == (400.0, 410.0)
        assert band.severity == "highest"
        assert not band.floored_only

    def test_shortest_wavelength_band_ranked_highest(self):
        grid = canonical_grid()
        vals = np.where((grid >= 500) & (grid <= 510), 90.0, 110.0)
        vals = np.where(grid <= 420, 92.0, vals)
        lib = {"x": make_component("x", {"forward": (vals, None)})}
        report = assess_ipa(single_chain(lib["x"]), lib)
        bands = report.max_power[0].bands
        assert len(bands) == 2
        assert bands[0].lo_nm == 400.0 and bands[0].severity == "highest"
        assert bands[1].severity == "normal"

    def test_floored_only_band_is_indeterminate(self):
        grid = canonical_grid()
        floored = (grid >= 600.0) & (grid <= 620.0)
        vals = np.where(floored, 50.0, 120.0)
        lib = {"x": make_component("x", {"forward": (vals, floored)}, floor=50.0)}
        report = assess_ipa(single_chain(lib["x"]), lib)
        assessment = report.max_power[0]
        assert assessment.verdict == "indeterminate"
        assert all(b.floored_only for b in assessment.bands)

    def test_partly_floored_band_is_vulnerable(self):
        grid = canonical_grid()
        floored = grid <= 600.0
        vals = np.where(floored, 50.0, 30.0)  # every point lies above 3 nW: one band
        lib = {"x": make_component("x", {"forward": (vals, floored)}, floor=50.0)}
        assessment = assess_ipa(single_chain(lib["x"]), lib).max_power[0]
        assert [(b.lo_nm, b.hi_nm, b.floored_only) for b in assessment.bands] == [
            (400.0, 800.0, False)]
        assert assessment.verdict == "vulnerable"

    def test_clean_band_beats_floored_band(self):
        grid = canonical_grid()
        floored = (grid >= 600.0) & (grid <= 620.0)
        vals = np.where(floored, 50.0, 120.0)
        vals = np.where(grid <= 410.0, 90.0, vals)
        lib = {"x": make_component("x", {"forward": (vals, floored)}, floor=50.0)}
        report = assess_ipa(single_chain(lib["x"]), lib)
        assert report.max_power[0].verdict == "vulnerable"

    def test_both_extremes_reported(self):
        lib = {
            "cheap": make_component("cheap", {"forward": (45.0, None)}),
            "dear": make_component("dear", {"forward": (120.0, None)}),
        }
        chain = Chain((Slot((("cheap", "forward"), ("dear", "forward"))),))
        report = assess_ipa(chain, lib)
        assert report.max_power[0].verdict == "vulnerable"  # attacker picks 45 dB
        assert report.min_power[0].verdict == "protected"   # worst case 120 dB
        assert np.all(report.p_max_dbm == -5.0)
        assert np.all(report.p_min_dbm == -80.0)

    def test_requires_a_threshold(self):
        lib = {"a": make_component("a", {"forward": (1.0, None)})}
        with pytest.raises(ValueError, match="threshold"):
            assess_ipa(single_chain(lib["a"]), lib, ())

    def test_report_dict_is_reproducible(self):
        lib = {"a": make_component("a", {"forward": (70.0, None)})}
        chain = single_chain(lib["a"])
        first = json.dumps(assess_ipa(chain, lib).to_dict(), sort_keys=True)
        second = json.dumps(assess_ipa(chain, lib).to_dict(), sort_keys=True)
        assert first == second


class TestChainConfig:
    def test_full_descriptor(self, tmp_path):
        doc = {
            "input_power_dbm": 37.0,
            "thresholds": [
                {"power": 3.0, "unit": "nW", "source": "reported-minimum"},
                {"power": -50.0, "unit": "dBm", "wavelength_nm": 650.0},
            ],
            "slots": [
                {
                    "name": "attenuator",
                    "alternatives": [
                        {"component": "voa-em", "direction": "0V"},
                        {"component": "voa-eo", "direction": "0V"},
                    ],
                },
                {"alternatives": [{"component": "cwdm1", "direction": "com->1550"}]},
            ],
        }
        p = tmp_path / "chain.json"
        p.write_text(json.dumps(doc))
        chain, thresholds = load_chain_config(p)
        assert chain.input_power_dbm == 37.0
        assert len(chain.slots) == 2
        assert chain.slots[0].name == "attenuator"
        assert chain.slots[0].alternatives == (("voa-em", "0V"), ("voa-eo", "0V"))
        assert len(thresholds) == 2
        assert thresholds[1].unit == "dBm"
        assert thresholds[1].wavelength_nm == 650.0

    def test_defaults(self, tmp_path):
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"slots": [
            {"alternatives": [{"component": "a", "direction": "forward"}]}
        ]}))
        chain, thresholds = load_chain_config(p)
        assert chain.input_power_dbm == 40.0
        assert thresholds == DEFAULT_THRESHOLDS

    def test_rejects_missing_slots(self, tmp_path):
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"input_power_dbm": 40.0}))
        with pytest.raises(ValueError, match="slots"):
            load_chain_config(p)

    def test_rejects_empty_alternatives(self, tmp_path):
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"slots": [{"alternatives": []}]}))
        with pytest.raises(ValueError, match="alternatives"):
            load_chain_config(p)

    @pytest.mark.parametrize("threshold", [{"unit": "nW"}, 3.0])
    def test_threshold_without_power_names_the_file(self, tmp_path, threshold):
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"slots": [], "thresholds": [{"power": 3.0}, threshold]}))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: threshold 1 needs 'power'$"):
            load_chain_config(p)

    @pytest.mark.parametrize(
        "edit, field",
        [
            ({"slots": [{"alternatives": [{"component": "a", "direction": "f"}]}, 1]}, "slot 1"),
            ({"input_power_dbm": "x"}, "input_power_dbm"),
            ({"input_power_dbm": True}, "input_power_dbm"),
            ({"input_power_dbm": None}, "input_power_dbm"),
            ({"thresholds": [{"power": "abc"}]}, "threshold 0 power"),
            ({"thresholds": [{"power": 3.0}, {"power": False}]}, "threshold 1 power"),
            ({"thresholds": [{"power": 3.0, "wavelength_nm": True}]}, "threshold 0 wavelength_nm"),
            ({"thresholds": [{"power": 3.0, "wavelength_nm": "650"}]}, "threshold 0 wavelength_nm"),
            ({"slots": 5}, "slots"),
            ({"slots": {"alternatives": []}}, "slots"),
            ({"slots": [{"alternatives": "ab"}]}, "slot 0 alternatives"),
            ({"slots": [{"alternatives": 5}]}, "slot 0 alternatives"),
            ({"thresholds": 5}, "thresholds"),
            ({"thresholds": {"power": 3}}, "thresholds"),
            ({"input_power_dbm": 10**400}, "input_power_dbm"),
            ({"thresholds": [{"power": -(10**400)}]}, "threshold 0 power"),
            ({"thresholds": [{"power": 3.0, "wavelength_nm": 10**400}]},
             "threshold 0 wavelength_nm"),
        ],
        ids=["slot-int", "power-str", "power-bool", "power-null", "threshold-str",
             "threshold-bool", "wavelength-bool", "wavelength-str", "slots-int",
             "slots-object", "alternatives-str", "alternatives-int", "thresholds-int",
             "thresholds-object", "power-overflows", "threshold-overflows",
             "wavelength-overflows"],
    )
    def test_refuses_a_value_of_the_wrong_type_naming_the_field(self, tmp_path, edit, field):
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"slots": [], **edit}))
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{p}: {field} must be ')}"):
            load_chain_config(p)

    def test_integer_numbers_are_read_as_floats(self, tmp_path):
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"slots": [], "input_power_dbm": 37,
                                 "thresholds": [{"power": 3, "wavelength_nm": 650}]}))
        chain, (threshold,) = load_chain_config(p)
        assert chain.input_power_dbm == 37.0 and type(chain.input_power_dbm) is float
        assert (threshold.power, threshold.wavelength_nm) == (3.0, 650.0)

    def test_rejects_invalid_json(self, tmp_path):
        p = tmp_path / "chain.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_chain_config(p)

    @pytest.mark.parametrize(
        "raw", [b'{"slots": [], "input_power_dbm": 1' + b"0" * 5000 + b"}", b"\xff{}"],
        ids=["integer-beyond-the-digit-limit", "not-utf8"],
    )
    def test_unreadable_json_names_the_file(self, tmp_path, raw):
        p = tmp_path / "chain.json"
        p.write_bytes(raw)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: invalid JSON \("):
            load_chain_config(p)
