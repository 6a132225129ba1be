"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else; oracle values come from
closed forms, mpmath, or brute-force enumeration computed independently of
the code paths under test.
"""

import itertools
import json
import math
import time

import mpmath as mp
import numpy as np

from ipaudit.budget import (
    Chain,
    IpaThreshold,
    Slot,
    assess_ipa,
    convert_power,
    envelope,
)
from ipaudit.cli import main
from ipaudit.components import Component, reference_library, write_library
from ipaudit.scw import bessel_j0, holevo_bound, holevo_curve
from ipaudit.spectra import LossSpectrum, Spectrum, canonical_grid, insertion_loss
from ipaudit.statemath import (
    gram_matrix,
    usd_probability,
    usd_ratio,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_01_two_state_exactness():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.3, 0.7, 1.0):
        for x in np.arange(0.1, 1.95, 0.1):
            got = usd_probability(alpha, 1, float(x))
            expected = 1.0 - math.exp(-(alpha**2) * (1.0 - math.cos(math.pi * x)))
            worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: two-state USD matches the closed form within 1e-10",
        worst < 1e-10 and elapsed < 1.0,
        f"worst |err| = {worst:.3e}, {elapsed * 1000:.0f} ms",
    )


def circulant_series(alpha: float, n_half: int, x: int) -> list[float]:
    """Exact Gram eigenvalues at integer x, sorted (Chefles & Barnett 1998):
    lambda_q = M e^(-a^2) sum over n with n*x = q (mod M) of a^(2n) / n!.
    Every term is non-negative, so 40 digits leave nothing to cancel."""
    m = 2 * n_half
    with mp.workdps(40):
        a2 = mp.mpf(alpha) ** 2
        sums = [mp.mpf(0)] * m
        term = mp.mpf(1)
        for n in range(200):
            sums[(n * x) % m] += term
            term *= a2 / (n + 1)
        return sorted(float(m * mp.exp(-a2) * s) for s in sums)


def test_criterion_02_circulant_oracle():
    # Within the float64 resolution M*eps*lambda_max of a Hermitian
    # eigensolve, with the factor 4 the library refuses baselines by.
    worst = 0.0
    for n_half in (1, 2, 3, 4):
        for alpha in (0.5, 1.0):
            for x in (0, 1, 2):
                exact = np.array(circulant_series(alpha, n_half, x))
                got = np.linalg.eigvalsh(gram_matrix(alpha, n_half, float(x)))
                bound = 4 * 2 * n_half * np.finfo(float).eps * exact[-1]
                worst = max(worst, float(np.max(np.abs(got - exact))) / bound)
    report(
        "criterion 2: Gram eigenvalues match the circulant series within 4*M*eps*lambda_max",
        worst <= 1.0,
        f"worst gap = {worst:.3f} of the bound",
    )


def test_criterion_03_ratio_curve_properties():
    ok = True
    detail = []
    for n_half in (2, 3, 4):
        xs = np.round(np.arange(0, 201) * 0.01, 12)
        fs = np.array([usd_ratio(1.0, n_half, float(x)) for x in xs])
        in_bounds = bool(np.all((fs >= 0.0) & (fs <= 1.0)))
        at_one = abs(usd_ratio(1.0, n_half, 1.0) - 1.0) < 1e-12
        at_two = usd_ratio(1.0, n_half, 2.0) < 1e-8
        ok = ok and in_bounds and at_one and at_two
        detail.append(f"N={n_half}: f(2)={usd_ratio(1.0, n_half, 2.0):.1e}")
    report(
        "criterion 3: f(x) in [0,1] on the grid, f(1)=1 within 1e-12, f(2)<1e-8",
        ok,
        "; ".join(detail),
    )


def test_criterion_04_small_amplitude_asymptotic():
    alpha = math.sqrt(0.01)
    ratios = []
    for n in (1, 2, 3):
        # Oracle: the closed form 2N * alpha^(2(2N-1)) / (2N-1)!, the leading term as alpha -> 0.
        asymptotic = 2 * n * alpha ** (2 * (2 * n - 1)) / math.factorial(2 * n - 1)
        ratios.append(usd_probability(alpha, n, 1.0) / asymptotic)
    report(
        "criterion 4: small-amplitude asymptotic ratio in [0.98, 1.02] for N=1..3",
        all(0.98 <= r <= 1.02 for r in ratios),
        ", ".join(f"{r:.5f}" for r in ratios),
    )


def test_criterion_05_scw_baseline():
    start = time.perf_counter()
    mp.mp.dps = 40

    carrier = bessel_j0(0.434) ** 2  # sidebands hold the rest of a unit total power
    ratio = (1.0 - carrier) / carrier
    ratio_ok = abs(ratio - 0.100) <= 0.002

    chi = holevo_bound(1.0, 0.434)
    p = (1 - mp.e ** (-(1 - mp.besselj(0, 2 * mp.mpf("0.434")) ** 2))) / 2
    chi_oracle = float(-p * mp.log(p, 2) - (1 - p) * mp.log(1 - p, 2))
    chi_ok = abs(chi - 0.5829) <= 0.005 and abs(chi - chi_oracle) < 1e-9

    dms, attacked, _ = holevo_curve(1.0, 0.434, 2.0, 0.01)
    tail = attacked[dms >= 1.0]
    monotone_ok = bool(np.all(np.diff(tail) > 0))

    elapsed = time.perf_counter() - start
    report(
        "criterion 5: sideband ratio 0.100+-0.002, chi 0.5829+-0.005 vs oracle, "
        "chi strictly rising on dm in [1,2]",
        ratio_ok and chi_ok and monotone_ok and elapsed < 1.0,
        f"ratio={ratio:.4f}, chi={chi:.6f} (oracle {chi_oracle:.6f}), "
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_06_insertion_loss_roundtrip():
    grid = canonical_grid()
    rng = np.random.default_rng(60)
    target = 25.0 + 20.0 * np.sin(grid / 23.0) + rng.uniform(0, 10, grid.size)
    ref = Spectrum(grid, np.full(grid.size, 1.5))
    tf = Spectrum(grid, np.full(grid.size, 0.5))
    mes = Spectrum(grid, ref.values * tf.values * 10.0 ** (-target / 10.0))
    loss = insertion_loss(ref, mes, filters=tf, floor_db=50.0)
    below = ~loss.floored
    worst = float(np.max(np.abs(loss.loss_db[below] - target[below])))
    flags_ok = bool(np.all(target[loss.floored] > 50.0)) and bool(
        np.all(loss.loss_db[loss.floored] == 50.0)
    )
    report(
        "criterion 6: synthetic losses recovered within 1e-9 dB below the floor, "
        "floored points flagged",
        worst < 1e-9 and flags_ok and loss.floored.any(),
        f"worst |err| = {worst:.2e}, {int(loss.floored.sum())} floored points",
    )


def test_criterion_07_envelope_equals_brute_force():
    grid = canonical_grid()
    exact = True
    for n_slots in (1, 2, 3, 4):
        for n_alts in (1, 2, 3):
            rng = np.random.default_rng(7000 + 10 * n_slots + n_alts)
            lib = {}
            slots = []
            for s in range(n_slots):
                alts = []
                for a in range(n_alts):
                    cid = f"s{s}a{a}"
                    loss = LossSpectrum(
                        grid,
                        rng.uniform(0.0, 60.0, grid.size),
                        np.zeros(grid.size, bool),
                        floor_db=120.0,
                    )
                    lib[cid] = Component(
                        id=cid, kind="custom", losses={"fwd": loss}, provenance="synthetic"
                    )
                    alts.append((cid, "fwd"))
                slots.append(Slot(tuple(alts)))
            chain = Chain(tuple(slots))
            env = envelope(chain, lib)
            totals = []
            for sel in itertools.product(range(n_alts), repeat=n_slots):
                curves = [
                    lib[f"s{s}a{a}"].losses["fwd"].loss_db for s, a in enumerate(sel)
                ]
                totals.append(np.array([math.fsum(col) for col in zip(*curves)]))
            stack = np.vstack(totals)
            exact = (
                exact
                and np.array_equal(env.min_total_db, stack.min(axis=0))
                and np.array_equal(env.max_total_db, stack.max(axis=0))
            )
    report(
        "criterion 7: envelopes equal brute-force enumeration exactly "
        "(slots 1-4 x alternatives 1-3)",
        exact,
    )


def test_criterion_08_budget_arithmetic():
    grid = canonical_grid()

    flat = LossSpectrum(grid, np.full(grid.size, 100.0), np.zeros(grid.size, bool), floor_db=150.0)
    lib = {"wall": Component(id="wall", kind="custom", losses={"fwd": flat}, provenance="synthetic")}
    chain = Chain((Slot((("wall", "fwd"),)),), input_power_dbm=40.0)
    rep = assess_ipa(chain, lib, (IpaThreshold(3.0, "nW"),))
    protected_ok = (
        bool(np.all(rep.p_max_dbm == -60.0))
        and rep.p_max_dbm[0] < -55.229
        and rep.max_power[0].verdict == "protected"
    )

    vals = np.where(grid <= 410.0, 90.0, 100.0)
    windowed = LossSpectrum(grid, vals, np.zeros(grid.size, bool), floor_db=150.0)
    lib2 = {"win": Component(id="win", kind="custom", losses={"fwd": windowed}, provenance="synthetic")}
    chain2 = Chain((Slot((("win", "fwd"),)),), input_power_dbm=40.0)
    rep2 = assess_ipa(chain2, lib2, (IpaThreshold(3.0, "nW"),))
    bands = rep2.max_power[0].bands
    window_ok = (
        rep2.max_power[0].verdict == "vulnerable"
        and len(bands) == 1
        and (bands[0].lo_nm, bands[0].hi_nm) == (400.0, 410.0)
        and bands[0].severity == "highest"
    )
    report(
        "criterion 8: 100 dB chain protected at -60 dBm; 90 dB window gives one "
        "highest-severity band [400, 410]",
        protected_ok and window_ok,
    )


def test_criterion_09_reference_library_fidelity(tmp_path):
    expected = [
        ("cwdm1", "com->1550", 680.0, 10.0),
        ("cwdm2", "com->1550", 679.0, 10.7),
        ("cwdm3", "com->1550", 662.0, 9.7),
        ("dwdm", "com->1550", 665.0, 10.3),
        ("isolator-dual", "backward", 784.0, 44.5),
        ("circulator-4port", "port3->port1", 419.0, 31.1),
        ("voa-em", "0V", 761.0, 10.7),
        ("voa-eo", "0V", 557.0, 21.8),
    ]
    write_library(reference_library(), tmp_path)
    from ipaudit.components import load_library

    back = load_library(tmp_path)
    ok = True
    for comp_id, direction, wl, db in expected:
        curve = back[comp_id].losses[direction]
        idx = int(np.flatnonzero(curve.wavelengths_nm == wl)[0])
        anchors = [
            a for a in back[comp_id].anchors
            if a.direction == direction and a.wavelength_nm == wl
        ]
        ok = ok and curve.loss_db[idx] == db
        ok = ok and float(curve.loss_db.min()) == db
        ok = ok and len(anchors) == 1 and anchors[0].loss_db == db
    report(
        "criterion 9: all published point values round-trip the library loader "
        "bit-exactly",
        ok,
        f"{len(expected)} anchors checked",
    )


def test_criterion_10_unit_conversion():
    dbm = convert_power(3.0, "nW", "dBm")
    abs_ok = abs(dbm - (-55.2288)) < 0.001
    rel_ok = True
    for p in (3.0, 1e-3, 42.0, 8.5e6):
        back = convert_power(convert_power(p, "nW", "dBm"), "dBm", "nW")
        rel_ok = rel_ok and abs(back - p) / p < 1e-12
    report(
        "criterion 10: 3 nW <-> -55.2288 dBm within 0.001 dB, round trip < 1e-12",
        abs_ok and rel_ok,
        f"3 nW = {dbm:.6f} dBm",
    )


def test_criterion_11_cli_determinism(tmp_path):
    grid = canonical_grid()

    ref = tmp_path / "ref.csv"
    mes = tmp_path / "mes.csv"
    rows = "\n".join(f"{w},1.0" for w in grid)
    ref.write_text(f"# unit: linear-power\nwavelength_nm,value\n{rows}\n")
    rows = "\n".join(f"{w},0.001" for w in grid)
    mes.write_text(f"# unit: linear-power\nwavelength_nm,value\n{rows}\n")

    cfg = tmp_path / "audit.chain.json"
    cfg.write_text(json.dumps({
        "slots": [
            {"alternatives": [
                {"component": "voa-em", "direction": "0V"},
                {"component": "voa-eo", "direction": "0V"},
            ]},
            {"alternatives": [{"component": "cwdm1", "direction": "com->1550"}]},
            {"alternatives": [{"component": "isolator-dual", "direction": "backward"}]},
        ]
    }))

    def invocations(out):
        return [
            ["usd", "--n", "2", "--outdir", str(out / "usd")],
            ["scw", "--outdir", str(out / "scw")],
            ["losses", "--ref", str(ref), "--mes", str(mes),
             "--out", str(out / "loss.csv")],
            ["chain", "--config", str(cfg), "--outdir", str(out / "chain")],
            ["library", "--export", str(out / "lib")],
        ]

    def run_all(out):
        out.mkdir()
        for argv in invocations(out):
            assert main(argv) == 0, argv
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    start = time.perf_counter()
    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    elapsed = time.perf_counter() - start
    identical = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first
    )
    report(
        "criterion 11: every CLI subcommand is byte-identical across runs",
        identical and len(first) > 0,
        f"{len(first)} files compared, {elapsed:.1f} s for both runs",
    )
