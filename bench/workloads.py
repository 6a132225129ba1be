"""Seeded inputs for the benchmark workloads.

Every input comes from the seed.  Operations are grouped in blocks; a block
holds the workload's whole input mix in fixed proportions (one usd run per N
plus one scw run; one on-disk chain run in four; every losses case once), and
the timed loop stops only at a block boundary, so every run measures the same
mix.  Continuous parameters follow Weyl sequences with seeded offsets, which
spread them evenly over their ranges even in short runs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GOLDEN = 0.6180339887498949  # frac(1/phi)
SILVER = 0.4142135623730951  # frac(sqrt(2))
PLASTIC = 0.7548776662466927  # 1/rho, rho the plastic number

HOLEVO_INDEX_MAX = 1.2024  # monotone window of the scw Holevo bound
GRID = "400:800:1"


def _frac(x: float) -> float:
    return x - math.floor(x)


@dataclass
class Op:
    """One CLI invocation: its argv, the files it writes and what to check."""

    kind: str
    argv: list[str]
    outputs: tuple[Path, ...]
    case: object
    key: str  # identifies the input; equal keys must give equal outputs


# ---------------------------------------------------------------------------
# usd-sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UsdCase:
    alpha: float
    n_half: int
    x_max: float
    step: float = 0.01


@dataclass(frozen=True)
class ScwCase:
    alpha0_sq: float
    m: float
    dm_max: float
    step: float = 0.01


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _avoid_half_step(v: float, step: float) -> float:
    """Nudge v off the midpoint between two grid lengths, where rounding is ambiguous."""
    r = _frac(v / step)
    return v + 0.05 * step if abs(r - 0.5) < 0.02 else v


class UsdSweep:
    """`ipaudit usd` over N in 2..8, alpha in [0.8, 1.5], x_max in [1, 2.5],
    step 0.01; one block in eight runs `ipaudit scw` with m*dm_max inside the
    monotone window."""

    name = "usd-sweep"
    ranges = {
        "usd": "N in 2..8 (each once per block), alpha in [0.8, 1.5] and "
               "x_max in [1, 2.5] continuous (sequences common to all seeds plus "
               "seeded jitter), step 0.01",
        "scw": "one op in 8: alpha0_sq in [0.5, 2], m in [0.2, 0.8], "
               "dm_max in [1, 0.999*1.2024/m], step 0.01",
    }
    pass_blocks = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.out = work / "out"
        rng = random.Random(f"{seed}:usd-sweep")
        self.scw_offsets = (rng.random(), rng.random(), rng.random())

    def setup(self) -> dict:
        self.out.mkdir(parents=True, exist_ok=True)
        return {}

    def block(self, b: int) -> list[Op]:
        ops = []
        rng = random.Random(f"{self.seed}:usd-sweep:{b}")
        for n in range(2, 9):
            # The grid length sets an operation's cost, and a p50 over ~150
            # operations moves by 10% when each seed draws its own x_max
            # sequence.  So the sequence is common to all seeds, each seed
            # adding jitter of at most 0.6% of the range.
            u = _frac(n * PLASTIC + b * GOLDEN + rng.uniform(-0.004, 0.004))
            x_max = float(_fmt(_avoid_half_step(1.0 + 1.5 * u, 0.01)))
            # Likewise for alpha: at N = 8 it decides whether ROADMAP item 2
            # breaks the input, and a seeded sequence moved that count, and
            # ok_frac with it, by one operation in 120 between seeds.
            v = _frac(n * GOLDEN + b * SILVER + rng.uniform(-0.004, 0.004))
            alpha = float(_fmt(0.8 + 0.7 * v))
            case = UsdCase(alpha, n, x_max)
            argv = ["usd", "--alpha", _fmt(alpha), "--n", str(n), "--x-max", _fmt(x_max),
                    "--step", "0.01", "--outdir", str(self.out)]
            outs = (self.out / "usd_probability.csv", self.out / "usd_ratio.csv")
            ops.append(Op("usd", argv, outs, case, f"usd:{b}:{n}"))
        o1, o2, o3 = self.scw_offsets
        a0 = float(_fmt(0.5 + 1.5 * _frac(o1 + b * GOLDEN)))
        m = float(_fmt(0.2 + 0.6 * _frac(o2 + b * SILVER)))
        hi = 0.999 * HOLEVO_INDEX_MAX / m
        dm = float(_fmt(_avoid_half_step(1.0 + (hi - 1.0) * _frac(o3 + b * PLASTIC), 0.01)))
        argv = ["scw", "--alpha0-sq", _fmt(a0), "--m", _fmt(m), "--dm", _fmt(dm),
                "--step", "0.01", "--outdir", str(self.out)]
        ops.append(Op("scw", argv, (self.out / "holevo_vs_dm.csv",), ScwCase(a0, m, dm), f"scw:{b}"))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# chain-audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainCase:
    index: int
    path: Path
    input_power_dbm: float
    slots: tuple[tuple[tuple[str, str], ...], ...]
    thresholds: tuple[tuple[float, str], ...]  # (power, unit) in descriptor order


def read_library(root: Path) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(component, direction) -> (wavelengths, loss_db, floored), parsed here
    without the program's readers so the oracle shares no code with it."""
    curves = {}
    for meta_path in sorted(root.glob("*/metadata.json")):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        for direction, fname in sorted(meta["directions"].items()):
            w, loss, fl = [], [], []
            header = None
            for line in (meta_path.parent / fname).read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                cells = line.split(",")
                if header is None:
                    header = cells
                    continue
                w.append(float(cells[0]))
                loss.append(float(cells[1]))
                fl.append(cells[2] == "1")
            curves[(meta["id"], direction)] = (np.array(w), np.array(loss), np.array(fl))
    return curves


class ChainAudit:
    """`ipaudit chain` on random descriptors: 1-8 slots, 1-4 alternatives per
    slot, 1-4 thresholds in nW or dBm, input power 30-40 dBm.  One op in four
    passes --library with a copy of the bundled library exported in set-up."""

    name = "chain-audit"
    pool_size = 48  # six descriptors per slot count
    ranges = {
        "chain": "48 descriptors per seed, 6 for each slot count 1..8; 1-4 distinct "
                 "(component, direction) alternatives per slot from the library; "
                 "1-4 thresholds, each nW log-uniform in [0.1, 1e4] or dBm uniform "
                 "in [-70, -20]; input_power_dbm uniform in [30, 40]",
        "library": "one op in four uses --library with the exported copy, the rest "
                   "the bundled library",
    }
    pass_blocks = 10

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.lib = work / "library"
        self.cases: list[ChainCase] = []
        self.curves = {}

    def setup(self) -> dict:
        from ipaudit import cli  # the export is the program's own

        self.out.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["library", "--export", str(self.lib)])
        if rc != 0:
            raise RuntimeError(f"library export failed with exit code {rc}")
        self.curves = read_library(self.lib)
        pairs = sorted(self.curves)
        rng = random.Random(f"{self.seed}:chain-audit")
        slot_counts = [1 + i % 8 for i in range(self.pool_size)]
        rng.shuffle(slot_counts)
        desc_dir = self.work / "descriptors"
        desc_dir.mkdir(parents=True, exist_ok=True)
        for i, n_slots in enumerate(slot_counts):
            slots = tuple(tuple(rng.sample(pairs, rng.randint(1, 4))) for _ in range(n_slots))
            thresholds = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    thresholds.append((float(f"{10 ** rng.uniform(-1, 4):.6g}"), "nW"))
                else:
                    thresholds.append((float(f"{rng.uniform(-70, -20):.4f}"), "dBm"))
            p_in = float(f"{rng.uniform(30, 40):.4f}")
            doc = {
                "input_power_dbm": p_in,
                "thresholds": [
                    {"power": p, "unit": u, "source": f"bench-t{k}"}
                    for k, (p, u) in enumerate(thresholds)
                ],
                "slots": [
                    {"name": f"s{k}",
                     "alternatives": [{"component": c, "direction": d} for c, d in alts]}
                    for k, alts in enumerate(slots)
                ],
            }
            path = desc_dir / f"chain{i:02d}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            self.cases.append(ChainCase(i, path, p_in, slots, tuple(thresholds)))
        self.order_rng = random.Random(f"{self.seed}:chain-audit:order")
        self.order: list[int] = []
        return {"library_curves": len(self.curves), "descriptors": len(self.cases)}

    def _next_case(self) -> ChainCase:
        if not self.order:
            self.order = list(range(len(self.cases)))
            self.order_rng.shuffle(self.order)
        return self.cases[self.order.pop()]

    def block(self, b: int) -> list[Op]:
        on_disk = random.Random(f"{self.seed}:chain-audit:{b}").randrange(4)
        ops = []
        for k in range(4):
            case = self._next_case()
            argv = ["chain", "--config", str(case.path), "--outdir", str(self.out)]
            if k == on_disk:
                argv[3:3] = ["--library", str(self.lib)]
            outs = (self.out / "report.json", self.out / "budget.csv")
            ops.append(Op("chain", argv, outs, case, f"chain:{case.index}"))
        return ops


# ---------------------------------------------------------------------------
# losses-ingest
# ---------------------------------------------------------------------------

@dataclass
class LossesCase:
    index: int
    n_ref: int
    n_mes: int
    filter_mode: str  # "none" | "linear" | "dB"
    combine: str  # "mean" | "median"
    n_pixels: int
    ref_paths: list[Path] = field(default_factory=list)
    mes_paths: list[Path] = field(default_factory=list)
    filter_path: Path | None = None
    grid_loss_db: np.ndarray | None = None  # true loss on the 400:800:1 grid
    gain_offset_db: float = 0.0  # -10 log10(agg(mes gains) / agg(ref gains))
    stddev_db: float | None = None  # expected scatter, None when no run is repeated
    tol_db: float = 0.0
    stddev_tol_db: float = 0.0


def _true_loss(w: np.ndarray, p: dict) -> np.ndarray:
    """Smooth true insertion loss in dB: a tilted base, a broad dip and a
    bump that rises above the 50 dB floor."""
    x = (w - 600.0) / 200.0
    return (p["base"] + p["tilt"] * x
            - p["dip"] * np.exp(-(((w - p["dip_at"]) / p["dip_w"]) ** 2))
            + p["bump"] * np.exp(-(((w - p["bump_at"]) / p["bump_w"]) ** 2)))


def _source(w: np.ndarray, p: dict) -> np.ndarray:
    return 1.0 + 0.6 * np.exp(-(((w - p["src_at"]) / 260.0) ** 2))


def _filter_db(w: np.ndarray, p: dict) -> np.ndarray:
    """Neutral-density filter attenuation in dB (positive), slowly tilted."""
    return p["nd"] + 1.5 * (w - 600.0) / 400.0


def _gains(rng: random.Random, n: int) -> np.ndarray:
    """Per-run gain factors, spaced well apart so their order is unambiguous."""
    levels = rng.sample(range(-12, 13), n)
    return np.array([1.0 + 0.004 * v + rng.uniform(-0.001, 0.001) for v in levels])


def _write_csv(path: Path, w: np.ndarray, v: np.ndarray, unit: str | None) -> None:
    lines = [f"# unit: {unit}"] if unit else []
    lines.append("# spectrometer: synthetic")
    lines.append("wavelength_nm,value")
    lines.extend(f"{a!r},{b!r}" for a, b in zip(w.tolist(), v.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class LossesIngest:
    """`ipaudit losses` on synthetic spectrometer runs: 1-6 reference and 1-6
    measurement runs of 1024-3648 pixels over about 340-1030 nm, no, linear or
    dB filter file, grid 400:800:1, mean or median."""

    name = "losses-ingest"
    ranges = {
        "losses": "36 cases per seed, one per (n_ref, n_mes) in 1..6 x 1..6; "
                  "1024-3648 pixels (a Weyl sequence over the cases, common to all "
                  "seeds up to 0.3% jitter) from 335-345 nm to 1025-1035 nm; filter none, "
                  "linear or dB and combine mean or median in a fixed balanced Latin square; "
                  "true loss 2-22 dB base with a bump peaking at 55-62 dB, above the 50 dB floor; per-run "
                  "gain scatter up to 5% and pixel noise up to 1e-5",
    }
    pass_blocks = 1
    NOISE = 1e-5

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.cases: list[LossesCase] = []

    def setup(self) -> dict:
        self.out.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.seed}:losses-ingest")
        modes = [(f, c) for f in ("none", "linear", "dB") for c in ("mean", "median")]
        grid = np.arange(401) * 1.0 + 400.0
        files = 0
        for i, (n_ref, n_mes) in enumerate(itertools.product(range(1, 7), range(1, 7))):
            # A case's cost follows its file count and pixel count.  Both are
            # common to all seeds (pixels up to 0.3% of the range apart), so
            # p50 and p90 do not move with the seed's own set of case sizes.
            f_mode, combine = modes[(n_ref + n_mes) % 6]
            pixels = 1024 + int(2624 * _frac(i * GOLDEN + rng.uniform(0.0, 0.003)))
            case = LossesCase(i, n_ref, n_mes, f_mode, combine, pixels)
            self._write_case(case, rng, grid)
            files += n_ref + n_mes + (f_mode != "none")
            self.cases.append(case)
        self.order_rng = random.Random(f"{self.seed}:losses-ingest:order")
        return {"cases": len(self.cases), "files": files}

    def _write_case(self, case: LossesCase, rng: random.Random, grid: np.ndarray) -> None:
        d = self.work / "cases" / f"c{case.index:02d}"
        d.mkdir(parents=True, exist_ok=True)
        w = np.linspace(rng.uniform(335, 345), rng.uniform(1025, 1035), case.n_pixels)
        p = {
            "base": rng.uniform(2.0, 22.0), "tilt": rng.uniform(-2.0, 2.0),
            "dip": rng.uniform(0.0, 1.5), "dip_at": rng.uniform(420, 780), "dip_w": rng.uniform(40, 80),
            "bump_at": rng.uniform(450, 750), "bump_w": rng.uniform(60, 90),
            "src_at": rng.uniform(500, 700),
            "nd": rng.uniform(8.0, 25.0),
        }
        p["bump"] = rng.uniform(55.0, 62.0) - p["base"]  # peak above the floor
        nrng = np.random.default_rng([self.seed, case.index])
        src = _source(w, p)
        trans = 10.0 ** (-_true_loss(w, p) / 10.0)
        tf = 10.0 ** (-_filter_db(w, p) / 10.0) if case.filter_mode != "none" else np.ones_like(w)
        a, b = _gains(rng, case.n_ref), _gains(rng, case.n_mes)

        def noisy(clean, gain):
            return clean * gain * (1.0 + nrng.uniform(-self.NOISE, self.NOISE, clean.size))

        for r, g in enumerate(a):
            path = d / f"ref{r}.csv"
            _write_csv(path, w, noisy(src, g), None if r % 2 else "linear-power")
            case.ref_paths.append(path)
        for r, g in enumerate(b):
            path = d / f"mes{r}.csv"
            _write_csv(path, w, noisy(src * tf * trans, g), None)
            case.mes_paths.append(path)
        if case.filter_mode == "linear":
            case.filter_path = d / "filter.csv"
            _write_csv(case.filter_path, w, tf, "linear-power")
        elif case.filter_mode == "dB":
            case.filter_path = d / "filter.csv"
            _write_csv(case.filter_path, w, -_filter_db(w, p), "dB")

        agg = np.mean if case.combine == "mean" else np.median
        case.grid_loss_db = _true_loss(grid, p)
        case.gain_offset_db = -10.0 * math.log10(float(agg(b)) / float(agg(a)))
        rel_sq = 0.0
        if case.n_mes > 1:
            rel_sq += (float(np.std(b, ddof=1)) / float(agg(b))) ** 2
        if case.n_ref > 1:
            rel_sq += (float(np.std(a, ddof=1)) / float(agg(a))) ** 2
        case.stddev_db = 10.0 / math.log(10.0) * math.sqrt(rel_sq) if rel_sq else None
        # Linear interpolation of the clean signals bounds what resampling can
        # add to the true curve; the noise adds at most 4 * NOISE relative.
        clean = -10.0 * np.log10(np.interp(grid, w, src * tf * trans)
                                 / (np.interp(grid, w, src) * np.interp(grid, w, tf)))
        interp_err = float(np.max(np.abs(clean - case.grid_loss_db)))
        case.tol_db = 2.0 * interp_err + 10.0 / math.log(10.0) * 4.0 * self.NOISE + 1e-6
        # Pixel noise moves each run's relative value by at most NOISE, so each
        # side's relative scatter by at most 2*sqrt(2)*NOISE.
        case.stddev_tol_db = 10.0 / math.log(10.0) * 4.0 * math.sqrt(2.0) * self.NOISE + 1e-9

    def block(self, b: int) -> list[Op]:
        order = list(range(len(self.cases)))
        self.order_rng.shuffle(order)
        ops = []
        out = self.out / "loss.csv"
        for i in order:
            c = self.cases[i]
            argv = ["losses", "--ref", *map(str, c.ref_paths), "--mes", *map(str, c.mes_paths)]
            if c.filter_path is not None:
                argv += ["--filters", str(c.filter_path)]
            argv += ["--grid", GRID, "--floor-db", "50", "--out", str(out)]
            if c.combine == "median":
                argv.append("--median")
            ops.append(Op("losses", argv, (out,), c, f"losses:{c.index}"))
        return ops


WORKLOADS = {w.name: w for w in (UsdSweep, ChainAudit, LossesIngest)}
