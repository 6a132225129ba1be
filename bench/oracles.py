"""Independent checks of the CLI outputs.

None of these checks imports the program: expected values come from closed
forms, 40-digit mpmath, brute-force enumeration with exact sums, and the
losses generator's own true curve and injected scatter.  Each check returns
a Verdict; a failure that a known ROADMAP defect explains is marked with the
defect's id so the run can list it instead of calling the benchmark broken.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

EPS = float(np.finfo(float).eps)
WEYL_FACTOR = 4.0  # eigvalsh error seen at up to 0.75 * M*eps*lambda_max
SCW_TOL = 1e-12
SCALE = 2.0 ** 54  # loss values >= 0.25 dB are integers at this scale

KNOWN_DEFECTS = {
    "usd-baseline-unresolvable": (
        "ROADMAP item 2: P(1) lies below the float64 resolution bound "
        "4*M*eps*lambda_max, yet `usd` exits 0 and writes f = P / P(1) "
        "instead of refusing"
    ),
    "losses-ref-scatter-dropped": (
        "ROADMAP item 3: with one measurement run, insertion_loss drops the "
        "reference-run scatter and writes no stddev_db column"
    ),
}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""
    known: str | None = None  # KNOWN_DEFECTS id when a listed defect explains the failure


PASS = Verdict(True)


def _fail(detail: str, known: str | None = None) -> Verdict:
    return Verdict(False, detail, known)


def _read_csv(data: bytes, header: list[str]) -> tuple[dict[str, str], np.ndarray]:
    """Comment lines as key/value pairs plus the numeric rows."""
    comments, rows, seen = {}, [], None
    for line in data.decode("utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition(":")
            comments[key.strip()] = value.strip()
            continue
        if seen is None:
            seen = line.split(",")
            if seen != header:
                raise ValueError(f"header {seen} != {header}")
            continue
        rows.append([float(c) for c in line.split(",")])
    return comments, np.array(rows, dtype=float).reshape(-1, len(header))


def grid_length(x_max: float, step: float) -> int:
    return int((Decimal(repr(x_max)) / Decimal(repr(step))).to_integral_value()) + 1


# ---------------------------------------------------------------------------
# usd and scw
# ---------------------------------------------------------------------------

def circulant_eigenvalues(alpha: float, n_half: int, x: int) -> list[float]:
    """Exact Gram eigenvalues at integer x:
    lambda_q = M e^{-a^2} sum_{n: n x = q mod M} a^{2n} / n!  (non-negative terms)."""
    import mpmath

    m = 2 * n_half
    with mpmath.workdps(40):
        a2 = mpmath.mpf(alpha) ** 2
        lam = [mpmath.mpf(0)] * m
        term = mpmath.mpf(1)
        n = 0
        while n < 20 or term > mpmath.mpf(10) ** -45:
            lam[(n * x) % m] += term
            n += 1
            term = term * a2 / n
        scale = m * mpmath.exp(-a2)
        return [float(scale * v) for v in lam]


def mp_gram_eigenvalues(alpha: float, n_half: int, x: float) -> list[float]:
    """Gram eigenvalues at any x from a 40-digit Hermitian eigensolve."""
    import mpmath

    m = 2 * n_half
    with mpmath.workdps(40):
        a2 = mpmath.mpf(alpha) ** 2
        xm = mpmath.mpf(x)
        first = [mpmath.exp(a2 * (mpmath.expj(d * xm * mpmath.pi / n_half) - 1)) for d in range(m)]
        g = mpmath.matrix(m, m)
        for j in range(m):
            for k in range(m):
                g[j, k] = first[k - j] if k >= j else mpmath.conj(first[j - k])
        return sorted(float(v) for v in mpmath.eighe(g, eigvals_only=True))


def numpy_lambda_max(alpha: float, n_half: int, xs: np.ndarray) -> np.ndarray:
    """Largest Gram eigenvalue per x; it is well conditioned, so float64 suffices."""
    m = 2 * n_half
    d = np.arange(m)
    diff = d[None, :] - d[:, None]
    theta = diff[None, :, :] * xs[:, None, None] * np.pi / n_half
    g = np.exp(alpha**2 * (np.exp(1j * theta) - 1.0))
    return np.linalg.eigvalsh(g)[:, -1]


def weyl_bound(n_half: int, lam_max: float) -> float:
    return 2 * n_half * EPS * lam_max


class UsdOracle:
    """usd: exact circulant series at integer x, mpmath on a seeded sample of
    non-integer x, f(1) == 1, f == p / p(1) on every row.  scw: mpmath J0."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{seed}:usd-oracle")

    def check(self, op, rc, stderr: str, files: dict[str, bytes], deep: int | None = None) -> Verdict:
        """deep: row index to check against mpmath as well (-1 picks a seeded one)."""
        if op.kind == "scw":
            return self.check_scw(op.case, rc, files)
        c = op.case
        exact1 = circulant_eigenvalues(c.alpha, c.n_half, 1)
        p1_exact, b1 = min(exact1), WEYL_FACTOR * weyl_bound(c.n_half, max(exact1))
        if p1_exact <= b1:
            # No f can be resolved, so the right outcome is a clean refusal:
            # exit code 1 with a diagnostic, whatever its wording.
            if rc == 1 and stderr.strip():
                return PASS
            if rc == 0:
                return _fail(f"P(1) = {p1_exact!r} is below its bound {b1:.3g}, yet usd "
                             "wrote f = P / P(1)", "usd-baseline-unresolvable")
        if rc != 0:
            return _fail(f"exit code {rc}: {stderr.strip()}")
        try:
            _, pr = _read_csv(files["usd_probability.csv"], ["x", "p_usd"])
            _, fr = _read_csv(files["usd_ratio.csv"], ["x", "f"])
        except (KeyError, ValueError) as exc:
            return _fail(f"unreadable output: {exc}")
        n = grid_length(c.x_max, c.step)
        if len(pr) != n or len(fr) != n:
            return _fail(f"expected {n} rows, got {len(pr)} and {len(fr)}")
        ks = np.arange(n)
        if not (np.array_equal(pr[:, 0], ks / 100) and np.array_equal(fr[:, 0], ks / 100)):
            return _fail("x column is not k * 0.01")
        p, f = pr[:, 1].tolist(), fr[:, 1].tolist()
        if f[100] != 1.0:
            return _fail(f"x=1: f(1) = {f[100]!r}, not 1")
        for x in range(0, int(c.x_max) + 1):
            lam = circulant_eigenvalues(c.alpha, c.n_half, x)
            v = self._compare(p, f, 100 * x, min(lam), max(lam), p1_exact, b1, c.n_half)
            if v is not None:
                return _fail(f"x={x}: {v}")
        if deep is not None:
            k = deep if deep >= 0 else self.rng.choice([k for k in range(n) if k % 100])
            lam = mp_gram_eigenvalues(c.alpha, c.n_half, k / 100)
            v = self._compare(p, f, k, lam[0], lam[-1], p1_exact, b1, c.n_half)
            if v is not None:
                return _fail(f"x={k / 100} (mpmath): {v}")
        p, f = np.array(p), np.array(f)
        if np.any(p < 0) or np.any(p > 1) or not np.all(np.isfinite(f)):
            return _fail("probability outside [0, 1] or non-finite ratio")
        if np.any(np.abs(f * p[100] - p) > 4 * EPS * np.maximum(p, np.abs(f * p[100]))):
            return _fail("f != p / p(1)")
        return PASS

    @staticmethod
    def _compare(p, f, k, lam_min, lam_max, p1, b1, n_half):
        """Row k against the exact values; p1 > b1 here, so f is resolvable."""
        b = WEYL_FACTOR * weyl_bound(n_half, lam_max)
        if abs(p[k] - lam_min) > b:
            return f"p = {p[k]!r}, exact {lam_min!r}, bound {b:.3g}"
        f_exact = lam_min / p1
        bf = (b + f_exact * b1) / (p1 - b1) + 4 * EPS * f_exact
        if abs(f[k] - f_exact) > bf:
            return f"f = {f[k]!r}, exact {f_exact!r}, bound {bf:.3g}"
        return None

    @staticmethod
    def check_scw(c, rc, files) -> Verdict:
        import mpmath

        if rc != 0:
            return _fail(f"exit code {rc}")
        try:
            _, table = _read_csv(files["holevo_vs_dm.csv"], ["dm", "chi_attacked", "chi_baseline"])
        except (KeyError, ValueError) as exc:
            return _fail(f"unreadable output: {exc}")
        rows = table.tolist()
        n = grid_length(c.dm_max, c.step)
        if len(rows) != n or [r[0] for r in rows] != (np.arange(n) / 100).tolist():
            return _fail("dm column is not k * 0.01 up to dm_max")

        def chi(index):
            with mpmath.workdps(40):
                j0 = mpmath.besselj(0, 2 * mpmath.mpf(index))
                q = (1 - mpmath.exp(-mpmath.mpf(c.alpha0_sq) * (1 - j0**2))) / 2
                if q == 0:
                    return 0.0
                return float(-(q * mpmath.log(q, 2) + (1 - q) * mpmath.log(1 - q, 2)))

        base = chi(c.m)
        for dm, att, bl in rows:
            if abs(bl - base) > SCW_TOL:
                return _fail(f"chi_baseline {bl!r} != {base!r}")
            want = chi(c.m * dm)
            if abs(att - want) > SCW_TOL:
                return _fail(f"dm={dm}: chi_attacked {att!r} != {want!r}")
        return PASS


def unresolvable_values(op, files: dict[str, bytes]) -> int:
    """Written p and f values whose resolution bound M*eps*lambda_max exceeds them."""
    if op.kind != "usd" or "usd_probability.csv" not in files:
        return 0
    c = op.case
    _, pr = _read_csv(files["usd_probability.csv"], ["x", "p_usd"])
    _, fr = _read_csv(files["usd_ratio.csv"], ["x", "f"])
    bound = 2 * c.n_half * EPS * numpy_lambda_max(c.alpha, c.n_half, pr[:, 0])
    p, f = pr[:, 1], fr[:, 1]
    p1, b1 = p[100], bound[100]
    with np.errstate(divide="ignore", invalid="ignore"):
        bound_f = np.where(p1 > 0, (bound + np.abs(f) * b1) / p1, np.inf)
    return int(np.count_nonzero(bound > np.abs(p)) + np.count_nonzero(bound_f > np.abs(f)))


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-RFC 8259 constant {name}")


def strict_json(data: bytes):
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def _as_ints(loss: np.ndarray) -> np.ndarray:
    scaled = loss * SCALE
    if not (np.all(loss >= 0) and np.all(scaled == np.floor(scaled)) and np.all(loss < 64)):
        raise ValueError("library loss values are not exact multiples of 2^-54 in [0, 64)")
    return scaled.astype(np.int64)


def _selections(slots: list[list[tuple[np.ndarray, np.ndarray]]], n: int):
    """Exact total and floored-any flags of every selection of these slots,
    one at a time, depth first with running sums."""
    if not slots:
        yield np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
        return
    for tot, fl in _selections(slots[:-1], n):
        for vals, floored in slots[-1]:
            yield tot + vals, fl | floored


@dataclass
class ChainExpectation:
    wavelengths: np.ndarray
    p_max: np.ndarray
    p_min: np.ndarray
    # flags of the minimising / maximising selections: set when all of them
    # rest on floored data (must), or when any does (may)
    max_cons_all: np.ndarray
    max_cons_any: np.ndarray
    min_cons_all: np.ndarray
    min_cons_any: np.ndarray


def brute_force(case, curves) -> ChainExpectation:
    """Enumerate every concrete selection; the exact integer sums of the
    library arrays equal math.fsum, checked on a sample of selections.  The
    last two slots form a table of at most 16 selections and the others are
    walked one selection at a time, so this check's memory stays small for
    every case and the run's peak RSS is the program's."""
    w = curves[case.slots[0][0]][0]
    n = w.size
    slots = [[(_as_ints(curves[a][1]), curves[a][2]) for a in alts] for alts in case.slots]
    split = max(len(slots) - 2, 0)
    table = list(_selections(slots[split:], n))
    b_tot = np.array([t for t, _ in table])
    b_fl = np.array([f for _, f in table])
    big = np.iinfo(np.int64)
    lo, hi = np.full(n, big.max), np.full(n, big.min)
    lo_all, lo_any = np.ones(n, bool), np.zeros(n, bool)
    hi_all, hi_any = np.ones(n, bool), np.zeros(n, bool)
    for at, af in _selections(slots[:split], n):
        tot = b_tot + at
        fl = b_fl | af
        for ext, run, run_all, run_any in ((np.min, lo, lo_all, lo_any), (np.max, hi, hi_all, hi_any)):
            e = ext(tot, axis=0)
            hit = tot == e
            e_any = (hit & fl).any(axis=0)
            e_all = (~hit | fl).all(axis=0)
            better = e < run if ext is np.min else e > run
            tie = e == run
            run_any[:] = np.where(better, e_any, run_any | (tie & e_any))
            run_all[:] = np.where(better, e_all, np.where(tie, run_all & e_all, run_all))
            run[:] = np.where(better, e, run)
    rng = random.Random(case.index)
    for _ in range(16):
        sel = [rng.randrange(len(alts)) for alts in case.slots]
        j = rng.randrange(n)
        vals = [curves[alts[i]][1][j] for alts, i in zip(case.slots, sel)]
        exact = sum(int(v * SCALE) for v in vals)
        if math.fsum(vals) != float(exact) / SCALE:
            raise AssertionError("exact integer sum disagrees with math.fsum")
    p_in = np.float64(case.input_power_dbm)
    return ChainExpectation(
        w,
        p_in - lo.astype(np.float64) / SCALE,
        p_in - hi.astype(np.float64) / SCALE,
        lo_all, lo_any, hi_all, hi_any,
    )


def threshold_dbm(power: float, unit: str) -> float:
    return power if unit == "dBm" else 10.0 * math.log10(power) - 60.0


def _bands(w, p, thr):
    """Maximal runs of grid points with p strictly above thr, as index ranges."""
    out, start = [], None
    for i, hit in enumerate(p > thr):
        if hit and start is None:
            start = i
        if not hit and start is not None:
            out.append((start, i - 1))
            start = None
    if start is not None:
        out.append((start, len(p) - 1))
    return out


class ChainOracle:
    def __init__(self, curves):
        self.curves = curves
        self.cache: dict[int, ChainExpectation] = {}

    def expectation(self, case) -> ChainExpectation:
        if case.index not in self.cache:
            self.cache[case.index] = brute_force(case, self.curves)
        return self.cache[case.index]

    def check(self, op, rc, stderr, files, deep=False) -> Verdict:
        if rc != 0:
            return _fail(f"exit code {rc}: {stderr.strip()}")
        case = op.case
        try:
            report = strict_json(files["report.json"])
            _, budget = _read_csv(
                files["budget.csv"], ["wavelength_nm", "p_min_dbm", "p_max_dbm", "threshold_dbm"]
            )
        except (KeyError, ValueError) as exc:
            return _fail(f"unreadable output: {exc}")
        exp = self.expectation(case)
        w = np.array(report["wavelength_nm"], dtype=float)
        if not np.array_equal(w, exp.wavelengths):
            return _fail("wavelength grid differs from the library's")
        if report["input_power_dbm"] != case.input_power_dbm:
            return _fail("input_power_dbm differs from the descriptor")
        for key, want in (("p_max_dbm", exp.p_max), ("p_min_dbm", exp.p_min)):
            got = np.array(report[key], dtype=float)
            if not np.array_equal(got, want):
                i = int(np.flatnonzero(got != want)[0]) if got.shape == want.shape else 0
                return _fail(f"{key} differs from brute force at index {i}")
        max_cons = np.array(report["max_conservative"], dtype=bool)
        min_cons = np.array(report["min_conservative"], dtype=bool)
        if np.any(max_cons < exp.max_cons_all) or np.any(max_cons > exp.max_cons_any):
            return _fail("max_conservative flags disagree with brute force")
        if np.any(min_cons < exp.min_cons_all) or np.any(min_cons > exp.min_cons_any):
            return _fail("min_conservative flags disagree with brute force")
        side = report["assessments"]
        for name, p, must, may in (
            ("max_power", exp.p_max, exp.max_cons_all, exp.max_cons_any),
            ("min_power", exp.p_min, exp.min_cons_all, exp.min_cons_any),
        ):
            items = side[name]
            if len(items) != len(case.thresholds):
                return _fail(f"{name}: {len(items)} assessments for {len(case.thresholds)} thresholds")
            for (power, unit), a in zip(case.thresholds, items):
                thr = a["threshold_dbm"]
                if abs(thr - threshold_dbm(power, unit)) > 1e-9:
                    return _fail(f"{name}: threshold_dbm {thr!r} for {power} {unit}")
                bands = _bands(w, p, thr)
                if len(bands) != len(a["bands"]):
                    return _fail(f"{name}: {len(a['bands'])} bands, brute force finds {len(bands)}")
                floored_only = []
                for rank, ((i, j), got) in enumerate(zip(bands, a["bands"])):
                    if (got["lo_nm"], got["hi_nm"]) != (w[i], w[j]):
                        return _fail(f"{name}: band {rank} edges differ")
                    if got["severity"] != ("highest" if rank == 0 else "normal"):
                        return _fail(f"{name}: band {rank} severity {got['severity']}")
                    lo_ok, hi_ok = bool(np.all(must[i:j + 1])), bool(np.all(may[i:j + 1]))
                    if not lo_ok <= got["floored_only"] <= hi_ok:
                        return _fail(f"{name}: band {rank} floored_only flag")
                    floored_only.append(got["floored_only"])
                want = ("protected" if not bands else
                        "vulnerable" if not all(floored_only) else "indeterminate")
                if a["verdict"] != want:
                    return _fail(f"{name}: verdict {a['verdict']}, expected {want}")
        wanted = sorted(a["verdict"] for a in side["max_power"])
        if sorted(report["verdicts"].values()) != wanted:
            return _fail("verdicts do not match the max_power assessments")
        binding = min(a["threshold_dbm"] for a in side["max_power"])
        if (budget.shape[0] != w.size or not np.array_equal(budget[:, 0], w)
                or not np.array_equal(budget[:, 1], exp.p_min)
                or not np.array_equal(budget[:, 2], exp.p_max)
                or not np.all(budget[:, 3] == binding)):
            return _fail("budget.csv disagrees with the brute-force envelope")
        return PASS


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class LossesOracle:
    """Loss within the case tolerance of the generator's true curve minus the
    injected gain offset, raised to 0 dB where that is negative, as
    insertion_loss documents; floored points exactly at the floor; stddev_db
    equal to the injected run scatter."""

    def check(self, op, rc, stderr, files, deep=False) -> Verdict:
        c = op.case
        if rc != 0:
            return _fail(f"exit code {rc}: {stderr.strip()}")
        data = files.get("loss.csv", b"")
        has_std = b"stddev_db" in data
        header = ["wavelength_nm", "loss_db", "floored"] + (["stddev_db"] if has_std else [])
        try:
            comments, rows = _read_csv(data, header)
        except ValueError as exc:
            return _fail(f"unreadable output: {exc}")
        if float(comments.get("floor_db", "nan")) != 50.0:
            return _fail("floor_db comment is not 50.0")
        if rows.shape[0] != 401 or not np.array_equal(rows[:, 0], 400.0 + np.arange(401)):
            return _fail("wavelengths are not the 400:800:1 grid")
        loss, floored = rows[:, 1], rows[:, 2]
        expected = c.grid_loss_db + c.gain_offset_db
        above = expected > 50.0 + c.tol_db
        below = expected < 50.0 - c.tol_db
        if np.any(floored[above] != 1) or np.any(floored[below] != 0):
            return _fail("floored flags disagree with the true curve")
        if np.any(loss[floored == 1] != 50.0):
            return _fail("a floored point is not exactly at the floor")
        free = floored == 0
        err = np.abs(loss[free] - np.maximum(expected[free], 0.0))
        if err.size and err.max() > c.tol_db:
            return _fail(f"loss off the true curve by {err.max():.4g} dB (tolerance {c.tol_db:.3g})")
        if c.stddev_db is None:
            return PASS if not has_std else _fail("stddev_db written for single runs")
        if not has_std:
            known = "losses-ref-scatter-dropped" if c.n_mes == 1 else None
            return _fail("no stddev_db column", known)
        if np.any(np.abs(rows[:, 3] - c.stddev_db) > c.stddev_tol_db):
            return _fail("stddev_db differs from the injected scatter")
        return PASS


# ---------------------------------------------------------------------------
# Self-test: one perturbed value must fail every check
# ---------------------------------------------------------------------------

def _replace_field(data: bytes, row: int, col: int, fn) -> bytes:
    """Apply fn to one numeric cell of a CSV (row counts data rows only)."""
    lines = data.decode("utf-8").split("\n")
    data_rows = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    cells = lines[data_rows[row]].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[data_rows[row]] = ",".join(cells)
    return "\n".join(lines).encode("utf-8")


def perturbations(op, files: dict[str, bytes]):
    """(label, expected detail prefix, perturbed files, deep row) with exactly
    one value changed; each must fail the check the label names."""
    if op.kind == "usd":
        last = grid_length(op.case.x_max, op.case.step) - 1
        k = last if last % 100 else last - 1
        prob, ratio = files["usd_probability.csv"], files["usd_ratio.csv"]
        yield ("usd p at x=1 (circulant series)", "x=1:",
               {**files, "usd_probability.csv": _replace_field(prob, 100, 1, lambda v: v + 1e-6)}, None)
        yield ("usd f(1) == 1", "x=1:",
               {**files, "usd_ratio.csv": _replace_field(ratio, 100, 1, lambda v: v * (1 + 1e-9))}, None)
        yield ("usd p at non-integer x (mpmath)", f"x={k / 100} (mpmath)",
               {**files, "usd_probability.csv": _replace_field(prob, k, 1, lambda v: v + 1e-6)}, k)
    elif op.kind == "scw":
        yield ("scw chi_attacked (mpmath J0)", "dm=",
               {**files, "holevo_vs_dm.csv": _replace_field(files["holevo_vs_dm.csv"], 3, 1,
                                                            lambda v: v + 1e-9)}, None)
    elif op.kind == "chain":
        doc = json.loads(files["report.json"])
        doc["p_max_dbm"][200] += 1e-9
        yield ("chain p_max (brute force)", "p_max_dbm differs",
               {**files, "report.json": json.dumps(doc).encode()}, None)
        doc["p_max_dbm"][200] = float("nan")
        yield ("chain report.json (strict RFC 8259)", "unreadable output: non-RFC 8259",
               {**files, "report.json": json.dumps(doc).encode()}, None)
    elif op.kind == "losses":
        data = files["loss.csv"]
        header = ["wavelength_nm", "loss_db", "floored"] + (["stddev_db"] if b"stddev_db" in data else [])
        _, rows = _read_csv(data, header)
        free = int(np.flatnonzero(rows[:, 2] == 0)[0])
        floored = int(np.flatnonzero(rows[:, 2] == 1)[0])
        yield ("losses loss_db (true curve)", "loss off the true curve",
               {**files, "loss.csv": _replace_field(data, free, 1, lambda v: v + 0.05)}, None)
        yield ("losses floored point (exactly at the floor)", "a floored point",
               {**files, "loss.csv": _replace_field(data, floored, 1, lambda v: v - 1e-9)}, None)
        if len(header) == 4:
            yield ("losses stddev_db (injected scatter)", "stddev_db differs",
                   {**files, "loss.csv": _replace_field(data, 7, 3, lambda v: v * 1.2)}, None)
