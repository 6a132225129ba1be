"""Benchmark of the ipaudit CLI: seeded workloads, end-to-end metrics and a
traced per-layer breakdown.

    python3 bench/run.py --workload usd-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 15      # every workload, both modes

Run from the repository root.  The CLI is driven in-process through
`ipaudit.cli.main(argv)` by one client in a closed loop: the next operation
starts when the previous one returns.  With --trace 0 the last stdout line
holds the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a separate traced run.  Outputs are checked by the independent oracles in
oracles.py right after each operation, outside its timed region.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import workloads
from calibrate import CHILD_KERNEL, CHILD_KERNEL_REFERENCE_S, Calibration, to_reference
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 5
SUBPROCESS_TIMEOUT = 60


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ipaudit from this checkout's src/ and nowhere else."""
    if not (SRC / "ipaudit" / "cli.py").is_file():
        fail(f"no ipaudit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ipaudit.cli

    if Path(ipaudit.cli.__file__).resolve().parent != (SRC / "ipaudit").resolve():
        fail(f"imported ipaudit from {ipaudit.cli.__file__}, not from {SRC}")
    return ipaudit.cli


def _python_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], cwd=ROOT, env=_python_env(),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
    )
    if proc.returncode != 0:
        fail(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")
    return proc


def fast_samples(code: str, want: int, *flags: str) -> list[tuple[float, list[str], str]]:
    """Run `code`, which prints its two kernel times first on stdout, in
    2 * want fresh interpreters after one untimed warm-up that compiles the
    bytecode, and keep the `want` whose slower kernel was fastest.

    A shared machine can switch between a fast and a slow state, and on a
    2-vCPU Xeon import time grew only as the kernel's time to the power
    0.8-0.9 between them.  Keeping the fastest half holds a run to the fast
    state whenever it spent half its samples there.  Returns each kept run's
    scale to reference speed, its other stdout fields and its stderr."""
    _fresh_python(code, *flags)
    runs = []
    for _ in range(2 * want):
        proc = _fresh_python(code, *flags)
        before, after, *rest = proc.stdout.split(maxsplit=3)  # the last field may hold spaces
        before, after = float(before), float(after)
        runs.append((max(before, after), to_reference(CHILD_KERNEL_REFERENCE_S, before, after),
                     rest, proc.stderr))
    runs.sort(key=lambda r: r[0])
    return [r[1:] for r in runs[:want]]


def import_seconds() -> list[float]:
    """Time `import ipaudit.cli` in fresh interpreters, as every CLI
    invocation pays it; at reference speed."""
    code = CHILD_KERNEL + (
        "before = kernel(); t = time.perf_counter(); import ipaudit.cli\n"
        "d = time.perf_counter() - t; after = kernel()\n"
        "print(repr(before), repr(after), repr(d), ipaudit.cli.__file__)\n")
    out = []
    for scale, (seconds, origin), _ in fast_samples(code, SETUP_SAMPLES):
        if Path(origin).resolve().parent != (SRC / "ipaudit").resolve():
            fail(f"fresh interpreter imported ipaudit from {origin}")
        out.append(float(seconds) * scale)
    return out


def import_breakdown() -> dict[str, float]:
    """Self time of the modules `import ipaudit.cli` loads, by -X importtime,
    split into numpy, ipaudit and the rest, at reference speed; median over
    fresh interpreters."""
    code = CHILD_KERNEL + (
        "before = kernel(); sys.stderr.write('MARK\\n'); sys.stderr.flush()\n"
        "import ipaudit.cli\n"
        "print(repr(before), repr(kernel()))\n")
    samples = []
    for scale, _, stderr in fast_samples(code, IMPORTTIME_SAMPLES, "-X", "importtime"):
        totals = {"numpy": 0.0, "ipaudit": 0.0, "stdlib": 0.0}
        for line in stderr.split("MARK\n", 1)[1].splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = (p.strip() for p in line[len("import time:"):].split("|"))
            top = name.split(".")[0]
            totals[top if top in ("numpy", "ipaudit") else "stdlib"] += float(self_us) / 1000.0 * scale
        samples.append(totals)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def machine_facts() -> dict[str, str]:
    import numpy

    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": str(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


@dataclass
class Result:
    op: object
    seconds: float  # wall time of the operation
    scaled: float  # the same at reference machine speed (see calibrate.py)
    files: dict[str, bytes]  # the output, read back and removed after the operation


class Checker:
    """Checks each output right after its operation and keeps tallies only,
    so what the harness holds does not grow with the number of operations:
    peak_rss_mb stays the program's own.  A repeated (input, exit code,
    output) reuses its verdict.  One passing output per kind is kept for the
    self-test."""

    CACHE_MAX = 256  # more than the distinct inputs of a workload that repeats them

    def __init__(self, oracle, deep_sample: int):
        self.oracle = oracle
        self.deep_left = deep_sample  # usd operations still to check against mpmath too
        self.cache: dict[tuple, oracles.Verdict] = {}
        self.attempted = 0
        self.failed = 0
        self.known: dict[str, set[str]] = {}
        self.unexpected: list[str] = []
        self.samples: dict[str, tuple] = {}

    def check(self, op, rc, stderr: str, files: dict[str, bytes]) -> bool:
        """Tally the verdict; True when the oracle ran rather than the cache."""
        digest = hashlib.sha256(repr(sorted(files.items())).encode()).hexdigest()
        key = (op.key, rc, digest, stderr)
        verdict = self.cache.get(key)
        ran = verdict is None
        if ran:
            deep = None
            if op.kind == "usd" and self.deep_left > 0:
                deep, self.deep_left = -1, self.deep_left - 1
            verdict = self.oracle.check(op, rc, stderr, files, deep=deep)
            if len(self.cache) >= self.CACHE_MAX:
                self.cache.clear()
            self.cache[key] = verdict
        self.attempted += 1
        if verdict.ok:
            self.samples.setdefault(op.kind, (op, rc, stderr, files))
        else:
            self.failed += 1
            if verdict.known in oracles.KNOWN_DEFECTS:
                self.known.setdefault(verdict.known, set()).add(op.key)
            elif len(self.unexpected) < 20:
                self.unexpected.append(f"{op.key}: {verdict.detail}")
        return ran


class Runner:
    """Runs operations in a closed loop, one calibration kernel between every
    two, and checks each output after its kernel, outside its timed region.
    It keeps the times and no output.  The checks call no traced function,
    so they add no spans."""

    def __init__(self, cli, cal: Calibration, checker: Checker):
        self.cli = cli
        self.cal = cal
        self.checker = checker
        self.seconds = array("d")
        self.scaled = array("d")
        self.kernel_before = cal.sample()

    def run(self, op, record: bool = True) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                rc = f"uncaught {type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        files = {}
        for path in op.outputs:
            if path.exists():
                files[path.name] = path.read_bytes()
                path.unlink()
        kernel_after = self.cal.sample()
        scaled = seconds * self.cal.to_reference(self.kernel_before, kernel_after)
        self.kernel_before = kernel_after
        if record:
            self.seconds.append(seconds)
            self.scaled.append(scaled)
            if self.checker.check(op, rc, err.getvalue(), files):
                # the oracle took time, so the next operation gets a fresh kernel before it
                self.kernel_before = self.cal.sample()
        return Result(op, seconds, scaled, files)


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.  It moves
    smoothly with the data, where the order statistic at q jumps between
    neighbours a few percent apart: on usd-sweep that jump alone moved p50
    by 8% (interquartile range over ten seeds)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    per = 64  # midpoints per order statistic, for the Beta integral
    t = (np.arange(n * per) + 0.5) / (n * per)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, per).sum(axis=1)
    return float(mass @ x / mass.sum())


def make_checker(workload, seed: int, deep_sample: int) -> Checker:
    if workload.name == "usd-sweep":
        oracle = oracles.UsdOracle(seed)
    elif workload.name == "chain-audit":
        oracle = oracles.ChainOracle(workload.curves)
    else:
        oracle = oracles.LossesOracle()
    return Checker(oracle, deep_sample)


def self_test(checker: Checker, work: Path) -> list[str]:
    """Perturb one value of a passing output per check; each must be caught."""
    problems = []
    copy_dir = work / "selftest"
    copy_dir.mkdir(parents=True, exist_ok=True)
    for op, rc, stderr, passing in checker.samples.values():
        for label, prefix, files, deep in oracles.perturbations(op, passing):
            for name, data in files.items():  # the perturbed copy goes through a file, as outputs do
                (copy_dir / name).write_bytes(data)
            reread = {name: (copy_dir / name).read_bytes() for name in files}
            got = checker.oracle.check(op, rc, stderr, reread, deep=deep)
            status = "caught" if (not got.ok and got.detail.startswith(prefix)) else "MISSED"
            print(f"  self-test {label}: {status} ({got.detail or 'passed'})")
            if status == "MISSED":
                problems.append(label)
    return problems


def print_header(workload, seed, seconds, trace, setup_info, setup_wall):
    facts = machine_facts()
    print(f"workload {workload.name}  seed {seed}  seconds {seconds}  trace {trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for kind, text in workload.ranges.items():
        print(f"inputs   {kind}: {text}")
    extra = "  ".join(f"{k}={v}" for k, v in setup_info.items())
    print(f"set-up   inputs written in {setup_wall:.3f} s  {extra}")
    print("client   closed loop, 1 client, 1 thread; layers run inline with no queue, "
          "so no wait time exists to report")


def report_correctness(checker: Checker, work: Path) -> tuple[int, int, bool]:
    """Print known-defect and unexpected failures and run the self-test."""
    for defect, keys in sorted(checker.known.items()):
        print(f"known    {defect}: {len(keys)} input(s) [{', '.join(sorted(keys))}]")
        print(f"         {oracles.KNOWN_DEFECTS[defect]}")
    for line in checker.unexpected:
        print(f"FAILED   {line}")
    missed = self_test(checker, work)
    return checker.attempted, checker.failed, not checker.unexpected and not missed


def end_to_end(workload, runner, work, seconds) -> dict:
    setup_samples = import_seconds()
    for op in workload.block(0):  # warm-up block, not timed
        runner.run(op, record=False)
    # Whole blocks, so every run has the same mix, until the operations have
    # taken `seconds` at reference speed, so the sample count does not depend
    # on how contended the machine is.
    busy, b = 0.0, 1
    while busy < seconds:
        for op in workload.block(b):
            busy += runner.run(op).scaled
        b += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, correct = report_correctness(runner.checker, work)
    lat_ms = [v * 1000.0 for v in runner.scaled]
    raw_ms = [v * 1000.0 for v in runner.seconds]
    p90 = percentile(lat_ms, 0.90)
    metrics = {
        "ops_per_s": (attempted / (sum(lat_ms) / 1000.0), "1/s"),
        "op_p50_ms": (percentile(lat_ms, 0.50), "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "1"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    beyond = sum(1 for v in lat_ms if v > p90)
    print(f"samples  {attempted} ops in {busy:.2f} s at reference speed, "
          f"{sum(raw_ms) / 1000.0:.2f} s unscaled; {beyond} beyond p90; "
          f"fail_frac {failed / attempted:.4f}; setup_s over the {len(setup_samples)} fastest "
          f"of {2 * SETUP_SAMPLES} fresh interpreters")
    print(f"speed    unscaled: ops_per_s {attempted / (sum(raw_ms) / 1000.0):.6g}  op_p50_ms {percentile(raw_ms, 0.5):.6g}  "
          f"op_p90_ms {percentile(raw_ms, 0.9):.6g}")
    if beyond < 10:
        print("warning  fewer than ten samples beyond p90; raise --seconds")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


PER_OP_MS = (
    "statemath.gram_matrix", "statemath.eigensolve", "scw.holevo_curve",
    "spectra.load_spectrum", "spectra.resample", "spectra.aggregate_runs",
    "spectra.insertion_loss", "spectra.loss_csv_text", "spectra.load_loss_csv",
    "components.load_library", "components.reference_library",
    "budget.load_chain_config", "budget.envelope", "budget.assess_ipa", "budget.to_dict",
)
PER_OP_CALLS = (
    "statemath.gram_matrix", "scw.bessel_j0", "spectra.load_loss_csv",
    "components.reference_library",
)


def per_layer(workload, runner, work, seconds) -> dict:
    imports = import_breakdown()
    for op in workload.block(0):  # warm-up block, not timed
        runner.run(op, record=False)
    # One pass is a fixed list of whole blocks, so counts repeat exactly for a
    # seed; untraced and traced passes alternate until the time is used.
    ops = [op for b in range(1, 1 + workload.pass_blocks) for op in workload.block(b)]
    tracer = Tracer()
    busy = {False: 0.0, True: 0.0}  # scaled seconds
    done = {False: 0, True: 0}
    scale: dict[int, float] = {}  # traced op id -> its scale to reference speed
    first_pass: dict[int, Result] = {}  # the first traced pass, which gives the counts
    op_id = 0
    traced = False
    while min(busy.values()) < seconds / 2 or not done[True]:
        if traced:
            tracer.install()
        try:
            for op in ops:
                tracer.op_id = op_id
                r = runner.run(op)
                busy[traced] += r.scaled
                done[traced] += 1
                if traced:
                    scale[op_id] = r.scaled / r.seconds
                    if done[True] <= len(ops):
                        first_pass[op_id] = r
                op_id += 1
        finally:
            tracer.remove()
        traced = not traced
    attempted, failed, correct = report_correctness(runner.checker, work)
    if tracer.missing:
        print(f"note     not found, so not traced: {', '.join(tracer.missing)}")
    spans_path = WORK / f"spans-{workload.name}-{workload.seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans    {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    timed = tracer.summary(scale)
    first = tracer.summary({i: scale[i] for i in first_pass})
    n_first, n_timed = len(first_pass), len(scale)

    def ms(*names):
        return sum(timed.get(n, {}).get("s", 0.0) for n in names) * 1000.0 / n_timed

    def per_op(name, field="calls"):
        return first.get(name, {}).get(field, 0) / n_first

    points = sum(oracles.grid_length(r.op.case.x_max, r.op.case.step)
                 for r in first_pass.values() if r.op.kind == "usd")
    unresolvable = sum(oracles.unresolvable_values(r.op, r.files) for r in first_pass.values())
    bytes_written = sum(len(b) for r in first_pass.values() for b in r.files.values())
    eig = first.get("statemath.eigensolve", {}).get("count", 0)
    rate = {t: done[t] / busy[t] for t in busy}
    metrics = {
        "import.numpy_ms": (imports["numpy"], "ms"),
        "import.ipaudit_ms": (imports["ipaudit"], "ms"),
        "import.stdlib_ms": (imports["stdlib"], "ms"),
        "cli.ms": (ms("cli.main"), "ms"),
        "cli.self_ms": (ms("cli.self"), "ms"),
        "cli.bytes_written": (bytes_written / n_first, "bytes"),
        "statemath.curve_ms": (ms("statemath.probability_curve", "statemath.ratio_curve"), "ms"),
        "statemath.eigensolve.calls": (eig / n_first, "count"),
        "statemath.eigensolves_per_point": (eig / points if points else 0.0, "ratio"),
        "statemath.unresolvable_points": (unresolvable / n_first, "count"),
        "spectra.load_spectrum.rows": (per_op("spectra.load_spectrum", "count"), "count"),
        "trace.ops_per_s_ratio": (rate[True] / rate[False], "ratio"),
    }
    for name in PER_OP_MS:
        metrics[f"{name}.ms"] = (ms(name), "ms")
    for name in PER_OP_CALLS:
        metrics[f"{name}.calls"] = (per_op(name), "count")
    print(f"samples  {n_timed} traced ops ({n_first} in the first pass, which gives the counts), "
          f"{done[False]} untraced; traced {rate[True]:.3f} ops/s vs untraced {rate[False]:.3f} ops/s")
    print("layers   per operation; no layer queues work, so there is no wait time to record")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:40s} {value:14.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_one(args) -> int:
    cli = import_program()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        start = perf_counter()
        setup_info = workload.setup()
        setup_wall = perf_counter() - start
        print_header(workload, args.seed, args.seconds, args.trace, setup_info, setup_wall)
        checker = make_checker(workload, args.seed, deep_sample=2 if args.trace else 6)
        runner = Runner(cli, Calibration(workload.name), checker)
        measure = per_layer if args.trace else end_to_end
        result = measure(workload, runner, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        print("metrics")
        for name, (value, unit) in result["metrics"].items():
            print(f"  {name:12s} {value:14.6g} {unit}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, in child processes; one table."""
    rows = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            rows[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(workloads.WORKLOADS)
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per layer (traced)")):
        print(f"\n{title}")
        print(f"  {'metric':40s} {'unit':6s}" + "".join(f"{n:>16s}" for n in names))
        metric_names = rows[(names[0], trace)]["metrics"]
        for metric in (metric_names if trace == 0 else sorted(metric_names)):
            unit = metric_names[metric]["unit"]
            cells = "".join(f"{rows[(n, trace)]['metrics'][metric]['value']:16.6g}" for n in names)
            print(f"  {metric:40s} {unit:6s}{cells}")
        for key in ("correct", "attempted", "failed"):
            print(f"  {key:47s}" + "".join(f"{str(rows[(n, trace)][key]):>16s}" for n in names))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="usd-sweep, chain-audit or losses-ingest")
    parser.add_argument("--all", action="store_true", help="run every workload in both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
