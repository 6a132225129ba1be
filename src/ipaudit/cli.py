"""Command-line front end for reproducible audit runs.

Subcommands:
    losses   raw spectrometer runs -> insertion-loss CSV
    usd      USD probability and ratio curves over the remap factor
    scw      Holevo bound versus the modulation-index attack factor
    chain    power budget, vulnerability bands and verdicts for a chain
    library  validate and list a component library

All outputs are plain CSV or JSON, all staged before any is replaced, with no
timestamps: identical inputs give byte-identical files.  Validation problems
exit 1 with a single-line diagnostic on stderr; argparse reports unknown
subcommands with exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

# Every command needs numpy and the output path; each imports the rest itself,
# so a one-shot run loads only the modules its command uses.
from . import __version__
from .output import Cells, cells, csv_text, json_text, write_files

LIBRARY_ENV_VAR = "IPAUDIT_LIBRARY"


def _cmd_usd(args: argparse.Namespace) -> int:
    from .statemath import ratio_curve

    xs, ps, fs = map(cells, ratio_curve(args.alpha, args.n, args.x_max, args.step))
    prob, ratio = Path(args.outdir, "usd_probability.csv"), Path(args.outdir, "usd_ratio.csv")
    write_files({prob: csv_text("x,p_usd", (xs, ps)), ratio: csv_text("x,f", (xs, fs))})
    print(f"wrote {prob} and {ratio}")
    return 0


def _cmd_scw(args: argparse.Namespace) -> int:
    from .scw import holevo_curve

    dms, attacked, baseline = holevo_curve(args.alpha0_sq, args.m, args.dm, args.step)
    out = Path(args.outdir, "holevo_vs_dm.csv")
    write_files({out: csv_text("dm,chi_attacked,chi_baseline", (dms, attacked, baseline))})
    print(f"wrote {out}")
    return 0


def _parse_grid(text: str) -> np.ndarray:
    from .statemath import grid_steps

    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"grid must be MIN:MAX:STEP, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < step < math.inf) or hi <= lo:
        raise ValueError(f"invalid grid {text!r}")
    return lo + np.arange(grid_steps(hi - lo, step) + 1) * step


def _cmd_losses(args: argparse.Namespace) -> int:
    from .spectra import (DEFAULT_FLOOR_DB, aggregate_runs, insertion_loss, load_spectrum,
                          loss_csv_text, resample)

    grid = _parse_grid(args.grid) if args.grid else None

    def prepare(paths):
        runs = [load_spectrum(p) for p in paths]
        if grid is not None:
            runs = [resample(r, grid) for r in runs]
        if len(runs) == 1:
            return runs[0]
        return aggregate_runs(runs, mode="median" if args.median else "mean")

    ref = prepare(args.ref)
    mes = prepare(args.mes)
    filters = prepare([args.filters]) if args.filters else None
    floor_db = DEFAULT_FLOOR_DB if args.floor_db is None else args.floor_db
    loss = insertion_loss(ref, mes, filters, floor_db=floor_db)
    out = Path(args.out)
    write_files({out: loss_csv_text(loss)})
    n_floored = int(np.count_nonzero(loss.floored))
    print(f"wrote {out} ({len(loss)} points, {n_floored} at the {loss.floor_db} dB floor)")
    return 0


def _load_active_library(args: argparse.Namespace):
    from .components import load_library, reference_library

    library = args.library or os.environ.get(LIBRARY_ENV_VAR)
    return load_library(library) if library else reference_library()


def _cmd_chain(args: argparse.Namespace) -> int:
    from .budget import IpaThreshold, assess_ipa, load_chain_config

    chain, thresholds = load_chain_config(args.config)
    if args.threshold_nw:
        thresholds = tuple(
            IpaThreshold(p, "nW", source="cli-override") for p in args.threshold_nw
        )
    report = assess_ipa(chain, _load_active_library(args), thresholds)

    # report.json takes the cells budget.csv writes: each number is rendered once.
    w, p_min, p_max = map(cells, (report.wavelengths_nm, report.p_min_dbm, report.p_max_dbm))
    binding = Cells(cells([min(a.threshold_dbm for a in report.max_power)]) * len(w))
    outdir = Path(args.outdir)
    write_files({
        outdir / "budget.csv": csv_text("wavelength_nm,p_min_dbm,p_max_dbm,threshold_dbm",
                                        (w, p_min, p_max, binding)),
        outdir / "report.json": json_text(
            report.to_dict() | {"wavelength_nm": w, "p_min_dbm": p_min, "p_max_dbm": p_max}),
    })
    for label, verdict in report.verdicts.items():
        print(f"{label}: {verdict}")
    print(f"wrote {outdir / 'report.json'} and {outdir / 'budget.csv'}")
    return 0


def _cmd_library(args: argparse.Namespace) -> int:
    from .components import write_library

    library = _load_active_library(args)
    for comp_id in sorted(library):
        comp = library[comp_id]
        dirs = ",".join(sorted(comp.losses))
        print(f"{comp.id}  kind={comp.kind}  provenance={comp.provenance}  directions={dirs}")
        for anchor in comp.anchors:
            tag = " (minimum)" if anchor.is_minimum else ""
            print(
                f"  {anchor.direction}: {anchor.loss_db} dB @ {anchor.wavelength_nm} nm "
                f"[{anchor.source}]{tag}"
            )
    print(f"{len(library)} component(s) ok")
    if args.export:
        write_library(library, args.export)
        print(f"exported library to {args.export}")
    return 0


@functools.cache  # built once per process; parse_args does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipaudit",
        description="Audit fiber-QKD transmitter optics against photorefraction probing.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("usd", help="USD probability/ratio curves vs the phase-remap factor.")
    p.add_argument("--alpha", type=float, default=1.0, help="coherent amplitude |alpha|")
    p.add_argument("--n", type=int, default=2, help="half the number of states (set size 2N)")
    p.add_argument("--x-max", type=float, default=2.0, help="end of the remap-factor sweep")
    p.add_argument("--step", type=float, default=0.01, help="sweep step")
    p.add_argument("--outdir", type=str, default=".")
    p.set_defaults(func=_cmd_usd)

    p = sub.add_parser("scw", help="Holevo bound vs the modulation-index attack factor.")
    p.add_argument("--alpha0-sq", type=float, default=1.0, help="total power |alpha0|^2")
    p.add_argument("--m", type=float, default=0.434, help="modulation index")
    p.add_argument("--dm", type=float, default=2.0, help="end of the attack-factor sweep")
    p.add_argument("--step", type=float, default=0.01, help="sweep step")
    p.add_argument("--outdir", type=str, default=".")
    p.set_defaults(func=_cmd_scw)

    p = sub.add_parser("losses", help="Insertion loss from raw spectrometer runs.")
    p.add_argument("--ref", nargs="+", required=True, help="reference run CSV file(s)")
    p.add_argument("--mes", nargs="+", required=True, help="measurement run CSV file(s)")
    p.add_argument("--filters", type=str, default=None, help="filter transmission CSV")
    p.add_argument("--floor-db", type=float, default=None,
                   help="dynamic-range floor in dB")
    p.add_argument("--grid", type=str, default=None,
                   help="resample runs onto MIN:MAX:STEP nm before combining")
    p.add_argument("--median", action="store_true",
                   help="combine runs by median instead of mean")
    p.add_argument("--out", type=str, required=True, help="output loss CSV")
    p.set_defaults(func=_cmd_losses)

    p = sub.add_parser("chain", help="Power budget and verdicts for a component chain.")
    p.add_argument("--config", type=str, required=True, help="chain descriptor JSON")
    p.add_argument("--library", type=str, default=None,
                   help=f"component library directory (default: ${LIBRARY_ENV_VAR} "
                        "or the bundled reference library)")
    p.add_argument("--threshold-nw", type=float, action="append", default=None,
                   help="override thresholds with this power in nW (repeatable)")
    p.add_argument("--outdir", type=str, default=".")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("library", help="Validate and list a component library.")
    p.add_argument("--library", type=str, default=None,
                   help=f"library directory (default: ${LIBRARY_ENV_VAR} or bundled)")
    p.add_argument("--export", type=str, default=None,
                   help="write the active library to this directory")
    p.set_defaults(func=_cmd_library)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"ipaudit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
