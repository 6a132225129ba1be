#!/usr/bin/env python3
"""Walkthrough: from raw spectrometer runs to a flagged insertion-loss curve.

Simulates ten noisy broadband measurements of a made-up element whose true
loss crosses the instrument's 50 dB dynamic range, then runs the full
pipeline: per-run resampling, run averaging with scatter tracking, the
reference/filter-corrected loss formula, floor flagging and negative-loss
clamping.

Writes demo_output/element_loss.csv.
"""

import pathlib

import numpy as np

from ipaudit import (
    Spectrum,
    aggregate_runs,
    canonical_grid,
    insertion_loss,
    loss_csv_text,
    resample,
)
from ipaudit.output import write_files

OUT = pathlib.Path(__file__).resolve().parent.parent / "demo_output"


def main() -> None:
    rng = np.random.default_rng(2024)

    # The "instrument" samples every 1.5 nm; analysis runs on the 1 nm grid.
    instrument_grid = 400.0 + 1.5 * np.arange(267)
    analysis_grid = canonical_grid()[:-2]  # 400..798 stays inside the samples

    true_loss = 30.0 + 25.0 * np.sin(instrument_grid / 40.0)  # crosses 50 dB
    lamp = 5e3 * np.exp(-(((instrument_grid - 560.0) / 180.0) ** 2)) + 50.0
    filters = Spectrum(instrument_grid, np.full(instrument_grid.size, 0.1))

    print("=== Synthesizing 10 noisy runs (2% multiplicative noise) ===")
    ref_runs, mes_runs = [], []
    for _ in range(10):
        noise = rng.normal(1.0, 0.02, instrument_grid.size)
        ref_runs.append(Spectrum(instrument_grid, lamp * noise))
        noise = rng.normal(1.0, 0.02, instrument_grid.size)
        mes_runs.append(
            Spectrum(
                instrument_grid,
                lamp * filters.values * 10.0 ** (-true_loss / 10.0) * noise,
            )
        )

    print("=== Resampling onto the 1 nm analysis grid and averaging ===")
    ref = aggregate_runs([resample(r, analysis_grid) for r in ref_runs])
    mes = aggregate_runs([resample(m, analysis_grid) for m in mes_runs])
    print(f"  {ref.n_runs} runs, mean reference scatter "
          f"{float(np.mean(ref.stddev / ref.values)):.3%}")

    loss = insertion_loss(ref, mes, resample(filters, analysis_grid), floor_db=50.0)
    n_floored = int(loss.floored.sum())
    print("\n=== Result ===")
    print(f"  {len(loss)} grid points, {n_floored} at the 50 dB floor")
    print(f"  median loss scatter: {float(np.median(loss.stddev_db)):.3f} dB")
    truth = np.interp(analysis_grid, instrument_grid, true_loss)
    clean = ~loss.floored
    worst = float(np.max(np.abs(loss.loss_db[clean] - truth[clean])))
    print(f"  worst recovery error below the floor: {worst:.3f} dB")
    if loss.meta:
        print(f"  notes: {loss.meta}")

    path = OUT / "element_loss.csv"
    write_files({path: loss_csv_text(loss)})
    print(f"  -> {path.name}")


if __name__ == "__main__":
    main()
