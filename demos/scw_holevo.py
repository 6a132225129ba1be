#!/usr/bin/env python3
"""Walkthrough: modulation-index manipulation in subcarrier-wave QKD.

The transmitter puts a fraction 1 - J0(m)^2 of its power into information
sidebands.  An attacker that nudges the modulator and waits for the parties
to recalibrate ends up scaling the index by a factor dm > 1, which inflates
the eavesdropper's Holevo bound.  This script reproduces the working point
where sidebands carry 1/10th of the carrier power and sweeps the bound over
dm in [0, 2].

Writes demo_output/holevo_vs_dm.csv.
"""

import pathlib

from ipaudit import bessel_j0, holevo_bound, holevo_curve
from ipaudit.output import csv_text, write_files

OUT = pathlib.Path(__file__).resolve().parent.parent / "demo_output"

M_WORK = 0.434  # modulation index giving a 1:10 sideband:carrier split


def main() -> None:
    print("=== Working point ===")
    carrier = bessel_j0(M_WORK) ** 2  # share of a unit total power; sidebands hold the rest
    print(f"  J0({M_WORK}) = {bessel_j0(M_WORK):.6f}")
    print(f"  sideband power (|alpha0|^2 = 1): {1.0 - carrier:.6f}")
    print(f"  small-m approximation          : {M_WORK**2 / 2:.6f}")
    print(f"  sideband : carrier = 1 : {carrier / (1.0 - carrier):.1f}")

    print("\n=== Holevo bound under index scaling ===")
    baseline = holevo_bound(1.0, M_WORK)
    print(f"  baseline chi at m = {M_WORK}: {baseline:.4f} bit")
    for dm in (1.0, 1.1, 1.2, 1.5, 2.0):
        attacked = holevo_bound(1.0, M_WORK * dm)
        print(f"  dm = {dm:3.1f}: chi = {attacked:.4f} bit  "
              f"({attacked - baseline:+.4f})")

    dms, attacked, base = holevo_curve(1.0, M_WORK, dm_max=2.0, step=0.01)
    path = OUT / "holevo_vs_dm.csv"
    write_files({path: csv_text("dm,chi_attacked,chi_baseline", (dms, attacked, base))})
    print(f"\n  swept {len(dms)} points -> {path.name}")

    print("\n=== Monotone window ===")
    try:
        holevo_curve(1.0, 0.7, 2.0)
    except ValueError as exc:
        print(f"  rejected out-of-window attack as expected: {exc}")


if __name__ == "__main__":
    main()
