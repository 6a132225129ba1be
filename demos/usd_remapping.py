#!/usr/bin/env python3
"""Walkthrough: what phase-grid distortion does to state discrimination.

A transmitter encodes on 2N coherent states at angles k*pi/N.  Probing the
modulator shifts its half-wave voltage, which rescales every angle by a
factor x.  This script builds the distorted constellations, eigensolves
their Gram matrices, and traces the discrimination-probability ratio f(x)
over x in [0, 2] for N = 2, 3, 4 -- the headline result being that any
non-integer x *hurts* an unambiguous-discrimination attack.

Writes plot-ready CSVs into demo_output/.
"""

import math
import pathlib

import numpy as np

from ipaudit import gram_matrix, ratio_curve, usd_probability
from ipaudit.spectra import csv_text, write_files

OUT = pathlib.Path(__file__).resolve().parent.parent / "demo_output"


def main() -> None:
    print("=== Two-state sanity check (closed form exists) ===")
    for x in (0.25, 0.5, 1.0, 1.5):
        p = usd_probability(1.0, 1, x)
        closed = 1 - np.exp(-(1 - np.cos(np.pi * x)))
        print(f"  x={x:4.2f}: P = {p:.9f}   closed form {closed:.9f}")

    print("\n=== Gram spectrum of the undistorted 4-state set (alpha=1) ===")
    g = gram_matrix(1.0, 2, 1.0)
    print("  eigenvalues:", np.array2string(np.linalg.eigvalsh(g), precision=6))
    print("  P(1) is the smallest one")

    print("\n=== Discrimination-probability ratio f(x) = P(x)/P(1) ===")
    for n_half in (2, 3, 4):
        xs, _, fs = ratio_curve(alpha_mag=1.0, n_half=n_half)
        path = OUT / f"usd_ratio_n{n_half}.csv"
        write_files({path: csv_text("x,f", (xs, fs))})
        print(
            f"  N={n_half}: f(1)={fs[xs == 1.0][0]:.3f}, "
            f"max={fs.max():.3f}, f(2)={fs[-1]:.2e}  -> {path.name}"
        )
    print("  any distortion x != 1 only lowers the attacker's USD odds")

    print("\n=== Weak-pulse regime: asymptotic vs exact at |alpha|^2 = 0.01 ===")
    alpha = np.sqrt(0.01)
    for n_half in (1, 2, 3):
        exact = usd_probability(alpha, n_half, 1.0)
        # Leading term of P(1) as alpha -> 0: 2N * alpha^(2(2N-1)) / (2N-1)!
        approx = 2 * n_half * alpha ** (2 * (2 * n_half - 1)) / math.factorial(2 * n_half - 1)
        print(f"  N={n_half}: exact {exact:.3e}  asymptotic {approx:.3e}  "
              f"ratio {exact / approx:.4f}")


if __name__ == "__main__":
    main()
