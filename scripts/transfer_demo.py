#!/usr/bin/env python3
"""End-to-end transfer demo: build a power-sum tensor from random points,
lift the point ideal into the Segre ring, and run the full certificate
pipeline.

    python scripts/transfer_demo.py --n 3 --d 3 --r 4 --seed 1
"""

import argparse
import math
import random

from borderapolar.grading import veronese_ring
from borderapolar.ideals import point_ideal, very_general_points
from borderapolar.selftest import sum_of_powers_tensor
from borderapolar.transfer import (
    check_condition_ii,
    check_condition_iii,
    comon_certificate,
    rho_ideal,
    upsilon,
)
from borderapolar.cli import certificate_lines


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--r", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    n, d = args.n, args.d
    r = args.r if args.r is not None else n
    if not n <= r <= math.comb(n + 1, 2):
        ap.error(f"need {n} <= r <= {math.comb(n + 1, 2)}")

    rng = random.Random(args.seed)
    bound = d + 1
    zs = very_general_points(veronese_ring(n), r, bound, rng)
    print(f"drew {r} points on P^{n - 1}:")
    for p in zs.points:
        print("  ", tuple(str(x) for x in p))

    f = sum_of_powers_tensor(n, d, zs.points)
    ideal = point_ideal(zs, bound)
    lifted = upsilon(ideal, d, bound)

    print("\ncondition (ii):", "pass" if check_condition_ii(lifted, f).verdict else "fail")
    print("condition (iii):", "pass" if check_condition_iii(lifted, f).verdict else "fail")

    cert = comon_certificate(f, r, lifted)
    print()
    print("\n".join(certificate_lines(cert)))

    restricted = rho_ideal(lifted)
    print("\nrestricted ideal dimensions:", [restricted.piece(k).dim for k in range(bound + 1)])


if __name__ == "__main__":
    main()
