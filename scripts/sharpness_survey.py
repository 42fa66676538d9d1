#!/usr/bin/env python3
"""Survey sharpness across random minimal-border-rank power-sum instances.

Samples sum_{j=1}^n l_j^{tensor 3} for random independent integer linear
forms, and tabulates the sharpness verdict, the quick three-factor test, and
the degree-one generator count against the expected n - 1.

    python scripts/sharpness_survey.py --n 3 --samples 20 --seed 7
"""

import argparse
import random
from fractions import Fraction

from borderapolar.apolarity import is_concise
from borderapolar.bounds import is_111_sharp, is_sharp, min_generators_degree_one
from borderapolar.linalg import rank
from borderapolar.selftest import sum_of_powers_tensor


def draw_instance(n, rng, coeff_bound):
    while True:
        forms = [
            tuple(Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(n))
            for _ in range(n)
        ]
        if rank(n, [[(c, x) for c, x in enumerate(f) if x] for f in forms]) < n:
            continue
        f = sum_of_powers_tensor(n, 3, forms)
        if is_concise(f):
            return f


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--coeff-bound", type=int, default=5)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    agree = 0
    print(f"{'#':>3}  {'sharp':>5}  {'111':>5}  {'gens':>4}  expected {args.n - 1}")
    for k in range(args.samples):
        f = draw_instance(args.n, rng, args.coeff_bound)
        s = is_sharp(f).verdict
        s111 = is_111_sharp(f).verdict
        gens = min_generators_degree_one(f)
        agree += s == s111
        print(f"{k:>3}  {str(s):>5}  {str(s111):>5}  {gens:>4}")
    print(f"\nsharp iff 111-sharp on {agree}/{args.samples} instances")


if __name__ == "__main__":
    main()
