"""Sweep Rokhlin castle parameters for odometers and report exact bounds.

Usage: python scripts/castle_scaling.py [--sig SIG] [--shift K]
           [--max-n 5 | --n N [N ...]] [--epsilon E [E ...]] [--uniform-only]

SIG is a signature as the CLI reads it (`dyadic`, `base(;2,3)`, ...).  The
measures are the uniform one and, unless --uniform-only, the half-and-half
mixture of it with a product measure giving digit i of a level of size m
the weight 2(i+1)/(m(m+1)).  For example, the large castles over the (2, 3)
odometer:

    python scripts/castle_scaling.py --sig 'base(;2,3)' --n 64 256 \\
        --epsilon 1/64 --uniform-only
"""

import argparse
import time
from fractions import Fraction

from cantordyn.cli import resolve_homeo
from cantordyn.measure import Mixture, ProductMeasure
from cantordyn.synth import rokhlin_castle


def skew(sig):
    def row(t):
        m = sig.level(t)
        return [Fraction(2 * (i + 1), m * (m + 1)) for i in range(m)]

    pre = len(sig.preperiod)
    return ProductMeasure.make(
        sig, [row(t) for t in range(pre)], [row(pre + t) for t in range(len(sig.period))]
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sig", default="dyadic")
    ap.add_argument("--shift", type=int, default=1)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--n", type=int, nargs="+", help="heights to run instead of 2..max-n")
    ap.add_argument("--epsilon", type=Fraction, nargs="+",
                    default=[Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)])
    ap.add_argument("--uniform-only", action="store_true")
    args = ap.parse_args()

    T = resolve_homeo(f"odometer:{args.sig}:{args.shift}")
    uni = ProductMeasure.uniform(T.sig)
    mix = Mixture.make(T.sig, [(Fraction(1, 2), uni), (Fraction(1, 2), skew(T.sig))])
    sets = [("uniform", [uni])] + ([] if args.uniform_only else [("uni+mix", [uni, mix])])

    print(f"target: odometer shift {args.shift} over {args.sig}")
    print(f"{'n':>4} {'eps':>6} {'measures':>9} {'towers':>7} "
          f"{'heights':>14} {'min bound':>12} {'sec':>7}")
    for n in args.n or range(2, args.max_n + 1):
        for eps in args.epsilon:
            for name, ms in sets:
                t0 = time.monotonic()
                c = rokhlin_castle(T, n, ms, eps)
                dt = time.monotonic() - t0
                hs = sorted({h for _, h, _ in c.towers})
                heights = str(hs) if len(hs) <= 6 else f"{hs[0]}..{hs[-1]}"
                print(f"{n:>4} {str(eps):>6} {name:>9} {len(c.towers):>7} "
                      f"{heights:>14} {str(min(c.bound)):>12} {dt:>7.3f}")


if __name__ == "__main__":
    main()
