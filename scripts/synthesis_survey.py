"""Survey odometer/periodic synthesis over random maps and partitions.

Counts how often a random prefix-exchange map admits an odometer-structured
(or pointwise periodic) map matching it on a random clopen partition, and
how often a dissipativity witness comes back instead.

Usage: python scripts/synthesis_survey.py [--trials 500] [--seed 1]
"""

import argparse
import random
import time

from cantordyn.space import DYADIC
from cantordyn.synth import (
    odometer_in_weak_neighborhood,
    periodic_in_weak_neighborhood,
)
from cantordyn.gen import random_homeo, random_partition


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    stats = {"odometer": [0, 0], "periodic": [0, 0]}
    cycle_lengths = []
    t0 = time.monotonic()
    for _ in range(args.trials):
        T = random_homeo(rng, DYADIC, depth=4)
        part = random_partition(rng, DYADIC)
        for name, fn in (
            ("odometer", odometer_in_weak_neighborhood),
            ("periodic", periodic_in_weak_neighborhood),
        ):
            res = fn(T, part)
            stats[name][0 if res.ok else 1] += 1
            if name == "odometer" and res.ok:
                cycle_lengths.append(res.certificate["cycle_length"])
                assert all(res.homeo.image(F) == T.image(F) for F in part)
    dt = time.monotonic() - t0
    for name, (ok, wit) in stats.items():
        print(f"{name:>9}: {ok} synthesized, {wit} witnesses "
              f"({ok / (ok + wit):.1%} success)")
    if cycle_lengths:
        print(f"odometer cycle lengths: min {min(cycle_lengths)}, "
              f"max {max(cycle_lengths)}, "
              f"mean {sum(cycle_lengths) / len(cycle_lengths):.1f}")
    print(f"{args.trials} trials in {dt:.2f}s")


if __name__ == "__main__":
    main()
