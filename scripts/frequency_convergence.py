#!/usr/bin/env python3
"""How fast empirical pattern frequencies approach their exact values.

For several source orders on the same ground, prints the worst deviation
|empirical - 1/w!| across all patterns at a sweep of trial budgets, next to
the 3-sigma binomial envelope.  The deviation should shrink like
1/sqrt(trials) regardless of the source order.
"""

import argparse
import math

from orderflow import LinearOrder, Window, pattern_counts, random_linear_order


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--window", type=int, default=3, help="pattern window size")
    parser.add_argument("--ground", type=int, default=50, help="ground window size")
    parser.add_argument("--sources", type=int, default=4, help="number of source orders")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trials",
        type=int,
        nargs="+",
        default=[1_000, 10_000, 100_000, 1_000_000],
    )
    args = parser.parse_args()

    ground = Window(range(args.ground))
    window = Window(range(args.window))
    exact = 1 / math.factorial(args.window)
    sources = [LinearOrder.natural(ground)] + [
        random_linear_order(ground, args.seed + i) for i in range(1, args.sources)
    ]

    print(f"pattern window size {args.window}, exact frequency {exact:.6f}")
    header = "trials".rjust(9) + "".join(f"  source{i}".rjust(10) for i in range(len(sources)))
    print(header + "   3-sigma")
    for trials in args.trials:
        sigma3 = 3 * math.sqrt(exact * (1 - exact) / trials)
        row = f"{trials:9d}"
        for source in sources:
            counts = pattern_counts(source, window, trials, args.seed)
            worst = max(abs(hits / trials - exact) for hits in counts.tolist())
            row += f"  {worst:8.5f}"
        print(row + f"  {sigma3:8.5f}")


if __name__ == "__main__":
    main()
