#!/usr/bin/env python3
"""Census of circular codes: how many distinct triple configurations the
orders on an n-window produce, each checked to be circular-realizable.

Every order yields one circular code, each code is shared by exactly the n
cyclic rotations of an order, so the census should read (n-1)! distinct
codes with multiplicity n.
"""

import argparse
import math
from collections import Counter

from orderflow import Window, all_linear_orders, circular_code, realize
from orderflow.checks import require


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-window", type=int, default=6)
    args = parser.parse_args()

    print("n   orders   distinct   expected   multiplicities")
    for n in range(3, args.max_window + 1):
        window = Window(tuple(range(n)))
        census = Counter(circular_code(order) for order in all_linear_orders(window))
        multiplicities = sorted(set(census.values()))
        expected = math.factorial(n - 1)
        print(
            f"{n}   {math.factorial(n):6d}   {len(census):8d}   "
            f"{expected:8d}   {multiplicities}"
        )
        require(len(census) == expected, "expected %d codes on %d points", expected, n)
        require(multiplicities == [n], "expected multiplicity %d, got %s", n, multiplicities)
        for image in census:
            require(realize(image) is not None, "image %s not realizable", image)
        print(f"    all {len(census)} images realizable")


if __name__ == "__main__":
    main()
