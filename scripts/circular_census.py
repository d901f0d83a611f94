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

from orderflow import Window, all_linear_orders, circular_code, is_circular_realizable


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-window", type=int, default=6)
    args = parser.parse_args()

    print("n   orders   distinct   expected   multiplicities")
    for n in range(3, args.max_window + 1):
        window = Window(tuple(range(n)))
        census = Counter(circular_code(order) for order in all_linear_orders(window))
        multiplicities = sorted(set(census.values()))
        print(
            f"{n}   {math.factorial(n):6d}   {len(census):8d}   "
            f"{math.factorial(n - 1):8d}   {multiplicities}"
        )
        assert len(census) == math.factorial(n - 1)
        assert multiplicities == [n]
        assert all(is_circular_realizable(image) for image in census)
        print(f"    all {len(census)} images realizable")


if __name__ == "__main__":
    main()
