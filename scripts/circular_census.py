#!/usr/bin/env python3
"""Census of circular codes: how many distinct triple configurations the
orders on an n-window produce, each checked to be circular-realizable.

Every order yields one circular code, each code is shared by exactly the n
cyclic rotations of an order, so the census should read (n-1)! distinct
codes with multiplicity n.  `orderflow.checks.circular_image_counts`
asserts all three before a row is printed.
"""

import argparse
import math

from orderflow.checks import circular_image_counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-window", type=int, default=6)
    args = parser.parse_args()

    print("n   orders   distinct   expected   multiplicities")
    for n in range(3, args.max_window + 1):
        distinct = circular_image_counts([n])
        print(f"{n}   {math.factorial(n):6d}   {distinct:8d}   {math.factorial(n - 1):8d}   {[n]}")
        print(f"    all {distinct} images realizable")


if __name__ == "__main__":
    main()
