#!/usr/bin/env python3
"""Walk through one minimality and one proximality witness.

Shows the constructed permutations, the ground points the proximality
witness carries onto the window (a monotone run of the second order's ranks
in the first order's order), and the re-verification of both certificates.
"""

import argparse

from orderflow import (
    Window,
    inverse,
    minimality_witness,
    order_to_text,
    perm_to_text,
    proximality_witness,
    random_linear_order,
    verify_minimality,
    verify_proximality,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ground", type=int, default=256)
    parser.add_argument("--window", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ground = Window(range(args.ground))
    window = Window(range(args.window))

    source = random_linear_order(ground, args.seed)
    target = random_linear_order(window, args.seed + 1)
    witness = minimality_witness(source, target)
    print("minimality")
    print(f"  target pattern : {order_to_text(target)}")
    print(f"  alpha          : {perm_to_text(witness.alpha)}")
    print(f"  re-verified    : {verify_minimality(witness, source, target)}")

    o1 = random_linear_order(ground, args.seed + 2)
    o2 = random_linear_order(ground, args.seed + 3)
    witness = proximality_witness(o1, o2, window)
    used = tuple(inverse(witness.alpha)(x) for x in window)
    print("proximality")
    print(f"  points used       : {used}")
    print(f"  kind              : {witness.kind}")
    print(f"  alpha             : {perm_to_text(witness.alpha)}")
    print(f"  re-verified       : {verify_proximality(witness, o1, o2)}")


if __name__ == "__main__":
    main()
