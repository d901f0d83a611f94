"""End-to-end acceptance checks, one test per criterion, each at its
stated tolerance and budget."""

import random
import time

from orderflow import LinearOrder, Window, checks, random_linear_order
from orderflow.cli import main as cli_main


def window(n: int) -> Window:
    return Window(tuple(range(n)))


def test_c01_bijection_round_trip_under_one_second():
    started = time.perf_counter()
    assert checks.bijection_round_trip((2, 3, 4, 5)) == 2 + 6 + 24 + 120
    assert time.perf_counter() - started < 1.0


def test_c02_action_laws_on_500_random_triples():
    started = time.perf_counter()
    checks.action_laws(random.Random(20_240_901), 500, max_points=7)
    assert time.perf_counter() - started < 5.0


def test_c03_sign_code_images_alternate():
    assert checks.sign_code_alternation((2, 3, 4), 6) == 2606


def test_c04_moment_curve_matches_the_sorting_sign():
    checks.moment_curve_sign(random.Random(404), (2, 3, 4, 5), 1000)


def test_c05_circular_image_counts():
    checks.circular_image_counts((3, 4, 5))


def test_c06_codes_commute_with_the_action():
    checks.code_equivariance(
        random.Random(606), ("sign-2", "sign-3", "sign-4", "circular"), 500, max_points=7
    )


def test_c07_minimality_witness_for_every_target():
    sources = [random_linear_order(window(20), seed) for seed in range(5)]
    assert checks.minimality_witnesses(sources, window(4)) == 5 * 24


def test_c08_proximality_witnesses_and_two_to_one_reversal():
    ground = window(256)
    pairs = [
        (random_linear_order(ground, 2 * pair), random_linear_order(ground, 2 * pair + 1))
        for pair in range(100)
    ]
    checks.proximality_witnesses(pairs, window(4))
    checks.reversal_structure((2, 3, 4, 5))


def test_c09_unique_ergodicity_within_three_sigma():
    started = time.perf_counter()
    sources = [LinearOrder.natural(window(50))] + [
        random_linear_order(window(50), s) for s in (101, 102, 103, 104)
    ]
    assert len(set(sources)) == 5
    checks.orbit_frequencies(sources, window(3), trials=100_000, seed=2024)
    checks.cylinder_mass(range(1, 7))
    assert time.perf_counter() - started < 60.0


def test_c10_cli_outputs_are_byte_identical(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("2 0 3 1\n")
    cases = [
        ["frequencies", "--window", "3", "--ground", "40", "--trials", "50000",
         "--seed", "9", "--jobs", "1"],
        ["frequencies", "--window", "3", "--ground", "40", "--trials", "50000",
         "--seed", "9", "--jobs", "3"],
        ["witness", "proximality", "--ground", "256", "--window", "4", "--seed", "12"],
        ["witness", "minimality", "--ground", "20", "--window", "4", "--seed", "12"],
        ["factor", "circular", str(order_file)],
        ["verify", "--max-window", "3", "--trials", "2000"],
    ]
    outputs = []
    for i, argv in enumerate(cases):
        first = tmp_path / f"first{i}.out"
        second = tmp_path / f"second{i}.out"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(argv + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        outputs.append(first.read_bytes())
    # different worker counts agree as well
    assert outputs[0] == outputs[1]
