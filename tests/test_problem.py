import json

import numpy as np
import pytest

from lrqbench import (
    CapacityError,
    OptimalCut,
    ValidationError,
    WmcInstance,
    approximation_ratio,
    cut_value,
    cut_values,
    generate_instance,
    load_instance,
    optimal_cut_bruteforce,
    random_baseline_expectation,
    save_instance,
    shot_ratios,
    solve_instance,
)
from lrqbench.problem import (
    as_index,
    bitstring_to_index,
    bitstrings_to_indices,
    complete_edge_list,
    cut_values_range,
    index_to_bitstring,
    indices_to_bitstrings,
)

from oracles import best_cut_by_enumeration, cut_of_index


def test_complete_edge_list_lexicographic():
    assert complete_edge_list(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert complete_edge_list(2) == [(0, 1)]


def test_generate_instance_deterministic():
    a = generate_instance(6, 42)
    b = generate_instance(6, 42)
    assert a.edges == b.edges
    assert a.seed == 42
    c = generate_instance(6, 43)
    assert c.edges != a.edges


def test_generate_instance_weights_in_unit_interval():
    inst = generate_instance(12, 7)
    weights = [w for _, _, w in inst.edges]
    assert len(weights) == 66
    assert all(0.0 <= w <= 1.0 for w in weights)


def test_edges_normalized_to_sorted_order():
    inst = WmcInstance(3, ((2, 1, 0.25), (0, 1, 0.5), (2, 0, 1.0)))
    assert inst.edges == [(0, 1, 0.5), (0, 2, 1.0), (1, 2, 0.25)]


@pytest.mark.parametrize(
    "n,edges",
    [
        (1, ()),
        (3, ((0, 1, 0.5), (0, 2, 1.0))),  # missing (1,2)
        (3, ((0, 1, 0.5), (0, 2, 1.0), (1, 2, 0.25), (1, 2, 0.25))),
        (3, ((0, 1, 0.5), (0, 2, 1.0), (1, 2, 1.25))),  # weight > 1
        (3, ((0, 1, 0.5), (0, 2, 1.0), (2, 2, 0.25))),  # self loop
    ],
)
def test_bad_instances_rejected(n, edges):
    with pytest.raises(ValidationError):
        WmcInstance(n, edges)


def test_cut_value_hand_computed(triangle):
    assert cut_value(triangle, "000") == 0.0
    assert cut_value(triangle, "100") == 1.5
    assert cut_value(triangle, "101") == 0.75
    assert cut_value(triangle, "011") == 1.5
    assert cut_value(triangle, 0b001) == 1.5  # index form of "100"


def test_cut_values_matches_python_loop():
    inst = generate_instance(6, 3)
    zs = np.arange(64, dtype=np.uint64)
    got = cut_values(inst, zs)
    want = np.array([cut_of_index(inst.edges, z) for z in range(64)])
    np.testing.assert_array_equal(got, want)


def test_cut_values_range_matches_per_index_path():
    # the range scan goes through the block recurrence, the per-index
    # path through edge accumulation; they must agree to rounding
    for n, seed, lo, hi in ((7, 11, 17, 101), (17, 4, (1 << 16) - 300, (1 << 16) + 500)):
        inst = generate_instance(n, seed)
        scan = cut_values_range(inst, lo, hi)
        direct = cut_values(inst, np.arange(lo, hi, dtype=np.uint64))
        np.testing.assert_allclose(scan, direct, atol=1e-12)
    # a value depends only on its index, not on the range it was scanned in
    wide = cut_values_range(inst, 0, 1 << 17)
    np.testing.assert_array_equal(scan, wide[lo:hi])


def test_bitstring_encoding_vertex_zero_leftmost():
    assert bitstring_to_index("100") == 1
    assert bitstring_to_index("010") == 2
    assert bitstring_to_index("001") == 4
    assert index_to_bitstring(1, 3) == "100"
    assert index_to_bitstring(6, 3) == "011"
    for z in range(32):
        assert bitstring_to_index(index_to_bitstring(z, 5)) == z
    z = np.random.default_rng(3).integers(0, 1 << 20, size=300).astype(np.uint64)
    strings = indices_to_bitstrings(z, 20)
    assert strings == [index_to_bitstring(int(x), 20) for x in z]
    np.testing.assert_array_equal(bitstrings_to_indices(strings, 20), z)


def test_as_index_accepts_all_forms():
    assert as_index("110", 3) == 3
    assert as_index(3, 3) == 3
    assert as_index([1, 1, 0], 3) == 3
    assert as_index(np.uint64(3), 3) == 3
    with pytest.raises(ValidationError):
        as_index("11", 3)
    with pytest.raises(ValidationError):
        as_index(8, 3)


def test_bruteforce_triangle(triangle):
    assert optimal_cut_bruteforce(triangle) == ("100", 1.5)


def test_bruteforce_tie_lowest_index_wins():
    # single edge: "10" (index 1) and "01" (index 2) cut the same weight
    inst = WmcInstance(2, ((0, 1, 0.3),))
    assert optimal_cut_bruteforce(inst) == ("10", 0.3)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3), (6, 4), (7, 5), (8, 6)])
def test_bruteforce_matches_enumeration(n, seed):
    inst = generate_instance(n, seed)
    bits, val = optimal_cut_bruteforce(inst)
    z, want_val = best_cut_by_enumeration(inst.edges, n)
    assert bitstring_to_index(bits) == z
    assert val == want_val


def test_bruteforce_beats_random_sampling():
    inst = generate_instance(9, 17)
    _, val = optimal_cut_bruteforce(inst)
    rng = np.random.default_rng(0)
    draws = cut_values(inst, rng.integers(0, 512, size=1000, dtype=np.uint64))
    assert val >= draws.max()


def test_bruteforce_threads_agree():
    inst = generate_instance(10, 9)
    assert optimal_cut_bruteforce(inst, threads=4) == optimal_cut_bruteforce(inst)


def test_bruteforce_refuses_oversized_instance():
    inst = generate_instance(25, 0)
    with pytest.raises(CapacityError):
        optimal_cut_bruteforce(inst, limit=24)


def test_solve_instance_attaches_optimal(triangle):
    solved = solve_instance(triangle)
    assert solved.optimal_cut == OptimalCut("100", 1.5)
    assert solved.edges == triangle.edges


def test_shot_ratios_and_mean(triangle_solved):
    ratios = shot_ratios(triangle_solved, ["101", "100"])
    np.testing.assert_allclose(ratios, [0.5, 1.0])
    assert approximation_ratio(triangle_solved, ["101", "100"]) == 0.75
    # a malformed string in the middle of a batch names that string
    with pytest.raises(ValidationError, match="bit 1 is 2"):
        shot_ratios(triangle_solved, ["101", "100", "120", "011"])
    with pytest.raises(ValidationError, match="bit 2 is 'x'"):
        shot_ratios(triangle_solved, ["101", "10x", "1000"])
    with pytest.raises(ValidationError, match="length 4"):
        shot_ratios(triangle_solved, ["101", "1000", "100"])
    with pytest.raises(ValidationError, match="length 2"):
        shot_ratios(triangle_solved, ["101", "10", "100"])


def test_shot_ratios_accepts_indices(triangle_solved):
    np.testing.assert_array_equal(
        shot_ratios(triangle_solved, np.array([5, 1], dtype=np.uint64)),
        shot_ratios(triangle_solved, ["101", "100"]),
    )


def test_shot_ratios_reads_rows_of_bits(triangle_solved):
    # one ratio per row, the row read vertex 0 first like as_index
    np.testing.assert_array_equal(
        shot_ratios(triangle_solved, [[1, 0, 1], [1, 0, 0]]),
        shot_ratios(triangle_solved, ["101", "100"]),
    )
    np.testing.assert_array_equal(
        shot_ratios(triangle_solved, np.array([[True, False, True]])),
        shot_ratios(triangle_solved, ["101"]),
    )
    with pytest.raises(ValidationError, match="bit 1 is 2"):
        shot_ratios(triangle_solved, [[1, 0, 1], [1, 2, 0]])
    with pytest.raises(ValidationError, match="rows of 4 bits"):
        shot_ratios(triangle_solved, [[1, 0, 1, 0]])
    with pytest.raises(ValidationError, match="rows of 2 bits"):
        shot_ratios(triangle_solved, np.zeros((0, 2), dtype=int))


def test_shot_ratios_rejects_indices_out_of_range(triangle_solved):
    for bad in ([5, 9], [-1], np.array([8], dtype=np.uint64)):
        with pytest.raises(ValidationError, match="out of range for n=3"):
            shot_ratios(triangle_solved, bad)


def test_shot_ratios_rejects_other_shapes(triangle_solved):
    for bad in (np.zeros((2, 2, 3), dtype=int), np.int64(5), "101"):
        with pytest.raises(ValidationError, match="shape"):
            shot_ratios(triangle_solved, bad)
    # samples of mixed forms, or of ragged bit lists, are checked one by one
    np.testing.assert_array_equal(
        shot_ratios(triangle_solved, ["101", [1, 0, 0]]),
        shot_ratios(triangle_solved, ["101", "100"]),
    )
    with pytest.raises(ValidationError, match="length 2"):
        shot_ratios(triangle_solved, [[1, 0, 1], [1, 0]])


def test_random_baseline_triangle(triangle_solved):
    # half the total weight over the optimum: 0.875 / 1.5
    assert abs(random_baseline_expectation(triangle_solved) - 7.0 / 12.0) < 1e-15


def test_random_baseline_equals_uniform_average():
    inst = solve_instance(generate_instance(6, 8))
    mean_cut = cut_values(inst, np.arange(64, dtype=np.uint64)).mean()
    want = mean_cut / inst.optimal_cut.value
    assert abs(random_baseline_expectation(inst) - want) < 1e-12


def test_total_weight(triangle):
    assert abs(triangle.total_weight() - 1.75) < 1e-15


def test_save_load_roundtrip(tmp_path):
    inst = solve_instance(generate_instance(5, 13))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back == inst
    assert back.optimal_cut == inst.optimal_cut
    # file is plain json with the documented keys
    data = json.loads(path.read_text())
    assert set(data) == {"n", "seed", "edges", "optimal"}


def test_load_unsolved_instance(tmp_path):
    inst = generate_instance(4, 1)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path).optimal_cut is None
