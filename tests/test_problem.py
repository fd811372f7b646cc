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


def test_cut_lookup_matches_python_loop():
    # the block recurrence and the oracle's edge loop agree to rounding
    for n, seed in ((6, 3), (13, 8), (20, 2)):
        inst = generate_instance(n, seed)
        zs = np.random.default_rng(n).integers(0, 1 << n, size=300, dtype=np.uint64)
        got = inst.cut.at(zs)
        want = np.array([cut_of_index(inst.edges, int(z)) for z in zs])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * inst.total_weight())


@pytest.mark.parametrize("n", [5, 16, 17])
def test_cut_lookup_matches_range_scan(n):
    # every index of a full scan, shuffled, in one lookup and in a 2-D one
    inst = generate_instance(n, n)
    scan = inst.cut.values(0, 1 << n)
    z = np.random.default_rng(n).permutation(1 << n).astype(np.uint64)
    assert inst.cut.at(z).tobytes() == scan[z].tobytes()
    assert inst.cut.at(z.reshape(-1, 4)).tobytes() == scan[z].tobytes()
    assert inst.cut.at(np.zeros(0, np.uint64)).shape == (0,)
    # a value depends only on its index, not on the range it was scanned in
    lo, hi = (1 << n) // 3, (1 << n) // 3 + (1 << n) // 2
    assert inst.cut.values(lo, hi).tobytes() == scan[lo:hi].tobytes()
    with pytest.raises(ValidationError):
        inst.cut.at([1 << n])


def test_cut_lookup_matches_range_scan_at_n20():
    inst = generate_instance(20, 2)
    rng = np.random.default_rng(20)
    edges = [lo + d for lo in range(0, 1 << 20, 1 << 16) for d in (0, 1, (1 << 16) - 1)]
    z = np.concatenate((rng.integers(0, 1 << 20, size=4000), edges)).astype(np.uint64)
    assert inst.cut.at(z).tobytes() == inst.cut.values(0, 1 << 20)[z].tobytes()


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
    assert val == pytest.approx(want_val, rel=0, abs=1e-12 * inst.total_weight())
    assert val == cut_value(inst, bits)  # the scanned maximum, bit for bit


def test_bruteforce_beats_random_sampling():
    inst = generate_instance(9, 17)
    _, val = optimal_cut_bruteforce(inst)
    rng = np.random.default_rng(0)
    draws = inst.cut.at(rng.integers(0, 512, size=1000, dtype=np.uint64))
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
    mean_cut = inst.cut.values(0, 64).mean()
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


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_optimum_must_be_positive_and_finite(triangle, value):
    with pytest.raises(ValidationError, match="not a positive number"):
        WmcInstance(3, triangle.edges, optimal_cut=OptimalCut("100", value))


def test_solving_a_zero_weight_instance_raises():
    inst = WmcInstance(4, [(i, j, 0.0) for i, j in complete_edge_list(4)])
    with pytest.raises(ValidationError, match="not a positive number"):
        solve_instance(inst)


def test_shot_ratios_rejects_shots_of_another_size():
    from lrqbench import ShotSet

    inst = solve_instance(generate_instance(8, 1))
    shots = ShotSet(4, np.arange(5, dtype=np.uint64), None, "test")
    with pytest.raises(ValidationError, match="4 qubits do not match n=8"):
        shot_ratios(inst, shots)
    assert shot_ratios(inst, ShotSet(8, np.arange(5, dtype=np.uint64), None, "test")).size == 5


def test_solved_optimum_is_its_bitstrings_cut():
    inst = solve_instance(generate_instance(17, 5))
    opt = inst.optimal_cut
    z = bitstring_to_index(opt.bitstring)
    assert inst.cut.at([z]).tobytes() == np.array([opt.value]).tobytes()
    assert shot_ratios(inst, [opt.bitstring, z]).tolist() == [1.0, 1.0]


def test_optimum_contradicting_its_bitstring_is_rejected():
    from dataclasses import replace

    inst = generate_instance(12, 4)
    z, value = best_cut_by_enumeration(inst.edges, 12)
    bits = index_to_bitstring(z, 12)
    # the oracle's edge loop rounds differently from the cut table, within 1e-12 W
    oracle = replace(inst, optimal_cut=OptimalCut(bits, value))
    assert shot_ratios(oracle, [bits])[0] == pytest.approx(1.0, abs=1e-12)
    tampered = replace(inst, optimal_cut=OptimalCut(bits, 999.0))
    with pytest.raises(ValidationError, match="contradicts its bitstring"):
        shot_ratios(tampered, [bits])
    with pytest.raises(ValidationError, match="contradicts its bitstring"):
        random_baseline_expectation(tampered)
