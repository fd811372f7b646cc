import json
import re

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
    CutDiagonal,
    as_index,
    bitstring_to_index,
    bitstrings_to_indices,
    complete_edge_list,
    index_to_bitstring,
    indices_to_bitstrings,
)

from oracles import best_cut_by_enumeration, cut_block_terms, cut_by_block_terms, cut_of_index


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


@pytest.mark.parametrize(
    "edge",
    [
        (0, 1.7, 0.5), ("a", 1, 0.5), (0, 1, "x"), (0, 1, None), (True, 1, 0.5), (0, 1, False), (0, 1, "0.5"),
        (0, 1), (0, 1, 0.5, 7), "abc", 5,
    ],
)
def test_malformed_edges_are_refused(edge):
    # a fractional vertex id used to be truncated, and other types crashed
    with pytest.raises(ValidationError):
        WmcInstance(3, (edge, (0, 2, 1.0), (1, 2, 0.25)))


@pytest.mark.parametrize("bits", [[0, 1.7, 1, 0], [0, 1.0, 1, 0], [0, np.float64(1.0), 1, 0], [0, None, 1, 0]])
def test_bits_that_are_not_0_or_1_are_refused(bits):
    # a fractional bit used to be truncated
    with pytest.raises(ValidationError, match="bit 1 is"):
        as_index(bits, 4)
    assert as_index([0, np.True_, "1", 0], 4) == 6


def test_numpy_ids_and_weights_are_accepted():
    edges = ((np.int64(1), np.int32(0), np.float32(0.5)), (0, 2, np.float64(1.0)), (1, 2, 0))
    assert WmcInstance(3, edges).edges == [(0, 1, 0.5), (0, 2, 1.0), (1, 2, 0.0)]


@pytest.mark.parametrize("sample", [1.5, True, None, 1e30, np.float64(3.0), np.bool_(True), {"x": 1}])
def test_samples_that_are_neither_an_index_nor_bits_are_refused(sample):
    with pytest.raises(ValidationError, match=f"sample {re.escape(repr(sample))} is neither"):
        as_index(sample, 4)
    inst = generate_instance(4, 1)
    with pytest.raises(ValidationError, match="is neither a basis index nor a bitstring"):
        shot_ratios(solve_instance(inst), ["0101", sample])


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


def block_scan(cut: CutDiagonal) -> np.ndarray:
    """The cut values of every index, block after block."""
    return np.concatenate([cut.block(h) for h in range(1 << (cut.num_vertices - cut.block_bits))])


@pytest.mark.parametrize("n", [5, 16, 17, 18])
def test_cut_lookup_matches_range_scan(n):
    # every index of a full scan, shuffled, in one lookup and in a 2-D one
    inst = generate_instance(n, n)
    scan = block_scan(inst.cut)
    z = np.random.default_rng(n).permutation(1 << n).astype(np.uint64)
    assert inst.cut.at(z).tobytes() == scan[z].tobytes()
    assert inst.cut.at(z.reshape(-1, 4)).tobytes() == scan[z].tobytes()
    assert inst.cut.at(np.zeros(0, np.uint64)).shape == (0,)
    # a value depends only on its index, not on the range it was scanned in:
    # ranges that start and end mid-block, within one block and across three
    block = 1 << inst.cut.block_bits
    ranges = [((1 << n) // 3, (1 << n) // 3 + (1 << n) // 2), (5, min(block, 1 << n) - 3), (7, 7)]
    if n > 16:
        ranges.append((block - 1, block + 1))
    if n > 17:
        ranges.append((block + 100, 3 * block - 100))
    for lo, hi in ranges:
        assert inst.cut.at(np.arange(lo, hi, dtype=np.uint64)).tobytes() == scan[lo:hi].tobytes()
    with pytest.raises(ValidationError):
        inst.cut.at([1 << n])


def test_cut_lookup_matches_range_scan_at_n20():
    inst = generate_instance(20, 2)
    rng = np.random.default_rng(20)
    edges = [lo + d for lo in range(0, 1 << 20, 1 << 16) for d in (0, 1, (1 << 16) - 1)]
    z = np.concatenate((rng.integers(0, 1 << 20, size=4000), edges)).astype(np.uint64)
    assert inst.cut.at(z).tobytes() == block_scan(inst.cut)[z].tobytes()


def cuts_with_blocks(n: int) -> list[CutDiagonal]:
    """An instance's cut, and a cost layer's: negative angles, -0.0 on the
    low-high edge (0, n - 1) and the high-high edge (n - 2, n - 1)."""
    angles = [(i, j, -0.9 * w) for i, j, w in generate_instance(n, 100 + n).edges]
    for e in (n - 2, -1):
        angles[e] = (*angles[e][:2], -0.0)
    return [generate_instance(n, n).cut, CutDiagonal(n, angles)]


@pytest.mark.parametrize("n", [5, 16, 17, 18, 24, 30, 40, 64])
def test_block_matches_the_scalar_referee_and_lookups(n):
    # the first, the last and two more blocks: the referee at 40 offsets,
    # the lookup at every index
    rng = np.random.default_rng(n)
    for cut in cuts_with_blocks(n):
        b, last = cut.block_bits, (1 << (n - cut.block_bits)) - 1
        for h in {0, last, *(int(x) for x in rng.integers(0, last + 1, size=2, dtype=np.uint64))}:
            values = cut.block(h)
            z = np.arange(h << b, (h + 1) << b, dtype=np.uint64)
            assert values.tobytes() == cut.at(z).tobytes()
            offsets = {0, 1, (1 << b) - 1, *(int(l) for l in rng.integers(0, 1 << b, size=37))}
            for l in offsets:
                want = cut_by_block_terms(cut._w, b, cut.offset_cut, (h << b) + l)
                assert values[l].tobytes() == np.float64(want).tobytes()
        for h in (-1, last + 1):
            with pytest.raises(ValidationError):
                cut.block(h)


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_blocks_are_block_bit_for_bit_from_one_block_terms_call(n, monkeypatch):
    # every block, as new arrays and through one buffer, and blocks repeated
    # out of order
    for cut in cuts_with_blocks(n):
        hs = range(1 << (n - cut.block_bits))
        want = [cut.block(h).tobytes() for h in hs]
        calls, terms = [], cut.block_terms
        monkeypatch.setattr(cut, "block_terms", lambda blocks: calls.append(len(blocks)) or terms(blocks))
        assert [v.tobytes() for v in cut.blocks(hs)] == want
        out = np.empty(1 << cut.block_bits)
        assert [v.tobytes() for v in cut.blocks(hs, out) if v is out] == want
        assert [v.tobytes() for v in cut.blocks([hs[-1], 0, hs[-1]])] == [want[-1], want[0], want[-1]]
        assert calls == [len(hs), len(hs), 3]


@pytest.mark.parametrize("n", [17, 24, 30, 40, 64])
def test_block_terms_match_the_scalar_referee(n):
    # the batched rows, lookups and range scans against one block at a time
    rng = np.random.default_rng(n)
    for cut in cuts_with_blocks(n):
        b = cut.block_bits
        blocks = rng.integers(0, 1 << (n - b), size=30, dtype=np.uint64)
        blocks[:2] = (0, (1 << (n - b)) - 1)
        const, linear = cut.block_terms(blocks)
        want = [cut_block_terms(cut._w, b, int(h)) for h in blocks]
        assert const.tobytes() == np.array([c for c, _ in want]).tobytes()
        assert linear.tobytes() == np.array([a for _, a in want]).tobytes()
        const, linear = cut.block_terms(np.zeros(0, np.uint64))
        assert const.shape == (0,) and linear.shape == (0, b)
        z = (blocks << np.uint64(b)) | rng.integers(0, 1 << b, size=blocks.size, dtype=np.uint64)
        want = np.array([cut_by_block_terms(cut._w, b, cut.offset_cut, int(x)) for x in z])
        assert cut.at(z).tobytes() == want.tobytes()
        # a range across a block boundary, its ends checked by the referee
        lo = int(blocks[2]) % ((1 << (n - b)) - 1) << b | (1 << b) - 40
        values = cut.at(np.arange(lo, lo + 80, dtype=np.uint64))
        for x in (lo, lo + 39, lo + 40, lo + 79):
            assert values[x - lo] == cut_by_block_terms(cut._w, b, cut.offset_cut, x)


@pytest.mark.parametrize("n", [3, 9, 16, 20])
def test_offset_table_is_a_slice_of_offset_cut(n):
    # the same additions in the same order, so the same bits
    cut = generate_instance(n, 40 + n).cut
    b = cut.block_bits
    for lo, hi in {(0, b), (0, min(8, b)), (min(8, b), b), (1, b - 1), (2, 2), (b, b)}:
        want = cut.offset_cut[:: 1 << lo][: 1 << (hi - lo)]
        assert cut.offset_table(lo, hi).tobytes() == want.tobytes()


class LoopCut(CutDiagonal):
    """A cut whose weights are filled as in 0.8.0, one edge at a time."""

    def __init__(self, num_vertices, edges):
        super().__init__(num_vertices, [])
        for i, j, x in edges:
            self._w[i, j] += x
            self._w[j, i] += x
            self.total += x
        self._low_to_high = self._w[: self.block_bits, self.block_bits :].sum(axis=0)


@pytest.mark.parametrize("n", [3, 17, 20])
def test_cut_weights_keep_the_bits_of_one_edge_at_a_time(n):
    # a repeated pair, in both orientations, among edges of any weight
    edges = [(i, j, 0.37 * w - 0.1) for i, j, w in generate_instance(n, 70 + n).edges]
    edges += [(1, 0, 1e-3), (0, 1, 7.5), (n - 1, 0, -2.25)]
    cut, want = CutDiagonal(n, iter(edges)), LoopCut(n, edges)
    assert cut._w.tobytes() == want._w.tobytes()
    assert cut.total.hex() == want.total.hex()
    b = cut.block_bits
    assert cut.offset_table(0, b).tobytes() == want.offset_table(0, b).tobytes()
    values = block_scan(cut)
    assert values.tobytes() == block_scan(want).tobytes()
    z = np.random.default_rng(n).integers(0, 1 << n, size=500).astype(np.uint64)
    assert cut.at(z).tobytes() == want.at(z).tobytes() == values[z].tobytes()


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


def test_bruteforce_tie_across_chunks_goes_to_lowest_index():
    # unit weights at n=18: every 9/9 split cuts 81, and the scanned half
    # [0, 2^17) spans two 2^16-index chunks, each holding such splits; the
    # lowest index with nine bits set is 2^9 - 1, in the first chunk
    inst = WmcInstance(18, [(i, j, 1.0) for i, j in complete_edge_list(18)])
    assert optimal_cut_bruteforce(inst) == ("111111111000000000", 81.0)


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
    mean_cut = inst.cut.block(0).mean()
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


def test_an_optimum_replaced_after_loading_is_checked_again(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(solve_instance(generate_instance(8, 2)), path)
    inst = load_instance(path)
    opt = inst.optimal_cut
    assert shot_ratios(inst, [opt.bitstring]).tolist() == [1.0]
    inst.optimal_cut = OptimalCut(opt.bitstring, 2.0 * opt.value)
    with pytest.raises(ValidationError, match="contradicts its bitstring"):
        shot_ratios(inst, [opt.bitstring])
    inst.optimal_cut = opt
    assert shot_ratios(inst, [opt.bitstring]).tolist() == [1.0]


def test_the_optimum_is_derived_once_per_optimal_cut_object(tmp_path, monkeypatch):
    from lrqbench import problem

    path = tmp_path / "inst.json"
    save_instance(solve_instance(generate_instance(8, 2)), path)
    derived = []
    real = problem.cut_value
    monkeypatch.setattr(problem, "cut_value", lambda inst, x: derived.append(x) or real(inst, x))
    inst = load_instance(path)
    for _ in range(3):
        shot_ratios(inst, ["0" * 8])
        random_baseline_expectation(inst)
        approximation_ratio(inst, ["1" * 8])
    assert len(derived) == 1  # the check at load
    opt = inst.optimal_cut
    inst.optimal_cut = OptimalCut(opt.bitstring, opt.value)  # equal, but a new object
    shot_ratios(inst, ["0" * 8])
    assert len(derived) == 2
