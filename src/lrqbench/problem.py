"""Weighted MaxCut instances on complete graphs.

An instance is a complete graph on ``n`` vertices with i.i.d. uniform
[0, 1] edge weights drawn from a seeded stream.  Bitstrings assign each
vertex to one side of a cut; the cut value is the total weight of edges
crossing it.  Vertex ``k`` maps to bit ``k`` of the integer basis index,
and string forms are written with vertex 0 leftmost.

Cut quality is reported as the approximation ratio r = C(x) / C(x*),
which needs the optimal cut; instances up to a configurable size are
solved by exhaustive enumeration.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CapacityError, StateError, ValidationError
from .files import write_output
from .rng import derive_rng

DEFAULT_BRUTEFORCE_LIMIT = 24
_BLOCK_BITS = 16
# basis indices are uint64, one bit per vertex
_MAX_VERTICES = np.iinfo(np.uint64).bits


def _check_vertex_count(n) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"instance needs at least 2 vertices, got {n!r}")
    if n > _MAX_VERTICES:
        raise ValidationError(
            f"instance has {n} vertices, but uint64 basis indices hold at most {_MAX_VERTICES}"
        )


def complete_edge_list(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class OptimalCut:
    bitstring: str
    value: float


@dataclass
class WmcInstance:
    """Complete-graph weighted MaxCut instance: one edge (i, j, w) per vertex
    pair, with integer vertex ids and a real weight in [0, 1]."""

    num_vertices: int
    edges: list[tuple[int, int, float]]
    seed: int | None = None
    optimal_cut: OptimalCut | None = None

    def __post_init__(self) -> None:
        n = self.num_vertices
        _check_vertex_count(n)
        normalized = []
        for edge in self.edges:
            if not isinstance(edge, Sequence) or len(edge) != 3:
                raise ValidationError(f"edge {edge!r} is not (i, j, weight)")
            i, j, w = edge
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (i, j)):
                raise ValidationError(f"edge ({i!r}, {j!r}) needs integer vertex ids")
            if isinstance(w, bool) or not isinstance(w, (int, float, np.integer, np.floating)):
                raise ValidationError(f"edge ({i}, {j}) has weight {w!r}, not a real number")
            i, j = int(i), int(j)
            if i == j:
                raise ValidationError(f"self-loop on vertex {i}")
            if i > j:
                i, j = j, i
            if not 0 <= i < n or not 0 <= j < n:
                raise ValidationError(f"edge ({i}, {j}) out of range for n={n}")
            w = float(w)
            if not 0.0 <= w <= 1.0 or not math.isfinite(w):
                raise ValidationError(f"edge weight {w} outside [0, 1]")
            normalized.append((i, j, w))
        normalized.sort(key=lambda e: (e[0], e[1]))
        if [(i, j) for i, j, _ in normalized] != complete_edge_list(n):
            raise ValidationError("edge set is not the complete graph on n vertices")
        self.edges = normalized
        opt = self.optimal_cut
        if opt is not None:
            if len(opt.bitstring) != n:
                raise ValidationError("optimal-cut bitstring length does not match n")
            if not (math.isfinite(opt.value) and opt.value > 0.0):
                raise ValidationError(
                    f"optimal cut value {opt.value} is not a positive number, so no ratio exists"
                )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def cut(self) -> CutDiagonal:
        """The instance's cut function, built on first use; every cut value
        of the instance comes from it."""
        return CutDiagonal(self.num_vertices, self.edges)

    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


def generate_instance(n: int, seed: int) -> WmcInstance:
    """Draw a seeded instance; same (n, seed) always gives the same weights.

    Weights come from the "instance" stream keyed by (seed, n) and are
    assigned to edges in lexicographic order.
    """
    _check_vertex_count(n)
    pairs = complete_edge_list(n)
    weights = derive_rng(seed, "instance", n).random(len(pairs))
    edges = [(i, j, float(w)) for (i, j), w in zip(pairs, weights)]
    return WmcInstance(num_vertices=n, edges=edges, seed=int(seed))


# ---------------------------------------------------------------------------
# bitstring forms


def bitstring_to_index(bits: str | Sequence[int]) -> int:
    """Index of a bitstring written vertex 0 first (vertex k -> bit k)."""
    z = 0
    for k, b in enumerate(bits):
        if not isinstance(b, (str, int, np.integer, np.bool_)):  # a float is not truncated
            raise ValidationError(f"bit {k} is {b!r}, expected 0 or 1")
        try:
            b = int(b)
        except (TypeError, ValueError):
            raise ValidationError(f"bit {k} is {b!r}, expected 0 or 1") from None
        if b not in (0, 1):
            raise ValidationError(f"bit {k} is {b!r}, expected 0 or 1")
        z |= b << k
    return z


def index_to_bitstring(z: int, n: int) -> str:
    return "".join("1" if (z >> k) & 1 else "0" for k in range(n))


def indices_to_bitstrings(indices: np.ndarray, n: int) -> list[str]:
    """``index_to_bitstring`` of every index, as one shift-and-mask."""
    z = np.asarray(indices, dtype=np.uint64).reshape(-1, 1)
    codes = ((z >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(np.uint32)
    codes += ord("0")
    return codes.view(f"U{n}").ravel().tolist()


def bitstrings_to_indices(strings: Sequence[str], n: int) -> np.ndarray:
    """``as_index`` of every bitstring, by viewing their characters as
    code points; the first malformed string raises the error ``as_index``
    gives it."""
    arr = np.asarray(strings, dtype=str).reshape(-1)
    width = max(n, arr.dtype.itemsize // 4)
    codes = arr.astype(f"U{width}").view(np.uint32).reshape(-1, width)
    bits = codes[:, :n] - np.uint32(ord("0"))  # anything but '0'/'1' wraps above 1
    bad = np.flatnonzero((bits > 1).any(axis=1) | (codes[:, n:] != 0).any(axis=1))
    if bad.size:
        as_index(str(arr[bad[0]]), n)
        raise ValidationError(f"sample {bad[0]} is not a bitstring of length {n}")
    return (bits.astype(np.uint64) << np.arange(n, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


def as_index(x: int | str | Sequence[int] | np.integer, n: int) -> int:
    """Normalize a sample to a basis index: an integer index, or a bitstring
    as a string or a sequence of bits; anything else is refused."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        z = int(x)
        if not 0 <= z < (1 << n):
            raise ValidationError(f"basis index {z} out of range for n={n}")
        return z
    if not isinstance(x, (str, Sequence, np.ndarray)):
        raise ValidationError(f"sample {x!r} is neither a basis index nor a bitstring")
    if len(x) != n:
        raise ValidationError(f"bitstring of length {len(x)} does not match n={n}")
    return bitstring_to_index(x)


# ---------------------------------------------------------------------------
# cut evaluation


def cut_value(inst: WmcInstance, x: int | str | Sequence[int]) -> float:
    """Total weight of edges cut by assignment ``x``."""
    return float(inst.cut.at([as_index(x, inst.num_vertices)])[0])


def doubling(
    start: float | complex, steps: np.ndarray, op: np.ufunc = np.add, dtype=np.float64, out=None
) -> np.ndarray:
    """v[l] = start op steps[i] over the set bits i of l, applied in
    increasing bit order, for l in [0, 2^len(steps)): sums by default,
    products with ``op=np.multiply``.  Steps with trailing axes give one
    table per column, v[l] of their shape.  Written into ``out`` if given."""
    v = np.empty((1 << len(steps),) + np.shape(steps)[1:], dtype) if out is None else out
    v[0] = start
    for i, step in enumerate(steps):
        op(v[: 1 << i], step, out=v[1 << i : 2 << i])
    return v


class CutDiagonal:
    """Cut values C(z) = sum of w_ij over edges with z_i != z_j, a whole
    block at a time (``block``, or ``blocks`` for many from one
    ``block_terms`` call) or at any indices (``at``).

    An index z splits into a block h = z >> b and an offset l < 2^b, with
    b = min(16, n).  Edges among the low b vertices give a table Q(l),
    ``offset_cut``, built on first use; ``offset_table`` gives its entries
    over a range of bits without it.  A block's high bits fix a constant (its
    high-high cut plus the low-high edges whose high end is set) and a
    linear term a_i = sum_j w_ij (1 - 2 h_j) per low vertex i, formed for
    all the blocks a caller touches in one ``block_terms`` call, so a block
    is C = const + sum of a_i over the set bits of l + Q(l), its middle term
    built by doubling over the low vertices.  Every value is a fixed
    sequence of additions determined by its index alone, so a block and a
    lookup give the same bits for the same index; any other range is
    ``at(np.arange(start, stop))``.

    Edges are ``(i, j, w)`` triples; repeated pairs add up and weights may
    be any finite number (cost layers pass RZZ angles).
    """

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int, float]]) -> None:
        n = num_vertices
        b = min(_BLOCK_BITS, n)
        w = np.zeros((n, n))
        total = 0.0
        i, j, x = tuple(zip(*edges)) or ((), (), ())
        for v in x:
            total += v
        if x:
            ij = np.array((i, j))
            # both orientations of every edge, in edge order and unbuffered, so
            # a repeated pair's entries are the same sums as one edge at a time
            np.add.at(w, (ij.T.ravel(), ij[::-1].T.ravel()), np.repeat(np.array(x, float), 2))
        self.num_vertices = n
        self.block_bits = b
        self.total = total
        self._w = w
        self._low_to_high = w[:b, b:].sum(axis=0)

    def offset_table(self, lo: int, hi: int) -> np.ndarray:
        """Q at the offsets whose set bits lie in [lo, hi), in increasing
        order: ``offset_cut[::2**lo][:2**(hi - lo)]``, by the same additions."""
        w, b = self._w, self.block_bits
        # setting bit i of l < 2^i cuts every low edge (k, i) with l_k = 0:
        # Q(l + 2^i) = Q(l) + sum_{k<b} w_ki - 2 sum_{k<i} w_ki l_k
        low = np.zeros(1)
        for i in range(lo, hi):
            low = np.concatenate((low, low + (w[:b, i].sum() - 2.0 * doubling(0.0, w[lo:i, i]))))
        return low

    @functools.cached_property
    def offset_cut(self) -> np.ndarray:
        return self.offset_table(0, self.block_bits)

    def block_terms(self, blocks) -> tuple[np.ndarray, np.ndarray]:
        """Rows const(h) (B,) and a_i(h) (B, b) of the B blocks h, each by the
        same additions whatever the others: per high vertex j in order, j's
        low-high cut where h_j is set and -w_ij or w_ij, then w_jk for each
        later k with h_k != h_j.  A term not taken adds +0.0: a no-op here."""
        n, b, w = self.num_vertices, self.block_bits, self._w
        h = np.asarray(blocks, dtype="<u8").reshape(-1, 1)
        high = np.unpackbits(h.view(np.uint8), axis=1, count=n - b, bitorder="little").view(bool)
        const = np.zeros(len(h))
        linear = np.zeros((len(h), b))
        for j in range(b, n):
            set_j = high[:, j - b]
            const += np.where(set_j, self._low_to_high[j - b], 0.0)
            linear += np.where(set_j[:, None], -w[:b, j], w[:b, j])
            for k in range(j + 1, n):
                const += np.where(set_j != high[:, k - b], w[j, k], 0.0)
        return const, linear

    def block(self, h: int) -> np.ndarray:
        """Cut values of block h, the indices [h 2^b, (h + 1) 2^b): const +
        a_i over the set bits of l, by doubling in increasing i, + Q(l)."""
        n, b = self.num_vertices, self.block_bits
        if not 0 <= h < 1 << (n - b):
            raise ValidationError(f"block {h} outside [0, 2^{n - b})")
        return next(self.blocks([h]))

    def blocks(self, hs, out: np.ndarray | None = None):
        """Cut values of each block of ``hs`` in turn, with ``block``'s bits,
        from one ``block_terms`` call: a new array per block, or ``out``
        (2^b float64) overwritten by each."""
        const, linear = self.block_terms(hs)
        for c, a in zip(const, linear):
            v = doubling(c, a, out=out)
            v += self.offset_cut
            yield v

    def at(self, indices) -> np.ndarray:
        """Cut values of arbitrary indices in [0, 2^n), each with the bits
        ``block`` gives it: one ``block_terms`` call for the distinct
        blocks, then const + a_i over the set bits of l in increasing i +
        Q(l), adding 0.0 where a bit is clear (which changes only a -0.0)."""
        z = np.asarray(indices, dtype=np.uint64)
        flat = z.ravel()
        if flat.size and int(flat.max()) >> self.num_vertices:
            raise ValidationError(f"index {int(flat.max())} outside [0, 2^{self.num_vertices})")
        b = self.block_bits
        blocks, inv = np.unique(flat >> np.uint64(b), return_inverse=True)
        const, linear = self.block_terms(blocks)
        low = flat & np.uint64((1 << b) - 1)
        acc = const[inv]
        for i in range(b):
            acc += np.where((low >> np.uint64(i)) & np.uint64(1), linear[inv, i], 0.0)
        acc += self.offset_cut[low]
        return acc.reshape(z.shape)


def optimal_cut_bruteforce(
    inst: WmcInstance, *, limit: int = DEFAULT_BRUTEFORCE_LIMIT
) -> tuple[str, float]:
    """Enumerate all assignments and return (bitstring, value) of the best.

    Ties (every cut has at least its complement) resolve to the lowest
    basis index.  Refuses instances above ``limit`` vertices.  The scan is
    Python-bound under the GIL, so it runs on the calling thread.
    """
    n = inst.num_vertices
    if n > limit:
        raise CapacityError(
            f"brute force limited to {limit} vertices, instance has {n}"
        )
    # a cut ties with its complement, and of the two the lower index has
    # the top bit clear, so the lower half of the indices holds the answer
    half = 1 << (n - 1)
    b = inst.cut.block_bits
    best_val, best_z = -math.inf, 0
    # blocks ascend and argmax takes the first maximum, so a strict
    # improvement keeps a tie at the lowest index
    blocks = inst.cut.blocks(range(max(1, half >> b)), np.empty(1 << b))  # at n <= 16, block 0
    for h, vals in enumerate(blocks):
        vals = vals[:half]
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_z = float(vals[k]), (h << b) + k
    return index_to_bitstring(best_z, n), best_val


def solve_instance(inst: WmcInstance, *, limit: int = DEFAULT_BRUTEFORCE_LIMIT) -> WmcInstance:
    """Copy of ``inst`` with the brute-force optimal cut attached."""
    bits, value = optimal_cut_bruteforce(inst, limit=limit)
    return replace(inst, optimal_cut=OptimalCut(bits, value))


# ---------------------------------------------------------------------------
# ratios


def _require_optimal(inst: WmcInstance) -> OptimalCut:
    """The instance's optimal cut, once its value is checked against the
    cut of its bitstring, to 1e-12 times max(1, total weight).  The
    instance remembers the ``OptimalCut`` object it last passed, so the
    check runs again only when ``optimal_cut`` is replaced."""
    opt = inst.optimal_cut
    if opt is None:
        raise StateError("instance has no optimal cut; solve it first")
    if getattr(inst, "_checked_optimum", None) is not opt:
        actual = cut_value(inst, opt.bitstring)
        if abs(opt.value - actual) > 1e-12 * max(1.0, inst.total_weight()):
            raise ValidationError(
                f"optimal cut value {opt.value!r} contradicts its bitstring, whose cut is {actual!r}"
            )
        inst._checked_optimum = opt
    return opt


def _to_indices(inst: WmcInstance, samples) -> np.ndarray:
    """Basis indices of a ShotSet, of integer indices, of bitstrings, or of
    rows of 0/1 bits (vertex 0 first); ``as_index`` names the first sample
    it rejects."""
    n = inst.num_vertices
    indices = getattr(samples, "indices", None)
    if indices is not None:
        if samples.num_qubits != n:
            raise ValidationError(f"shots of {samples.num_qubits} qubits do not match n={n}")
        return np.asarray(indices, dtype=np.uint64)
    try:
        arr = np.asarray(samples)
    except ValueError:  # ragged: check one sample at a time
        return np.array([as_index(x, n) for x in samples], dtype=np.uint64)
    if arr.ndim == 2 and arr.dtype.kind in "biu":
        if arr.shape[1] != n:
            raise ValidationError(f"rows of {arr.shape[1]} bits do not match n={n}")
        bad = np.flatnonzero(((arr != 0) & (arr != 1)).any(axis=1))
        if bad.size:
            as_index(arr[bad[0]].tolist(), n)
        return (arr.astype(np.uint64) << np.arange(n, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
    if arr.ndim != 1:
        raise ValidationError(f"samples of shape {arr.shape} are neither indices nor rows of bits")
    if arr.dtype.kind in "iu":
        bad = np.flatnonzero((arr < 0) | (arr >= 1 << n))
        if bad.size:
            as_index(int(arr[bad[0]]), n)
        return arr.astype(np.uint64)
    if all(isinstance(x, str) for x in samples):
        return bitstrings_to_indices(arr, n)
    return np.array([as_index(x, n) for x in samples], dtype=np.uint64)


def shot_ratios(inst: WmcInstance, samples) -> np.ndarray:
    """Per-shot approximation ratios C(x_i) / C(x*)."""
    opt = _require_optimal(inst)
    indices = _to_indices(inst, samples)
    return inst.cut.at(indices) / opt.value


def approximation_ratio(inst: WmcInstance, samples) -> float:
    """Mean cut value of the samples divided by the optimal cut value."""
    ratios = shot_ratios(inst, samples)
    if ratios.size == 0:
        raise ValidationError("approximation ratio needs at least one sample")
    return float(ratios.mean())


def random_baseline_expectation(inst: WmcInstance) -> float:
    """Expected ratio of uniform random assignments: (W/2) / C(x*).

    Each edge is cut with probability 1/2 under uniform bits, so the
    expected cut value is half the total weight.
    """
    opt = _require_optimal(inst)
    return 0.5 * inst.total_weight() / opt.value


# ---------------------------------------------------------------------------
# serialization


def instance_to_dict(inst: WmcInstance) -> dict:
    opt = inst.optimal_cut
    return {
        "n": inst.num_vertices,
        "seed": inst.seed,
        "edges": [[i, j, w] for i, j, w in inst.edges],
        "optimal": None if opt is None else {"bitstring": opt.bitstring, "value": opt.value},
    }


def instance_from_dict(data: dict) -> WmcInstance:
    try:
        n = data["n"]
        edges = [tuple(e) for e in data["edges"]]
        opt = data.get("optimal")
    except (KeyError, TypeError, IndexError) as exc:
        raise ValidationError(f"malformed instance record: {exc}") from exc
    optimal = None
    if opt is not None:
        try:
            optimal = OptimalCut(str(opt["bitstring"]), float(opt["value"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed optimal-cut record: {exc}") from exc
    return WmcInstance(
        num_vertices=n, edges=edges, seed=data.get("seed"), optimal_cut=optimal
    )


def save_instance(inst: WmcInstance, path: str | Path) -> None:
    write_output(path, json.dumps(instance_to_dict(inst), indent=2) + "\n")


def load_instance(path: str | Path) -> WmcInstance:
    """The instance a file records.  A stored optimum is checked against the
    cut of its bitstring here, so a contradictory file is rejected before
    any work is done on it."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read instance file {path}: {exc}") from exc
    inst = instance_from_dict(data)
    if inst.optimal_cut is not None:
        _require_optimal(inst)
    return inst
