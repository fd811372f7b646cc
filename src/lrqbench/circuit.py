"""Linear-ramp QAOA schedules, gate lists, and cost accounting.

The circuit is fixed by (instance, p, delta_beta, delta_gamma): a
Hadamard on every qubit, then p layers of one RZZ per edge followed by
one RX per qubit.  Layer k uses gamma_k = ((k+1)/p) * delta_gamma on the
cost side and beta_k = (1 - k/p) * delta_beta on the mixer side, so the
cost angle ramps up while the mixer angle ramps down.  There are no free
parameters to optimize.

Angle conventions (matched against matrix-exponential oracles in the
test suite):

* the cost layer applies exp(-i * gamma * w_ij * Z_i Z_j) per edge, stored
  as RZZ(theta) with theta = 2 * gamma * w_ij, whose action is the phase
  exp(-i theta / 2) on equal bits and exp(+i theta / 2) on differing bits;
* the mixer applies exp(+i * beta * X) per qubit, stored as RX(theta)
  with theta = -2 * beta under the standard RX(theta) = exp(-i theta X / 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import ValidationError
from .problem import CutDiagonal, WmcInstance

GATE_KINDS = ("H", "RX", "RZZ")


@dataclass(frozen=True)
class LrQaoaParams:
    """Protocol parameters: depth p and the two ramp amplitudes."""

    p: int
    delta_beta: float = 0.2
    delta_gamma: float = 0.2

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p < 1:
            raise ValidationError(f"depth p must be a positive integer, got {self.p!r}")
        for name in ("delta_beta", "delta_gamma"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise ValidationError(f"{name} must be finite and positive, got {v!r}")


@dataclass(frozen=True)
class Schedule:
    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    @property
    def p(self) -> int:
        return len(self.betas)


def build_schedule(params: LrQaoaParams) -> Schedule:
    """Linear ramps: betas fall from delta_beta, gammas rise to delta_gamma."""
    p = params.p
    betas = tuple((1.0 - k / p) * params.delta_beta for k in range(p))
    gammas = tuple(((k + 1) / p) * params.delta_gamma for k in range(p))
    return Schedule(betas=betas, gammas=gammas)


@dataclass(frozen=True)
class GateOp:
    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind == "RZZ" else 1
        if len(self.qubits) != arity:
            raise ValidationError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        if self.kind == "RZZ" and self.qubits[0] == self.qubits[1]:
            raise ValidationError("RZZ qubits must differ")
        if (self.theta is None) == (self.kind != "H"):
            raise ValidationError(f"{self.kind} angle mismatch: theta={self.theta!r}")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValidationError(f"{self.kind} angle must be finite, got {self.theta!r}")


@dataclass(frozen=True)
class CostLayer:
    """A run of consecutive RZZ gates, which commute and act as one diagonal.

    On basis state z the product of RZZ(theta_e) over the run's edges is
    exp(-i (Theta/2 - C(z))), where Theta is the sum of the angles and
    C(z) the angle-weighted cut: each RZZ contributes exp(-i theta/2) on
    equal bits and exp(+i theta/2) on differing ones.
    """

    num_qubits: int
    gates: tuple[GateOp, ...]

    def __post_init__(self) -> None:
        # every sum the engines form from the angles (the cut's tables,
        # const - Theta/2, a fired Pauli's angle) is at most 2 S, S = sum of
        # |theta|; 4 S finite leaves a factor of two for rounding (a Python
        # float overflows to inf, without a warning)
        if not math.isfinite(4.0 * sum(abs(g.theta) for g in self.gates)):
            raise ValidationError("cost layer angles too large: its cut sums would overflow")

    def cut(self) -> CutDiagonal:
        """The angle-weighted cut C(z) of this layer."""
        return CutDiagonal(self.num_qubits, [(*g.qubits, g.theta) for g in self.gates])


@dataclass
class CircuitIR:
    """Flat gate list plus the schedule and instance seed it came from."""

    num_qubits: int
    gates: list[GateOp] = field(default_factory=list)
    schedule: Schedule | None = None
    instance_seed: int | None = None

    @property
    def p(self) -> int:
        return 0 if self.schedule is None else self.schedule.p

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValidationError("circuit needs at least one qubit")
        for g in self.gates:
            if any(not 0 <= q < self.num_qubits for q in g.qubits):
                raise ValidationError(f"gate {g} out of range for {self.num_qubits} qubits")
        self.layers()  # each cost layer checks its angles

    def layers(self) -> list[CostLayer | tuple[GateOp, ...]]:
        """The runs the engines execute: every run of consecutive RZZ gates as
        one ``CostLayer``, every run of consecutive H and RX gates as one
        tuple.  Gate-level bookkeeping (counts, text form, noise attachment
        points, timing rows) keeps to ``gates``."""
        return [
            CostLayer(self.num_qubits, tuple(run)) if diagonal else tuple(run)
            for diagonal, run in itertools.groupby(self.gates, key=lambda g: g.kind == "RZZ")
        ]


def build_circuit(inst: WmcInstance, params: LrQaoaParams) -> CircuitIR:
    """Gate list for the instance: H layer, then p x (RZZ sweep, RX sweep).

    RZZ gates follow the instance's lexicographic edge order, which fixes
    both the serialized form and the points where noise channels attach.
    """
    n = inst.num_vertices
    schedule = build_schedule(params)
    gates = [GateOp("H", (q,)) for q in range(n)]
    for beta, gamma in zip(schedule.betas, schedule.gammas):
        for i, j, w in inst.edges:
            gates.append(GateOp("RZZ", (i, j), theta=2.0 * gamma * w))
        for q in range(n):
            # mixer is exp(+i beta X); with RX(t) = exp(-i t X / 2) that is t = -2 beta
            gates.append(GateOp("RX", (q,), theta=-2.0 * beta))
    return CircuitIR(
        num_qubits=n, gates=gates, schedule=schedule, instance_seed=inst.seed
    )


def gate_counts(n: int, p: int) -> tuple[int, int]:
    """(one-qubit, two-qubit) gate totals for an n-vertex depth-p circuit.

    One H per qubit plus p RX sweeps gives (p+1)*n one-qubit gates; each
    layer carries one RZZ per edge of the complete graph.
    """
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"gate counts need n >= 2, got {n!r}")
    if not isinstance(p, int) or p < 1:
        raise ValidationError(f"gate counts need p >= 1, got {p!r}")
    n_1q = (p + 1) * n
    n_2q = p * n * (n - 1) // 2
    return n_1q, n_2q


def hqc_cost(n_1q: int, n_2q: int, n_m: int, n_s: int) -> float:
    """Credit cost model: 5 + (N1q + 10*N2q + 5*Nm) / 5000 * shots.

    Evaluated verbatim on ideal gate counts.  Note that vendor-billed
    figures for compiled production jobs run higher than this formula on
    the same nominal counts (the 40-qubit, depth-3, 10-shot data point is
    billed near 68 versus 52.52 here); the gap is compilation overhead
    that ideal counts cannot see.
    """
    for name, v in (("n_1q", n_1q), ("n_2q", n_2q), ("n_m", n_m)):
        if v < 0:
            raise ValidationError(f"{name} must be non-negative, got {v}")
    if n_s < 1:
        raise ValidationError(f"shot count must be positive, got {n_s}")
    return 5.0 + (n_1q + 10.0 * n_2q + 5.0 * n_m) / 5000.0 * n_s


def circuit_to_text(circuit: CircuitIR) -> str:
    """Line-oriented form, one gate per line, angles at 17 significant digits.

    The rendering is deterministic, so equal circuits serialize to equal
    bytes.
    """
    lines = []
    for g in circuit.gates:
        if g.kind == "H":
            lines.append(f"H {g.qubits[0]}")
        elif g.kind == "RX":
            lines.append(f"RX {g.theta:.17g} {g.qubits[0]}")
        else:
            lines.append(f"RZZ {g.theta:.17g} {g.qubits[0]} {g.qubits[1]}")
    return "\n".join(lines) + "\n"
