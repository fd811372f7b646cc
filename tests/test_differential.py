"""Seeded random circuits through every executor.

Each case draws H, RX and RZZ gates in any order on n = 1..12 qubits,
with and without a leading H layer and cost layer (which the executors
fold into the start state), in
single precision for one of the two and double for the other, and ends
with an RX on the top qubit between two cost layers, so every sharded
plan exchanges between diagonals.  The dense state must equal the sharded
one byte for byte on every valid shard count, a noiseless ensemble of one
trajectory must draw the dense sampler's shots, and at small n the dense
state must match the matrix oracle.
"""

import numpy as np
import pytest

from lrqbench import (
    CircuitIR,
    DepolarizingConfig,
    GateOp,
    plan_for_shard_count,
    run_circuit,
    run_circuit_sharded,
    run_noisy_ensemble,
    sample,
)

import oracles

# (n, leading H layer, precision); a sharded step runs one task per shard,
# so the two largest sizes, whose plans reach 1 024 and 2 048 shards, run once
CASES = [
    (n, h_layer, "fp64" if (n + h_layer) % 2 else "fp32")
    for n in range(1, 11)
    for h_layer in (True, False)
] + [(11, False, "fp32"), (12, True, "fp64")]


def random_circuit(n: int, h_layer: bool, seed: int) -> CircuitIR:
    rng = np.random.default_rng(seed)
    gates = [GateOp("H", (q,)) for q in range(n)] if h_layer else []
    if h_layer and n > 1:
        gates.append(GateOp("RZZ", (0, 1), 0.3))
    kinds = ("H", "RX", "RZZ") if n > 1 else ("H", "RX")
    for _ in range(int(rng.integers(3, 11)) if n < 10 else 3):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "RZZ":
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(GateOp("RZZ", (int(a), int(b)), float(rng.uniform(-3, 3))))
        elif kind == "RX":
            gates.append(GateOp("RX", (int(rng.integers(n)),), float(rng.uniform(-3, 3))))
        else:
            gates.append(GateOp("H", (int(rng.integers(n)),)))
    if n > 1:
        gates += [
            GateOp("RZZ", (0, n - 1), 0.7),
            GateOp("RX", (n - 1,), 0.4),
            GateOp("RZZ", (n - 2, n - 1), -1.1),
        ]
    return CircuitIR(n, gates)


@pytest.mark.parametrize("n,h_layer,precision", CASES)
def test_random_circuit_agrees_across_executors(n, h_layer, precision):
    seed = 2 * n + h_layer
    circuit = random_circuit(n, h_layer, seed)
    dense = run_circuit(circuit, precision)
    for log2 in range(1, n):
        sv, _ = run_circuit_sharded(circuit, plan_for_shard_count(n, 1 << log2), precision)
        assert sv.amps.tobytes() == dense.amps.tobytes(), f"{1 << log2} shards"

    cfg = DepolarizingConfig(0.0, trajectories=1, rng_seed=seed)
    noisy = run_noisy_ensemble(circuit, cfg, 64, precision)
    np.testing.assert_array_equal(noisy.indices, sample(dense, 64, seed).indices)

    if precision == "fp64" and n <= 6:
        np.testing.assert_allclose(dense.amps, oracles.final_state(circuit), rtol=0, atol=1e-10)
