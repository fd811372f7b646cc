import sys

import numpy as np
import pytest

from lrqbench import (
    CircuitIR,
    CostLayer,
    GateOp,
    LrQaoaParams,
    ValidationError,
    build_circuit,
    build_schedule,
    circuit_to_text,
    gate_counts,
    hqc_cost,
)


def test_schedule_p3_default_ramps():
    sched = build_schedule(LrQaoaParams(p=3))
    np.testing.assert_allclose(sched.betas, (0.2, 2.0 / 15.0, 1.0 / 15.0))
    np.testing.assert_allclose(sched.gammas, (1.0 / 15.0, 2.0 / 15.0, 0.2))
    assert sched.p == 3


@pytest.mark.parametrize("p", [1, 2, 7, 50])
def test_schedule_endpoints(p):
    db, dg = 0.3, 0.15
    sched = build_schedule(LrQaoaParams(p=p, delta_beta=db, delta_gamma=dg))
    assert sched.betas[0] == pytest.approx(db)
    assert sched.gammas[-1] == pytest.approx(dg)
    assert sched.betas[-1] == pytest.approx(db / p)
    assert sched.gammas[0] == pytest.approx(dg / p)
    # mixer falls, cost rises
    assert all(a > b for a, b in zip(sched.betas, sched.betas[1:]))
    assert all(a < b for a, b in zip(sched.gammas, sched.gammas[1:]))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p": 0},
        {"p": -1},
        {"p": 2.0},
        {"p": 3, "delta_beta": 0.0},
        {"p": 3, "delta_gamma": -0.2},
        {"p": 3, "delta_beta": float("nan")},
    ],
)
def test_bad_params_rejected(kwargs):
    with pytest.raises(ValidationError):
        LrQaoaParams(**kwargs)


def test_build_circuit_gate_sequence(triangle):
    circ = build_circuit(triangle, LrQaoaParams(p=2))
    assert circ.num_qubits == 3
    assert circ.p == 2
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["H"] * 3 + (["RZZ"] * 3 + ["RX"] * 3) * 2

    # RZZ sweep follows the lexicographic edge order every layer
    sched = circ.schedule
    for layer in range(2):
        base = 3 + layer * 6
        gamma = sched.gammas[layer]
        for offset, (i, j, w) in enumerate(triangle.edges):
            g = circ.gates[base + offset]
            assert g.qubits == (i, j)
            assert g.theta == pytest.approx(2.0 * gamma * w)
        for offset in range(3):
            g = circ.gates[base + 3 + offset]
            assert g.kind == "RX"
            assert g.qubits == (offset,)
            assert g.theta == pytest.approx(-2.0 * sched.betas[layer])


def test_built_gate_totals_match_formula():
    inst_n, p = 5, 4
    from lrqbench import generate_instance

    circ = build_circuit(generate_instance(inst_n, 0), LrQaoaParams(p=p))
    n_1q, n_2q = gate_counts(inst_n, p)
    assert sum(1 for g in circ.gates if g.kind in ("H", "RX")) == n_1q
    assert sum(1 for g in circ.gates if g.kind == "RZZ") == n_2q


def test_gate_counts_published_sizes():
    assert gate_counts(48, 3) == (192, 3384)
    assert gate_counts(93, 3) == (372, 12834)
    assert gate_counts(40, 3) == (160, 2340)


def test_gate_counts_validation():
    with pytest.raises(ValidationError):
        gate_counts(1, 3)
    with pytest.raises(ValidationError):
        gate_counts(5, 0)


def test_hqc_cost_formula():
    # 40-qubit depth-3 job at 10 shots: the formula gives 52.52; the
    # vendor bills the same job near 68 because compilation inflates the
    # gate counts, which this model of ideal counts cannot see
    assert hqc_cost(160, 2340, 40, 10) == pytest.approx(52.52, abs=1e-12)
    assert hqc_cost(0, 0, 0, 1) == pytest.approx(5.0)


def test_hqc_cost_validation():
    with pytest.raises(ValidationError):
        hqc_cost(-1, 0, 0, 1)
    with pytest.raises(ValidationError):
        hqc_cost(0, 0, 0, 0)


@pytest.mark.parametrize(
    "kind,qubits,theta",
    [
        ("CZ", (0, 1), 0.1),
        ("H", (0, 1), None),
        ("RX", (0,), None),
        ("H", (0,), 0.1),
        ("RZZ", (1, 1), 0.1),
        ("RZZ", (0,), 0.1),
        ("RX", (0,), float("inf")),
        ("RX", (0,), float("-inf")),
        ("RZZ", (0, 1), float("nan")),
    ],
)
def test_bad_gates_rejected(kind, qubits, theta):
    with pytest.raises(ValidationError):
        GateOp(kind, qubits, theta)


def test_cost_layer_whose_cut_arithmetic_would_overflow_is_rejected():
    # four times the sum of |theta| must be finite
    quarter = sys.float_info.max / 4
    CostLayer(3, (GateOp("RZZ", (0, 1), quarter / 2), GateOp("RZZ", (1, 2), -quarter / 2)))
    with pytest.raises(ValidationError, match="too large"):
        CostLayer(3, (GateOp("RZZ", (0, 1), quarter), GateOp("RZZ", (1, 2), -quarter / 2)))


@pytest.mark.parametrize(
    "params",
    [
        {"delta_beta": 1e308},  # RX angle -2 beta overflows to -inf
        {"delta": 1e308},
        {"delta_gamma": 5e307},  # every RZZ angle is finite, their sum is not
    ],
)
def test_circuit_with_overflowing_angles_is_refused_when_built(triangle, params):
    delta = params.pop("delta", None)
    if delta is not None:
        params = {"delta_beta": delta, "delta_gamma": delta}
    with pytest.raises(ValidationError):
        build_circuit(triangle, LrQaoaParams(p=2, **params))


def test_circuit_rejects_out_of_range_qubit():
    with pytest.raises(ValidationError):
        CircuitIR(num_qubits=2, gates=[GateOp("H", (2,))])


def test_circuit_to_text_stable(triangle):
    circ = build_circuit(triangle, LrQaoaParams(p=1))
    text = circuit_to_text(circ)
    assert text == circuit_to_text(circ)
    lines = text.splitlines()
    assert lines[0] == "H 0"
    assert lines[3].startswith("RZZ ") and lines[3].endswith(" 0 1")
    assert lines[6].startswith("RX ")
    assert text.endswith("\n")
    # angles carry full precision
    theta = float(lines[3].split()[1])
    assert theta == circ.gates[3].theta
