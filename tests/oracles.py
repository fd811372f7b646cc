"""Independent reference implementations the tests compare against.

Everything here is deliberately naive and slow: dense 2^n x 2^n matrices
built with scipy.linalg.expm, explicit density-matrix channel evolution,
and pure-Python cut enumeration.  None of it shares numerical code with
the package; it only consumes the gate/circuit dataclasses.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
PAULIS = (I2, X, Y, Z)


def embed_single(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Lift a one-qubit operator to n qubits; qubit k addresses bit k."""
    return np.kron(np.eye(1 << (n - 1 - qubit)), np.kron(op, np.eye(1 << qubit)))


def apply_pauli(amps: np.ndarray, pauli: int, qubit: int) -> None:
    """One-qubit Pauli 1, 2 or 3 (X, Y, Z) on ``qubit``, in place, by
    reshape: X swaps the halves where the qubit is clear and set, Y swaps
    them and multiplies the first by -i and the second by i, Z negates the
    second."""
    v = amps.reshape(-1, 2, 1 << qubit)
    if pauli in (1, 2):
        v[:, [0, 1]] = v[:, [1, 0]]
    if pauli == 2:
        v[:, 0] *= -1j
        v[:, 1] *= 1j
    elif pauli == 3:
        v[:, 1] *= -1


def apply_pauli_pair(amps: np.ndarray, code: int, qa: int, qb: int) -> None:
    """The two-qubit Pauli numbered 1..15, one qubit at a time: base-4
    digits for qa and qb, 0 meaning I."""
    pa, pb = divmod(code, 4)
    if pa:
        apply_pauli(amps, pa, qa)
    if pb:
        apply_pauli(amps, pb, qb)


def gate_unitary(gate, n: int) -> np.ndarray:
    """Full-space matrix for one gate, built from matrix exponentials."""
    if gate.kind == "H":
        return embed_single(HADAMARD, gate.qubits[0], n)
    if gate.kind == "RX":
        return expm(-0.5j * gate.theta * embed_single(X, gate.qubits[0], n))
    if gate.kind == "RZZ":
        qa, qb = gate.qubits
        zz = embed_single(Z, qa, n) @ embed_single(Z, qb, n)
        return expm(-0.5j * gate.theta * zz)
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def circuit_unitary(circuit) -> np.ndarray:
    u = np.eye(1 << circuit.num_qubits, dtype=complex)
    for gate in circuit.gates:
        u = gate_unitary(gate, circuit.num_qubits) @ u
    return u


def final_state(circuit) -> np.ndarray:
    """|0...0> pushed through the whole gate list as one matrix product."""
    e0 = np.zeros(1 << circuit.num_qubits, dtype=complex)
    e0[0] = 1.0
    return circuit_unitary(circuit) @ e0


def depolarized_probs(circuit, epsilon: float) -> np.ndarray:
    """Exact channel average: every RZZ is followed by the 16-term
    two-qubit depolarizing map (1-eps) rho + (eps/16) sum_P P rho P^dag.
    """
    n = circuit.num_qubits
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = gate_unitary(gate, n)
        rho = u @ rho @ u.conj().T
        if gate.kind == "RZZ":
            qa, qb = gate.qubits
            acc = np.zeros_like(rho)
            for pa in PAULIS:
                for pb in PAULIS:
                    p = embed_single(pa, qa, n) @ embed_single(pb, qb, n)
                    acc += p @ rho @ p.conj().T
            rho = (1.0 - epsilon) * rho + (epsilon / 16.0) * acc
    return np.real(np.diag(rho)).copy()


def probabilities(amps: np.ndarray) -> np.ndarray:
    """|amplitude|^2 in float64 over the whole vector at once."""
    probs = np.square(amps.real, dtype=np.float64)
    probs += np.square(amps.imag, dtype=np.float64)
    return probs


def inverse_cdf_shots(probs: np.ndarray, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """``inverse_cdf`` of ``n_shots`` uniforms drawn from ``rng``."""
    return inverse_cdf(probs, rng.random(n_shots))


def inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw over a whole unnormalized probability vector: per
    uniform u, the first index where the normalized cumulative sum exceeds
    u (clamped to the last index)."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, cdf.size - 1).astype(np.uint64)


def jumped(rng: np.random.Generator, t: int) -> np.random.Generator:
    """Stream t of the counter family whose stream 0 is the fresh ``rng``:
    numpy's own ``Philox.jumped(t)``, its counter advanced by t * 2^128."""
    return np.random.Generator(rng.bit_generator.jumped(t))


def cost_phase_table(cut) -> np.ndarray:
    """exp(i Q(l)) over a cut's 2^b offsets, one complex exponential per
    entry of its ``offset_cut``: the referee for a cost layer's table,
    which the engine builds as products."""
    return np.exp(1j * cut.offset_cut)


def cut_block_terms(w: np.ndarray, b: int, h: int) -> tuple[float, np.ndarray]:
    """Block h's constant and linear terms of the cut whose n x n weight
    matrix is ``w``, with b low vertices, by the scalar loop over the high
    vertices j: where h_j is set, const gains the sum of w_ij over i < b
    (numpy's column sums, as the cut forms them) and the linear terms lose
    w_ij, else they gain it; then const gains w_jk for every later k on the
    other side."""
    n = len(w)
    bits = [(h >> (j - b)) & 1 for j in range(b, n)]
    low_to_high = w[:b, b:].sum(axis=0)
    const = 0.0
    linear = np.zeros(b)
    for j in range(b, n):
        if bits[j - b]:
            const += low_to_high[j - b]
            linear -= w[:b, j]
        else:
            linear += w[:b, j]
        for k in range(j + 1, n):
            if bits[j - b] != bits[k - b]:
                const += w[j, k]
    return float(const), linear


def cut_by_block_terms(w: np.ndarray, b: int, offset_cut: np.ndarray, z: int) -> float:
    """C(z) from ``cut_block_terms`` of its block h = z >> b: const, plus
    a_i over the set bits i of the offset l in increasing order, plus the
    offset cut Q(l)."""
    const, linear = cut_block_terms(w, b, z >> b)
    l = z & ((1 << b) - 1)
    for i in range(b):
        if (l >> i) & 1:
            const += linear[i]
    return float(const + offset_cut[l])


def cut_of_index(edges, z: int) -> float:
    """Cut weight of assignment z where vertex k is bit k of z."""
    return sum(w for i, j, w in edges if ((z >> i) & 1) != ((z >> j) & 1))


def best_cut_by_enumeration(edges, n: int) -> tuple[int, float]:
    """Plain loop over all assignments; ties go to the lowest index."""
    best_z, best_val = 0, cut_of_index(edges, 0)
    for z in range(1, 1 << n):
        val = cut_of_index(edges, z)
        if val > best_val:
            best_z, best_val = z, val
    return best_z, best_val
