import hashlib

import numpy as np
import pytest

from lrqbench import DepolarizingConfig, LrQaoaParams, build_circuit, generate_instance, run_noisy_ensemble
from lrqbench.errors import ValidationError
from lrqbench.rng import _STREAMS, KeyedStreams, derive_rng, derive_seed, stream_keys


def test_stream_codes_are_frozen():
    # these codes are part of the on-disk reproducibility contract;
    # renumbering them silently changes every derived sample
    assert _STREAMS == {
        "instance": 0,
        "shots": 1,
        "trajectory": 2,
        "uniform": 3,
        "resample": 4,
        "classify": 5,
        "sweep": 6,
        "ideal": 7,
    }


def test_same_stream_same_draws():
    a = derive_rng(12, "shots", 4).random(8)
    b = derive_rng(12, "shots", 4).random(8)
    np.testing.assert_array_equal(a, b)


def test_streams_are_independent():
    base = derive_rng(12, "shots", 0).random(4)
    for stream, idx in (("shots", 1), ("trajectory", 0), ("resample", 0)):
        other = derive_rng(12, stream, idx).random(4)
        assert not np.array_equal(base, other)


def test_seed_wraps_to_64_bits():
    a = derive_rng(5, "instance").random(4)
    b = derive_rng(5 + (1 << 64), "instance").random(4)
    np.testing.assert_array_equal(a, b)


def test_unknown_stream_rejected():
    with pytest.raises(ValidationError):
        derive_rng(0, "nope")


def test_derive_seed_is_deterministic_uint64():
    s1 = derive_seed(3, "classify", 0)
    s2 = derive_seed(3, "classify", 0)
    assert s1 == s2
    assert 0 <= s1 < (1 << 64)
    assert derive_seed(3, "classify", 1) != s1


# SeedSequence is the referee of the key derivation: seeds at the word
# boundaries, in one and two words, and above 2^64 (it wraps to 64 bits)
GOLDEN_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**63 + 12345, 2**64 - 1, 2**64 + 7] + [
    int(s) for s in np.random.SeedSequence(2024).generate_state(45, np.uint64)
]
# indices of one word and of two (a two-word spawn-key entry)
GOLDEN_INDICES = list(range(200)) + [2**32 - 1, 2**32, 2**32 + 5, 2**48 + 3, 2**64 - 1]


def referee_key(seed: int, code: int, *indices: int) -> np.ndarray:
    sequence = np.random.SeedSequence(entropy=seed & ((1 << 64) - 1), spawn_key=(code, *indices))
    return sequence.generate_state(2, np.uint64)


@pytest.mark.parametrize("stream", sorted(_STREAMS))
def test_batched_keys_match_seed_sequence(stream):
    code = _STREAMS[stream]
    assert len(GOLDEN_SEEDS) >= 50
    for seed in GOLDEN_SEEDS:
        want = np.array([referee_key(seed, code, t) for t in GOLDEN_INDICES])
        got = stream_keys(seed, stream, np.array(GOLDEN_INDICES, np.uint64))
        np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")


@pytest.mark.parametrize("indices", [(), (0,), (7,), (2**32,), (3, 4), (2**40, 1)])
def test_derived_streams_match_seed_sequence(indices):
    for seed in GOLDEN_SEEDS[:12]:
        key = referee_key(seed, _STREAMS["classify"], *indices)
        want = np.random.Generator(np.random.Philox(key=key)).random(6)
        np.testing.assert_array_equal(derive_rng(seed, "classify", *indices).random(6), want)
        assert derive_seed(seed, "classify", *indices) == int(key[0])
        referee = np.random.SeedSequence(entropy=seed & ((1 << 64) - 1), spawn_key=(5, *indices))
        assert derive_seed(seed, "classify", *indices) == int(referee.generate_state(1, np.uint64)[0])


def test_keyed_streams_draw_what_derive_rng_draws():
    # across key batches, out of order and back again
    streams = KeyedStreams(9, "trajectory", 700)
    for t in (0, 1, 255, 256, 3, 699, 512, 2):
        got = streams[t]
        want = derive_rng(9, "trajectory", t)
        np.testing.assert_array_equal(got.random(5), want.random(5))
        np.testing.assert_array_equal(got.integers(1, 16, size=7), want.integers(1, 16, size=7))


def test_negative_index_rejected():
    with pytest.raises(ValidationError):
        derive_rng(0, "shots", -1)


# SHA-256 of the int64 little-endian Paulis fired per trajectory of two
# ensembles; they depend only on the streams and the firing threshold, so
# they hold on every platform
PAULIS_FIRED_DIGESTS = [
    ((5, 2, 0.1, 40, 11), "aa2ea7f991699cb22a78e1f045442377806e9113e6ac099aa0c6c29e2556aa4d"),
    ((8, 3, 0.02, 100, 7), "7767cec7f6ef19c2b814717ad31b1816b7365a21fa241ec1ce1445d96cac6c19"),
]


@pytest.mark.parametrize("params,digest", PAULIS_FIRED_DIGESTS)
def test_paulis_fired_digests(params, digest):
    n, p, epsilon, trajectories, seed = params
    circ = build_circuit(generate_instance(n, seed), LrQaoaParams(p=p))
    cfg = DepolarizingConfig(epsilon, trajectories, rng_seed=seed)
    shots = run_noisy_ensemble(circ, cfg, 3, "fp64")
    assert hashlib.sha256(shots.paulis_fired.astype("<i8").tobytes()).hexdigest() == digest
