import hashlib

import numpy as np
import pytest

from lrqbench import DepolarizingConfig, LrQaoaParams, build_circuit, generate_instance, run_noisy_ensemble
from lrqbench.errors import ValidationError
from lrqbench.rng import _STREAMS, StreamFamily, derive_rng, derive_seed
from lrqbench.stats import ResampleConfig, mean_of_means

import oracles


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


def referee_key(seed: int, code: int, *indices: int) -> np.ndarray:
    sequence = np.random.SeedSequence(entropy=seed & ((1 << 64) - 1), spawn_key=(code, *indices))
    return sequence.generate_state(2, np.uint64)


@pytest.mark.parametrize("indices", [(), (0,), (7,), (2**32,), (3, 4), (2**40, 1)])
def test_derived_streams_match_seed_sequence(indices):
    for seed in GOLDEN_SEEDS[:12]:
        key = referee_key(seed, _STREAMS["classify"], *indices)
        want = np.random.Generator(np.random.Philox(key=key)).random(6)
        np.testing.assert_array_equal(derive_rng(seed, "classify", *indices).random(6), want)
        assert derive_seed(seed, "classify", *indices) == int(key[0])
        referee = np.random.SeedSequence(entropy=seed & ((1 << 64) - 1), spawn_key=(5, *indices))
        assert derive_seed(seed, "classify", *indices) == int(referee.generate_state(1, np.uint64)[0])


def test_family_streams_draw_what_jumped_draws():
    # numpy's Philox.jumped(t) is the referee: counter words past the first,
    # the largest index, out of order and back again
    family = StreamFamily(9, "trajectory")
    for t in (0, 1, 255, 256, 3, 699, 2**32, 2**64 - 1, 256, 0):
        got = family[t]
        want = oracles.jumped(derive_rng(9, "trajectory", 0), t)
        np.testing.assert_array_equal(got.random(5), want.random(5))
        np.testing.assert_array_equal(got.integers(1, 16, size=7), want.integers(1, 16, size=7))


@pytest.mark.parametrize("stream", sorted(_STREAMS))
def test_family_key_matches_seed_sequence(stream):
    # one SeedSequence key per family, and its stream 0 is derive_rng's
    # (seed, stream, 0), so the noiseless sampler's ("shots", 0) is the
    # ensemble's trajectory 0
    for seed in GOLDEN_SEEDS:
        family = StreamFamily(seed, stream)
        family[5].random(3)  # a stream drawn first leaves nothing behind
        key = referee_key(seed, _STREAMS[stream], 0)
        want = np.random.Generator(np.random.Philox(key=key)).random(6)
        np.testing.assert_array_equal(family[0].random(6), want)
        np.testing.assert_array_equal(derive_rng(seed, stream, 0).random(6), want)


def test_negative_index_rejected():
    with pytest.raises(ValidationError):
        derive_rng(0, "shots", -1)


# SHA-256 of the int64 little-endian Paulis fired per trajectory of two
# ensembles; they depend only on the streams and the firing threshold, so
# they hold on every platform (the streams of version 0.7.0); the test ids
# name the ensemble, not the digest, so a new pin keeps the test's name
PAULIS_FIRED_DIGESTS = [
    ((5, 2, 0.1, 40, 11), "d9bc0277213d7bba142e4318bc7b9768dbda6634a2e0d8a6070856cedd21ae18"),
    ((8, 3, 0.02, 100, 7), "9c2d6161474f97fd7f635ee95fa37042ad971e08c06f49720854ca9d3370d92b"),
]


@pytest.mark.parametrize("params,digest", PAULIS_FIRED_DIGESTS, ids=["n5", "n8"])
def test_paulis_fired_digests(params, digest):
    n, p, epsilon, trajectories, seed = params
    circ = build_circuit(generate_instance(n, seed), LrQaoaParams(p=p))
    cfg = DepolarizingConfig(epsilon, trajectories, rng_seed=seed)
    shots = run_noisy_ensemble(circ, cfg, 3, "fp64")
    assert hashlib.sha256(shots.paulis_fired.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("threads", [1, 3])
def test_noisy_shot_digest(threads):
    # SHA-256 of the uint64 little-endian shot indices of one fp64 ensemble
    # at 0.7.0, in which 14 of the 40 trajectories fire nothing
    circ = build_circuit(generate_instance(6, 3), LrQaoaParams(p=2))
    cfg = DepolarizingConfig(0.03, trajectories=40, rng_seed=5)
    shots = run_noisy_ensemble(circ, cfg, 4, "fp64", threads=threads)
    assert int((shots.paulis_fired == 0).sum()) == 14
    digest = hashlib.sha256(shots.indices.astype("<u8").tobytes()).hexdigest()
    assert digest == "7c55148c60bb298ad36b5f191e255823e5ebcf3c7220d7afa90d38d01752d601"


def test_resample_digest():
    # SHA-256 of the float64 little-endian subsample means at 0.7.0; the
    # pool holds small integers, so each mean is exact whatever the
    # summation order and the digest depends only on the streams
    mom = mean_of_means(np.arange(1000, dtype=np.float64), ResampleConfig(10, repeats=300, rng_seed=6))
    digest = hashlib.sha256(mom.subsample_means.astype("<f8").tobytes()).hexdigest()
    assert digest == "348603af0c72805e11bfe3831d12d106855bc55d05b0260ad376a2c04309e559"
