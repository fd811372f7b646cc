"""Deterministic random-stream derivation.

Every random draw in the package comes from a Philox counter-based
generator.  A stream is identified by the user seed plus a spawn key
``(stream code, *indices)``, and its Philox key is the one numpy's
``SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint64)``
gives, so the same ``(seed, stream, indices)`` triple yields the same
draws on every platform and in any execution order.  Parallel work
(trajectories, shots, resampling repeats) gets one derived stream per
unit, so results do not depend on scheduling.

There is one key derivation, ``_philox_keys``: SeedSequence's entropy
mixing and output hash in 32-bit arithmetic, on Python ints for the words
every key of a family shares and on uint32 numpy arrays for the index
that tells them apart, so a whole family is keyed in one batch
(``stream_keys``) and ``KeyedStreams`` draws each one through a single
generator rekeyed in place.  ``SeedSequence`` itself is the tests'
referee; the streams are those it gives.

Stream codes are frozen; adding new ones is fine, renumbering is not.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1

_STREAMS = {
    "instance": 0,   # edge weights, one stream per (seed, n)
    "shots": 1,      # measurement sampling, index = trajectory id
    "trajectory": 2, # noise-channel draws, index = trajectory id
    "uniform": 3,    # uniform bitstring pools
    "resample": 4,   # mean-of-means subsampling, index = repeat id
    "classify": 5,   # per-pool sub-seeds inside classification
    "sweep": 6,      # benchmark sweeps
    "ideal": 7,      # sampled (non-exact) ideal baselines
}

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """A non-negative int as little-endian 32-bit words, [0] for 0."""
    if value < 0:
        raise ValidationError(f"rng stream indices are non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


# Each operation below works on a Python int or a uint32 array alike: the
# masks keep a Python int within 32 bits, and a uint32 array wraps by itself.


def _hashmix(value, const: int):
    """SeedSequence's hashmix: the hashed word and the next constant."""
    nxt = const * _MULT_A & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _absorb(pool: list, word, const: int) -> int:
    """Mix one entropy word past the pool size into every pool word."""
    for dst in range(_POOL_SIZE):
        hashed, const = _hashmix(word, const)
        pool[dst] = _mix(pool[dst], hashed)
    return const


def _philox_keys(seed: int, spawn_key: tuple[int, ...], last: np.ndarray | None = None) -> np.ndarray:
    """Philox keys, uint64 rows of two, of the streams with entropy ``seed``
    and spawn key ``spawn_key``, one row; or ``spawn_key + (t,)`` for each
    t of the uint64 array ``last``, a row each.

    The entropy is the seed's words, padded with zeros to the pool size
    (the spawn key is never empty), then the spawn key's words.  Every key
    shares the pool before ``last``; each index then mixes in its low word,
    and those at or above 2^32 their high word too.
    """
    entropy = _words(int(seed) & _MASK64)
    pool, const = [], _INIT_A
    for word in entropy + [0] * (_POOL_SIZE - len(entropy)):
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for index in spawn_key:
        for word in _words(int(index)):
            const = _absorb(pool, word, const)
    if last is not None:
        last = np.asarray(last, np.uint64)
        const = _absorb(pool, (last & _MASK32).astype(np.uint32), const)
        high = last >> 32
        if high.any():
            wide = pool.copy()
            _absorb(wide, high.astype(np.uint32), const)
            pool = [np.where(high != 0, w, p) for w, p in zip(wide, pool)]
    # generate_state(2, np.uint64): four output words, paired low word first
    out, const = [], _INIT_B
    for word in pool:
        word = (word ^ const) & _MASK32
        const = const * _MULT_B & _MASK32
        word = word * const & _MASK32
        out.append(np.asarray(word ^ word >> 16, np.uint64))
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=-1).reshape(-1, 2)


def _code(stream: str) -> int:
    if stream not in _STREAMS:
        raise ValidationError(f"unknown rng stream {stream!r}")
    return _STREAMS[stream]


def stream_keys(seed: int, stream: str, indices) -> np.ndarray:
    """The Philox keys of the streams (seed, stream, t) for each t in
    ``indices`` (below 2^64), one uint64 row of two each, in one batch."""
    return _philox_keys(seed, (_code(stream),), np.asarray(indices, np.uint64).reshape(-1))


# Indices a ``KeyedStreams`` keys at a time, and a bound on the bytes that
# batch holds while it is derived (about 110 bytes an index, traced) and after.
_KEY_BATCH = 256
KEYED_STREAMS_BYTES = 128 * _KEY_BATCH


class KeyedStreams:
    """The streams (seed, stream, t) for t = 0, 1, ..., count - 1, drawn
    through one generator: ``streams[t]`` rekeys it to stream t at its
    start, so its draws are ``derive_rng(seed, stream, t)``'s, and returns
    it.  The generator is shared: take a stream's draws before asking for
    the next, on one thread.  Keys are derived ``_KEY_BATCH`` consecutive
    indices at a time, so asking in ascending order derives each once and
    holds at most ``KEYED_STREAMS_BYTES``."""

    def __init__(self, seed: int, stream: str, count: int) -> None:
        self.seed, self.stream, self.count = seed, stream, count
        self._base, self._keys = 0, stream_keys(seed, stream, range(min(count, _KEY_BATCH)))
        self._bits = np.random.Philox(key=self._keys[0])
        self._fresh = self._bits.state  # counter zero, buffer empty
        self._rng = np.random.Generator(self._bits)

    def __getitem__(self, t: int) -> np.random.Generator:
        if not self._base <= t < self._base + len(self._keys):
            self._base = t - t % _KEY_BATCH
            self._keys = stream_keys(
                self.seed, self.stream, range(self._base, min(self.count, self._base + _KEY_BATCH))
            )
        self._fresh["state"]["key"] = self._keys[t - self._base]
        self._bits.state = self._fresh
        return self._rng


def derive_rng(seed: int, stream: str, *indices: int) -> np.random.Generator:
    """Return a Generator for the named stream derived from ``seed``."""
    key = _philox_keys(seed, (_code(stream), *indices))[0]
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, stream: str, *indices: int) -> int:
    """Collapse a derived stream to a plain 64-bit seed (for nested configs):
    the first word of its key, ``generate_state(1, np.uint64)``."""
    return int(_philox_keys(seed, (_code(stream), *indices))[0, 0])
