"""Deterministic random-stream derivation.

Every random draw in the package comes from a Philox counter-based
generator keyed by numpy's ``SeedSequence``.  A stream is named by the
user seed (taken modulo 2^64) plus a spawn key ``(stream code,
*indices)``, so ``derive_rng`` gives the same draws for the same ``(seed,
stream, indices)`` on every platform and in any execution order.

Parallel work (trajectories, shots, resampling repeats) takes its streams
from one ``StreamFamily`` per (seed, stream): one key, that of
``derive_rng(seed, stream, 0)``, and stream t at counter (0, 0, t, 0),
which is ``Philox.jumped(t)``.  Philox streams that share a key and use
disjoint counter ranges are independent by design (Salmon, Moraes, Dror
and Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC 2011), each
one spans 2^128 counter blocks, and results do not depend on scheduling.

Stream codes are frozen; adding new ones is fine, renumbering is not.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_STREAMS = {
    "instance": 0,   # edge weights, one stream per (seed, n)
    "shots": 1,      # measurement sampling, family stream = trajectory id
    "trajectory": 2, # noise-channel draws, family stream = trajectory id
    "uniform": 3,    # uniform bitstring pools
    "resample": 4,   # mean-of-means subsampling, family stream = repeat id
    "classify": 5,   # per-pool sub-seeds inside classification
    "sweep": 6,      # benchmark sweeps
    "ideal": 7,      # sampled (non-exact) ideal baselines
}


def _sequence(seed: int, stream: str, indices: tuple[int, ...]) -> np.random.SeedSequence:
    if stream not in _STREAMS:
        raise ValidationError(f"unknown rng stream {stream!r}")
    if any(index < 0 for index in indices):
        raise ValidationError(f"rng stream indices are non-negative, got {indices}")
    return np.random.SeedSequence(int(seed) & ((1 << 64) - 1), spawn_key=(_STREAMS[stream], *indices))


def derive_rng(seed: int, stream: str, *indices: int) -> np.random.Generator:
    """Return a Generator for the named stream derived from ``seed``."""
    return np.random.Generator(np.random.Philox(_sequence(seed, stream, indices)))


def derive_seed(seed: int, stream: str, *indices: int) -> int:
    """Collapse a derived stream to a plain 64-bit seed (for nested configs):
    the first word of its key, ``generate_state(1, np.uint64)``."""
    return int(_sequence(seed, stream, indices).generate_state(1, np.uint64)[0])


class StreamFamily:
    """The streams t = 0, 1, ... of (seed, stream), drawn through one
    generator: ``family[t]`` sets its counter to (0, 0, t, 0) with an empty
    buffer, so its draws are ``jumped(t)``'s of ``derive_rng(seed, stream,
    0)``, stream 0 being that generator itself, and returns it.  The
    generator is shared: take a stream's draws before asking for the next,
    on one thread."""

    def __init__(self, seed: int, stream: str) -> None:
        self._rng = derive_rng(seed, stream, 0)
        self._fresh = self._rng.bit_generator.state  # counter zero, buffer empty

    def __getitem__(self, t: int) -> np.random.Generator:
        self._fresh["state"]["counter"][2] = t
        self._rng.bit_generator.state = self._fresh
        return self._rng
