"""Deterministic random-number management.

Every stochastic component in the library (dataset generation, augmentation,
weight init, dropout, training shuffles) draws from an explicit
``numpy.random.Generator`` so that experiments are reproducible end to end.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = ["seeded_rng", "set_global_seed", "RawIntegers"]


def seeded_rng(seed: int | None) -> np.random.Generator:
    """Return a fresh PCG64 generator for ``seed`` (fresh entropy if None)."""
    return np.random.default_rng(seed)


def set_global_seed(seed: int) -> None:
    """Seed python's and numpy's legacy global RNGs (used by networkx)."""
    random.seed(seed)
    np.random.seed(seed % (2 ** 32))


_MASK32 = 0xFFFFFFFF
_WORDS_PER_PULL = 32


class RawIntegers:
    """``rng.integers(0, k)`` for many scalar ``k``, without numpy per draw.

    A scalar ``Generator.integers`` call spends microseconds on argument
    handling, and a random walk makes dozens per graph.  On a ``PCG64`` stream
    this replays numpy's sampler in plain Python on raw words pulled in
    blocks: each draw takes the next 32-bit half (low half of a word first,
    as ``next_uint32`` does, starting with a half the generator already
    buffered) and applies Lemire's rejection (``m = half * k``; accept
    unless ``m mod 2**32 < (2**32 - k) % k``; the draw is ``m >> 32``).
    On exit the stream is left exactly where the same ``integers`` calls
    would have left it, buffered half included.  Any other bit generator
    is simply called through ``rng.integers``.

    Use as a context manager; ``draw(k)`` equals ``int(rng.integers(0, k))``
    and draws nothing when ``k == 1``, as numpy does::

        with RawIntegers(rng) as draw:
            start = draw(num_nodes)
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._bitgen = rng.bit_generator
        self._raw = type(self._bitgen) is np.random.PCG64

    def __enter__(self):
        if not self._raw:
            return lambda k: int(self._rng.integers(0, k))
        self._begin()
        return self.draw

    def __exit__(self, *exc) -> None:
        if self._raw:
            self._sync()

    def _begin(self) -> None:
        state = self._bitgen.state
        # Halves in draw order; ``_used`` of them consumed so far.
        self._halves = [state["uinteger"]] if state["has_uint32"] else []
        self._buffered = len(self._halves)
        self._used = 0
        self._pulled = 0          # words taken with ``random_raw``

    def _sync(self) -> None:
        """Put the bit generator where the draws so far leave numpy's."""
        from_words = self._used - self._buffered
        if from_words > 0:
            words = (from_words + 1) // 2
            # Rewind to just before the last word the draws touched ...
            self._bitgen.advance(words - 1 - self._pulled)
            replay = from_words - 2 * (words - 1)
        else:
            replay = self._used   # 1 if the buffered half was spent
        # ... and take its halves through numpy's ``next_uint32`` (one per
        # float32 draw), which sets the half-word buffer as the integers
        # calls did, stale value included.
        for _ in range(replay):
            self._rng.random(dtype=np.float32)
        self._halves, self._buffered, self._used, self._pulled = [], 0, 0, 0

    def _pull(self) -> None:
        words = self._bitgen.random_raw(_WORDS_PER_PULL)
        # Little-endian 32-bit view: low half, then high half, per word.
        self._halves += np.asarray(words, dtype="<u8").view("<u4").tolist()
        self._pulled += _WORDS_PER_PULL

    def draw(self, k: int) -> int:
        """One ``int(rng.integers(0, k))``."""
        if k == 1:
            return 0
        if not 1 < k <= 0x100000000:
            # Outside numpy's 32-bit path: hand over to numpy itself.
            self._sync()
            value = int(self._rng.integers(0, k))
            self._begin()
            return value
        limit = (0x100000000 - k) % k
        halves = self._halves
        while True:
            if self._used == len(halves):
                self._pull()
            m = halves[self._used] * k
            self._used += 1
            if (m & _MASK32) >= limit:
                return m >> 32
