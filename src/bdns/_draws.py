"""The seeded draws of the manufactured and test fields: numpy's
``default_rng(seed)`` stream, reproduced bit for bit without ``numpy.random``.

``_Draws(seed)`` seeds PCG64 (XSL-RR 128/64: O'Neill, *PCG*, HMC-CS-2014-0905)
through numpy's SeedSequence and offers the two Generator methods the fields
call, ``uniform`` and int64 ``integers``, with numpy's algorithms.  The fields
thus keep the values they had under numpy 2.x's Generator, whatever numpy's
version, and no bdns path imports ``numpy.random`` (which brings ``secrets``,
``hashlib`` and OpenSSL with it: about 6 MB of resident memory).
"""

from __future__ import annotations

import operator

import numpy as np

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64): the seed's 32-bit words,
    least significant first, mixed into a pool of four words, which is then
    hashed out as eight words and paired little-endian."""
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:  # a seed of 2**128 or more
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _count(size) -> int:
    n = operator.index(size)
    if n < 0:
        raise ValueError(f"negative dimensions are not allowed, got size {n}")
    return n


class _Draws:
    """numpy's ``default_rng(seed)`` for a non-negative integer seed, reduced
    to the draws the fields make."""

    def __init__(self, seed: int):
        seed = operator.index(seed)  # a float is a TypeError, as for numpy
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        s_hi, s_lo, i_hi, i_lo = _seed_state(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self._state = 0
        self._step()
        self._state += s_hi << 64 | s_lo
        self._step()
        self._half = None  # the high half of a 64-bit draw that _next32 split

    def _step(self):
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def _next64(self) -> int:
        self._step()
        rot, x = self._state >> 122, (self._state >> 64 ^ self._state) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def uniform(self, low: float, high: float, size: int | None = None):
        """A float in [low, high), or a float64 array of ``size`` of them:
        low + (high - low) U, where U takes the top 53 bits of a 64-bit draw
        (which leaves a split 32-bit draw's other half for ``integers``)."""
        if size is not None:
            return np.array([self.uniform(low, high) for _ in range(_count(size))])
        low, high = float(low), float(high)
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        """``size`` int64 draws in [low, high), by Lemire's multiply-and-reject
        on 32-bit draws when high - 1 - low < 2**32 and on 64-bit draws above.
        Its range 2**32 - 1 takes bare 32-bit draws, as numpy's does: the
        multiply is then a shift and nothing is rejected."""
        low, high = int(low), int(high) - 1  # a closed interval from here
        if low < -2**63:
            raise ValueError("low is out of bounds for int64")
        if high > 2**63 - 1:
            raise ValueError("high is out of bounds for int64")
        if low > high:
            raise ValueError("low >= high")
        n, span = _count(size), high - low
        if span == 0:
            return np.full(n, low, dtype=np.int64)
        bits, draw = (32, self._next32) if span <= _M32 else (64, self._next64)
        mask, excl = (1 << bits) - 1, span + 1
        threshold = (mask - span) % excl
        out = []
        for _ in range(n):
            m = draw() * excl
            while (m & mask) < threshold:
                m = draw() * excl
            out.append(low + (m >> bits))
        return np.array(out, dtype=np.int64)
