"""Seeded draws: numpy's `default_rng(seed)` stream in Python ints.

`_Generator(seed)` gives the draws of `numpy.random.default_rng(seed)`
for the three calls the library makes, bit for bit, without importing
`numpy.random`:

- the seed's 32-bit words are hashed into a pool of four and expanded to
  the 128-bit state and increment as `SeedSequence(seed).generate_state(4,
  uint64)` does (O'Neill's seed_seq hash, as numpy adapts it);
- `PCG64` steps the 128-bit LCG and outputs XSL-RR 64-bit words
  (O'Neill, "PCG: a family of simple fast space-efficient statistically
  good algorithms for random number generation", 2014);
- `random()` is (next64 >> 11) 2^-53 and `uniform(lo, hi)` is
  lo + (hi - lo) random(), both in float64 as numpy rounds them;
- `integers(n)`, 1 <= n < 2^32, is Lemire's bounded draw (ACM TOMACS 29,
  2019) on 32-bit half-words, each 64-bit output giving its low half and
  then, at the next 32-bit draw, its high half; `random()` leaves a
  buffered high half in place, as numpy's `Generator` does.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Union

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
# SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_state(seed: int) -> List[int]:
    """SeedSequence(seed).generate_state(4, uint64) as four Python ints."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(value))
    hash_const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]  # little-endian pairs


class _Generator:
    """The PCG64 stream of `numpy.random.default_rng(seed)`: random, uniform, integers."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        s0, s1, s2, s3 = _seed_state(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self._state = (self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc & _M128
        self._half: Optional[int] = None  # the buffered high half of the last 32-bit draw

    def _next64(self) -> int:
        self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float,
                size: Optional[int] = None) -> Union[float, List[float]]:
        lo, span = float(lo), float(hi) - float(lo)
        if size is None:
            return lo + span * self.random()
        return [lo + span * self.random() for _ in range(size)]

    def integers(self, n: int) -> int:
        """Uniform on 0 <= x < n, 1 <= n < 2^32."""
        if not 1 <= n <= _M32:
            raise ValueError("integers(n) needs 1 <= n < 2^32")
        if n == 1:  # numpy draws nothing for a range of one
            return 0
        m = self._next32() * n
        if m & _M32 < n:
            threshold = (1 << 32) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return m >> 32
