"""The stream of ``numpy.random.default_rng(seed)``, bit for bit.

`verify` draws its cases from one PCG64 stream seeded through numpy's
``SeedSequence``.  Loading ``numpy.random`` costs about 6 MB of resident
memory and 10 to 17 ms of import (Python 3.11, numpy 2.4, x86-64) for a
few hundred scalar draws, so this module rebuilds that stream on Python
integers instead:

- ``SeedSequence``: the seed as 32-bit words, hashed into a pool of four
  and mixed, then ``generate_state(4, uint64)``;
- PCG64 (``pcg_setseq_128`` with the XSL-RR output): state 0,
  inc = (initseq << 1) | 1, step, state += initstate, step; each output
  steps, then folds and rotates the new state;
- numpy's two draws that `verify` makes, `uniform` and `integers`.

A `verify` run's 730 or so draws take under 1 ms.  The tests compare
the stream with ``numpy.random.default_rng`` as exact floats and ints,
so ``numpy.random`` stays the oracle.
"""

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit default


def _seed_state(seed: int) -> list:
    """``SeedSequence(seed).generate_state(4, numpy.uint64)`` as ints."""
    if seed < 0:
        raise ValueError("expected non-negative integer, got %d" % seed)
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """``numpy.random.default_rng(seed)``'s `uniform` and `integers`."""

    def __init__(self, seed: int):
        s_high, s_low, i_high, i_low = _seed_state(seed)
        self._inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        # the first step takes state 0 to inc
        self._state = ((self._inc + (s_high << 64 | s_low)) * _MULTIPLIER
                       + self._inc) & _MASK128
        self._half = None   # the unused upper half of a 64-bit output

    def _next64(self) -> int:
        self._state = state = (self._state * _MULTIPLIER
                               + self._inc) & _MASK128
        turn = state >> 122
        value = (state >> 64 ^ state) & _MASK64
        return (value >> turn | value << (64 - turn)) & _MASK64

    def _next_uint32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def uniform(self, low: float, high: float) -> float:
        """low + (high - low) * next_double, as numpy's ``uniform``."""
        low = float(low)
        unit = (self._next64() >> 11) * 2.0 ** -53
        return low + (float(high) - low) * unit

    def integers(self, low: int, high: int) -> int:
        """A draw from [low, high), by numpy's Lemire method on 32 bits.

        Takes 2 <= high - low < 2^32.
        """
        span = high - low - 1
        if not 0 < span < _MASK32:
            raise ValueError("integers takes 2 <= high - low < 2**32, "
                             "got [%d, %d)" % (low, high))
        bound = span + 1
        threshold = (_MASK32 - span) % bound
        product = self._next_uint32() * bound
        while (product & _MASK32) < threshold:
            product = self._next_uint32() * bound
        return low + (product >> 32)
