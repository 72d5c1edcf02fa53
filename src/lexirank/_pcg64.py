"""numpy's seeded sampling without replacement, in plain Python.

``choice(seed, n, size)`` returns what
``numpy.random.default_rng(seed).choice(n, size=size, replace=False).tolist()``
returns, in the same order, without importing numpy. It follows numpy's
``SeedSequence``, its PCG64 bit generator (M. E. O'Neill, "PCG: A Family of
Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014: a 128-bit LCG with XSL-RR output), the 32-bit Lemire
bounded draw and the two branches of ``Generator.choice``. numpy does not
promise that ``Generator`` streams stay the same across its versions
(NEP 19), so a test compares this port with the installed numpy.
"""

from typing import Iterator

from .errors import ValidationError

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash(value: int, const: int, mult: int) -> tuple[int, int]:
    """``SeedSequence``'s hash of one 32-bit word, and the next hash constant."""
    value ^= const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's (initstate, initseq): ``SeedSequence(seed).generate_state(4, uint64)``."""
    entropy = [seed & _M32]  # 32-bit words, least significant first
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    const = 0x43B0D7E5
    pool = [0] * 4
    for i in range(4):
        pool[i], const = _hash(entropy[i] if i < len(entropy) else 0, const, 0x931E8875)
    # Each pool word is mixed into the others, then each later entropy word into all.
    mixes = [(pool, src, dst) for src in range(4) for dst in range(4) if src != dst]
    mixes += [(entropy, src, dst) for src in range(4, len(entropy)) for dst in range(4)]
    for words, src, dst in mixes:
        word, const = _hash(words[src], const, 0x931E8875)
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * word) & _M32
        pool[dst] = mixed ^ mixed >> 16
    const = 0x8B51F9DD
    state = [0] * 8
    for i in range(8):
        state[i], const = _hash(pool[i % 4], const, 0x58F38DED)
    wide = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]  # uint64, little-endian
    return wide[0] << 64 | wide[1], wide[2] << 64 | wide[3]


def _words(seed: int) -> Iterator[int]:
    """PCG64's 32-bit outputs: the low half of each 64-bit draw, then the high."""
    initstate, initseq = _seed_state(seed)
    inc = (initseq << 1 | 1) & _M128
    state = ((inc + initstate) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        rot = state >> 122
        xored = (state >> 64 ^ state) & _M64
        out = (xored >> rot | xored << (64 - rot)) & _M64
        yield out & _M32
        yield out >> 32


def _bounded(words: Iterator[int], bound: int) -> int:
    """Lemire's draw from [0, bound] for ``bound < 2**32 - 1``, as numpy does it."""
    if bound == 0:
        return 0
    span = bound + 1
    product = next(words) * span
    if product & _M32 < span:
        threshold = (_M32 - bound) % span
        while product & _M32 < threshold:
            product = next(words) * span
    return product >> 32


def choice(seed: int, n: int, size: int) -> list[int]:
    """``size`` distinct values of ``range(n)``, drawn as numpy's seeded
    ``Generator.choice(n, size, replace=False)`` draws them."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if not 0 <= size <= n < 1 << 32:
        raise ValidationError(f"cannot draw {size} of {n} items")
    words = _words(seed)
    if n <= 10000 or size <= n // 50:  # numpy's choice between its branches
        # Floyd's algorithm, then a shuffle of the whole sample.
        slots, first, taken = [], 1, set()
        for j in range(n - size, n):
            value = _bounded(words, j)
            value = j if value in taken else value
            taken.add(value)
            slots.append(value)
    else:
        # A shuffle of the tail of range(n), which then is the sample.
        slots, first = list(range(n)), max(n - size, 1)
    for i in range(len(slots) - 1, first - 1, -1):
        j = _bounded(words, i)
        slots[i], slots[j] = slots[j], slots[i]
    return slots[len(slots) - size :]
