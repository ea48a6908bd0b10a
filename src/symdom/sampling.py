"""Seeded random points, boundary samples and commuting test tuples, and
the seeded stream they draw from.

``Stream(seed)`` gives bit for bit the doubles of numpy's
``np.random.default_rng(seed)`` for the two calls symdom makes,
``standard_normal(size)`` and ``uniform(low, high, size)``, without
importing ``numpy.random``: that import loads ``secrets``, ``hmac`` and
``hashlib`` and with them OpenSSL.  The parts are numpy's:

- seeding: ``SeedSequence``'s 32-bit pool mixing of the seed's words and
  ``generate_state(4, uint64)``, then PCG64's ``srandom`` (state 0,
  increment 2 initseq + 1, one step, add initstate, one step);
- words: each draw steps the 128-bit LCG s -> a s + inc in Python ints and
  returns the XSL-RR of the new state;
- doubles: (w >> 11) 2^-53, and ``uniform`` is low + (high - low) times one;
- normals: the 256-layer ziggurat, with its wedge and idx-0 tail, on the
  tables of ``ziggurat``, decoded on the first normal draw.

The samplers below take any object with those two methods, so a numpy
``Generator`` works in their place.
"""

from __future__ import annotations

import binascii
import functools
import math
import operator

import numpy as np

from .domains import DomainSpec, spectral_norm
from .errors import ValidationError

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier
ZIGGURAT_R = 3.6541528853610087963519472518  # start of the tail
ZIGGURAT_INV_R = 0.27366123732975827203338247596
TO_DOUBLE = 1.0 / 9007199254740992.0  # 2^-53


def _seed_state(seed: int) -> tuple[int, int]:
    """(initstate, initseq): numpy's ``SeedSequence(seed).generate_state(4,
    np.uint64)`` read as two 128-bit numbers, high word first."""
    if seed < 0:
        raise ValueError("expected a non-negative seed")
    entropy = [seed & MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & MASK32
        value = (value * hash_const) & MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & MASK32
        value = (value * hash_const) & MASK32
        halves.append(value ^ (value >> 16))
    w = [halves[2 * i] | (halves[2 * i + 1] << 32) for i in range(4)]
    return (w[0] << 64) | w[1], (w[2] << 64) | w[3]


@functools.lru_cache(maxsize=None)
def _tables() -> tuple[list[int], list[float], list[float]]:
    """numpy's ziggurat tables ki, wi and fi."""
    from .ziggurat import TABLES

    raw = binascii.a2b_base64(TABLES)
    return tuple(
        np.frombuffer(raw, fmt, 256, 2048 * i).tolist()
        for i, fmt in enumerate(("<u8", "<f8", "<f8"))
    )


def _double(word: int) -> float:
    return (word >> 11) * TO_DOUBLE


def _normal(word: int, take, tables) -> float:
    """numpy's ``random_standard_normal`` from its first word; ``take()``
    returns the stream's next word."""
    ki, wi, fi = tables
    while True:
        idx = word & 0xFF
        rabs = (word >> 9) & 0x000FFFFFFFFFFFFF
        x = rabs * wi[idx]
        if (word >> 8) & 1:
            x = -x
        if rabs < ki[idx]:
            return x
        if idx == 0:  # the tail beyond ZIGGURAT_R
            while True:
                xx = -ZIGGURAT_INV_R * math.log1p(-_double(take()))
                yy = -math.log1p(-_double(take()))
                if yy + yy > xx * xx:
                    return -(ZIGGURAT_R + xx) if (rabs >> 8) & 1 else ZIGGURAT_R + xx
        if (fi[idx - 1] - fi[idx]) * _double(take()) + fi[idx] < math.exp(-0.5 * x * x):
            return x
        word = take()


class Stream:
    """The draws of ``np.random.default_rng(seed)``, bit for bit, for
    ``standard_normal`` and ``uniform`` (scalar bounds)."""

    def __init__(self, seed: int):
        initstate, initseq = _seed_state(operator.index(seed))
        self._inc = ((initseq << 1) | 1) & MASK128
        self._state = ((self._inc + initstate) * PCG_MULT + self._inc) & MASK128

    def standard_normal(self, size=None):
        tables = _tables()
        return self._fill(lambda: _normal(self._word(), self._word, tables), size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        low, high = float(low), float(high)
        scale = high - low
        return self._fill(lambda: low + scale * _double(self._word()), size)

    @staticmethod
    def _fill(draw, size):
        """``draw()`` for ``size=None``, else an array of shape ``size`` of
        draws in C order."""
        if size is None:
            return draw()
        out = np.empty(size)
        out.reshape(-1)[:] = [draw() for _ in range(out.size)]
        return out

    def _word(self) -> int:
        """The next word."""
        self._state = s = (self._state * PCG_MULT + self._inc) & MASK128
        x = ((s >> 64) ^ s) & MASK64
        rot = s >> 122
        return ((x >> rot) | (x << ((64 - rot) & 63))) & MASK64


def random_point(
    dom: DomainSpec, rng: Stream, max_norm: float = 0.9
) -> np.ndarray:
    """A random point with spectral norm uniformly below ``max_norm``."""
    raw = rng.standard_normal(dom.dim) + 1j * rng.standard_normal(dom.dim)
    norm = spectral_norm(dom, raw)
    if norm == 0:
        return raw
    radius = max_norm * rng.uniform(0.05, 0.999)
    return raw * (radius / norm)


def shilov_samples(dom: DomainSpec, count: int, rng: Stream) -> np.ndarray:
    """Points on the Shilov boundary, one flattened point per row.

    ball: unit vectors; polydisc: torus points; matrixball: co-isometries
    (r x c matrices with w w* = I) from the polar part of Gaussian draws.
    The matrix ball takes one (count, 2, r, c) draw (real then imaginary
    part of each sample, the stream order of one draw per sample) and one
    stacked SVD.
    """
    if dom.kind == "ball":
        raw = rng.standard_normal((count, dom.dim)) + 1j * rng.standard_normal(
            (count, dom.dim)
        )
        return raw / np.linalg.norm(raw, axis=1)[:, None]
    if dom.kind == "polydisc":
        return np.exp(2j * np.pi * rng.uniform(size=(count, dom.dim)))
    r, c = dom.rows, dom.cols
    draw = rng.standard_normal((count, 2, r, c))
    u, _, vh = np.linalg.svd(draw[:, 0] + 1j * draw[:, 1], full_matrices=False)
    return (u @ vh).reshape(count, r * c)


def closed_domain_samples(
    dom: DomainSpec, count: int, rng: Stream
) -> np.ndarray:
    """Mix of Shilov-boundary points and interior scalings of them, used to
    lower-bound symbol denominators on the closed domain."""
    boundary = shilov_samples(dom, count // 2, rng)
    interior = shilov_samples(dom, count - count // 2, rng)
    radii = rng.uniform(0.0, 1.0, size=interior.shape[0]) ** (1.0 / max(dom.dim, 1))
    return np.vstack([boundary, interior * radii[:, None]])


def random_commuting_tuple(
    n: int,
    h: int,
    rng: Stream,
    spectral_radius: float = 0.7,
) -> list[np.ndarray]:
    """Commuting n-tuple on C^h built as polynomials of one seed matrix."""
    if n < 1 or h < 1:
        raise ValidationError("need n >= 1 and h >= 1")
    seed = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    radius = max(np.abs(np.linalg.eigvals(seed)))
    if radius > 0:
        seed *= 0.9 / radius
    mats = []
    eye = np.eye(h, dtype=complex)
    for _ in range(n):
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mat = coeffs[0] * 0.2 * eye + coeffs[1] * seed + coeffs[2] * (seed @ seed)
        rho = max(np.abs(np.linalg.eigvals(mat)))
        if rho > 0:
            mat *= spectral_radius * rng.uniform(0.5, 1.0) / rho
        mats.append(mat)
    return mats
