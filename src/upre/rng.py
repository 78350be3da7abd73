"""Deterministic pseudo-random generator used everywhere in the package.

The generator is SplitMix64 (Steele, Lea & Flood 2014), chosen because it
is trivial to restate in any language and has a single 64-bit state:

    value(i) = mix64(seed + i * 0x9E3779B97F4A7C15)        (i = 1, 2, ...)

    mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
              z ^= z >> 27; z *= 0x94D049BB133111EB
              z ^= z >> 31                                   (mod 2**64)

Uniform doubles take the top 53 bits (``(value >> 11) * 2**-53``) and
normals come from Box-Muller pairs over those uniforms, so two runs with
the same seed produce bit-identical streams.  Independent streams are
derived from a parent seed plus a sequence of string/int keys, each key
folded into the state through ``mix64``.

Counter consumption is part of the contract, because callers lay out a
whole scene's draws in advance and fill them in one pass:

- ``uniform(n)`` and ``raw(n)`` take n counters, one value each.
- ``integers(low, high, n)`` takes n counters; each int is
  ``low + min(floor(u * (high - low)), high - low - 1)`` for its counter's
  uniform u.  ``choice`` and ``int_ahead`` use the same formula, one
  counter per int, and ``bernoulli`` takes one counter.
- ``normal(n)`` takes 2*ceil(n/2) counters: a block of ceil(n/2) values
  for u1, then a block of ceil(n/2) for u2, and gives
  ``concat(r * cos(theta), r * sin(theta))[:n]`` with
  ``r = sqrt(-2 log u1)`` and ``theta = 2 pi u2``, where u1 is shifted to
  ``((value >> 11) + 1) * 2**-53`` in (0, 1] so the log is finite.  An odd
  n drops its last sine.  ``normals`` fills several such blocks laid out
  in one ``raw`` draw through one Box-Muller pass, and ``uniforms`` turns
  raw values into ``uniform`` doubles.

Every transcendental function runs through numpy, element by element, so
a value does not depend on where it sits in a batch.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX_A = np.uint64(_MIX_A)
_U_MIX_B = np.uint64(_MIX_B)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TWO_NEG53 = 2.0 ** -53


def _mix_int(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK
    z ^= z >> 31
    return z


def _mix_array(z: np.ndarray) -> np.ndarray:
    """mix64 in place on a uint64 array."""
    z ^= z >> _S30
    z *= _U_MIX_A
    z ^= z >> _S27
    z *= _U_MIX_B
    z ^= z >> _S31
    return z


def uniforms(raw: np.ndarray) -> np.ndarray:
    """The ``uniform`` doubles of raw values."""
    return (raw >> _S11).astype(np.float64) * _TWO_NEG53


def _below(value: int, span: int) -> int:
    """An int uniform over [0, span) from one raw value: floor(u * span), clamped."""
    return min(math.floor((value >> 11) * _TWO_NEG53 * span), span - 1)


def _box_muller(u1_raw: np.ndarray, u2_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r cos theta, r sin theta) for paired raw values, elementwise."""
    r = (u1_raw >> _S11).astype(np.float64)
    r += 1.0  # u1 in (0, 1] so the log is finite
    r *= _TWO_NEG53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = uniforms(u2_raw)
    theta *= 2.0 * math.pi
    cos = np.cos(theta)
    np.sin(theta, out=theta)
    cos *= r
    theta *= r
    return cos, theta


def normal_counters(n: int) -> int:
    """Counters taken by ``normal(n)``: a u1 block and a u2 block of ceil(n/2)."""
    return 2 * ((n + 1) // 2)


def normals(raw: np.ndarray, blocks) -> list[np.ndarray]:
    """``normal(n)`` for each (offset, n) block laid out in ``raw``.

    A block takes the 2*ceil(n/2) values from ``offset`` that ``normal(n)``
    would take; values outside the blocks are left alone.  All blocks go
    through one Box-Muller pass.
    """
    pairs = [(n + 1) // 2 for _, n in blocks]
    u1 = np.concatenate([raw[o : o + p] for (o, _), p in zip(blocks, pairs)])
    u2 = np.concatenate([raw[o + p : o + 2 * p] for (o, _), p in zip(blocks, pairs)])
    cos, sin = _box_muller(u1, u2)
    out, at = [], 0
    for (_, n), p in zip(blocks, pairs):
        out.append(np.concatenate([cos[at : at + p], sin[at : at + p]])[:n])
        at += p
    return out


def _key_chunks(key) -> list[int]:
    if isinstance(key, bool):
        return [int(key)]
    if isinstance(key, (int, np.integer)):
        return [int(key) & _MASK]
    if isinstance(key, str):
        raw = key.encode("utf-8")
        chunks = [len(raw) & _MASK]
        for off in range(0, len(raw), 8):
            chunks.append(int.from_bytes(raw[off : off + 8], "little"))
        return chunks
    raise TypeError(f"rng keys must be int or str, got {type(key).__name__}")


def derive_seed(seed: int, *keys) -> int:
    """Fold ``keys`` into ``seed`` to name an independent stream."""
    h = _mix_int((seed & _MASK) ^ _GOLDEN)
    for key in keys:
        for chunk in _key_chunks(key):
            h = _mix_int((h + _GOLDEN) ^ chunk)
    return h


class Rng:
    """Counter-based SplitMix64 stream; every draw advances the counter."""

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._counter = 0

    def split(self, *keys) -> "Rng":
        return Rng(derive_seed(self.seed, *keys))

    def raw(self, n: int) -> np.ndarray:
        """The next n raw 64-bit values as uint64."""
        z = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        z *= _U_GOLDEN
        z += np.uint64(self.seed)
        return _mix_array(z)

    def int_ahead(self, offset: int, low: int, high: int) -> int:
        """The ``integers(low, high)`` value ``offset`` counters ahead; the counter does not move."""
        return low + _below(_mix_int(self.seed + (self._counter + offset + 1) * _GOLDEN), high - low)

    def uniform(self, n: int = 1) -> np.ndarray:
        """n doubles in [0, 1)."""
        return uniforms(self.raw(n))

    def normal(self, shape=()) -> np.ndarray:
        """Standard normals via Box-Muller; scalar when shape is ()."""
        if isinstance(shape, int):
            shape = (shape,)
        count = int(np.prod(shape)) if shape else 1
        (z,) = normals(self.raw(normal_counters(count)), [(0, count)])
        return z.reshape(shape) if shape else float(z[0])

    def integers(self, low: int, high: int, n: int = 1) -> np.ndarray:
        """n ints uniform over [low, high); high must exceed low."""
        if high <= low:
            raise ValueError("integers() needs high > low")
        return np.array([low + _below(v, high - low) for v in self.raw(n).tolist()], dtype=np.int64)

    def bernoulli(self, p: float) -> bool:
        """One draw, consuming exactly one stream value."""
        return bool(self.uniform(1)[0] < p)

    def choice(self, n_options: int) -> int:
        return int(self.integers(0, n_options, 1)[0])
