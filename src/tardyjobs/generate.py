"""Deterministic instance generation behind a single 64-bit seed.

The generator is specified precisely enough to reimplement in any language:

* RNG: SplitMix64.  State update ``s += 0x9E3779B97F4A7C15`` (mod 2^64);
  output ``z = s; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EB; return z ^ (z >> 31)``,
  all multiplications mod 2^64.
* ``randint(lo, hi)`` draws one output and reduces it modulo the span
  (the modulo bias is below 2^-32 for all spans used here).
* Draw order: first the ``d_hash`` distinct due dates, each by repeated
  ``randint(1, d_max)`` rejecting duplicates, then sorted ascending;
  then for each job index 0..n-1 in order: ``p = randint(1, p_max)``,
  ``w`` per the distribution, and for job indices >= d_hash one extra
  ``randint(0, d_hash-1)`` picking the due-date slot.  Job index i < d_hash
  takes due-date slot i, which guarantees exactly d_hash distinct due dates.

Distributions: ``uniform`` draws ``w = randint(1, w_max)``;
``subset-sum`` sets ``w = min(p, w_max)`` with no extra draw.

SplitMix64 is counter-based: from state ``s``, the j-th next output
(j = 1, 2, ...) is ``mix(s + j * 0x9E3779B97F4A7C15 mod 2^64)``, with ``mix``
the three output steps above.  So after the due dates, which need the
sequential rejection loop, every job draw is computed at once in one numpy
uint64 pass.  With ``per`` draws of a job besides its slot (2 under
``uniform``, 1 under ``subset-sum``), that pass takes
``per * n + (n - d_hash)`` outputs; job i's first output is at offset
``per * i + max(0, i - d_hash)``, followed by its ``w`` (uniform) and then
its slot (i >= d_hash).  The generator's state then moves on by as many
steps as that many ``next_u64`` calls would take.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .core import Instance, Job

__all__ = ["SplitMix64", "generate_instance", "DISTRIBUTIONS"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

DISTRIBUTIONS = ("uniform", "subset-sum")


class SplitMix64:
    """Tiny, portable 64-bit PRNG; one draw per ``next_u64`` call."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_u64s(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array; the state moves on
        as ``count`` ``next_u64`` calls would move it."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)  # uint64 arrays wrap mod 2^64
        z += np.uint64(self.state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self.state = (self.state + count * _GAMMA) & _MASK64
        return z

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return lo + self.next_u64() % (hi - lo + 1)


def _randints(z: np.ndarray, lo: int, hi: int) -> list[int]:
    """``randint(lo, hi)`` of each output in ``z``, as Python ints; lo is 0 or 1."""
    span = hi - lo + 1
    if span > _MASK64:  # every output is below the span
        return [lo + x for x in z.tolist()]
    return (z % np.uint64(span) + np.uint64(lo)).tolist()


def generate_instance(
    seed: int,
    n: int,
    d_hash: int,
    d_max: int,
    p_max: int = 10,
    w_max: int = 10,
    distribution: str = "uniform",
) -> Instance:
    """Deterministic random instance with exactly d_hash distinct due dates."""
    if n < 1 or d_max < 1 or p_max < 1 or w_max < 1:
        raise ValueError("n, d_max, p_max, w_max must all be >= 1")
    if not 1 <= d_hash <= min(n, d_max):
        raise ValueError(f"d_hash must be in [1, min(n, d_max)] = [1, {min(n, d_max)}], got {d_hash}")
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}")

    rng = SplitMix64(seed)
    dates: list[int] = []
    seen: set[int] = set()
    while len(dates) < d_hash:
        d = rng.randint(1, d_max)
        if d not in seen:
            seen.add(d)
            dates.append(d)
    dates.sort()

    # each job's draws as one row: d_hash rows of per, then rows of per + 1 with the slot last
    per = 2 if distribution == "uniform" else 1
    z = rng.next_u64s(per * n + n - d_hash)
    head = z[: per * d_hash].reshape(d_hash, per)
    tail = z[per * d_hash :].reshape(n - d_hash, per + 1)
    ps = _randints(np.concatenate((head[:, 0], tail[:, 0])), 1, p_max)
    if distribution == "uniform":
        ws = _randints(np.concatenate((head[:, 1], tail[:, 1])), 1, w_max)
    else:  # subset-sum
        ws = [min(p, w_max) for p in ps]
    slots = chain(range(d_hash), _randints(tail[:, per], 0, d_hash - 1))
    return Instance(tuple(Job(i, p, w, dates[slot]) for i, (p, w, slot) in enumerate(zip(ps, ws, slots))))
