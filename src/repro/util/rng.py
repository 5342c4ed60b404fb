"""Deterministic, named random-number streams.

Every stochastic component of the reproduction (phantom geometry,
X-ray noise, execution jitter, ...) draws from its own *named* stream
derived from a root seed.  Streams are independent of each other and
of the order in which components execute, so adding a consumer never
perturbs existing experiments -- the property that makes every figure
in EXPERIMENTS.md reproducible bit-for-bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["rng_stream", "spawn_seeds"]


def _key_entropy(*keys: object) -> list[int]:
    """Hash a tuple of keys into SeedSequence entropy words."""
    h = hashlib.sha256()
    for key in keys:
        h.update(repr(key).encode("utf-8"))
        h.update(b"\x1f")  # separator so ("ab",) != ("a", "b")
    digest = h.digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def rng_stream(root_seed: int, *keys: object) -> np.random.Generator:
    """Return an independent Generator for ``(root_seed, *keys)``.

    Parameters
    ----------
    root_seed:
        Experiment-level seed (one per experiment run).
    *keys:
        Any hashable/reprable identifiers naming the consumer, e.g.
        ``rng_stream(42, "noise", seq_id, frame_idx)``.

    The same ``(root_seed, keys)`` always yields a generator producing
    the same sequence, regardless of platform or call order.
    """
    seq = np.random.SeedSequence([int(root_seed) & 0xFFFFFFFF, *_key_entropy(*keys)])
    return np.random.default_rng(seq)


def spawn_seeds(root_seed: int, n: int, *keys: object) -> list[int]:
    """Derive ``n`` child integer seeds from a named stream.

    Useful when a corpus of sequences each needs its own root seed.
    """
    rng = rng_stream(root_seed, "spawn", *keys)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]
