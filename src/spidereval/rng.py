"""Deterministic RNG substream derivation.

All randomness in the toolkit flows through :func:`substream`, which derives
an independent generator from ``(master_seed, purpose_tag, *indices)`` via
SHA-256. The generator is numpy's PCG64 (a 64-bit permuted-congruential
scheme), so identical seeds produce identical streams on every platform and
regardless of how work is scheduled across threads.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["check_seed", "substream_seed", "substream"]

_DOMAIN = b"spidereval.rng.v1"
# Integer parts, the master seed included, are encoded as signed 128-bit.
_INT_MIN, _INT_MAX = -(2**127), 2**127 - 1


def check_seed(seed: int) -> int:
    """Return ``seed`` if a substream can be keyed by it, else raise ValueError."""
    if not _INT_MIN <= seed <= _INT_MAX:
        raise ValueError(f"seed must lie in [-2**127, 2**127 - 1], got {seed}")
    return seed


def _encode(part: int | str) -> bytes:
    # Type-tagged, length-prefixed encoding so ("ab", 1) != ("a", "b1").
    if isinstance(part, bool):
        raise TypeError("bool is not a valid substream part")
    if isinstance(part, int):
        raw = part.to_bytes(16, "little", signed=True)
        tag = b"i"
    elif isinstance(part, str):
        raw = part.encode("utf-8")
        tag = b"s"
    else:
        raise TypeError(f"unsupported substream part type: {type(part)!r}")
    return tag + len(raw).to_bytes(4, "little") + raw


def substream_seed(master_seed: int, *parts: int | str) -> int:
    """Derive a 128-bit seed from a master seed, a purpose tag, and indices."""
    h = hashlib.sha256(_DOMAIN)
    h.update(_encode(master_seed))
    for part in parts:
        h.update(_encode(part))
    return int.from_bytes(h.digest()[:16], "little")


def substream(master_seed: int, *parts: int | str) -> np.random.Generator:
    """A PCG64 generator keyed by ``(master_seed, *parts)``.

    Streams with distinct keys are statistically independent; the same key
    always yields the same stream.
    """
    return np.random.default_rng(substream_seed(master_seed, *parts))
