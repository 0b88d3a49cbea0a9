"""Deterministic RNG stream derivation.

Every source of randomness in the package draws from a stream derived from
(seed, *labels).  String labels are hashed with crc32, so the mapping is
stable across processes and Python versions.  Two calls with the same seed
and labels always produce generators with identical output, and each
component draws from its own stream, which keeps e.g. weight
initialisation unaffected by how many batches another component consumed.

Different label tuples do not always give different streams.  The entropy
is the list of 32-bit words [seed, code, ...], so these collide:

- a trailing zero index adds nothing: ``rng_for(3, "gnf")`` is
  ``rng_for(3, "gnf", 0)``;
- a seed or index of 2**32 or more spills into a second word:
  ``rng_for(2**32)`` is ``rng_for(0, 1)``;
- a name and its crc32 code given as an index are the same label.

The package's own labels avoid all three: every stream is named by its
own string, the only indices (GNF instance numbers) always follow their
stream's name, and no label reaches 2**32.  Seeds are not capped.
"""

from __future__ import annotations

import zlib

import numpy as np


def _label_code(label: str | int) -> int:
    if isinstance(label, int):
        if label < 0:
            raise ValueError(f"negative label {label} cannot seed a stream")
        return label
    return zlib.crc32(label.encode("utf-8"))


def rng_for(seed: int, *labels: str | int) -> np.random.Generator:
    """Return a fresh Generator for the stream named by (seed, *labels)."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    entropy = [seed] + [_label_code(l) for l in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))
