"""Deterministic sub-seed derivation.

Every experiment owns a single root seed. Anything that needs randomness
(per-run streams, observation noise, feature banks) derives its own seed
from the root plus a path of labels, so runs can execute in parallel and
still reproduce bit-identically in any order.

The rule: the tokens ``(root, *path)`` are encoded as one list of 32-bit
words and handed to ``numpy.random.SeedSequence`` as its entropy:

- first word: the number of tokens;
- then, per token, three words: a type tag (0 for an integer, 1 for a
  string) and the token's 64-bit value, low word first.

An integer token is its own value and must lie in ``[0, 2**64)``; anything
else raises ``ValueError`` rather than being wrapped onto another value. A
string token's value is the first 8 bytes of its blake2s digest (stable
across platforms and Python processes, unlike ``hash()``). Every token has
the same width and the length comes first, so no two distinct paths share
an encoding: a trailing ``0`` is not the same as no token, a wide integer
cannot pass for two small ones, and ``0`` is not ``"0"``. Distinct strings
collide only if their 64-bit digests do.
"""

from __future__ import annotations

import hashlib

import numpy as np

_INT_TAG = 0
_STR_TAG = 1
_WORD = (1 << 32) - 1


def _token_words(token: int | str) -> tuple[int, int, int]:
    if isinstance(token, (int, np.integer)):
        value = int(token)
        if not 0 <= value < 1 << 64:
            raise ValueError(f"integer seed token must lie in [0, 2**64), got {value}")
        tag = _INT_TAG
    elif isinstance(token, str):
        digest = hashlib.blake2s(token.encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        tag = _STR_TAG
    else:
        raise TypeError(f"seed tokens must be int or str, got {type(token).__name__}")
    return tag, value & _WORD, value >> 32


def derive_seed(root: int, *path: int | str) -> int:
    """Map (root, *path) to a stable 64-bit seed. Distinct paths hand
    ``SeedSequence`` distinct entropy (see the module docstring)."""
    tokens = (root, *path)
    words = [len(tokens)]
    for token in tokens:
        words.extend(_token_words(token))
    ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
