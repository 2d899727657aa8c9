"""Deterministic random streams derived from a master seed.

All randomness in the simulator flows through `stream`, which hashes a
(seed, *path) tuple into a Philox key. Philox is counter-based, so streams
are independent of each other and of draw order elsewhere in the program:
two streams with different paths never share state, and re-deriving the
same path always yields the same sequence. Stream paths are keyed by
purpose and logical identity (round, epoch, partition part, class label),
never by execution order, which makes runs bit-reproducible and
independent of the order clients train in.

The four client training streams, "train-eps", "eval-eps",
"train-nonedges" and "eval-nonedges", carry the round (and epoch) but not
the client id: every client of a round reads the same latent noise, and
each client's non-edge draw starts from the start of the same stream.
Keying them by client id is the first step of the ROADMAP item "Make
the semantic channel carry shared knowledge to the classifier".
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, *path: object) -> np.random.Generator:
    """Return an independent Generator for the given seed and path.

    Path elements must have stable reprs (ints and strings in practice).
    """
    return np.random.Generator(np.random.Philox(key=spawn_key(seed, *path)))


def spawn_key(seed: int, *path: object) -> int:
    """The Philox key of `stream(seed, *path)`: the first 16 bytes, little
    endian, of the SHA-256 digest of the path's repr."""
    token = repr((int(seed),) + tuple(path)).encode("utf-8")
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:16], "little")
