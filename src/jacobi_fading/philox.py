"""Counter-based keyed random streams for reproducible parallel Monte Carlo.

Every trial of an experiment owns a private stream addressed by
``(master_seed, experiment tag, trial index)``: the seed and tag are hashed
into a 128-bit Philox-4x64 key, and trial ``t`` of an experiment drawing
``B`` Philox blocks (4 words each) per trial reads the contiguous block
range ``[t*B, (t+1)*B)`` of the ``numpy.random.Philox`` stream under that
key (numpy increments its counter before each block, so block ``b`` sits
at counter ``b + 1``).  Draws for a whole batch of trials are therefore one
native call and a pure function of those coordinates, independent of
worker count, scheduling, or which trials were drawn before.

Gaussian variates are derived by Box-Muller so that each trial consumes a
fixed, position-addressable number of counter words.
"""

from __future__ import annotations

import hashlib

import numpy as np

_TWO_M53 = 2.0 ** -53


def stream_key(master_seed: int, tag: str) -> tuple[int, int]:
    """Derive the 128-bit Philox key for an experiment from seed and tag."""
    digest = hashlib.blake2s(f"{master_seed}|{tag}".encode(), digest_size=16).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little"),
    )


def _trial_words(key: tuple[int, int], lo: int, hi: int, words_per_trial: int) -> np.ndarray:
    """Philox blocks for trials [lo, hi), shape (hi-lo, 4B), a fresh buffer.

    Trial ``t`` owns the ``B = ceil(words_per_trial / 4)`` blocks starting
    at block ``t*B``, so the streams of distinct trials never overlap; its
    words are the first words_per_trial of its row, the rest padding.
    """
    blocks = (words_per_trial + 3) // 4
    # a uint64 array: numpy reads a tuple of ints >= 2**63 through float64
    bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64), counter=lo * blocks)
    return bitgen.random_raw((hi - lo) * blocks * 4).reshape(hi - lo, blocks * 4)


def uniforms(key: tuple[int, int], lo: int, hi: int, n: int) -> np.ndarray:
    """Per-trial uniforms in (0, 1], shape (hi-lo, n)."""
    words = _trial_words(key, lo, hi, n)  # shifted in place, padding too: contiguous passes
    words >>= np.uint64(11)
    words += np.uint64(1)
    return np.multiply(words[:, :n], _TWO_M53)  # one float64 array; each word converts exactly


def complex_normals(key: tuple[int, int], lo: int, hi: int, n: int) -> np.ndarray:
    """Per-trial standard complex normals CN(0, 1), shape (hi-lo, n).

    Each value consumes exactly two counter words (one Box-Muller pair),
    keeping trial streams position-addressable.
    """
    u = uniforms(key, lo, hi, 2 * n)
    u1 = u[:, 0::2]
    u2 = u[:, 1::2]
    radius = np.sqrt(-np.log(u1))  # |CN(0,1)| is Rayleigh with E|z|^2 = 1
    return radius * np.exp(2j * np.pi * u2)
