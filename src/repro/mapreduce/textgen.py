"""Synthetic text corpus generation.

The paper's MapReduce dataset is 15 million Reddit comments. We substitute
a token stream with the statistical properties that matter for WordCount
and Grep: a large vocabulary with Zipfian word frequencies (a few very hot
words, a long tail). Text is dictionary-encoded — each element of the
corpus array is one word token.
"""

import numpy as np

from repro.errors import ConfigError
from repro.sim.rng import make_rng

#: Guide-table bins. A power of two, so ``u * GUIDE_BINS`` is exact.
GUIDE_BINS = 1 << 16
#: Draws per chunk; bounds the sampler's temporaries to a few hundred KiB.
CHUNK = 1 << 16


def inverse_cdf_sampler(cdf):
    """Return ``sample(u)``: ``np.searchsorted(cdf, u)`` for draws in [0, 1).

    The last entry of a copy of ``cdf`` is pinned to 1.0, so every draw
    maps into ``[0, len(cdf))`` even when the float cumulative sum ends a
    few ulps short of 1.0; draws below the old end map as before.

    The lookup is exact. Bin ``b = int(u * GUIDE_BINS)`` satisfies
    ``b / GUIDE_BINS <= u < (b + 1) / GUIDE_BINS`` because scaling by a
    power of two rounds nothing. ``guide[b]`` is the first entry with
    ``cdf[i] >= b / GUIDE_BINS``, so the answer lies in
    ``[guide[b], guide[b + 1]]``; ``guide[GUIDE_BINS]`` exists because of
    the pinned end. Most draws stop at ``guide[b]``. The rest are bisected
    within their bin, in as many rounds as the widest bin needs, so a bin
    holding many tail entries costs log steps, not one step per entry.
    """
    cdf = np.append(cdf[:-1], 1.0)
    guide = np.searchsorted(cdf, np.arange(GUIDE_BINS + 1) / GUIDE_BINS)
    rounds = int(np.diff(guide).max()).bit_length()

    def sample(u):
        bins = (u * GUIDE_BINS).astype(np.intp)
        idx = guide[bins]
        late = np.flatnonzero(cdf[idx] < u)
        lo, hi, u_late = idx[late] + 1, guide[bins[late] + 1], u[late]
        for _ in range(rounds):
            mid = (lo + hi) >> 1
            below = cdf[mid] < u_late
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        idx[late] = lo
        return idx

    return sample


def make_corpus(n_tokens, vocabulary=50_000, skew=1.1, seed=2022):
    """Generate a Zipfian token stream (int32 array).

    ``skew`` is the Zipf exponent; 1.0-1.2 matches natural language.
    Tokens are inverse-CDF samples of ``rng.random(n_tokens)``, looked up
    through a guide table (``inverse_cdf_sampler``) in chunks of ``CHUNK``
    draws: deterministic, and the tokens a binary search of the CDF gives.
    """
    if n_tokens < 1:
        raise ConfigError(f"n_tokens must be positive, got {n_tokens}")
    if vocabulary < 2:
        raise ConfigError(f"vocabulary must be at least 2, got {vocabulary}")
    rng = make_rng(seed)
    ranks = np.arange(1, vocabulary + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    sample = inverse_cdf_sampler(np.cumsum(weights))
    tokens = np.empty(n_tokens, dtype=np.int32)
    # Successive ``rng.random(k)`` calls continue one stream of doubles.
    for start in range(0, n_tokens, CHUNK):
        stop = min(start + CHUNK, n_tokens)
        tokens[start:stop] = sample(rng.random(stop - start))
    return tokens
