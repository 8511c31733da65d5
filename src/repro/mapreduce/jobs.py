"""MapReduce jobs: WordCount and Grep (the paper's two benchmarks)."""

import numpy as np


class CountingJob:
    """Reduce and merge shared by jobs whose records are (key, count)."""

    def reduce(self, keys, values):
        """``{key: summed values}`` in ascending key order, sums as ints.

        Keeps one bin per key from ``keys.min()`` to ``keys.max()``, so keys
        should be dictionary ids (token ids span the vocabulary). Each bin
        sums its values in input order; a key whose values sum to 0 stays.
        """
        if len(keys) == 0:
            return {}
        k0 = keys.min()
        offsets = keys - k0
        present = np.flatnonzero(np.bincount(offsets))
        sums = np.bincount(offsets, weights=values)[present].astype(np.int64)
        return dict(zip((present + k0).tolist(), sums.tolist()))

    def merge(self, partials):
        merged = {}
        for partial in partials:
            for key, count in partial.items():
                merged[key] = merged.get(key, 0) + count
        return merged


class WordCountJob(CountingJob):
    """Count occurrences of every word token.

    Every input token emits one (token, 1) record — the maximal shuffle
    volume, which is why WordCount's map phase is the DDC bottleneck
    (Figure 10, right group).
    """

    name = "WordCount"
    map_ops_per_token = 15  # tokenisation + key-value construction
    reduce_ops_per_record = 6
    #: Each emitted record carries just a count.
    value_bytes_per_record = 8

    def map_compute(self, tokens):
        return tokens.astype(np.int64), np.ones(len(tokens), dtype=np.int64)


class GrepJob(CountingJob):
    """Find occurrences of a token pattern.

    Only matching tokens emit records, so the shuffle is small and the map
    phase is compute-heavy (pattern matching per token) — the contrast
    with WordCount that Figure 13 shows as different speedups.
    """

    name = "Grep"
    map_ops_per_token = 12  # pattern matching is pricier than counting
    reduce_ops_per_record = 2
    #: Each match ships the whole matching line to its reducer.
    value_bytes_per_record = 160

    def __init__(self, pattern_tokens):
        self.pattern_tokens = np.asarray(sorted(pattern_tokens), dtype=np.int64)

    def map_compute(self, tokens):
        mask = np.isin(tokens, self.pattern_tokens)
        matches = tokens[mask].astype(np.int64)
        return matches, np.ones(len(matches), dtype=np.int64)
