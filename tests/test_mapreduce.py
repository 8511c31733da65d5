"""Tests for the MapReduce engine, jobs, and corpus generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddc import make_platform
from repro.ddc.phases import PhaseRunner
from repro.errors import ConfigError, ReproError
from repro.mapreduce import GrepJob, MapReduceEngine, WordCountJob, make_corpus
from repro.mapreduce.textgen import CHUNK, GUIDE_BINS, inverse_cdf_sampler
from repro.sim.config import DdcConfig
from repro.sim.units import KIB, MIB


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(200_000, vocabulary=5_000, seed=9)


@pytest.fixture(scope="module")
def reference_counts(corpus):
    return np.bincount(corpus, minlength=5_000)


def zipf_cdf(vocabulary, skew):
    """The corpus generator's cumulative Zipf weights, unpinned."""
    ranks = np.arange(1, vocabulary + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    return np.cumsum(weights)


def reference_corpus(n_tokens, vocabulary, skew, seed):
    """The binary-search sampler, on the CDF with its end pinned to 1.0."""
    cdf = zipf_cdf(vocabulary, skew)
    cdf[-1] = 1.0
    draws = np.random.default_rng(seed).random(n_tokens)
    return np.searchsorted(cdf, draws).astype(np.int32)


def reference_reduce(keys, values):
    """The sort-based reduce: ``np.unique`` then a weighted bincount."""
    if len(keys) == 0:
        return {}
    unique, inverse = np.unique(keys, return_inverse=True)
    counts = np.bincount(inverse, weights=values).astype(np.int64)
    return dict(zip(unique.tolist(), counts.tolist()))


def assert_sampler_matches_searchsorted(cdf, draws):
    """In range everywhere; ``searchsorted`` wherever that is in range."""
    cdf = np.asarray(cdf, dtype=np.float64)
    draws = np.asarray(draws, dtype=np.float64)
    got = inverse_cdf_sampler(cdf)(draws)
    want = np.searchsorted(cdf, draws)
    assert got.min(initial=0) >= 0
    assert got.max(initial=0) < len(cdf)
    in_range = want < len(cdf)
    np.testing.assert_array_equal(got[in_range], want[in_range])
    # Draws at or past a short end fall in the last rank.
    assert (got[~in_range] == len(cdf) - 1).all()


def make_engine(corpus, kind="local", pushdown=(), config=None, **kwargs):
    platform = make_platform(kind, config or DdcConfig(compute_cache_bytes=1 * MIB))
    ctx = platform.main_context()
    return MapReduceEngine(ctx, corpus, pushdown=pushdown, **kwargs), platform


class TestTextgen:
    def test_tokens_in_vocabulary(self, corpus):
        assert corpus.min() >= 0
        assert corpus.max() < 5_000

    def test_zipfian_skew(self, reference_counts):
        # The hottest word is far hotter than the median word.
        assert reference_counts.max() > 50 * max(1, np.median(reference_counts))

    def test_deterministic(self):
        assert (make_corpus(1000, seed=1) == make_corpus(1000, seed=1)).all()
        assert not (make_corpus(1000, seed=1) == make_corpus(1000, seed=2)).all()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            make_corpus(0)
        with pytest.raises(ConfigError):
            make_corpus(10, vocabulary=1)

    @pytest.mark.parametrize("vocabulary,skew", [
        (2, 1.1), (3, 0.5), (1_000, 1.1), (1_000, 2.0),
        (20_000, 1.1), (20_000, 0.5), (50_000, 1.1), (50_000, 2.0),
    ])
    def test_equals_binary_search(self, vocabulary, skew):
        sizes = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17)
        for n_tokens in sizes:
            for seed in (1, 7, 2022):
                tokens = make_corpus(n_tokens, vocabulary=vocabulary, skew=skew, seed=seed)
                assert tokens.dtype == np.int32
                np.testing.assert_array_equal(
                    tokens, reference_corpus(n_tokens, vocabulary, skew, seed))

    def test_guide_bins_scale_exactly(self):
        """The exactness argument needs ``u * GUIDE_BINS`` to round nothing."""
        assert GUIDE_BINS & (GUIDE_BINS - 1) == 0

    def test_short_cdf_end_stays_in_vocabulary(self):
        """The float cumulative sum can end below 1.0 (here by ~5.6e-16)."""
        cdf = zipf_cdf(1_000, 1.1)
        assert cdf[-1] < 1.0
        draws = np.concatenate([
            [cdf[-1], np.nextafter(1.0, 0.0), 0.0], cdf,
            np.arange(GUIDE_BINS) / GUIDE_BINS,
        ])
        assert_sampler_matches_searchsorted(cdf, draws)

    def test_exact_at_guide_bin_edges(self):
        """CDF entries and draws on, just below and just above bin edges."""
        edges = np.arange(GUIDE_BINS) / GUIDE_BINS
        cdf = np.unique(np.concatenate([
            edges[1::7], np.nextafter(edges[1::5], 0.0), np.nextafter(edges[1::3], 1.0),
        ]))
        draws = np.concatenate([
            cdf, edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
            [np.nextafter(1.0, 0.0)],
        ])
        assert_sampler_matches_searchsorted(cdf, draws)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
    )
    def test_sampler_equals_searchsorted(self, entries, draws):
        assert_sampler_matches_searchsorted(sorted(entries), draws)


JOBS = [WordCountJob(), GrepJob([1, 2])]


class TestCountingReduce:
    @pytest.mark.parametrize("job", JOBS, ids=lambda job: job.name)
    @pytest.mark.parametrize("keys,values", [
        ([], []),
        ([5], [1]),
        ([7, 7, 7], [1, 1, 1]),
        ([-3, 4, -3, -9, 4], [1, 2, 3, 4, 5]),
        ([2, 0, 2, 1, 1], [1, -1, -1, 0, 0]),  # keys 1 and 2 sum to 0
    ])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_equals_sort_reduce(self, job, keys, values, dtype):
        keys = np.asarray(keys, dtype=dtype)
        values = np.asarray(values, dtype=np.int64)
        got = job.reduce(keys, values)
        assert list(got.items()) == list(reference_reduce(keys, values).items())
        assert all(type(key) is int and type(count) is int for key, count in got.items())

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-500, 500), st.integers(-3, 3)), max_size=80),
        st.sampled_from([np.int32, np.int64]),
    )
    def test_equals_sort_reduce_property(self, records, dtype):
        keys = np.asarray([key for key, _ in records], dtype=dtype)
        values = np.asarray([value for _, value in records], dtype=np.int64)
        got = WordCountJob().reduce(keys, values)
        assert list(got.items()) == list(reference_reduce(keys, values).items())

    def test_merge_sums_partials(self):
        merged = GrepJob([1]).merge([{1: 2, 3: 4}, {3: 1, 0: 5}])
        assert merged == {1: 2, 3: 5, 0: 5}


class TestWordCount:
    @pytest.mark.parametrize("kind,pushdown", [
        ("local", ()),
        ("ddc", ()),
        ("teleport", ("map_shuffle",)),
    ])
    def test_counts_exact(self, corpus, reference_counts, kind, pushdown):
        engine, _platform = make_engine(corpus, kind=kind, pushdown=pushdown)
        counts = engine.run(WordCountJob())
        assert sum(counts.values()) == len(corpus)
        for token, expected in enumerate(reference_counts):
            assert counts.get(token, 0) == expected

    def test_phase_profiles(self, corpus):
        engine, _platform = make_engine(corpus)
        engine.run(WordCountJob())
        assert set(engine.profiles) == {"map_compute", "map_shuffle", "reduce", "merge"}
        assert engine.profile("map_compute").calls == engine.n_map_tasks
        assert engine.profile("reduce").calls == engine.n_reducers

    def test_map_shuffle_dominates_on_ddc(self, corpus):
        """Section 5.3: map-shuffle is ~95% of map time in a DDC."""
        config = DdcConfig(compute_cache_bytes=256 * KIB)
        engine, _platform = make_engine(corpus, kind="ddc", config=config)
        engine.run(WordCountJob())
        shuffle = engine.profile("map_shuffle").time_ns
        compute = engine.profile("map_compute").time_ns
        assert shuffle / (shuffle + compute) > 0.8


class TestGrep:
    @pytest.mark.parametrize("kind", ["local", "teleport"])
    def test_match_counts_exact(self, corpus, reference_counts, kind):
        pushdown = ("map_shuffle",) if kind == "teleport" else ()
        engine, _platform = make_engine(corpus, kind=kind, pushdown=pushdown)
        pattern = [3, 77, 4999]
        counts = engine.run(GrepJob(pattern))
        for token in pattern:
            assert counts.get(token, 0) == reference_counts[token]
        assert set(counts) <= set(pattern)

    def test_no_matches(self, corpus):
        engine, _platform = make_engine(corpus)
        counts = engine.run(GrepJob([999_999]))
        assert counts == {}

    def test_grep_shuffles_less_than_wordcount(self, corpus):
        config = DdcConfig(compute_cache_bytes=256 * KIB)
        wc_engine, _p1 = make_engine(corpus, kind="ddc", config=config)
        wc_engine.run(WordCountJob())
        grep_engine, _p2 = make_engine(corpus, kind="ddc", config=config)
        grep_engine.run(GrepJob([3, 77]))
        assert (
            grep_engine.profile("map_shuffle").time_ns
            < wc_engine.profile("map_shuffle").time_ns / 2
        )


class TestEngineValidation:
    def test_needs_positive_tasks(self, corpus):
        platform = make_platform("local")
        ctx = platform.main_context()
        with pytest.raises(ReproError):
            MapReduceEngine(ctx, corpus, n_map_tasks=0)
        with pytest.raises(ReproError):
            MapReduceEngine(ctx, corpus, n_reducers=0)

    def test_single_task_single_reducer(self, corpus, reference_counts):
        engine, _platform = make_engine(corpus, n_map_tasks=1, n_reducers=1)
        counts = engine.run(WordCountJob())
        assert counts.get(0, 0) == reference_counts[0]

    def test_teleport_speedup_over_ddc(self, corpus):
        config = DdcConfig(compute_cache_bytes=256 * KIB)
        times = {}
        for kind, pushdown in [("ddc", ()), ("teleport", ("map_shuffle",))]:
            engine, _platform = make_engine(corpus, kind=kind, pushdown=pushdown, config=config)
            engine.run(WordCountJob())
            times[kind] = engine.total_time_ns()
        assert times["teleport"] < times["ddc"] / 1.5


class TestPhaseRunner:
    def test_rejects_unknown_phase(self):
        platform = make_platform("local")
        ctx = platform.main_context()
        runner = PhaseRunner(ctx, ("a", "b"))
        with pytest.raises(ReproError):
            runner.run("c", lambda c: None)
        with pytest.raises(ReproError):
            PhaseRunner(ctx, ("a",), pushdown=("zzz",))

    def test_profile_requires_execution(self):
        platform = make_platform("local")
        ctx = platform.main_context()
        runner = PhaseRunner(ctx, ("a",))
        with pytest.raises(ReproError):
            runner.profile("a")
        runner.run("a", lambda c: c.compute(100))
        assert runner.profile("a").time_ns > 0
        assert runner.total_time_ns() == runner.profile("a").time_ns

    def test_pushdown_all_expands(self):
        platform = make_platform("teleport")
        ctx = platform.main_context()
        runner = PhaseRunner(ctx, ("a", "b"), pushdown="all")
        assert runner.pushdown == {"a", "b"}
        runner.run("a", lambda c: None)
        assert platform.stats.pushdown_calls == 1
        assert runner.profile("a").pushed_down
