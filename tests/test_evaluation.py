"""Tests for Hamming ranking, mean average precision and the oracles."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emhash.energy_models import TrainConfig, em_ksh_train
from emhash.evaluation import (
    _median,
    hamming_distances,
    hamming_rank,
    RELEVANCE_BLOCK,
    mean_average_precision,
    metrics_lines,
    write_metrics_json,
)
from emhash.mean_field import fit_linearization, sigmoid
from oracles import (
    average_precision,
    brute_force_min_energy,
    fixed_point_oracle,
    ksh_energy,
    ksh_row_consistency,
    label_similarity,
    splh_energy,
    splh_row_consistency,
    view_of,
)

LIN = fit_linearization(2.0)


def scalar_rank(query, db):
    """Stable argsort of the per-pair distances (bits - q.d) / 2 in Python integers."""
    bits = len(query)
    q = [int(v) for v in query]
    dist = [(bits - sum(a * int(b) for a, b in zip(q, row))) // 2 for row in db]
    return np.argsort(np.array(dist, dtype=np.int64), kind="stable")


def rank_instance(seed, bits, queries, db, pool):
    """Query and database codes whose rows come from ``pool`` distinct codes,
    so a small pool forces ties."""
    rng = np.random.default_rng(seed)
    codes = rng.choice([-1, 1], size=(pool, bits)).astype(np.int8)
    return (
        codes[rng.integers(0, pool, size=queries)],
        codes[rng.integers(0, pool, size=db)],
    )


@st.composite
def rank_instances(draw):
    db = draw(st.integers(1, 40))
    return rank_instance(
        draw(st.integers(0, 2**32 - 1)),
        bits=draw(st.one_of(st.sampled_from([1, 2, 255, 256, 300]), st.integers(1, 300))),
        queries=draw(st.integers(1, RELEVANCE_BLOCK + 8)),
        db=db,
        pool=draw(st.integers(1, db)),
    )


class TestHammingRank:
    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(0)
        db = rng.choice([-1, 1], size=(12, 6)).astype(np.int8)
        order = hamming_rank(db[5], db)
        assert hamming_distances(db[5], db)[order[0]] == 0

    def test_tiny_enumeration(self):
        db = np.array([[1, 1], [1, -1], [-1, -1]], dtype=np.int8)
        order = hamming_rank(np.array([1, 1], dtype=np.int8), db)
        np.testing.assert_array_equal(order, [0, 1, 2])
        np.testing.assert_array_equal(hamming_distances(np.array([1, 1]), db), [0, 1, 2])

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(1)
        db = rng.choice([-1, 1], size=(30, 9)).astype(np.int8)
        query = rng.choice([-1, 1], size=9).astype(np.int8)
        dist = hamming_distances(query, db)
        for j in range(30):
            assert dist[j] == sum(query[k] != db[j, k] for k in range(9))

    def test_permutation_with_nondecreasing_distances(self):
        rng = np.random.default_rng(2)
        db = rng.choice([-1, 1], size=(25, 4)).astype(np.int8)
        query = rng.choice([-1, 1], size=4).astype(np.int8)
        order = hamming_rank(query, db)
        assert sorted(order.tolist()) == list(range(25))
        dist = hamming_distances(query, db)[order]
        assert np.all(np.diff(dist) >= 0)

    def test_ties_break_by_index(self):
        db = np.array([[1, 1], [1, 1], [1, 1]], dtype=np.int8)
        np.testing.assert_array_equal(hamming_rank(np.array([1, 1]), db), [0, 1, 2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hamming_rank(np.array([1, 1, 1]), np.ones((2, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="code length"):
            hamming_rank(np.ones((4, 3)), np.ones((2, 2), dtype=np.int8))

    def test_rejects_non_sign_codes(self):
        with pytest.raises(ValueError, match="only"):
            hamming_rank(np.array([[1, 0]]), np.ones((2, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="only"):
            hamming_rank(np.ones((1, 2)), np.full((2, 2), 2, dtype=np.int8))

    @pytest.mark.parametrize("bits, dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16)])
    def test_distances_use_the_smallest_unsigned_type(self, bits, dtype):
        db = np.ones((3, bits), dtype=np.int8)
        db[1] = -1
        dist = hamming_distances(np.ones((2, bits), dtype=np.int8), db)
        assert dist.dtype == dtype
        np.testing.assert_array_equal(dist, [[0, bits, 0], [0, bits, 0]])

    @settings(deadline=None)
    @given(rank_instances())
    @example(rank_instance(0, bits=1, queries=5, db=9, pool=9))
    @example(rank_instance(1, bits=3, queries=RELEVANCE_BLOCK + 3, db=20, pool=2))  # ties
    @example(rank_instance(2, bits=256, queries=7, db=30, pool=30))  # uint16 distances
    @example(rank_instance(3, bits=300, queries=RELEVANCE_BLOCK + 1, db=25, pool=4))
    def test_block_matches_scalar_stable_argsort(self, instance):
        queries, db = instance
        rankings = hamming_rank(queries, db)
        assert rankings.shape == (queries.shape[0], db.shape[0])
        for qi, query in enumerate(queries):
            np.testing.assert_array_equal(rankings[qi], scalar_rank(query, db))
        np.testing.assert_array_equal(hamming_rank(queries[-1], db), rankings[-1])


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(np.arange(6), np.array([1, 1, 1, 0, 0, 0], bool)) == 1.0

    def test_single_relevant_at_rank_three(self):
        ap = average_precision(np.arange(4), np.array([0, 0, 1, 0], bool))
        assert ap == pytest.approx(1.0 / 3.0)

    def test_two_relevant_at_ranks_one_and_three(self):
        ap = average_precision(np.arange(4), np.array([1, 0, 1, 0], bool))
        assert ap == pytest.approx(5.0 / 6.0)

    def test_no_relevant_items(self):
        with pytest.raises(ValueError):
            average_precision(np.arange(3), np.zeros(3, bool))


def scalar_per_query_ap(query_codes, query_labels, db_codes, db_labels, exclude_self=False):
    """Per-query AP from scalar rankings and label_similarity pair by pair.

    The reference the blocked ranking and relevance of mean_average_precision
    must match; NaN marks a query with no relevant database item.
    """
    aps = np.full(len(query_labels), np.nan)
    for qi in range(len(query_labels)):
        ranking = scalar_rank(query_codes[qi], db_codes)
        if exclude_self:
            ranking = ranking[ranking != qi]
        rel = np.fromiter(
            (label_similarity(query_labels[qi], db_labels[j]) == 1 for j in ranking),
            dtype=bool,
            count=ranking.size,
        )
        if rel.any():
            aps[qi] = average_precision(np.arange(rel.size), rel)
    return aps


def _label_pool(kind, rng, n):
    if kind == "class":
        return [int(v) for v in rng.integers(0, 4, size=n)]
    pool = [frozenset({0}), frozenset({1, 2}), frozenset({2, 3}), frozenset({4})]
    if kind == "partly-unlabeled":
        pool += [None, 1, frozenset()]
    return [pool[i] for i in rng.integers(0, len(pool), size=n)]


class TestMeanAveragePrecision:
    def test_refusals_come_database_labels_then_query_labels_then_code_length(self):
        three = np.ones((3, 4), dtype=np.int8)
        two_short = np.ones((2, 5), dtype=np.int8)
        cases = [
            ((three, [0] * 3, three, [0] * 2), "^2 labels for 3 database codes$"),
            ((three, [0] * 4, three, [0] * 3), "^4 labels for 3 query codes$"),
            ((three, [0] * 4, three, [0] * 2), "^2 labels for 3 database codes$"),
            ((two_short, [0], three, [0] * 3), "^1 labels for 2 query codes$"),
            ((two_short, [0] * 2, three, [0] * 3), "^query and database code lengths differ$"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                mean_average_precision(*args)

    @pytest.mark.parametrize("kind", ["class", "tags", "partly-unlabeled"])
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_per_query_ap_matches_scalar_oracle(self, kind, exclude_self):
        rng = np.random.default_rng(10)
        # More queries than one relevance block, so block edges are crossed.
        n = RELEVANCE_BLOCK + 37
        db = rng.choice([-1, 1], size=(n, 6)).astype(np.int8)
        db_labels = _label_pool(kind, rng, n)
        if exclude_self:
            queries, query_labels = db, db_labels
        else:
            queries = rng.choice([-1, 1], size=(n, 6)).astype(np.int8)
            query_labels = _label_pool(kind, rng, n)
        expected = scalar_per_query_ap(queries, query_labels, db, db_labels, exclude_self)
        result = mean_average_precision(queries, query_labels, db, db_labels, exclude_self)
        np.testing.assert_array_equal(result.per_query_ap, expected)
        assert result.skipped == int(np.isnan(expected).sum())
        if kind == "partly-unlabeled":
            assert result.skipped > 0

    @settings(deadline=None, max_examples=25)
    @given(rank_instances(), st.booleans(), st.integers(0, 2**32 - 1))
    @example(rank_instance(4, bits=256, queries=RELEVANCE_BLOCK + 5, db=RELEVANCE_BLOCK + 5,
                           pool=6), True, 0)
    @example(rank_instance(5, bits=1, queries=RELEVANCE_BLOCK + 1, db=30, pool=2), False, 1)
    def test_per_query_ap_matches_scalar_oracle_on_any_block(self, instance, exclude_self, seed):
        queries, db = instance
        if exclude_self:
            queries = db
        rng = np.random.default_rng(seed)
        db_labels = _label_pool("partly-unlabeled", rng, db.shape[0])
        query_labels = db_labels if exclude_self else _label_pool(
            "partly-unlabeled", rng, queries.shape[0]
        )
        expected = scalar_per_query_ap(queries, query_labels, db, db_labels, exclude_self)
        if np.isnan(expected).all():
            with pytest.raises(ValueError, match="no query"):
                mean_average_precision(queries, query_labels, db, db_labels, exclude_self)
            return
        result = mean_average_precision(queries, query_labels, db, db_labels, exclude_self)
        np.testing.assert_array_equal(result.per_query_ap, expected)

    def test_relevance_memory_does_not_grow_with_query_count(self):
        rng = np.random.default_rng(11)
        db = rng.choice([-1, 1], size=(4000, 4)).astype(np.int8)
        db_labels = [int(v) for v in rng.integers(0, 8, size=4000)]

        def peak(queries):
            codes = rng.choice([-1, 1], size=(queries, 4)).astype(np.int8)
            labels = [int(v) for v in rng.integers(0, 8, size=queries)]
            tracemalloc.start()
            try:
                mean_average_precision(codes, labels, db, db_labels)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(RELEVANCE_BLOCK), peak(8 * RELEVANCE_BLOCK)
        # A block's int8 similarities and bool flags take RELEVANCE_BLOCK * 4000
        # bytes each, and one block's flags stay alive while the next block is
        # filled.  Unblocked, the larger run would hold eight blocks of each.
        assert large < small + 2 * RELEVANCE_BLOCK * 4000


    def test_perfect_separation(self):
        codes = np.array([[1, 1], [1, 1], [-1, -1], [-1, -1]], dtype=np.int8)
        labels = [0, 0, 1, 1]
        result = mean_average_precision(codes, labels, codes, labels, exclude_self=True)
        assert result.mean_ap == 1.0
        assert result.skipped == 0

    def test_random_codes_approach_class_prior(self):
        rng = np.random.default_rng(3)
        db_labels = [i % 2 for i in range(600)]
        db = rng.choice([-1, 1], size=(600, 16)).astype(np.int8)
        queries = rng.choice([-1, 1], size=(150, 16)).astype(np.int8)
        query_labels = [i % 2 for i in range(150)]
        result = mean_average_precision(queries, query_labels, db, db_labels)
        assert result.mean_ap == pytest.approx(0.5, abs=0.05)

    def test_matches_from_scratch_oracle(self):
        rng = np.random.default_rng(4)
        db = rng.choice([-1, 1], size=(20, 5)).astype(np.int8)
        db_labels = [int(v) for v in rng.integers(0, 3, size=20)]
        queries = rng.choice([-1, 1], size=(8, 5)).astype(np.int8)
        query_labels = [int(v) for v in rng.integers(0, 3, size=8)]
        result = mean_average_precision(queries, query_labels, db, db_labels)

        aps = []
        for qi in range(8):
            dist = [(sum(queries[qi] != db[j]), j) for j in range(20)]
            dist.sort()
            hits = 0
            precisions = []
            for rank, (_, j) in enumerate(dist, start=1):
                if db_labels[j] == query_labels[qi]:
                    hits += 1
                    precisions.append(hits / rank)
            if precisions:
                aps.append(sum(precisions) / len(precisions))
        assert result.mean_ap == pytest.approx(float(np.mean(aps)), abs=1e-12)

    def test_negating_all_codes_changes_nothing(self):
        rng = np.random.default_rng(5)
        db = rng.choice([-1, 1], size=(40, 8)).astype(np.int8)
        labels = [int(v) for v in rng.integers(0, 2, size=40)]
        base = mean_average_precision(db, labels, db, labels, exclude_self=True)
        flipped = mean_average_precision(-db, labels, -db, labels, exclude_self=True)
        assert base.mean_ap == flipped.mean_ap

    def test_queries_without_relevant_items_are_skipped(self):
        codes = np.array([[1, 1], [1, -1], [-1, -1]], dtype=np.int8)
        labels = [0, 0, None]
        result = mean_average_precision(codes, labels, codes, labels, exclude_self=True)
        assert result.skipped == 1
        assert np.isnan(result.per_query_ap[2])

    def test_no_valid_queries(self):
        codes = np.array([[1], [-1]], dtype=np.int8)
        with pytest.raises(ValueError, match="no query"):
            mean_average_precision(codes, [0, 1], codes, [0, 1], exclude_self=True)


class TestFixedPointOracle:
    def test_correlation_energy_two_blocks(self):
        """The oracle settles on block-separating signs for block similarity."""
        labels = [0] * 6 + [1] * 6
        s = np.where(np.equal.outer(labels, labels), 1, -1)
        cfg = TrainConfig(bits=1, sweeps=1, seed=0)
        result = fixed_point_oracle(splh_row_consistency, s, cfg)
        assert result.converged
        signs = np.where(result.phi[:, 0] >= 0.5, 1, -1)
        assert np.all(signs[:6] == signs[0]) and np.all(signs[6:] == signs[6])
        assert signs[0] != signs[6]
        best = None
        for key in range(2**12):
            cand = np.array([1 if (key >> p) & 1 else -1 for p in range(12)]).reshape(-1, 1)
            energy = splh_energy(cand, s)
            if best is None or energy < best:
                best = energy
        assert splh_energy(signs.reshape(-1, 1), s) == best

    def test_undamped_first_row_is_direct_substitution(self):
        rng = np.random.default_rng(6)
        s = np.array([[1, -1], [-1, 1]])
        cfg = TrainConfig(bits=2, sweeps=1, seed=7)
        phi0 = np.random.default_rng(7).random((2, 2))
        expected_row0 = sigmoid(ksh_row_consistency(phi0, s, 0))
        result = fixed_point_oracle(
            ksh_row_consistency, s, cfg, damping=1.0, max_iters=1
        )
        np.testing.assert_allclose(result.phi[0], expected_row0, atol=1e-12)

    def test_single_bit_matches_training_path(self):
        """Exact iteration and closed-form training agree at one bit."""
        from emhash.codec import round_codes

        rng = np.random.default_rng(8)
        for seed in range(4):
            n = int(rng.integers(8, 33))
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            s = np.where(labels[:, None] == labels[None, :], 1, -1).astype(np.int8)
            cfg = TrainConfig(bits=1, sweeps=3, seed=seed)
            trained, _ = round_codes(em_ksh_train(view_of(s), cfg, LIN))
            result = fixed_point_oracle(ksh_row_consistency, s, cfg, max_iters=500)
            assert result.converged
            oracle_codes, _ = round_codes(result.phi)
            assert np.array_equal(trained, oracle_codes) or np.array_equal(
                trained, -oracle_codes
            )

    def test_non_convergence_is_reported_not_raised(self):
        s = np.array([[1, -1], [-1, 1]])
        cfg = TrainConfig(bits=2, sweeps=1, seed=0)
        result = fixed_point_oracle(ksh_row_consistency, s, cfg, max_iters=1, damping=0.1)
        assert not result.converged
        assert result.iterations == 1

    def test_size_guard(self):
        cfg = TrainConfig(bits=1, sweeps=1, seed=0)
        with pytest.raises(ValueError, match="at most"):
            fixed_point_oracle(splh_row_consistency, np.ones((2001, 2001)), cfg)


class TestBruteForceMinEnergy:
    def test_uniform_similarity_has_zero_optimum(self):
        s = np.ones((3, 3))
        codes, energy = brute_force_min_energy(ksh_energy, s, 2)
        assert energy == 0.0
        assert np.all(codes == codes[0])

    def test_antialigned_pair(self):
        s = np.array([[1.0, -1.0], [-1.0, 1.0]])
        codes, energy = brute_force_min_energy(ksh_energy, s, 1)
        assert energy == 0.0
        assert codes[0, 0] == -codes[1, 0]

    def test_lower_bounds_the_trained_energy(self):
        from emhash.codec import round_codes

        rng = np.random.default_rng(9)
        for seed in range(5):
            raw = rng.choice([-1, 1], size=(4, 4))
            s = np.triu(raw) + np.triu(raw, 1).T
            np.fill_diagonal(s, 1)
            cfg = TrainConfig(bits=2, sweeps=3, seed=seed)
            trained, _ = round_codes(em_ksh_train(view_of(s), cfg, LIN))
            _, optimum = brute_force_min_energy(ksh_energy, s, 2)
            assert ksh_energy(trained, s) >= optimum - 1e-9

    def test_instance_too_large(self):
        with pytest.raises(ValueError, match="too large"):
            brute_force_min_energy(ksh_energy, np.ones((5, 5)), 3)


class TestMedian:
    def test_matches_numpy_median_on_odd_and_even_sizes(self):
        """Bit for bit, on sizes 1 to 199, with and without ties."""
        rng = np.random.default_rng(11)
        for size in range(1, 200):
            for values in (rng.random(size), rng.integers(0, 4, size) / 4.0):
                assert _median(values) == float(np.median(values)), size
        assert _median(np.array([0.25, 1.0, 0.5])) == 0.5
        assert _median(np.array([0.1, 0.2, 0.7, 0.3])) == float(np.median([0.1, 0.2, 0.7, 0.3]))


class TestMetricsOutput:
    def test_lines_and_json_schema(self, tmp_path):
        codes = np.array([[1, 1], [1, 1], [-1, -1], [-1, -1]], dtype=np.int8)
        labels = [0, 0, 1, 1]
        result = mean_average_precision(codes, labels, codes, labels, exclude_self=True)
        lines = metrics_lines(result)
        assert lines[0] == "map=1.000000"
        assert "queries=4" in lines
        path = tmp_path / "metrics.json"
        write_metrics_json(path, result)
        payload = json.loads(path.read_text())
        assert sorted(payload) == ["map", "per_query_ap", "queries", "schema", "skipped_queries"]
        assert payload["schema"] == "emhash-metrics/1"
        assert payload["map"] == 1.0
        assert payload["queries"] == 4
        assert payload["skipped_queries"] == 0
        assert len(payload["per_query_ap"]) == 4
