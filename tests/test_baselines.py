from __future__ import annotations

import math

import numpy as np
import pytest

from unroll_tuner.baselines import (
    KnnConfig,
    TreeConfig,
    _best_split,
    _gini,
    _gini_rows,
    accuracy_table,
    knn_predict,
    tree_fit,
    tree_predict,
)
from unroll_tuner.errors import UnrollTunerError


def test_knn_query_on_training_point():
    x = [[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]]
    y = [2, 4, 8]
    assert knn_predict(x, y, KnnConfig(k=1), [5.0, 5.0]) == 4


def test_knn_k_equals_train_size_gives_global_majority():
    x = [[float(i), 0.0] for i in range(7)]
    y = [2, 2, 2, 4, 4, 8, 16]
    assert knn_predict(x, y, KnnConfig(k=7), [100.0, 100.0]) == 2


def test_knn_vote_tie_smallest_factor():
    x = [[0.0], [1.0], [10.0], [11.0]]
    y = [8, 8, 2, 2]
    assert knn_predict(x, y, KnnConfig(k=4), [5.5]) == 2


def test_knn_distance_tie_lower_index():
    x = [[1.0], [-1.0], [30.0]]
    y = [16, 4, 64]
    assert knn_predict(x, y, KnnConfig(k=1), [0.0]) == 16


def test_knn_matches_bruteforce_on_hand_built_set():
    rng = np.random.default_rng(12)
    x = rng.uniform(-5, 5, size=(20, 2))
    y = [int(u) for u in rng.choice([0, 2, 4, 8, 16, 32, 64], size=20)]
    cfg = KnnConfig(k=3)
    for _ in range(25):
        q = rng.uniform(-5, 5, size=2)
        dists = [(math.dist(q, x[i]), i) for i in range(20)]
        dists.sort()
        votes = [y[i] for _, i in dists[:3]]
        counts = {lab: votes.count(lab) for lab in votes}
        top = max(counts.values())
        expected = min(lab for lab, c in counts.items() if c == top)
        assert knn_predict(x, y, cfg, q) == expected


def _reference_knn(train_x, train_y, k, query) -> int:
    """KNN for one query by a full stable argsort, as before batching."""
    x = np.asarray(train_x, dtype=np.float64)
    dists = np.sqrt(((x - np.asarray(query, dtype=np.float64)) ** 2).sum(axis=1))
    votes = [train_y[i] for i in np.argsort(dists, kind="stable")[:k]]
    top = max(votes.count(lab) for lab in votes)
    return min(lab for lab in votes if votes.count(lab) == top)


def test_knn_block_matches_per_query_reference():
    rng = np.random.default_rng(61)
    distance_ties = vote_ties = 0      # cut inside a run of equal distances; tied top vote
    for trial in range(40):
        n, width, k = int(rng.integers(5, 40)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
        k = min(k, n)
        # integer points on a small grid: many equal distances, and duplicated rows
        x = rng.integers(0, 3, size=(n, width)).astype(float)
        x[rng.integers(0, n, size=n // 3)] = x[0]
        y = [int(u) for u in rng.choice([0, 2, 4, 8, 16, 32, 64], size=n)]
        queries = rng.integers(0, 3, size=(int(rng.integers(1, 9)), width)).astype(float)
        expected = [_reference_knn(x, y, k, q) for q in queries]
        assert knn_predict(x, y, KnnConfig(k=k), queries) == expected
        assert [knn_predict(x, y, KnnConfig(k=k), q) for q in queries] == expected
        for q in queries:
            dists = np.sqrt(((x - q) ** 2).sum(axis=1))
            order = np.argsort(dists, kind="stable")
            distance_ties += k < n and dists[order[k - 1]] == dists[order[k]]
            votes = [y[i] for i in order[:k]]
            counts = sorted((votes.count(lab) for lab in set(votes)), reverse=True)
            vote_ties += len(counts) > 1 and counts[0] == counts[1]
    assert distance_ties > 20 and vote_ties > 20


def test_knn_block_breaks_two_two_one_vote_split_to_smallest_factor():
    # the five nearest to 0 hold labels 32, 32, 4, 4, 64: a 2-2-1 split
    x = [[1.0], [1.0], [-2.0], [2.0], [3.0], [9.0], [9.0]]
    y = [32, 32, 4, 4, 64, 2, 2]
    queries = np.array([[0.0], [9.0], [0.5]])
    got = knn_predict(x, y, KnnConfig(k=5), queries)
    assert got == [_reference_knn(x, y, 5, q) for q in queries] == [4, 2, 4]
    assert isinstance(knn_predict(x, y, KnnConfig(k=5), queries[0]), int)


def test_knn_empty_training_set():
    with pytest.raises(UnrollTunerError, match="^KNN needs a non-empty training set$"):
        knn_predict([], [], KnnConfig(k=1), [0.0])


def test_knn_k_exceeds_train_size():
    with pytest.raises(ValueError):
        knn_predict([[0.0]], [2], KnnConfig(k=2), [0.0])


def test_tree_pure_class_single_leaf():
    tree = tree_fit([[0.0], [1.0], [2.0]], [4, 4, 4])
    assert tree.is_leaf and tree.label == 4
    assert tree_predict(tree, [123.0]) == 4


def test_tree_one_dim_threshold_split():
    x = [[-3.0], [-1.0], [-0.5], [2.0], [4.0]]
    y = [2, 2, 2, 4, 4]
    tree = tree_fit(x, y)
    assert not tree.is_leaf
    assert -0.5 < tree.threshold <= 2.0
    assert tree_predict(tree, [-2.0]) == 2
    assert tree_predict(tree, [3.0]) == 4


def gini(labels):
    n = len(labels)
    return 1.0 - sum((labels.count(c) / n) ** 2 for c in set(labels))


def test_depth_one_tree_equals_bruteforce_best_split():
    rng = np.random.default_rng(21)
    x = rng.uniform(0, 10, size=(10, 3))
    y = [int(u) for u in rng.choice([2, 4, 8], size=10)]

    best = (gini(y), None)
    for f in range(3):
        values = sorted(set(x[:, f]))
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2
            left = [y[i] for i in range(10) if x[i, f] <= thr]
            right = [y[i] for i in range(10) if x[i, f] > thr]
            score = (len(left) * gini(left) + len(right) * gini(right)) / 10
            if score < best[0] - 1e-12:
                best = (score, (f, thr))

    tree = tree_fit(x, y, TreeConfig(max_depth=1))
    assert best[1] is not None
    assert (tree.feature, tree.threshold) == pytest.approx(best[1])


def _quadratic_best_split(x, y):
    """The O(F*n^2) split search that `_best_split` replaced: two Gini
    evaluations with np.unique per cut."""
    n = x.shape[0]
    best = None
    best_score = _gini(y)
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        values = x[order, f]
        labels = y[order]
        for cut in range(1, n):
            if values[cut] == values[cut - 1]:
                continue
            left, right = labels[:cut], labels[cut:]
            score = (cut * _gini(left) + (n - cut) * _gini(right)) / n
            if score < best_score - 1e-12:
                best_score = score
                best = (f, float((values[cut - 1] + values[cut]) / 2.0))
    return best


def test_best_split_matches_quadratic_search():
    rng = np.random.default_rng(32)
    found = 0
    for _ in range(150):
        n = int(rng.integers(2, 90))
        x = rng.integers(0, int(rng.integers(1, 8)), size=(n, 4)).astype(np.float64)
        x[:, 3] = x[:, 0]             # equal scores across features: the first wins
        y = rng.choice([0, 2, 4, 8, 16, 32, 64], size=n)
        expected = _quadratic_best_split(x, y)
        assert _best_split(x, y) == expected
        found += expected is not None
    assert found > 100


def test_best_split_keeps_first_of_equal_cuts():
    # cuts after rows 2 and 4 both score 1/3; the first (lower threshold) wins
    x = np.arange(6, dtype=np.float64)[:, None]
    y = np.array([0, 0, 1, 1, 0, 0])
    assert _best_split(x, y) == _quadratic_best_split(x, y) == (0, 1.5)


def test_gini_rows_bit_identical_to_gini():
    rng = np.random.default_rng(33)
    for _ in range(30):
        labels = rng.choice([0, 2, 4, 8, 16, 32, 64], size=int(rng.integers(1, 400)))
        _, codes = np.unique(labels, return_inverse=True)
        onehot = np.zeros((labels.shape[0], codes.max() + 1), dtype=np.int64)
        onehot[np.arange(labels.shape[0]), codes] = 1
        sizes = np.arange(1, labels.shape[0] + 1)
        rows = _gini_rows(np.cumsum(onehot, axis=0), sizes)
        assert rows.tolist() == [_gini(labels[:m]) for m in sizes]


def test_tree_deterministic():
    rng = np.random.default_rng(30)
    x = rng.uniform(0, 1, size=(40, 4))
    y = [int(u) for u in rng.choice([0, 2, 4, 8], size=40)]
    t1 = tree_fit(x, y)
    t2 = tree_fit(x, y)

    def flatten(node):
        if node.is_leaf:
            return [("leaf", node.label)]
        return [("split", node.feature, node.threshold)] + flatten(node.left) + flatten(node.right)

    assert flatten(t1) == flatten(t2)


def test_tree_respects_max_depth():
    rng = np.random.default_rng(31)
    x = rng.uniform(0, 1, size=(64, 2))
    y = [int(u) for u in rng.choice([0, 2, 4, 8, 16], size=64)]
    tree = tree_fit(x, y, TreeConfig(max_depth=2))

    def depth(node):
        return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

    assert depth(tree) <= 2


def test_accuracy_table_shape():
    table = accuracy_table([("neural network", 0.2039), ("knn", 0.1970),
                            ("decision tree", 0.1923)])
    lines = table.splitlines()
    assert "model" in lines[0] and "accuracy" in lines[0]
    assert len(lines) == 5
    assert "20.39%" in lines[2]
