"""KNN and CART decision-tree baselines over the same feature pipeline.

Both consume exactly the rows the MLP consumes (same CSV schema, same fitted
scaler); neither does any private preprocessing.  Tie-breaking is fully
deterministic: KNN resolves distance ties by the smaller training-row index
and vote ties by the smallest factor; tree splits scan features in index
order and thresholds in ascending order, keeping the first strict
improvement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrainingSet


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 12

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


def _majority(labels) -> int:
    counts: dict[int, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    best = max(counts.values())
    return min(lab for lab, c in counts.items() if c == best)


def knn_predict(train_x, train_y, cfg: KnnConfig, query) -> int:
    """Majority label among the k nearest training rows (Euclidean)."""
    x = np.asarray(train_x, dtype=np.float64)
    if x.size == 0:
        raise EmptyTrainingSet("KNN needs a non-empty training set")
    if cfg.k > x.shape[0]:
        raise ValueError(f"k={cfg.k} exceeds training size {x.shape[0]}")
    q = np.asarray(query, dtype=np.float64)
    dists = np.sqrt(((x - q) ** 2).sum(axis=1))
    nearest = np.argsort(dists, kind="stable")[:cfg.k]   # distance ties -> lower index
    return _majority(train_y[i] for i in nearest)


# --- decision tree --------------------------------------------------------------

@dataclass
class TreeNode:
    label: int | None = None          # set on leaves
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


def _gini(labels: np.ndarray) -> float:
    _, counts = np.unique(labels, return_counts=True)
    probs = counts / labels.shape[0]
    return float(1.0 - (probs ** 2).sum())


def _gini_rows(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """`_gini` of every row of a (rows, classes) count matrix.  The squared
    shares are added left to right, as `np.sum` adds fewer than eight terms,
    so for up to seven classes every value is bit-identical to `_gini`'s."""
    sq = (counts / sizes[:, None]) ** 2
    total = sq[:, 0].copy()
    for k in range(1, sq.shape[1]):
        total += sq[:, k]
    return 1.0 - total


def _best_split(x: np.ndarray, y: np.ndarray):
    """Minimum weighted-Gini split, or None when nothing improves the node.

    Each feature is sorted once and every cut is scored from prefix class
    counts, so a node costs O(F*n log n).
    """
    n = x.shape[0]
    best = None
    best_score = _gini(y)
    classes, codes = np.unique(y, return_inverse=True)
    rows = np.arange(n)
    cuts = rows[1:]
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        values = x[order, f]
        onehot = np.zeros((n, classes.shape[0]), dtype=np.int64)
        onehot[rows, codes[order]] = 1
        counts = np.cumsum(onehot, axis=0)
        left = counts[:-1]                        # class counts of labels[:cut]
        scores = (cuts * _gini_rows(left, cuts)
                  + (n - cuts) * _gini_rows(counts[-1] - left, n - cuts)) / n
        distinct = values[1:] != values[:-1]
        # best_score only falls, so every later pick is among these cuts
        for i in np.flatnonzero(distinct & (scores < best_score - 1e-12)):
            if scores[i] < best_score - 1e-12:
                best_score = float(scores[i])
                best = (f, float((values[i] + values[i + 1]) / 2.0))
    return best


def tree_fit(train_x, train_y, cfg: TreeConfig | None = None) -> TreeNode:
    """Greedy CART fit with Gini impurity; leaves hold majority labels."""
    cfg = cfg or TreeConfig()
    x = np.asarray(train_x, dtype=np.float64)
    y = np.asarray(train_y, dtype=np.int64)
    if x.size == 0:
        raise EmptyTrainingSet("tree_fit needs a non-empty training set")

    def build(rows: np.ndarray, depth: int) -> TreeNode:
        labels = y[rows]
        if depth >= cfg.max_depth or np.unique(labels).shape[0] == 1:
            return TreeNode(label=_majority(labels.tolist()))
        split = _best_split(x[rows], labels)
        if split is None:
            return TreeNode(label=_majority(labels.tolist()))
        f, thr = split
        mask = x[rows, f] <= thr
        return TreeNode(
            feature=f,
            threshold=thr,
            left=build(rows[mask], depth + 1),
            right=build(rows[~mask], depth + 1),
        )

    return build(np.arange(x.shape[0]), 0)


def tree_predict(tree: TreeNode, query) -> int:
    q = np.asarray(query, dtype=np.float64)
    node = tree
    while not node.is_leaf:
        node = node.left if q[node.feature] <= node.threshold else node.right
    return int(node.label)


def accuracy_table(entries: list[tuple[str, float]]) -> str:
    """Three-way comparison table: one (model, accuracy) row per entry."""
    width = max(len(name) for name, _ in entries)
    lines = [f"{'model':<{width}}  accuracy", f"{'-' * width}  --------"]
    for name, acc in entries:
        lines.append(f"{name:<{width}}  {acc * 100:6.2f}%")
    return "\n".join(lines)

