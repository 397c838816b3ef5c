"""Artificial TAP instances (Section 6.2's protocol).

The paper evaluates the exact solver and the heuristic on "artificial sets
of queries of different sizes ... keeping similar uniform distributions of
interestingness, cost, and distances".  Two generators are provided; both
yield genuine metrics (a requirement of Section 4.2):

* :func:`random_hamming_instance` — random synthetic comparison-query
  tuples scored with the weighted Hamming distance of the real pipeline
  (the distribution the production system actually sees);
* :func:`random_euclidean_instance` — uniform points in the unit square
  with Euclidean distance (a smoother metric for solver stress tests).

Interest is U(0, 1); cost is uniform 1 (the paper's simplification) unless
``uniform_cost=False``, in which case cost ~ U(0.5, 1.5).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TAPError
from repro.queries.comparison import ComparisonQuery
from repro.queries.distance import DEFAULT_WEIGHTS, DistanceWeights, query_distance
from repro.stats.rng import derive_rng
from repro.tap.instance import TAPInstance


def random_euclidean_instance(
    n: int, seed: int, uniform_cost: bool = True
) -> TAPInstance[int]:
    """Uniform points in [0,1]² with Euclidean pairwise distance."""
    if n <= 0:
        raise TAPError("instance size must be positive")
    rng = derive_rng(seed, "tap-euclid", n)
    points = rng.random((n, 2))
    diff = points[:, None, :] - points[None, :, :]
    distances = np.sqrt((diff**2).sum(axis=2))
    interests = rng.random(n)
    costs = np.ones(n) if uniform_cost else rng.uniform(0.5, 1.5, n)
    return TAPInstance(list(range(n)), interests, costs, distances)


def random_comparison_queries(
    n: int,
    rng: np.random.Generator,
    n_attributes: int = 6,
    n_values: int = 12,
    n_measures: int = 2,
    aggregates: tuple[str, ...] = ("sum", "avg"),
) -> list[ComparisonQuery]:
    """Draw ``n`` distinct random comparison queries over a synthetic schema.

    Raises :class:`TAPError` up front when ``n`` exceeds the number of
    distinct ordered queries the schema holds.
    """
    space = (
        n_attributes * (n_attributes - 1) * n_values * (n_values - 1)
        * n_measures * len(set(aggregates))
    )
    if n > space:
        raise TAPError(
            f"could not draw {n} distinct queries from the synthetic schema: "
            f"it holds only {space}; increase n_attributes/n_values"
        )
    attributes = [f"a{i}" for i in range(n_attributes)]
    measures = [f"m{i}" for i in range(n_measures)]
    seen: set[tuple] = set()
    queries: list[ComparisonQuery] = []
    attempts = 0
    while len(queries) < n:
        attempts += 1
        if attempts > 200 * n:
            raise TAPError(
                f"could not draw {n} distinct queries from the synthetic schema; "
                "increase n_attributes/n_values"
            )
        b_idx, a_idx = rng.choice(n_attributes, size=2, replace=False)
        v1, v2 = rng.choice(n_values, size=2, replace=False)
        query = ComparisonQuery(
            group_by=attributes[int(a_idx)],
            selection_attribute=attributes[int(b_idx)],
            val=f"v{int(v1)}",
            val_other=f"v{int(v2)}",
            measure=measures[int(rng.integers(n_measures))],
            agg=aggregates[int(rng.integers(len(aggregates)))],
        )
        if query.key in seen:
            continue
        seen.add(query.key)
        queries.append(query)
    return queries


def random_clustered_instance(
    n: int,
    seed: int,
    n_clusters: int = 6,
    cluster_spread: float = 0.03,
    center_separation: float = 0.4,
    priority_noise: float = 1.0,
    uniform_cost: bool = True,
) -> TAPInstance[int]:
    """Euclidean instance with *theme clusters* of interleaved interest.

    In the real pipeline interest is correlated with distance: comparison
    queries at small weighted-Hamming distance share selection pairs and
    therefore evidence overlapping insight sets, so their Definition-4.3
    scores move together, and the query space decomposes into "themes"
    (one per strong selection pair) of roughly equally interesting
    queries.  This generator reproduces that structure:

    * points are drawn around ``n_clusters`` well-separated centres
      (themes) with Gaussian spread ``cluster_spread``;
    * global interest *ranks* are dealt round-robin across clusters, so
      every cluster holds one of the top-``n_clusters`` queries, one of
      the next ``n_clusters``, and so on — clusters are near-equal;
    * within each round, the deal order follows a fixed per-instance
      cluster priority perturbed by Gumbel noise of scale
      ``priority_noise`` — strong themes tend to stay strong across
      levels, with per-level upsets, like dominant selection pairs in a
      real dataset.

    Consequences (the regime of Tables 5 and 6): under a tight ε_d the
    optimal solution lives inside a single cluster; the interest-first
    heuristic anchors at the globally best query, which usually belongs
    to the best theme, so its objective deviation is small — while the
    top-k baseline scatters one pick per theme and its recall collapses
    toward ~1/n_clusters.
    """
    if n <= 0:
        raise TAPError("instance size must be positive")
    if n_clusters < 2 or n < n_clusters:
        raise TAPError("need at least 2 clusters and n >= n_clusters")
    rng = derive_rng(seed, "tap-clustered", n)
    centers = _separated_centers(n_clusters, rng, min_separation=center_separation)
    cluster_of = rng.integers(n_clusters, size=n)
    # Guarantee no empty cluster (round-robin the first n_clusters points).
    cluster_of[:n_clusters] = np.arange(n_clusters)
    points = centers[cluster_of] + rng.normal(0.0, cluster_spread, (n, 2))
    diff = points[:, None, :] - points[None, :, :]
    distances = np.sqrt((diff**2).sum(axis=2))

    # Deal global rank positions round-robin over clusters.
    members: list[list[int]] = [[] for _ in range(n_clusters)]
    for idx, c in enumerate(cluster_of):
        members[int(c)].append(idx)
    for cluster in members:
        rng.shuffle(cluster)
    position = np.empty(n, dtype=np.int64)
    base_priority = rng.permutation(n_clusters).astype(np.float64)
    cursor = 0
    level = 0
    while cursor < n:
        noisy = base_priority + rng.gumbel(0.0, priority_noise, n_clusters)
        order = np.argsort(noisy)
        for c in order:
            if level < len(members[c]):
                position[members[c][level]] = cursor
                cursor += 1
        level += 1
    interests = 1.0 - (position + 1.0) / (n + 2.0)
    costs = np.ones(n) if uniform_cost else rng.uniform(0.5, 1.5, n)
    return TAPInstance(list(range(n)), interests, costs, distances)


def _separated_centers(
    n_clusters: int, rng: np.random.Generator, min_separation: float
) -> np.ndarray:
    """Cluster centres in [0.1, 0.9]² with pairwise separation (best effort)."""
    centers: list[np.ndarray] = []
    attempts = 0
    while len(centers) < n_clusters:
        candidate = rng.random(2) * 0.8 + 0.1
        attempts += 1
        separation = min_separation if attempts < 300 * n_clusters else 0.0
        if all(np.linalg.norm(candidate - c) >= separation for c in centers):
            centers.append(candidate)
    return np.asarray(centers)


def random_hamming_instance(
    n: int,
    seed: int,
    uniform_cost: bool = True,
    weights: DistanceWeights = DEFAULT_WEIGHTS,
) -> TAPInstance[ComparisonQuery]:
    """Random comparison queries with the production weighted-Hamming metric."""
    if n <= 0:
        raise TAPError("instance size must be positive")
    rng = derive_rng(seed, "tap-hamming", n)
    queries = random_comparison_queries(n, rng)
    distances = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = query_distance(queries[i], queries[j], weights)
            distances[i, j] = d
            distances[j, i] = d
    interests = rng.random(n)
    costs = np.ones(n) if uniform_cost else rng.uniform(0.5, 1.5, n)
    return TAPInstance(queries, interests, costs, distances)
