"""Random layered DAGs and linear Gaussian structural equation models.

Reproducibility: generators take a numpy ``Generator``; the helpers below
build them from integer seeds using the counter-based Philox algorithm
(identifier "philox4x64"), and replicate-level work derives independent
per-replicate streams by spawning a root ``SeedSequence``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import PodagError
from .graph import Dag, PartialOrdering
from .stats import CovMatrix, Dataset

__all__ = [
    "GenConfig",
    "Sem",
    "rng_from_seed",
    "spawn_rngs",
    "generate_layered_dag",
    "random_weights",
    "sample",
    "population_covariance",
    "TOY_TWO_LAYER_EDGES",
    "toy_two_layer_sem",
]

RNG_ALGORITHM = "philox4x64"


def rng_from_seed(seed):
    """Generator backed by the counter-based Philox bit stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawn_rngs(seed, count):
    """Independent per-replicate generators derived from one root seed."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


@dataclass(frozen=True)
class GenConfig:
    """Settings for random layered-DAG generation.

    ``expected_edges_per_node`` fixes the expected total edge count at
    ``n_nodes * expected_edges_per_node / 2`` (undirected skeleton density
    convention).  ``cross_edge_bias`` multiplies the connection probability
    of between-layer pairs relative to within-layer pairs, with the global
    rate renormalized to preserve the expected count.
    """

    n_nodes: int
    expected_edges_per_node: float = 2.0
    layers: int = 2
    cross_edge_bias: float = 2.0
    weight_range: tuple = (0.1, 1.0)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if self.expected_edges_per_node < 0:
            raise ValueError("expected_edges_per_node must be nonnegative")
        if not 1 <= self.layers <= self.n_nodes:
            raise ValueError("layers must be between 1 and n_nodes")
        lo, hi = self.weight_range
        if not 0 < lo < hi:
            raise ValueError("weight_range must satisfy 0 < lo < hi")
        if self.cross_edge_bias <= 0:
            raise ValueError("cross_edge_bias must be positive")


@dataclass(frozen=True)
class Sem:
    """Linear Gaussian SEM: ``W_j = sum_k theta[j, k] W_k + eps_j``.

    ``weights[j, k]`` is nonzero exactly when ``k -> j`` is an edge of the
    DAG; noise standard deviations are strictly positive.
    """

    dag: Dag
    weights: np.ndarray
    noise_sd: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        noise = np.asarray(self.noise_sd, dtype=float)
        m = self.dag.n_nodes
        if weights.shape != (m, m):
            raise ValueError("weights must be an m x m matrix")
        if noise.shape != (m,):
            raise ValueError("noise_sd must have one entry per node")
        if np.any(noise <= 0):
            raise ValueError("noise_sd must be strictly positive")
        nz = {(int(k), int(j)) for j, k in zip(*np.nonzero(weights))}
        if nz != set(self.dag.edges):
            raise ValueError("nonzero weights must coincide with DAG edges")
        weights.setflags(write=False)
        noise.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "noise_sd", noise)

    def to_json(self, ordering=None):
        """Serialize to the JSON document format."""
        doc = {
            "rng": RNG_ALGORITHM,
            "nodes": list(self.dag.labels),
            "edges": [
                [self.dag.labels[k], self.dag.labels[j], float(self.weights[j, k])]
                for (k, j) in sorted(self.dag.edges)
            ],
            "noise_sd": [float(x) for x in self.noise_sd],
        }
        if ordering is not None:
            doc["layers"] = [
                [self.dag.labels[v] for v in sorted(layer)] for layer in ordering.layers
            ]
            if ordering.unordered:
                doc["unordered"] = [self.dag.labels[v] for v in sorted(ordering.unordered)]
        return json.dumps(doc, indent=2, sort_keys=True)


def generate_layered_dag(cfg, rng):
    """Draw a random DAG together with the layering it respects.

    A random topological order is split into ``cfg.layers`` equal blocks;
    each ordered pair consistent with the order is included independently,
    with between-layer pairs up-weighted by ``cfg.cross_edge_bias`` and the
    overall rate chosen so the expected edge count is
    ``n_nodes * expected_edges_per_node / 2``.

    Raises
    ------
    PodagError
        If the requested expected degree forces a probability above one.
    """
    n = cfg.n_nodes
    order = rng.permutation(n)
    bounds = np.linspace(0, n, cfg.layers + 1).round().astype(int)
    layers = [set(order[bounds[i]:bounds[i + 1]]) for i in range(cfg.layers)]
    layers = [layer for layer in layers if layer]
    layer_of = {}
    for idx, layer in enumerate(layers):
        for v in layer:
            layer_of[v] = idx

    pairs = []  # (parent, child, is_cross)
    for a in range(n):
        for b in range(a + 1, n):
            u, v = order[a], order[b]
            pairs.append((u, v, layer_of[u] != layer_of[v]))
    n_cross = sum(1 for _, _, c in pairs if c)
    n_within = len(pairs) - n_cross
    target = n * cfg.expected_edges_per_node / 2.0
    denom = n_within + cfg.cross_edge_bias * n_cross
    if denom == 0 or target == 0:
        p_within = p_cross = 0.0
    else:
        p_within = target / denom
        p_cross = cfg.cross_edge_bias * p_within
    if p_within > 1 or p_cross > 1:
        raise PodagError(
            f"infeasible expected degree: within/cross probabilities "
            f"{p_within:.3f}/{p_cross:.3f} exceed 1"
        )
    draws = rng.random(len(pairs))
    edges = [
        (u, v)
        for (u, v, cross), x in zip(pairs, draws)
        if x < (p_cross if cross else p_within)
    ]
    dag = Dag(n, edges)
    ordering = PartialOrdering(layers, n_nodes=n)
    return dag, ordering


def random_weights(dag, rng, weight_range=(0.1, 1.0), noise_sd=1.0):
    """Attach edge weights drawn uniformly from (-hi, -lo) + (lo, hi)."""
    lo, hi = weight_range
    if not 0 < lo < hi:
        raise ValueError("weight_range must satisfy 0 < lo < hi")
    m = dag.n_nodes
    weights = np.zeros((m, m))
    for k, j in sorted(dag.edges):
        magnitude = rng.uniform(lo, hi)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        weights[j, k] = sign * magnitude
    noise = np.full(m, float(noise_sd))
    return Sem(dag, weights, noise)


def sample(sem, n, rng):
    """Draw ``n`` observations by solving the SEM in topological order."""
    if n < 1:
        raise ValueError("n must be positive")
    m = sem.dag.n_nodes
    eps = rng.standard_normal((n, m)) * sem.noise_sd
    data = np.zeros((n, m))
    for j in sem.dag.topological_order():
        parents = sorted(sem.dag.parents(j))
        col = eps[:, j].copy()
        if parents:
            col += data[:, parents] @ sem.weights[j, parents]
        data[:, j] = col
    return Dataset(data, labels=sem.dag.labels)


def population_covariance(sem):
    """Exact Gaussian covariance implied by the SEM.

    ``Sigma = (I - Theta)^-1 D (I - Theta)^-T`` with ``D`` the diagonal of
    noise variances; invertibility is guaranteed by acyclicity.
    """
    m = sem.dag.n_nodes
    ident = np.eye(m)
    minv = np.linalg.solve(ident - sem.weights, ident)
    cov = minv @ np.diag(sem.noise_sd**2) @ minv.T
    return CovMatrix(cov)


# Four-node toy network used throughout the documentation and tests:
# X1 -> X2, X1 -> Y1, Y1 -> Y2, X2 -> Y2 with layers {X1, X2} < {Y1, Y2}.
TOY_TWO_LAYER_EDGES = ((0, 1), (0, 2), (2, 3), (1, 3))


def toy_two_layer_sem(weight=1.0):
    """The four-node two-layer toy SEM with unit-size weights and noise."""
    labels = ("X1", "X2", "Y1", "Y2")
    dag = Dag(4, TOY_TWO_LAYER_EDGES, labels=labels)
    weights = np.zeros((4, 4))
    for k, j in TOY_TWO_LAYER_EDGES:
        weights[j, k] = weight
    sem = Sem(dag, weights, np.ones(4))
    ordering = PartialOrdering([{0, 1}, {2, 3}], n_nodes=4)
    return sem, ordering
