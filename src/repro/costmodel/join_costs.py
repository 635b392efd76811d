"""General spatial join costs (Section 4.4, Figures 11-13).

Strategy II's accounting follows the paper's approximation: a pair at
height ``i`` is examined with probability ``pi(i, i-1)`` (the two parent
conditions are highly correlated, so only one factor is charged -- a
deliberate overestimate), giving ``pi(i, i-1) * k^(2i)`` matches per
level, each of which runs two SELECT passes over the partner subtrees.
"""

from __future__ import annotations

import math

from repro.costmodel.distributions import Distribution
from repro.costmodel.parameters import ModelParameters
from repro.costmodel.yao import yao


def d_nested_loop(params: ModelParameters) -> float:
    """``D_I``: all pairs checked, blocked (M-10)-page memory technique.

    ``D_I = N^2 * C_Theta
            + (ceil(N / (m * (M - 10))) + 1) * ceil(N/m) * C_IO``
    """
    passes = -(-params.N // (params.m * (params.big_m - 10)))
    return (
        float(params.N) ** 2 * params.c_theta
        + (passes + 1) * params.relation_pages * params.c_io
    )


def d_tree_computation(dist: Distribution) -> float:
    """``D_II^Theta``: predicate evaluations of Algorithm JOIN.

    ``C_Theta * sum_{i=0}^{n} pi(i, i-1) * k^(2i)
       * (1 + sum_{j=i}^{n-1} (pi(i, j) + pi(j, i)) * k^(j-i+1))``

    with the technical convention ``pi(0, -1) = 1``.  The inner sum is the
    two JOIN4 SELECT passes over the partner subtrees (their shared
    ``(a, b)`` comparison counted once).
    """
    params = dist.params
    total = 0.0
    for i in range(params.n + 1):
        qual_pairs = dist.pi(i, i - 1) * params.k ** (2 * i)
        if qual_pairs == 0.0:
            continue
        passes = 1.0
        for j in range(i, params.n):
            passes += (dist.pi(i, j) + dist.pi(j, i)) * params.k ** (j - i + 1)
        total += qual_pairs * passes
    return params.c_theta * total


def participating_nodes(dist: Distribution) -> float:
    """Nodes of one tree taking part: ``1 + sum_i pi(0, i) * k^(i+1)``.

    A node participates when its parent Theta-matches at least the other
    tree's root.
    """
    params = dist.params
    return 1.0 + sum(
        dist.pi(0, i) * params.k ** (i + 1) for i in range(params.n)
    )


def _memory_passes(dist: Distribution) -> int:
    """Passes of the (M-10)-page blocked technique over the partner tree."""
    params = dist.params
    chunk = params.m * (params.big_m - 10)
    return max(1, math.ceil(participating_nodes(dist) / chunk))


def d_tree_unclustered(dist: Distribution) -> float:
    """``D_IIa``: computation + I/O with random node placement.

    Per pass, scanning the partner tree costs
    ``sum_i Y(ceil(pi(0,i) * k^(i+1)), ceil(N/m), N)``; paging in the own
    tree's participating nodes adds the symmetric term once.
    """
    params = dist.params
    scan_cost = sum(
        yao(
            math.ceil(dist.pi(0, i) * params.k ** (i + 1)),
            params.relation_pages,
            params.N,
        )
        for i in range(params.n)
    )
    own_cost = sum(
        yao(
            math.ceil(dist.pi(i, 0) * params.k ** (i + 1)),
            params.relation_pages,
            params.N,
        )
        for i in range(params.n)
    )
    io = _memory_passes(dist) * scan_cost + own_cost
    return d_tree_computation(dist) + params.c_io * io


def d_tree_clustered(dist: Distribution) -> float:
    """``D_IIb``: as IIa with sibling-clustered page layout.

    Per-level I/O becomes ``Y(ceil(pi * k^i), ceil(k^(i+1)/m), k^i)``.
    """
    params = dist.params

    def clustered_level(prob: float, i: int) -> float:
        level_pages = -(-(params.k ** (i + 1)) // params.m)
        return yao(math.ceil(prob * params.k**i), level_pages, params.k**i)

    scan_cost = sum(clustered_level(dist.pi(0, i), i) for i in range(params.n))
    own_cost = sum(clustered_level(dist.pi(i, 0), i) for i in range(params.n))
    io = _memory_passes(dist) * scan_cost + own_cost
    return d_tree_computation(dist) + params.c_io * io


def expected_join_cardinality(dist: Distribution) -> float:
    """``sum_i sum_j pi(i, j) * k^i * k^j`` -- expected qualifying pairs."""
    params = dist.params
    return sum(
        dist.pi(i, j) * params.k**i * params.k**j
        for i in range(params.n + 1)
        for j in range(params.n + 1)
    )


def d_join_index(dist: Distribution) -> float:
    """``D_III``: read the index, then retrieve the qualifying tuples.

    Components (the printed formula is corrupted in the available copy;
    the reconstruction follows the prose step by step):

    * index pages: ``ceil(J / z)`` with ``J`` the expected pair count;
    * R-side participating tuples ``E_R = sum_i pi(i, 0) * k^i`` are
      cycled through memory in ``ceil(E_R / (m * (M - 10)))`` passes;
    * per pass, each S tuple matches something in memory with probability
      ``q = 1 - (1 - J/N^2)^(m * (M-10))`` and the matching S tuples are
      fetched via Yao: ``Y(ceil(q * N), ceil(N/m), N)``;
    * the participating R tuples themselves are read once (Yao).
    """
    params = dist.params
    j_pairs = expected_join_cardinality(dist)
    index_pages = math.ceil(j_pairs / params.z)

    e_r = sum(dist.pi(i, 0) * params.k**i for i in range(params.n + 1))
    chunk = params.m * (params.big_m - 10)
    passes = max(1, math.ceil(e_r / chunk))

    pair_prob = min(1.0, j_pairs / float(params.N) ** 2)
    # Probability that an S tuple matches at least one in-memory R tuple.
    q = 1.0 - (1.0 - pair_prob) ** min(chunk, max(e_r, 1.0))
    s_fetch = yao(math.ceil(q * params.N), params.relation_pages, params.N)
    r_fetch = yao(math.ceil(e_r), params.relation_pages, params.N)

    return params.c_io * (index_pages + passes * s_fetch + r_fetch)
