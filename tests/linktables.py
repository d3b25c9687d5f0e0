"""Shared test helpers: a :class:`LinkTable` from ``(i, j, count)``
triples, and a hypothesis strategy of tie-heavy merge problems."""

import random

import numpy as np
from hypothesis import strategies as st

from repro.core.goodness import default_f, goodness, naive_goodness
from repro.core.links import LinkTable


def link_table(n, triples):
    """Sum ``(i, j, count)`` triples into a table, as Figure 4 would.

    Either orientation of a pair adds to the same entry; the summed
    pairs go through :meth:`LinkTable.from_pair_counts`, so a self pair
    or a non-positive total raises ``ValueError``.
    """
    summed = {}
    for i, j, count in triples:
        key = (min(i, j), max(i, j))
        summed[key] = summed.get(key, 0) + count
    codes = np.array([i * n + j for i, j in summed], dtype=np.int64)
    return LinkTable.from_pair_counts(n, codes, np.array(list(summed.values())))


@st.composite
def replicated_components(draw):
    """Many copies of one small linked component, ids interleaved.

    Every copy's stream has the same goodness sequence, so stream heads
    from different components tie at every step and the replay's
    ``(-goodness, u id)`` rule decides; shuffling the point ids makes
    that order differ from the component order.  Draws ``(n, triples,
    k, initial_clusters, goodness_fn, f_theta)`` with integer or float
    counts, both goodness measures, ``f(theta)`` in {0, default}, ``k``
    from 1 to past the component count, and (optionally) a starting
    partition built from one template per copy, with isolated clusters
    that have no cross links and uncovered points.
    """
    size = draw(st.integers(min_value=2, max_value=5))
    if draw(st.booleans()):
        counts = st.floats(min_value=0.05, max_value=8.0, width=64)
    else:
        counts = st.integers(min_value=1, max_value=6).map(float)
    template_pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    template = draw(
        st.dictionaries(st.sampled_from(template_pairs), counts, min_size=1)
    )
    copies = draw(st.integers(min_value=2, max_value=12))
    isolated = draw(st.integers(min_value=0, max_value=3))
    n = size * copies + isolated
    perm = list(range(n))
    if draw(st.booleans()):
        random.Random(draw(st.integers(0, 2**16))).shuffle(perm)
    triples = [
        (perm[q * size + i], perm[q * size + j], count)
        for q in range(copies)
        for (i, j), count in template.items()
    ]
    k = draw(st.integers(min_value=1, max_value=copies + isolated + 2))
    initial = None
    if draw(st.booleans()):
        block_of = draw(
            st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
        )
        initial = [
            [perm[q * size + i] for i in range(size) if block_of[i] == b]
            for q in range(copies)
            for b in range(size)
            if b in block_of
        ]
        loose = perm[size * copies :]
        covered = draw(st.integers(min_value=0, max_value=len(loose)))
        if covered:
            initial.append(loose[:covered])
    goodness_fn = draw(st.sampled_from([goodness, naive_goodness]))
    f_theta = draw(st.sampled_from([0.0, default_f(0.5)]))
    return n, triples, k, initial, goodness_fn, f_theta
