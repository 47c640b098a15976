"""Tests of the verify suite's batched tangent-sum check against per-subset references."""

import math
from itertools import combinations

import numpy as np

from fpsearch.combinat import tangent_sum_terms
from fpsearch.verify import SUBSETS_PER_CASE, check_tangent_sum


def _sampled_cases(L, k, rng):
    if math.comb(L, k) <= SUBSETS_PER_CASE:
        return [list(c) for c in combinations(range(L), k)]
    return [rng.choice(L, size=k, replace=False) for _ in range(SUBSETS_PER_CASE)]


def test_tangent_sum_leaves_rng_as_single_draws():
    # a given `verify --seed` reproduces earlier results only if the check draws one rng.choice per subset
    rng = np.random.default_rng(42)
    check_tangent_sum(25, rng)
    ref = np.random.default_rng(42)
    for L in range(3, 26, 2):
        for k in range(1, L + 1):
            _sampled_cases(L, k, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_tangent_sum_matches_per_subset_reference():
    dev = 0.0
    ref_rng = np.random.default_rng(7)
    for L in range(3, 14, 2):
        for k in range(1, L + 1):
            expected = float(L) if k % 2 == 0 else 0.0
            for subset in _sampled_cases(L, k, ref_rng):
                terms = tangent_sum_terms(L, subset)
                max_term = float(np.max(np.abs(terms)))
                gap = abs(terms.sum() - expected)
                dev = max(dev, gap / max_term if max_term else gap)
    result = check_tangent_sum(13, np.random.default_rng(7))
    assert result.max_deviation == dev
    assert result.passed
