"""Tests of the verify suite: its batched tangent-sum check against per-subset
references, its batched tiling checks against broken maps, and its one
reduction rule (worst deviation, floored at 0.0, a NaN fails the check)."""

import math
import re
from collections.abc import Iterator
from itertools import combinations

import numpy as np
import pytest

from fpsearch import cli, combinat, complexpoly, sim2d
from fpsearch.combinat import tangent_prefix_terms, tangent_sum_terms
from fpsearch.verify import (
    SUBSETS_PER_CASE,
    _result,
    check_bijection,
    check_coefficient_compare,
    check_orbit_partition,
    check_reflection,
    check_tangent_sum,
    run_verification,
)


def _reference_cases(L, rng):
    # {k: the subsets case (L, k) tests}: every k-subset when there are at most
    # SUBSETS_PER_CASE of them, else the k-prefixes of SUBSETS_PER_CASE orderings
    # of [L] drawn once per L, one rng.shuffle per row, as the check's
    # rng.permuted(..., axis=1) shuffles its rows in order
    orders = []
    if any(math.comb(L, k) > SUBSETS_PER_CASE for k in range(1, L + 1)):
        for _ in range(SUBSETS_PER_CASE):
            row = np.arange(L)
            rng.shuffle(row)
            orders.append(row)
    cases = {}
    for k in range(1, L + 1):
        if math.comb(L, k) <= SUBSETS_PER_CASE:
            cases[k] = [list(c) for c in combinations(range(L), k)]
        else:
            cases[k] = [row[:k] for row in orders]
    return cases


def test_tangent_sum_leaves_rng_as_one_draw_per_sampled_l():
    # the rng checks after it see the state that one draw of SUBSETS_PER_CASE
    # row shuffles per L >= 11 leaves; an L <= 9 has no sampled case and draws nothing
    rng = np.random.default_rng(42)
    check_tangent_sum(25, rng)
    ref = np.random.default_rng(42)
    for L in range(3, 26, 2):
        _reference_cases(L, ref)
    assert rng.bit_generator.state == ref.bit_generator.state
    quiet = np.random.default_rng(42)
    check_tangent_sum(9, quiet)
    assert quiet.bit_generator.state == np.random.default_rng(42).bit_generator.state


def test_tangent_sum_matches_per_subset_prefix_reference(monkeypatch):
    dev = 0.0
    reference = {}
    ref_rng = np.random.default_rng(7)
    for L in range(3, 14, 2):
        reference[L] = _reference_cases(L, ref_rng)
        for k, cases in reference[L].items():
            expected = float(L) if k % 2 == 0 else 0.0
            for subset in cases:
                terms = tangent_sum_terms(L, subset)
                max_term = float(np.max(np.abs(terms)))
                gap = abs(terms.sum() - expected)
                dev = max(dev, gap / max_term if max_term else gap)
    # the check must test the reference's subsets, sampled ones included, not only match its worst deviation
    enumerated, orders = [], {}

    def recording_terms(L, cases):
        enumerated.append((L, cases))
        return tangent_sum_terms(L, cases)

    def recording_prefixes(L, rows):
        orders[L] = rows
        return tangent_prefix_terms(L, rows)

    monkeypatch.setattr(combinat, "tangent_sum_terms", recording_terms)
    monkeypatch.setattr(combinat, "tangent_prefix_terms", recording_prefixes)
    result = check_tangent_sum(13, np.random.default_rng(7))
    expected_enumerated = [
        (L, cases) for L, by_k in reference.items() for k, cases in by_k.items() if math.comb(L, k) <= SUBSETS_PER_CASE
    ]
    assert len(enumerated) == len(expected_enumerated)
    for (L, cases), (ref_L, ref_cases) in zip(enumerated, expected_enumerated):
        assert L == ref_L and np.array_equal(cases, ref_cases)
    assert sorted(orders) == [11, 13]
    for L, rows in orders.items():
        for k, ref_cases in reference[L].items():
            if math.comb(L, k) > SUBSETS_PER_CASE:
                assert np.array_equal(rows[:, :k], ref_cases)
    assert result.max_deviation == dev
    assert result.passed


@pytest.mark.parametrize(
    "devs, expected",
    [
        ([], 0.0),
        ([-0.0], 0.0),
        ([np.array([-0.0, -1.0])], 0.0),
        ([0.5, np.array([2.0, 1.0]), 1.5], 2.0),
        ([1.0, math.nan, 2.0], math.nan),
        ([np.array([1.0, np.nan]), 2.0], math.nan),
    ],
    ids=["none", "negative_zero", "negative_zero_array", "mixed", "nan_float", "nan_array"],
)
def test_result_takes_worst_deviation_floored_at_zero(devs, expected):
    result = _result("c", None, {}, devs, 1.0)
    if math.isnan(expected):
        assert math.isnan(result.max_deviation)
        assert not result.passed
    else:
        # +0.0, not -0.0: the JSON output prints the sign
        assert math.copysign(1.0, result.max_deviation) == 1.0
        assert result.max_deviation == expected


def _nan_copy(value):
    if isinstance(value, Iterator):
        return map(_nan_copy, value)
    if isinstance(value, tuple):
        return tuple(map(_nan_copy, value))
    if isinstance(value, sim2d.TwoDimState):
        return sim2d.TwoDimState(r_amp=value.r_amp * np.nan, t_amp=value.t_amp * np.nan)
    return np.full_like(value, np.nan)


def _patch_nan(monkeypatch, module, name):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: _nan_copy(real(*args, **kwargs)))


@pytest.mark.parametrize(
    "module, name, checks",
    [
        (sim2d, "run_search", ("three_way_agreement", "run_search_unitarity", "subspace_reduction")),
        (complexpoly, "quasi_cheb_closed", ("quasi_cheb_closed_form", "quasi_cheb_boundedness")),
        (combinat, "tangent_sum_terms", ("tangent_sum_identity",)),
        (combinat, "tangent_prefix_terms", ("tangent_sum_identity",)),
        (combinat, "vieta_terms", ("tangent_base_cases", "vieta_identity")),
        (combinat, "coefficient_compare", ("coefficient_compare",)),
    ],
)
def test_nan_input_fails_its_checks(monkeypatch, module, name, checks):
    _patch_nan(monkeypatch, module, name)
    # max_L 11: the smallest that has sampled tangent-sum cases
    results = {r.check_name: r for r in run_verification(11)}
    for check in checks:
        assert math.isnan(results[check].max_deviation), check
        assert not results[check].passed, check


def _shift_by_one(real):
    # a rotation by one position: it maps the star tilings onto themselves, but is no involution
    return lambda bits: np.roll(real(bits), 1, axis=-1)


def _invalid_row(real):
    # the rotation by one yields all-domino rows, which overlap
    return lambda bits, j: np.ones_like(bits) if j == 1 else real(bits, j)


def _dropped_part(real):
    return lambda L: {name: part for name, part in real(L).items() if name != "wrap_domino"}


def _odd_power_added(real):
    # 1.0 more on the w^1 coefficient of every row of both weightings: A - B stays 0, so only
    # the odd-power verdict can fail the check
    return lambda L: tuple(table + (np.arange(table.shape[1]) == 1) for table in real(L))


@pytest.mark.parametrize(
    "name, broken, check",
    [
        ("reflect", _shift_by_one, check_reflection),
        ("rotation_orbit", _invalid_row, check_orbit_partition),
        ("star_line_partition", _dropped_part, check_bijection),
        ("coefficient_compare", _odd_power_added, check_coefficient_compare),
    ],
)
def test_broken_tiling_map_fails_its_check(monkeypatch, name, broken, check):
    # each batched tiling check passes on the real map and fails once the map is broken
    assert check(9).passed
    monkeypatch.setattr(combinat, name, broken(getattr(combinat, name)))
    result = check(9)
    assert not result.passed
    assert result.max_deviation >= 1.0


def test_verify_cli_exits_1_on_nan(monkeypatch, capsys, tmp_path):
    _patch_nan(monkeypatch, sim2d, "run_search")
    code = cli.main(["verify", "--output", str(tmp_path / "verify.json")])
    assert code == cli.EXIT_VERIFY_FAILED
    assert "FAILED three_way_agreement: max deviation nan" in capsys.readouterr().err


@pytest.mark.parametrize("max_L", [9.0, 9.5])
def test_non_integer_max_l_rejected(max_L):
    with pytest.raises(ValueError, match=f"max_L must be an odd integer in 3..25, got {max_L}"):
        run_verification(max_L)


@pytest.mark.parametrize("seed", ["0.5", 0.3, np.array(0.3), True, np.array([]), None])
def test_non_integer_seed_rejected(seed):
    # None would draw fresh entropy, so the run would not reproduce
    with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
        run_verification(3, seed)


@pytest.mark.parametrize("seed", [-1, -(2**70), np.int64(-5)])
def test_negative_seed_named(seed):
    # numpy's own message, "expected non-negative integer", names neither the seed nor its value
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {int(seed)}$"):
        run_verification(3, seed)
