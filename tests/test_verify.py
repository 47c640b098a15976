"""Tests of the verify suite: its batched tangent-sum check against per-subset
references, and its one reduction rule (worst deviation, floored at 0.0, a NaN
fails the check)."""

import math
from itertools import combinations

import numpy as np
import pytest

from fpsearch import cli, combinat, complexpoly, sim2d
from fpsearch.combinat import tangent_sum_terms
from fpsearch.verify import SUBSETS_PER_CASE, _result, check_tangent_sum, run_verification


def _sampled_cases(L, k, rng):
    if math.comb(L, k) <= SUBSETS_PER_CASE:
        return [list(c) for c in combinations(range(L), k)]
    # the check's rng.permuted(..., axis=1) shuffles its rows in order, as one rng.shuffle per row does
    cases = []
    for _ in range(SUBSETS_PER_CASE):
        row = np.arange(L)
        rng.shuffle(row)
        cases.append(row[:k])
    return cases


def test_tangent_sum_leaves_rng_as_one_draw_per_case():
    # the rng checks after it see the state that one rng.permuted per sampled (L, k) case leaves
    rng = np.random.default_rng(42)
    check_tangent_sum(25, rng)
    ref = np.random.default_rng(42)
    for L in range(3, 26, 2):
        for k in range(1, L + 1):
            if math.comb(L, k) > SUBSETS_PER_CASE:
                ref.permuted(np.tile(np.arange(L), (SUBSETS_PER_CASE, 1)), axis=1)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_tangent_sum_matches_per_subset_reference(monkeypatch):
    dev = 0.0
    reference = []
    ref_rng = np.random.default_rng(7)
    for L in range(3, 14, 2):
        for k in range(1, L + 1):
            expected = float(L) if k % 2 == 0 else 0.0
            cases = _sampled_cases(L, k, ref_rng)
            reference.append((L, np.array(cases)))
            for subset in cases:
                terms = tangent_sum_terms(L, subset)
                max_term = float(np.max(np.abs(terms)))
                gap = abs(terms.sum() - expected)
                dev = max(dev, gap / max_term if max_term else gap)
    # the check must test the reference's subsets, sampled ones included, not only match its worst deviation
    seen = []

    def recording(L, cases):
        seen.append((L, cases))
        return tangent_sum_terms(L, cases)

    monkeypatch.setattr(combinat, "tangent_sum_terms", recording)
    result = check_tangent_sum(13, np.random.default_rng(7))
    assert len(seen) == len(reference)
    for (L, cases), (ref_L, ref_cases) in zip(seen, reference):
        assert L == ref_L and np.array_equal(cases, ref_cases)
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
    ],
)
def test_nan_input_fails_its_checks(monkeypatch, module, name, checks):
    _patch_nan(monkeypatch, module, name)
    results = {r.check_name: r for r in run_verification(9)}
    for check in checks:
        assert math.isnan(results[check].max_deviation), check
        assert not results[check].passed, check


def test_verify_cli_exits_1_on_nan(monkeypatch, capsys, tmp_path):
    _patch_nan(monkeypatch, sim2d, "run_search")
    code = cli.main(["verify", "--output", str(tmp_path / "verify.json")])
    assert code == cli.EXIT_VERIFY_FAILED
    assert "FAILED three_way_agreement: max deviation nan" in capsys.readouterr().err


@pytest.mark.parametrize("max_L", [9.0, 9.5])
def test_non_integer_max_l_rejected(max_L):
    with pytest.raises(ValueError, match=f"max_L must be an odd integer in 3..25, got {max_L}"):
        run_verification(max_L)
