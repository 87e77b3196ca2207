"""Tests for hyperparameters, rules, and the coverage objective."""

import math
import random
from dataclasses import fields

import pytest

from conftest import (
    cover_counts,
    pointwise_loss,
    random_dataset,
    random_hyperparams,
    random_rule_features,
    table_three_tic_tac_toe_rules,
)
from rulecover.objective import (
    ConfigError,
    Hyperparams,
    Metrics,
    Rule,
    RuleSet,
    coverage_gain,
    loss,
    metrics,
    preset,
    profit,
    rule_cost,
    ruleset_from_features,
)
from rulecover.datasets import tic_tac_toe
from rulecover.dataset import binarize


# Reference loss: per-sample sum over raw cover counts plus the literal
# penalty, no bit tricks.
def ref_loss(feature_sets, data, h):
    total = h.lam * sum(len(feats) for feats in feature_sets)
    for i in range(data.n):
        yhat = 0
        for feats in feature_sets:
            if all(data.columns[j] >> i & 1 for j in feats):
                yhat += 1
        y = data.labels >> i & 1
        if y == 0:
            total += h.beta0 * yhat
        elif yhat <= 1:
            total += h.beta1 * (1 - yhat)
        else:
            total += h.beta2 * (yhat - 1)
    return total


def test_hyperparams_default_is_valid():
    h = Hyperparams()
    assert h.beta0 == 1.0 and h.beta1 == 1.0 and h.beta2 == 0.1
    assert h.lam == 1.0 and h.max_rules == 16 and h.active_size == 16


def test_hyperparams_rejects_weak_false_negative_weight():
    with pytest.raises(ConfigError, match=r"requires beta1 > \(e-1\)\*beta2"):
        Hyperparams(beta1=1.0, beta2=1.0)


def test_hyperparams_boundary_is_rejected():
    b2 = 0.5
    with pytest.raises(ConfigError):
        Hyperparams(beta1=(math.e - 1) * b2, beta2=b2)
    Hyperparams(beta1=(math.e - 1) * b2 + 1e-9, beta2=b2)


def test_hyperparams_zero_overcount_needs_positive_beta1():
    Hyperparams(beta1=0.5, beta2=0.0)
    with pytest.raises(ConfigError):
        Hyperparams(beta1=0.0, beta2=0.0)


def test_hyperparams_rejects_negative_weights():
    with pytest.raises(ConfigError):
        Hyperparams(beta0=-1.0)
    with pytest.raises(ConfigError):
        Hyperparams(lam=-0.1)
    with pytest.raises(ConfigError):
        Hyperparams(max_rules=0)
    with pytest.raises(ConfigError):
        Hyperparams(active_size=0)
    for name in ("beta0", "beta1", "lam"):
        with pytest.raises(ConfigError, match="finite"):
            Hyperparams(**{name: math.inf})


@pytest.mark.parametrize("name", [f.name for f in fields(Hyperparams)])
def test_hyperparams_reject_booleans(name):
    # bool is an int subclass; True must not pass as 1.
    with pytest.raises(ConfigError, match=f"{name} must be"):
        Hyperparams(**{name: True})


def test_preset_penalized_01():
    h = preset("penalized-01", lam=4.0)
    assert (h.beta0, h.beta1, h.beta2, h.lam) == (1.0, 1.0, 0.0, 4.0)
    assert preset("penalized-01").lam == 1.0


def test_preset_overlap_eta():
    h = preset("overlap-eta", eta=0.25)
    assert (h.beta0, h.beta1, h.beta2, h.lam) == (1.0, 1.0, 0.25, 0.0)
    with pytest.raises(ConfigError):
        preset("overlap-eta")
    with pytest.raises(ConfigError):
        preset("overlap-eta", eta=1.5)


def test_preset_hamming():
    h = preset("hamming")
    assert (h.beta0, h.beta1, h.beta2, h.lam) == (1.0, 1.0, 0.0, 0.0)


def test_preset_unknown_name():
    with pytest.raises(ConfigError):
        preset("mystery")


def test_rule_sorts_features_and_builds_coverage():
    rng = random.Random(2)
    data = random_dataset(rng, n=30, d=8)
    rule = Rule.build([5, 2, 7], data)
    assert rule.features == (2, 5, 7)
    for i in range(data.n):
        row_covered = all(data.columns[j] >> i & 1 for j in (2, 5, 7))
        assert row_covered == bool(rule.coverage >> i & 1)


def test_empty_rule_covers_everything():
    rng = random.Random(3)
    data = random_dataset(rng, n=12, d=4)
    assert Rule.build([], data).coverage == data.universe


def test_ruleset_rejects_duplicate_rules():
    rng = random.Random(4)
    data = random_dataset(rng, n=20, d=6)
    S = RuleSet()
    S.add(Rule.build([1, 3], data))
    with pytest.raises(ValueError):
        S.add(Rule.build([3, 1], data))


def test_ruleset_incremental_masks_match_recompute():
    rng = random.Random(6)
    for _ in range(40):
        data = random_dataset(rng, n=25, d=7)
        S = RuleSet()
        added = set()
        for _ in range(rng.randrange(1, 5)):
            feats = random_rule_features(rng, data.d)
            if feats in added:
                continue
            added.add(feats)
            S.add(Rule.build(feats, data))
        counts = cover_counts(S, data.n)
        covered = sum(1 << i for i, c in enumerate(counts) if c >= 1)
        overlap = sum(1 << i for i, c in enumerate(counts) if c >= 2)
        assert S.covered == covered
        assert S.overlap == overlap
        if len(S) > 1:
            removed = S.rules[0]
            S.remove(removed)
            counts = cover_counts(S, data.n)
            assert S.covered == sum(1 << i for i, c in enumerate(counts) if c >= 1)
            assert S.overlap == sum(1 << i for i, c in enumerate(counts) if c >= 2)


def test_pointwise_loss_cases():
    h = Hyperparams(beta0=2.0, beta1=3.0, beta2=0.5)
    assert pointwise_loss(0, 0, h) == 0.0
    assert pointwise_loss(3, 0, h) == 6.0
    assert pointwise_loss(0, 1, h) == 3.0
    assert pointwise_loss(1, 1, h) == 0.0
    assert pointwise_loss(4, 1, h) == 1.5


def test_loss_matches_per_sample_reference():
    rng = random.Random(8)
    for _ in range(200):
        data = random_dataset(rng, n=rng.randrange(5, 40), d=rng.randrange(2, 9))
        h = random_hyperparams(rng)
        sets = []
        for _ in range(rng.randrange(0, 4)):
            feats = random_rule_features(rng, data.d)
            if feats not in sets:
                sets.append(feats)
        S = ruleset_from_features(sets, data)
        assert abs(loss(S, data, h) - ref_loss(sets, data, h)) <= 1e-9


def test_profit_loss_identity():
    # maximizing profit is minimizing loss: the two always sum to beta1*|P|
    rng = random.Random(10)
    for _ in range(200):
        data = random_dataset(rng, n=rng.randrange(5, 40), d=rng.randrange(2, 9))
        h = random_hyperparams(rng)
        sets = []
        for _ in range(rng.randrange(0, 4)):
            feats = random_rule_features(rng, data.d)
            if feats not in sets:
                sets.append(feats)
        S = ruleset_from_features(sets, data)
        total = profit(S, data, h) + loss(S, data, h)
        assert abs(total - h.beta1 * data.n_pos) <= 1e-9


def test_empty_ruleset_profit_is_zero():
    rng = random.Random(12)
    data = random_dataset(rng, n=20, d=5)
    h = random_hyperparams(rng)
    S = RuleSet()
    assert profit(S, data, h) == 0.0
    assert loss(S, data, h) == h.beta1 * data.n_pos


def test_coverage_gain_is_marginal_gain_of_covered_positives():
    rng = random.Random(14)
    for _ in range(100):
        data = random_dataset(rng, n=30, d=8)
        h = random_hyperparams(rng)
        S = RuleSet()
        S.add(Rule.build(random_rule_features(rng, data.d), data))
        rule = Rule.build(random_rule_features(rng, data.d), data)
        before = (S.covered & data.positives).bit_count()
        after = ((S.covered | rule.coverage) & data.positives).bit_count()
        expect = (h.beta1 + h.beta2) * (after - before)
        assert abs(coverage_gain(rule, S, data, h) - expect) <= 1e-9


def test_rule_cost_decomposition():
    rng = random.Random(16)
    for _ in range(100):
        data = random_dataset(rng, n=30, d=8)
        h = random_hyperparams(rng)
        feats = random_rule_features(rng, data.d)
        rule = Rule.build(feats, data)
        neg = (rule.coverage & data.negatives).bit_count()
        pos = (rule.coverage & data.positives).bit_count()
        expect = h.beta0 * neg + h.beta2 * pos + h.lam * len(feats)
        assert abs(rule_cost(rule, data, h) - expect) <= 1e-9


def test_metrics_on_perfect_tic_tac_toe_rules():
    table, schema = tic_tac_toe()
    data = binarize(table, schema)
    sets = table_three_tic_tac_toe_rules(data.feature_names())
    S = ruleset_from_features(sets, data)
    m = metrics(S, data)
    assert m.accuracy == 1.0
    assert m.n_rules == 8
    assert m.n_literals == 24
    assert abs(m.overlap - 22 / 958) <= 1e-12


def test_metrics_overlap_counts_multiply_covered_fraction():
    rng = random.Random(18)
    data = random_dataset(rng, n=16, d=6)
    # two rules with identical coverage patterns on different features
    S = RuleSet()
    S.add(Rule.build([], data))
    S.add(Rule.build([0], data))
    m = metrics(S, data)
    # rule [] covers everything, so overlap = coverage of feature 0
    assert abs(m.overlap - data.columns[0].bit_count() / data.n) <= 1e-12


def test_metrics_as_dict_keys():
    rng = random.Random(20)
    data = random_dataset(rng, n=10, d=4)
    m = metrics(RuleSet(), data)
    d = m.as_dict()
    assert set(d) == {"accuracy", "n_rules", "n_literals", "overlap"}
    assert d["n_rules"] == 0 and d["n_literals"] == 0 and d["overlap"] == 0.0
