"""Tests for the distorted greedy trainer, refinement, and prediction."""

import copy
import math
import random
from collections import Counter
from dataclasses import asdict, replace

import pytest

from conftest import (
    plain_local_search,
    random_dataset,
    random_hyperparams,
    table_three_tic_tac_toe_rules,
)
from rulecover.dataset import BinaryDataset, binarize
from rulecover.datasets import tic_tac_toe
from rulecover.exact_oracle import brute_force_ruleset_opt
from rulecover import exact_oracle, learner
from rulecover.learner import (
    TrainConfig,
    _alpha,
    distorted_greedy,
    predict_dataset,
    refine,
    train,
)
from rulecover.objective import (
    SUBPROBLEM_MODES,
    TOL,
    ConfigError,
    Hyperparams,
    Rule,
    RuleSet,
    metrics,
    profit,
)
from rulecover.subproblem import build_instance


def test_alpha_schedule_shape():
    K = 8
    values = [_alpha(k, K) for k in range(1, K + 1)]
    assert values[0] == pytest.approx(0.875**7)
    assert values[0] == pytest.approx(0.3927, abs=5e-5)
    assert values[-1] == 1.0
    for a, b in zip(values, values[1:]):
        assert b > a


def test_alpha_schedule_single_step_is_undistorted():
    # 0^0 is taken as 1, so K = 1 runs one plain greedy step
    assert _alpha(1, 1) == 1.0


def test_train_config_validation():
    for mode in SUBPROBLEM_MODES:
        TrainConfig(subproblem=mode)
    with pytest.raises(ConfigError):
        TrainConfig(subproblem="exact")


def test_greedy_respects_rule_budget():
    rng = random.Random(1)
    for _ in range(20):
        data = random_dataset(rng, n=30, d=7)
        h = random_hyperparams(rng, max_rules=rng.randint(1, 4))
        S, report = distorted_greedy(data, TrainConfig(hyperparams=h))
        assert len(S) <= h.max_rules
        assert len(report.iterations) == h.max_rules


def test_greedy_report_profits_match_recomputation():
    rng = random.Random(2)
    for _ in range(20):
        data = random_dataset(rng, n=30, d=7)
        h = random_hyperparams(rng)
        S, report = distorted_greedy(data, TrainConfig(hyperparams=h))
        assert report.greedy_profit == pytest.approx(profit(S, data, h), abs=1e-9)
        running = RuleSet()
        for rec in report.iterations:
            assert rec.phase == "greedy"
            if rec.inserted:
                from rulecover.objective import Rule

                running.add(Rule.build(rec.rule, data))
            assert rec.profit_after == pytest.approx(profit(running, data, h), abs=1e-9)


def test_greedy_is_deterministic():
    rng = random.Random(3)
    data = random_dataset(rng, n=40, d=9)
    h = random_hyperparams(rng)
    cfg = TrainConfig(hyperparams=h)
    S1, r1 = distorted_greedy(data, cfg)
    S2, r2 = distorted_greedy(data, cfg)
    assert S1.feature_sets() == S2.feature_sets()
    # Everything but each solve's wall time.
    assert [{**rec.as_dict(), "seconds": None} for rec in r1.iterations] == [
        {**rec.as_dict(), "seconds": None} for rec in r2.iterations
    ]


def test_greedy_without_positives_learns_nothing():
    rng = random.Random(4)
    data = random_dataset(rng, n=20, d=5, pos_frac=0.0)
    S, _ = distorted_greedy(data, TrainConfig())
    assert len(S) == 0
    assert predict_dataset(S, data) == [0] * data.n


def test_greedy_profit_never_negative():
    # insertion requires a strictly positive distorted value, so the
    # learned set is never worse than predicting all zeros
    rng = random.Random(5)
    for _ in range(30):
        data = random_dataset(rng, n=25, d=6, pos_frac=rng.random())
        h = random_hyperparams(rng)
        S, report = distorted_greedy(data, TrainConfig(hyperparams=h))
        assert report.greedy_profit >= -1e-9


def _report_less_seconds(report):
    out = report.as_dict()
    for key in ("greedy_seconds", "refine_seconds", "fit_seconds"):
        del out[key]
    for it in out["iterations"]:
        del it["seconds"]
    return out


def _record_bnb(monkeypatch):
    """Route the learner's branch and bound through a recorder; returns the
    list of (instance, seed, result) it fills."""
    calls = []
    bnb = exact_oracle.bnb_max

    def recording(inst, candidates, seed=None):
        res = bnb(inst, candidates, seed=seed)
        calls.append((inst, seed, res))
        return res

    monkeypatch.setattr(learner, "bnb_max", recording)
    return calls


def test_exact_mode_on_wide_instances_is_deterministic(monkeypatch):
    # Wider than 2^24 subsets can reach the node budget: the fit still
    # runs, gives the same report twice, and no solve falls below the
    # local solver's rule, which seeds it.
    rng = random.Random(6)
    data = random_dataset(rng, n=20, d=30)
    calls = _record_bnb(monkeypatch)
    cfg = TrainConfig(subproblem="bnb")
    S1, rep1 = train(data, cfg)
    S2, rep2 = train(data, cfg)
    assert S1.feature_sets() == S2.feature_sets()
    assert _report_less_seconds(rep1) == _report_less_seconds(rep2)
    assert calls
    for inst, seed, res in calls:
        assert res.value >= inst.value(seed)


def test_budget_cut_fit_is_deterministic(monkeypatch):
    # A fit whose solves reach the node budget is still a pure function of
    # its input: the budget cuts each solve at the same node every run.
    budget = 50
    monkeypatch.setattr(exact_oracle, "NODE_BUDGET", budget)
    rng = random.Random(17)
    data = random_dataset(rng, n=200, d=24, density=0.9)
    calls = _record_bnb(monkeypatch)
    cfg = TrainConfig(hyperparams=Hyperparams(beta2=0.0, lam=0.0, max_rules=3),
                      subproblem="bnb")
    S1, rep1 = train(data, cfg)
    S2, rep2 = train(data, cfg)
    assert S1.feature_sets() == S2.feature_sets()
    assert _report_less_seconds(rep1) == _report_less_seconds(rep2)
    assert not rep1.all_proven
    cut = [r for r in rep1.iterations if r.proven_optimal is False]
    assert cut and all(r.bnb_nodes == budget for r in cut)
    for inst, seed, res in calls:
        assert res.nodes <= budget
        if not res.proven_optimal:
            assert res.nodes == budget
        assert res.value >= inst.value(seed)


def test_exact_mode_satisfies_greedy_guarantee_quickly():
    rng = random.Random(7)
    factor = 1 - 1 / math.e
    for _ in range(25):
        data = random_dataset(rng, n=20, d=5, pos_frac=0.5)
        h = random_hyperparams(rng, max_rules=2)
        cfg = TrainConfig(hyperparams=h, subproblem="bnb", refine=False)
        S, report = distorted_greedy(data, cfg)
        opt_set, opt_v = brute_force_ruleset_opt(data, h)
        gain = (h.beta1 + h.beta2) * (opt_set.covered & data.positives).bit_count()
        cost = gain - opt_v
        assert report.greedy_profit >= factor * gain - cost - 1e-9


def test_report_counts_bnb_nodes_of_exact_solves_only():
    rng = random.Random(13)
    data = random_dataset(rng, n=30, d=6)
    _, local = train(data, TrainConfig())
    assert all(r.bnb_nodes is None for r in local.iterations)
    assert local.bnb_nodes is None and local.as_dict()["bnb_nodes"] is None
    _, exact = train(data, TrainConfig(subproblem="bnb"))
    assert all(r.bnb_nodes >= 1 for r in exact.iterations)
    # A cached record repeats the node count of the solve it reuses; the
    # total counts only the solves that ran.
    run = [r for r in exact.iterations if not r.cached]
    assert 0 < len(run) < len(exact.iterations)
    assert exact.bnb_nodes == sum(r.bnb_nodes for r in run)
    assert exact.as_dict()["bnb_nodes"] == exact.bnb_nodes
    assert exact.as_dict()["solves"] == exact.solves == len(run)
    assert exact.as_dict()["cached_solves"] == exact.cached_solves
    assert exact.solves + exact.cached_solves == len(exact.iterations)
    assert [r.as_dict()["bnb_nodes"] for r in exact.iterations] == [
        r.bnb_nodes for r in exact.iterations
    ]


def _report_less_timing_and_cache(report):
    out = report.as_dict()
    for key in ("greedy_seconds", "refine_seconds", "fit_seconds", "solves",
                "cached_solves", "bnb_nodes"):
        del out[key]
    for it in out["iterations"]:
        del it["cached"], it["seconds"]
    return out


@pytest.mark.parametrize("mode", ["local", "bnb"])
def test_solve_memo_changes_no_result(monkeypatch, mode):
    rng = random.Random(14)
    cases = []
    for _ in range(20):
        data = random_dataset(rng, n=rng.randint(20, 50), d=rng.randint(3, 9))
        cases.append((data, TrainConfig(hyperparams=random_hyperparams(rng), subproblem=mode)))
    memoized = [train(data, cfg) for data, cfg in cases]

    # A fresh memo per solve: every instance is solved again.
    solve = learner._solve
    monkeypatch.setattr(
        learner, "_solve", lambda S, data, cfg, alpha, memo: solve(S, data, cfg, alpha, {})
    )
    hits = 0
    for (data, cfg), (S_memo, rep_memo) in zip(cases, memoized):
        S, rep = train(data, cfg)
        assert S.feature_sets() == S_memo.feature_sets()
        assert _report_less_timing_and_cache(rep) == _report_less_timing_and_cache(rep_memo)
        assert rep.cached_solves == 0
        assert rep.solves == rep_memo.solves + rep_memo.cached_solves
        if mode == "bnb":
            assert rep.bnb_nodes == sum(r.bnb_nodes for r in rep_memo.iterations)
        hits += rep_memo.cached_solves
    assert hits >= 1


@pytest.mark.parametrize("field, value", [
    ("beta0", 2.0), ("beta1", 1.5), ("beta2", 0.2), ("lam", 1.0),
    ("active_size", 2), ("subproblem", "bnb"),
])
def test_shared_memo_never_answers_across_configs(field, value):
    # Two configs that differ in one field that defines the instance or its
    # solver collide on (covered positives, alpha) at least at the first
    # greedy step. Fitting the second on the first's memo must equal a fit
    # on a fresh memo, down to which records are cached.
    rng = random.Random(16)
    base = TrainConfig(hyperparams=Hyperparams(
        beta0=1.0, beta1=1.0, beta2=0.1, lam=0.5, max_rules=3, active_size=4))
    if field == "subproblem":
        other = replace(base, subproblem=value)
    else:
        other = replace(base, hyperparams=replace(base.hyperparams, **{field: value}))
    for _ in range(5):
        data = random_dataset(rng, n=rng.randint(30, 50), d=rng.randint(6, 10))
        memo = {}
        train(data, base, memo)
        _, again = train(data, base, memo)
        assert again.solves == 0
        S_shared, shared = train(data, other, memo)
        S_fresh, fresh = train(data, other)
        assert S_shared.feature_sets() == S_fresh.feature_sets()
        assert _report_less_timing_and_cache(shared) == _report_less_timing_and_cache(fresh)
        assert [r.cached for r in shared.iterations] == [r.cached for r in fresh.iterations]


@pytest.mark.parametrize("mode", ["local", "bnb"])
def test_round_skips_and_seeds_change_no_result(monkeypatch, mode):
    # Unchanged fits with every local search run round by round in full
    # and every branch and bound unseeded.
    rng = random.Random(15)
    cases = []
    for _ in range(20):
        data = random_dataset(rng, n=rng.randint(20, 50), d=rng.randint(3, 9))
        h = replace(random_hyperparams(rng), active_size=rng.choice([2, 4, 16]))
        cases.append((data, TrainConfig(hyperparams=h, subproblem=mode)))
    seeded = [train(data, cfg) for data, cfg in cases]

    bnb = exact_oracle.bnb_max

    def unseeded(inst, candidates, seed=None):
        return bnb(inst, candidates)

    monkeypatch.setattr(exact_oracle, "bnb_max", unseeded)
    monkeypatch.setattr(learner, "bnb_max", unseeded)
    monkeypatch.setattr(learner, "local_combinatorial_search", plain_local_search)
    nodes = {"seeded": 0, "unseeded": 0}
    for (data, cfg), (S_seeded, rep_seeded) in zip(cases, seeded):
        S, rep = train(data, cfg)
        assert S.feature_sets() == S_seeded.feature_sets()
        assert _report_less_timing_and_nodes(rep) == _report_less_timing_and_nodes(rep_seeded)
        if mode == "bnb":
            for plain, warm in zip(rep.iterations, rep_seeded.iterations):
                assert warm.bnb_nodes <= plain.bnb_nodes
            nodes["seeded"] += rep_seeded.bnb_nodes
            nodes["unseeded"] += rep.bnb_nodes
    if mode == "bnb":
        assert nodes["seeded"] < nodes["unseeded"]


def _report_less_timing_and_nodes(report):
    out = _report_less_seconds(report)
    del out["bnb_nodes"]
    for it in out["iterations"]:
        del it["bnb_nodes"]
    return out


def test_timed_exact_solve_is_never_worse_than_local(monkeypatch):
    # Cut short by the node budget, a bnb solve still returns at least the
    # local solver's rule.
    budget = 256
    monkeypatch.setattr(exact_oracle, "NODE_BUDGET", budget)
    rng = random.Random(16)
    for _ in range(10):
        data = random_dataset(rng, n=200, d=24, density=0.9)
        inst = build_instance(RuleSet(), data, Hyperparams(lam=0.0), 1.0)
        local = learner.local_combinatorial_search(inst)
        cfg = TrainConfig(subproblem="bnb")
        feats, v, proven, nodes = learner._solve_rule(inst, cfg)
        assert v == inst.value(feats) >= inst.value(local)
        assert proven is False
        assert nodes == budget


def test_refine_never_lowers_profit():
    rng = random.Random(8)
    for _ in range(30):
        data = random_dataset(rng, n=35, d=8)
        h = random_hyperparams(rng)
        cfg = TrainConfig(hyperparams=h)
        S, report = distorted_greedy(data, cfg)
        refined = refine(S, data, cfg, report, {})
        assert report.final_profit >= report.greedy_profit - 1e-9
        assert report.final_profit == pytest.approx(profit(refined, data, h), abs=1e-9)
        assert len(refined) <= h.max_rules


def test_refine_profit_trace_is_monotone():
    rng = random.Random(9)
    for _ in range(20):
        data = random_dataset(rng, n=30, d=7)
        h = random_hyperparams(rng)
        cfg = TrainConfig(hyperparams=h)
        S, report = train(data, cfg)
        profits = [
            rec.profit_after
            for rec in report.iterations
            if rec.phase.startswith("refine")
        ]
        for a, b in zip(profits, profits[1:]):
            assert b >= a - 1e-9


def _refine_reference(S, data, cfg, report, memo, outcomes):
    """refine as it was before its replace step reused _grow: a frozen
    reference for the differential test below. outcomes counts how each
    replace step ended."""
    h = cfg.hyperparams
    S = S.copy()
    passes = 0
    for _ in range(10 * max(data.d, 1)):
        before = set(S.feature_sets())
        passes += 1
        for step in range(len(S), h.max_rules):
            record = learner._grow(S, data, cfg, memo, "refine-grow", step + 1, 1.0)
            report.iterations.append(record)
            if not record.inserted:
                break
        for idx, old in enumerate(list(S.rules)):
            if old not in S:
                continue
            v_before = profit(S, data, h)
            S.remove(old)
            (feats, v, proven, nodes), cached, seconds = learner._solve(
                S, data, cfg, 1.0, memo)
            replaced = False
            if v > TOL and feats not in S.feature_sets():
                S.add(Rule.build(feats, data))
                replaced = True
            v_after = profit(S, data, h)
            accepted = v_after > v_before + TOL
            if not accepted:
                if replaced:
                    S.remove(Rule.build(feats, data))
                S.add(old)
                outcomes["restored" if feats == old.features else "reverted"] += 1
            else:
                outcomes["swapped" if replaced else "dropped"] += 1
            report.iterations.append(learner.IterationRecord(
                phase="refine-replace", step=idx + 1, alpha=1.0,
                rule=feats if (accepted and replaced) else None, rule_value=v,
                inserted=accepted, profit_after=profit(S, data, h),
                proven_optimal=proven, bnb_nodes=nodes, cached=cached,
                seconds=seconds))
        if set(S.feature_sets()) == before:
            break
    report.refine_passes = passes
    report.final_profit = profit(S, data, h)
    return S


@pytest.mark.parametrize("mode", SUBPROBLEM_MODES)
def test_refine_matches_frozen_replace_loop(mode):
    outcomes = Counter()
    # Seeds 120-139 include local re-solves that come back worse than the
    # rule taken out (seeds 130 and 135), so every branch of the step runs.
    for seed in range(120, 140):
        rng = random.Random(seed)
        data = random_dataset(rng, n=rng.randint(20, 60), d=rng.randint(3, 12),
                              density=rng.uniform(0.3, 0.8))
        h = random_hyperparams(rng, max_rules=rng.randint(2, 6))
        cfg = TrainConfig(hyperparams=replace(h, active_size=rng.choice([1, 2, 3, 16])),
                          subproblem=mode)
        memo = {}
        S, greedy = distorted_greedy(data, cfg, memo)
        rep_new, rep_ref = copy.deepcopy(greedy), copy.deepcopy(greedy)
        S_new = refine(S, data, cfg, rep_new, dict(memo))
        S_ref = _refine_reference(S, data, cfg, rep_ref, dict(memo), outcomes)
        assert S_new.feature_sets() == S_ref.feature_sets()
        assert rep_new.refine_passes == rep_ref.refine_passes
        assert rep_new.final_profit == rep_ref.final_profit
        assert [{**asdict(r), "seconds": None} for r in rep_new.iterations] == [
            {**asdict(r), "seconds": None} for r in rep_ref.iterations
        ]
    assert {"swapped", "dropped", "restored"} <= set(outcomes), outcomes
    if mode == "local":
        assert outcomes["reverted"], outcomes


def test_train_matches_greedy_plus_refine():
    rng = random.Random(10)
    data = random_dataset(rng, n=30, d=7)
    h = random_hyperparams(rng)
    cfg = TrainConfig(hyperparams=h)
    S_all, rep_all = train(data, cfg)
    S_g, rep_g = distorted_greedy(data, cfg)
    S_r = refine(S_g, data, cfg, rep_g, {})
    assert sorted(S_all.feature_sets()) == sorted(S_r.feature_sets())
    assert rep_all.final_profit == pytest.approx(profit(S_r, data, h), abs=1e-9)


def test_train_without_refine_keeps_greedy_result():
    rng = random.Random(11)
    data = random_dataset(rng, n=30, d=7)
    cfg = TrainConfig(refine=False)
    S, report = train(data, cfg)
    assert report.final_profit == report.greedy_profit
    assert report.refine_passes == 0


def test_report_timing_fields():
    rng = random.Random(12)
    data = random_dataset(rng, n=30, d=7)
    S, report = train(data, TrainConfig())
    assert report.greedy_seconds >= 0.0
    assert report.refine_seconds >= 0.0
    assert report.fit_seconds == report.greedy_seconds + report.refine_seconds
    assert report.refine_passes >= 1
    assert report.all_proven


def test_report_times_each_solve_and_no_cached_one():
    rng = random.Random(16)
    data = random_dataset(rng, n=40, d=8)
    _, report = train(data, TrainConfig())
    cached = [r for r in report.iterations if r.cached]
    assert cached and all(r.seconds == 0.0 for r in cached)
    assert all(r.seconds > 0.0 for r in report.iterations if not r.cached)
    assert sum(r.seconds for r in report.iterations) <= report.fit_seconds
    assert [it["seconds"] for it in report.as_dict()["iterations"]] == [
        r.seconds for r in report.iterations
    ]


def predict(feature_sets, bits):
    """The single-row predictor that predict_dataset is checked against:
    1 when some rule's features are all set in the row's bits."""
    for feats in feature_sets:
        if all(bits[j] for j in feats):
            return 1
    return 0


def test_predict_on_hand_rows():
    sets = [(0, 2), (3,)]
    assert predict(sets, [1, 0, 1, 0]) == 1
    assert predict(sets, [1, 1, 0, 0]) == 0
    assert predict(sets, [0, 0, 0, 1]) == 1
    assert predict([], [1, 1, 1, 1]) == 0
    assert predict([()], [0, 0, 0, 0]) == 1


def test_predict_dataset_matches_per_row_predict():
    rng = random.Random(13)
    for _ in range(20):
        data = random_dataset(rng, n=25, d=6)
        sets = []
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(1, 3)
            feats = tuple(sorted(rng.sample(range(data.d), k)))
            if feats not in sets:
                sets.append(feats)
        preds = predict_dataset(sets, data)
        for i in range(data.n):
            assert preds[i] == predict(sets, [(c >> i) & 1 for c in data.columns])


def test_perfect_play_rules_predict_perfectly():
    table, schema = tic_tac_toe()
    data = binarize(table, schema)
    sets = table_three_tic_tac_toe_rules(data.feature_names())
    preds = predict_dataset(sets, data)
    labels = [(data.labels >> i) & 1 for i in range(data.n)]
    assert preds == labels


def test_trained_model_beats_majority_on_separable_data():
    # one planted conjunction decides the label; training must find it
    rng = random.Random(14)
    rows = [[int(rng.random() < 0.5) for _ in range(6)] for _ in range(80)]
    labels = [int(r[1] == 1 and r[4] == 1) for r in rows]
    data = BinaryDataset.from_matrix(rows, labels)
    h = Hyperparams(beta2=0.0, lam=0.1, max_rules=4)
    S, _ = train(data, TrainConfig(hyperparams=h))
    assert S.feature_sets() == [(1, 4)]
    assert metrics(S, data).accuracy == 1.0
