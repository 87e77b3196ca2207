"""Tests for fold construction, cross-validation, and gap measurement."""

import random
import warnings
from dataclasses import replace

import pytest

from rulecover import evaluation
from rulecover.dataset import (
    BINARY,
    BinaryDataset,
    CATEGORICAL,
    LABEL,
    NUMERIC,
    Table,
    apply_descriptors,
    binarize,
)
from rulecover.evaluation import (
    CvPlan,
    cross_validate,
    default_grid,
    make_folds,
    relative_gap,
    select_best,
)
from rulecover.learner import TrainConfig, train
from rulecover.objective import ConfigError, Hyperparams, metrics, ruleset_from_features


def sweep(beta2_values, lambda_values, k_values, **kw):
    """A grid in default_grid's order over the given values."""
    return [
        TrainConfig(hyperparams=Hyperparams(beta2=beta2, lam=lam, max_rules=k), **kw)
        for k in k_values
        for beta2 in beta2_values
        for lam in lambda_values
    ]


def small_grid(**kw):
    return sweep((0.0,), (0.5,), (4,), **kw)


def planted_table(rng, n=60, flip=0.0):
    """Binary table whose label is (a AND b) with optional label noise."""
    names = ["a", "b", "c", "y"]
    rows = []
    for _ in range(n):
        a, b, c = (int(rng.random() < 0.5) for _ in range(3))
        y = int(a == 1 and b == 1)
        if rng.random() < flip:
            y = 1 - y
        rows.append([str(a), str(b), str(c), str(y)])
    table = Table.from_rows(names, rows)
    schema = {"a": BINARY, "b": BINARY, "c": BINARY, "y": LABEL}
    return table, schema


def test_make_folds_is_a_partition():
    rng = random.Random(1)
    labels = [rng.randint(0, 1) for _ in range(53)]
    plan = make_folds(labels, 5, seed=3)
    assert len(plan.assignment) == 53
    seen = set()
    for fold in range(5):
        train_rows, test_rows = plan.fold_rows(fold)
        assert sorted(train_rows + test_rows) == list(range(53))
        assert not seen & set(test_rows)
        seen |= set(test_rows)
    assert seen == set(range(53))


def test_make_folds_stratification_balance():
    rng = random.Random(2)
    for trial in range(10):
        n = rng.randrange(30, 120)
        labels = [int(rng.random() < 0.3) for _ in range(n)]
        k = rng.choice([2, 5, 10])
        plan = make_folds(labels, k, seed=trial)
        for cls in (0, 1):
            counts = [0] * k
            for i, y in enumerate(labels):
                if y == cls:
                    counts[plan.assignment[i]] += 1
            assert max(counts) - min(counts) <= 1


def test_make_folds_deterministic_under_seed():
    labels = [i % 2 for i in range(40)]
    assert make_folds(labels, 4, seed=9) == make_folds(labels, 4, seed=9)
    assert make_folds(labels, 4, seed=9) != make_folds(labels, 4, seed=10)


def test_cv_plan_validation():
    with pytest.raises(ConfigError):
        CvPlan(n_folds=1, seed=0, assignment=(0,))
    with pytest.raises(ConfigError):
        CvPlan(n_folds=2, seed=0, assignment=(0, 2))


def test_cross_validate_on_identical_halves_gives_identical_folds():
    # every positive row is identical and every negative row is identical,
    # so both folds see the same distribution and must produce the same
    # model and metrics
    rows = [["1", "1", "1"]] * 10 + [["0", "1", "0"]] * 10
    table = Table.from_rows(["a", "b", "y"], rows)
    schema = {"a": BINARY, "b": BINARY, "y": LABEL}
    plan = make_folds([r[2] == "1" for r in rows], 2, seed=0)
    results = cross_validate(table, schema, small_grid(), plan)
    assert len(results) == 1
    f0, f1 = results[0].folds
    assert f0.skipped is None and f1.skipped is None
    assert f0.rules == f1.rules
    assert f0.train == f1.train
    assert f0.test == f1.test
    assert f0.test.accuracy == 1.0


def test_cross_validate_learns_planted_rule():
    rng = random.Random(3)
    table, schema = planted_table(rng, n=80)
    labels = [int(v) for v in table.column("y")]
    plan = make_folds(labels, 4, seed=1)
    results = cross_validate(table, schema, small_grid(), plan)
    res = results[0]
    acc, std = res.aggregate("test", "accuracy")
    assert acc == pytest.approx(1.0)
    assert std == 0.0
    for fold in res.folds:
        assert fold.rules == [["a = 1", "b = 1"]]


def test_cross_validate_skips_single_class_training_folds():
    # the lone positive sits in fold 0, so testing fold 0 would train on
    # the negatives-only complement and must be skipped
    rows = [["1", "1"]] + [["0", "0"]] * 7
    table = Table.from_rows(["a", "y"], rows)
    schema = {"a": BINARY, "y": LABEL}
    plan = CvPlan(n_folds=2, seed=0, assignment=(0, 0, 0, 0, 1, 1, 1, 1))
    with pytest.warns(UserWarning, match="single-class"):
        results = cross_validate(table, schema, small_grid(), plan)
    skipped = [f for f in results[0].folds if f.skipped]
    assert len(skipped) == 1
    assert skipped[0].fold == 0
    acc, _ = results[0].aggregate("train", "accuracy")
    assert acc == acc  # the completed fold still aggregates


def test_cross_validate_orders_results_by_grid_then_fold():
    rng = random.Random(4)
    table, schema = planted_table(rng, n=40)
    labels = [int(v) for v in table.column("y")]
    plan = make_folds(labels, 2, seed=0)
    grid = sweep((0.0, 0.1), (0.5,), (2,))
    results = cross_validate(table, schema, grid, plan)
    assert [r.cfg for r in results] == grid
    for res in results:
        assert [f.fold for f in res.folds] == [0, 1]


def test_cross_validate_parallel_matches_serial():
    rng = random.Random(5)
    table, schema = planted_table(rng, n=40)
    labels = [int(v) for v in table.column("y")]
    plan = make_folds(labels, 2, seed=0)
    grid = sweep((0.0,), (0.5, 1.0), (2,))
    serial = cross_validate(table, schema, grid, plan, jobs=1)
    parallel = cross_validate(table, schema, grid, plan, jobs=2)

    def strip_timing(res):
        out = res.as_dict()
        for fold in out["folds"]:
            fold.pop("fit_seconds")
        return out

    assert [strip_timing(r) for r in serial] == [strip_timing(r) for r in parallel]


def test_parallel_tasks_are_sent_the_fold_alone(monkeypatch):
    # Each worker gets the table once, from the pool's initializer; a task
    # is its fold number, so no task pickles the table again.
    import concurrent.futures

    submitted, initargs = [], []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            initargs.append(kwargs.get("initargs"))
            super().__init__(*args, **kwargs)

        def submit(self, fn, *args, **kwargs):
            submitted.append(args + tuple(kwargs.values()))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    rng = random.Random(5)
    table, schema = planted_table(rng, n=40)
    labels = [int(v) for v in table.column("y")]
    plan = make_folds(labels, 3, seed=0)
    grid = sweep((0.0,), (0.5,), (2,))
    results = cross_validate(table, schema, grid, plan, jobs=2)
    assert [f.fold for f in results[0].folds] == [0, 1, 2]
    assert sorted(submitted) == [(0,), (1,), (2,)]
    assert not any(isinstance(a, Table) for args in submitted for a in args)
    [(inputs,)] = initargs
    assert inputs[0] is table


def noisy_mixed_table(rng, n=90):
    """Numeric, categorical and binary columns; the label is a noisy
    disjunction of two conjunctions, so fits take several rules."""
    rows = []
    for _ in range(n):
        x = rng.randint(0, 9)
        c = rng.choice("pqrs")
        b = rng.randint(0, 1)
        z = rng.randint(0, 4)
        y = int((x >= 6 and c in "pq") or (b == 1 and z <= 1))
        if rng.random() < 0.1:
            y = 1 - y
        rows.append([str(x), c, str(b), str(z), str(y)])
    table = Table.from_rows(["x", "c", "b", "z", "y"], rows)
    schema = {"x": NUMERIC, "c": CATEGORICAL, "b": BINARY, "z": NUMERIC, "y": LABEL}
    return table, schema


def test_shared_fold_memo_matches_fresh_fits():
    # cross_validate fits every config of a fold through one memo; each fit
    # must equal a train() of its own on a fresh memo, while fits of
    # different configs on the same fold answer some of each other's solves.
    rng = random.Random(11)
    table, schema = noisy_mixed_table(rng)
    labels = [int(v) for v in table.column("y")]
    plan = make_folds(labels, 3, seed=4)
    grid = []
    for mode in ("local", "bnb"):
        grid += sweep((0.0, 0.1), (0.5, 2.0), (2, 3, 5), subproblem=mode)
    # differs from grid[0] only in active_size
    grid.append(replace(grid[0], hyperparams=replace(grid[0].hyperparams, active_size=2)))
    seen = []
    results = cross_validate(
        table, schema, grid, plan, progress=lambda *args: seen.append(args)
    )
    assert [(fold, fits) for fold, fits, _ in seen] == [(f, len(grid)) for f in range(3)]

    cross_hits = 0
    for fold in range(plan.n_folds):
        train_rows, test_rows = plan.fold_rows(fold)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = binarize(table.select_rows(train_rows), schema)
        test_data = apply_descriptors(table.select_rows(test_rows), data.descriptors, "y")
        names = data.feature_names()
        for res in results:
            S, report = train(data, res.cfg)
            got = res.folds[fold]
            assert got.rules == [[names[j] for j in f] for f in S.feature_sets()]
            assert got.final_profit == report.final_profit
            assert got.train == metrics(S, data)
            test_set = ruleset_from_features(S.feature_sets(), test_data)
            assert got.test == metrics(test_set, test_data)
            # Same records; the shared memo only answers more of them.
            assert got.solves + got.cached_solves == report.solves + report.cached_solves
            assert got.cached_solves >= report.cached_solves
            cross_hits += got.cached_solves - report.cached_solves
    assert cross_hits > 0


def test_cross_validate_rejects_fold_without_test_rows(monkeypatch):
    # Stratified dealing of 3 positives and 3 negatives fills folds 0-2
    # only; the error must come before any fit, naming the empty fold.
    rows = [["1", "1"], ["1", "1"], ["0", "1"], ["0", "0"], ["1", "0"], ["0", "0"]]
    table = Table.from_rows(["a", "y"], rows)
    schema = {"a": BINARY, "y": LABEL}

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(evaluation, "train", no_fit)
    plan = make_folds([int(r[1]) for r in rows], 4, seed=0)
    with pytest.raises(ConfigError, match=r"fold 3 of 4 .*at most 3 folds"):
        cross_validate(table, schema, small_grid(), plan)
    plan = make_folds([int(r[1]) for r in rows], 5, seed=0)
    with pytest.raises(ConfigError, match=r"folds 3, 4 of 5 .*at most 3 folds"):
        cross_validate(table, schema, small_grid(), plan)


def test_cross_validate_rejects_mismatched_plan():
    rng = random.Random(6)
    table, schema = planted_table(rng, n=20)
    plan = make_folds([0, 1] * 5, 2, seed=0)
    with pytest.raises(ConfigError):
        cross_validate(table, schema, small_grid(), plan)
    with pytest.raises(ConfigError):
        cross_validate(table, schema, [], make_folds([0, 1] * 10, 2, seed=0))


def test_metrics_recomputable_from_reported_rules():
    rng = random.Random(7)
    table, schema = planted_table(rng, n=60, flip=0.05)
    labels = [int(v) for v in table.column("y")]
    plan = make_folds(labels, 3, seed=2)
    results = cross_validate(table, schema, small_grid(), plan)
    from rulecover.dataset import apply_descriptors, binarize
    from rulecover.objective import metrics as compute_metrics, ruleset_from_features

    for fold_res in results[0].folds:
        train_rows, test_rows = plan.fold_rows(fold_res.fold)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train_data = binarize(table.select_rows(train_rows), schema)
        names = train_data.feature_names()
        sets = [tuple(names.index(nm) for nm in rule) for rule in fold_res.rules]
        test_data = apply_descriptors(
            table.select_rows(test_rows), train_data.descriptors, "y"
        )
        S = ruleset_from_features(sets, test_data)
        assert compute_metrics(S, test_data) == fold_res.test


def test_default_grid_composition():
    grid = default_grid()
    assert len(grid) == 54
    assert all(c.hyperparams.beta0 == 1.0 and c.hyperparams.beta1 == 1.0 for c in grid)
    combos = {
        (c.hyperparams.max_rules, c.hyperparams.beta2, c.hyperparams.lam) for c in grid
    }
    assert len(combos) == 54


def test_select_best_prefers_accuracy_then_brevity():
    rng = random.Random(8)
    table, schema = planted_table(rng, n=60)
    labels = [int(v) for v in table.column("y")]
    plan = make_folds(labels, 2, seed=0)
    # lam=0 tolerates clutter; a positive literal price forces the minimal
    # rule while both reach perfect training accuracy
    grid = sweep((0.0,), (0.0, 0.5), (4,))
    results = cross_validate(table, schema, grid, plan)
    best = select_best(results)
    acc0, _ = results[0].aggregate("train", "accuracy")
    acc1, _ = results[1].aggregate("train", "accuracy")
    if acc0 == acc1:
        lit0, _ = results[0].aggregate("train", "n_literals")
        lit1, _ = results[1].aggregate("train", "n_literals")
        assert results[best].aggregate("train", "n_literals")[0] == min(lit0, lit1)
    with pytest.raises(ConfigError):
        select_best([])


def test_relative_gap_zero_when_both_solvers_agree():
    rng = random.Random(9)
    rows = [[int(rng.random() < 0.5) for _ in range(5)] for _ in range(60)]
    labels = [int(r[0] == 1 and r[2] == 1) for r in rows]
    data = BinaryDataset.from_matrix(rows, labels)
    cfg = TrainConfig(hyperparams=Hyperparams(beta2=0.0, lam=0.2, max_rules=3))
    res = relative_gap(data, cfg)
    assert res.gap is not None
    assert res.gap == pytest.approx(0.0, abs=1e-12)
    assert res.proven_optimal
    assert res.v_approx == pytest.approx(res.v_bnb)


def test_relative_gap_none_when_nothing_learnable():
    rng = random.Random(10)
    rows = [[int(rng.random() < 0.5) for _ in range(4)] for _ in range(30)]
    data = BinaryDataset.from_matrix(rows, [0] * 30)
    cfg = TrainConfig(hyperparams=Hyperparams(beta2=0.0, lam=0.5, max_rules=2))
    res = relative_gap(data, cfg)
    assert res.v_bnb == 0.0
    assert res.gap is None
    assert res.approx_rules == [] and res.bnb_rules == []
