"""Cross-validation, grid search, and approximation-gap experiments.

Folds are stratified: each class is shuffled separately under the seed
and dealt round-robin, so per-fold class counts differ by at most one.
Binarization happens inside each fold on the training split only; test
rows are encoded with the trained descriptors, so cut points and category
lists never leak.

cross_validate runs one task per fold. The task binarizes the training
split and encodes the test split once, then fits every grid config on
them in grid order through one solve memo. Sharing the memo changes no
result. A solve is a pure function of the training data, the positives
already covered, alpha, the objective weights, active_size and the mode:
build_instance reads nothing else, the solvers are deterministic, and the
node budget cuts a branch and bound at the same node on every run. The
memo key (learner._solve) holds every one of those but the data, which
is the fold's own for every fit in the task. A hit from another config
is thus the very result that config would have computed, and the fit
that takes it follows the same steps, with the same rules, profits and
metrics, as on a fresh memo; only its solves and cached_solves counts
and its seconds differ. Configs run in grid order in every task, so
those counts are the same with and without jobs.

Grid selection follows mean training-split accuracy with ties broken by
fewer literals. relative_gap trains the same configuration twice, with
the local-search and the branch-and-bound subproblem solvers, the latter
under its fixed node budget, and reports [V_bnb - V_approx] / V_bnb.
"""

from __future__ import annotations

import math
import random
import statistics
import time
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Sequence

from .dataset import BinaryDataset, Table, apply_descriptors, binarize, check_schema
from .learner import SolveMemo, TrainConfig, train
from .modelio import hyperparams_to_json
from .objective import (
    TOL,
    ConfigError,
    Hyperparams,
    Metrics,
    metrics,
    profit,
    ruleset_from_features,
)

GRID_BETA2 = (0.5, 0.1, 0.01)
GRID_LAMBDA = (0.1, 1.0, 4.0, 8.0, 16.0, 64.0)
GRID_K = (8, 16, 32)


@dataclass(frozen=True)
class CvPlan:
    """Per-sample fold assignment."""

    n_folds: int
    seed: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_folds < 2:
            raise ConfigError("n_folds must be >= 2")
        if any(not 0 <= f < self.n_folds for f in self.assignment):
            raise ConfigError("fold assignment out of range")

    def fold_rows(self, fold: int) -> tuple[list[int], list[int]]:
        """(train row indices, test row indices) for one fold."""
        train_rows = [i for i, f in enumerate(self.assignment) if f != fold]
        test_rows = [i for i, f in enumerate(self.assignment) if f == fold]
        return train_rows, test_rows


def make_folds(labels: Sequence[int], n_folds: int, *, seed: int = 0) -> CvPlan:
    if n_folds < 2:
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    rng = random.Random(seed)
    assignment = [0] * len(labels)
    for cls in (1, 0):
        group = [i for i, y in enumerate(labels) if y == cls]
        rng.shuffle(group)
        for pos, i in enumerate(group):
            assignment[i] = pos % n_folds
    return CvPlan(n_folds=n_folds, seed=seed, assignment=tuple(assignment))


@dataclass
class FoldResult:
    fold: int
    skipped: str | None = None
    train: Metrics | None = None
    test: Metrics | None = None
    rules: list[list[str]] = field(default_factory=list)
    final_profit: float = 0.0
    fit_seconds: float = 0.0
    # The fit's TrainReport counts; cached_solves includes answers from
    # other configs' fits on the same fold.
    solves: int = 0
    cached_solves: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ConfigResult:
    cfg: TrainConfig
    folds: list[FoldResult]

    def _completed(self) -> list[FoldResult]:
        return [f for f in self.folds if f.skipped is None]

    def aggregate(self, split: str, key: str) -> tuple[float, float]:
        """(mean, sample std) of one metric over completed folds."""
        vals = [getattr(getattr(f, split), key) for f in self._completed()]
        if not vals:
            return float("nan"), float("nan")
        mean = statistics.fmean(vals)
        std = statistics.stdev(vals) if len(vals) > 1 else 0.0
        return mean, std

    def summary(self) -> dict[str, float]:
        """{split}_{metric}_mean and _std for every metric, train first."""
        out = {}
        for split in ("train", "test"):
            for f in fields(Metrics):
                mean, std = self.aggregate(split, f.name)
                out[f"{split}_{f.name}_mean"] = mean
                out[f"{split}_{f.name}_std"] = std
        return out

    def as_dict(self) -> dict:
        return {
            "hyperparams": hyperparams_to_json(self.cfg.hyperparams),
            "subproblem": self.cfg.subproblem,
            "refine": self.cfg.refine,
            "folds": [f.as_dict() for f in self.folds],
            **self.summary(),
        }


def default_grid(*, subproblem: str = "local", refine: bool = True) -> list[TrainConfig]:
    """The benchmark grid: the GRID_* sweeps, other hyperparameters at
    their defaults."""
    return [
        TrainConfig(
            hyperparams=Hyperparams(beta2=beta2, lam=lam, max_rules=k),
            subproblem=subproblem,
            refine=refine,
        )
        for k in GRID_K
        for beta2 in GRID_BETA2
        for lam in GRID_LAMBDA
    ]


# Called once per finished fold with (fold, fits run, fold seconds).
FoldProgress = Callable[[int, int, float], None]


# What every fold task reads: the table, schema, label column, grid and
# plan. A worker process gets it once, from _init_worker.
FoldInputs = tuple[Table, dict[str, str], str, Sequence[TrainConfig], CvPlan]
_worker_inputs: FoldInputs | None = None


def _init_worker(inputs: FoldInputs) -> None:
    """Keep the fold inputs in this worker process, so that each task it
    runs is sent its fold number alone."""
    global _worker_inputs
    _worker_inputs = inputs


def _run_worker_fold(fold: int) -> tuple[list[FoldResult], float]:
    """_run_fold on the inputs _init_worker kept."""
    return _run_fold(_worker_inputs, fold)


def _run_fold(inputs: FoldInputs, fold: int) -> tuple[list[FoldResult], float]:
    """Every grid config on one fold, in grid order, through one solve
    memo; also the seconds the fold took."""
    table, schema, label_column, grid, plan = inputs
    t0 = time.monotonic()
    train_rows, test_rows = plan.fold_rows(fold)
    train_table = table.select_rows(train_rows)
    label_col = train_table.column(label_column)
    if len(set(label_col)) < 2:
        warnings.warn(f"fold {fold}: single-class training split; skipped")
        skipped = [
            FoldResult(fold=fold, skipped="single-class training split") for _ in grid
        ]
        return skipped, time.monotonic() - t0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train_data = binarize(train_table, schema)
    test_table = table.select_rows(test_rows)
    test_data = apply_descriptors(test_table, train_data.descriptors, label_column)
    names = train_data.feature_names()
    memo: SolveMemo = {}
    results = []
    for cfg in grid:
        S, report = train(train_data, cfg, memo)
        test_set = ruleset_from_features(S.feature_sets(), test_data)
        results.append(
            FoldResult(
                fold=fold,
                train=metrics(S, train_data),
                test=metrics(test_set, test_data),
                rules=[[names[j] for j in feats] for feats in S.feature_sets()],
                final_profit=report.final_profit,
                fit_seconds=report.fit_seconds,
                solves=report.solves,
                cached_solves=report.cached_solves,
            )
        )
    return results, time.monotonic() - t0


def _check_folds_nonempty(table: Table, label_column: str, plan: CvPlan) -> None:
    """Reject a plan that leaves a fold without test rows."""
    counts = Counter(plan.assignment)
    empty = [f for f in range(plan.n_folds) if not counts[f]]
    if not empty:
        return
    # Dealing fills one fold per row of the largest class it deals.
    most = max(Counter(table.column(label_column)).values())
    raise ConfigError(
        f"fold{'s' if len(empty) > 1 else ''} {', '.join(map(str, empty))} of "
        f"{plan.n_folds} would have no test rows; a stratified split of these "
        f"{table.n} rows fills at most {most} folds"
    )


def cross_validate(
    table: Table,
    schema: dict[str, str],
    grid: Sequence[TrainConfig],
    plan: CvPlan,
    jobs: int = 1,
    progress: FoldProgress | None = None,
) -> list[ConfigResult]:
    """Train/evaluate every grid config on every fold.

    Each fold is one task (see the module docstring); jobs > 1 runs the
    tasks in min(jobs, n_folds) worker processes, each of which is sent the
    table, schema, grid and plan once and then a fold number per task.
    progress, if given, is called in this process as each fold finishes,
    in completion order. Results are ordered by (config, fold) regardless
    of how folds complete.
    """
    if not grid:
        raise ConfigError("grid must be nonempty")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    label_column = check_schema(table, schema)
    if len(plan.assignment) != table.n:
        raise ConfigError("fold plan does not match table size")
    _check_folds_nonempty(table, label_column, plan)
    inputs = (table, schema, label_column, grid, plan)
    by_fold: dict[int, list[FoldResult]] = {}

    def finish(fold: int, outcome: tuple[list[FoldResult], float]) -> None:
        by_fold[fold], seconds = outcome
        if progress is not None:
            fits = sum(r.skipped is None for r in by_fold[fold])
            progress(fold, fits, seconds)

    if jobs > 1:
        # Imported here: it loads multiprocessing, which added about 30 ms
        # to the start of every command.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(
            max_workers=min(jobs, plan.n_folds), initializer=_init_worker, initargs=(inputs,)
        ) as pool:
            futures = {
                pool.submit(_run_worker_fold, fold): fold for fold in range(plan.n_folds)
            }
            for future in as_completed(futures):
                finish(futures[future], future.result())
    else:
        for fold in range(plan.n_folds):
            finish(fold, _run_fold(inputs, fold))
    return [
        ConfigResult(cfg=cfg, folds=[by_fold[f][c] for f in range(plan.n_folds)])
        for c, cfg in enumerate(grid)
    ]


def select_best(results: Sequence[ConfigResult]) -> int:
    """Index of the winning config: best mean training accuracy, ties by
    fewer mean literals, remaining ties by grid order."""
    if not results:
        raise ConfigError("no results to select from")
    best = 0
    best_key = None
    for i, res in enumerate(results):
        acc, _ = res.aggregate("train", "accuracy")
        lits, _ = res.aggregate("train", "n_literals")
        if math.isnan(acc):
            continue
        key = (-acc, lits)
        if best_key is None or key < best_key:
            best, best_key = i, key
    if best_key is None:
        raise ConfigError("every fold of every config was skipped")
    return best


@dataclass
class GapResult:
    v_approx: float
    v_bnb: float
    gap: float | None
    proven_optimal: bool
    approx_rules: list[tuple[int, ...]]
    bnb_rules: list[tuple[int, ...]]
    bnb_nodes: int | None

    def as_dict(self) -> dict:
        return asdict(self)


def relative_gap(data: BinaryDataset, cfg: TrainConfig) -> GapResult:
    """Train twice (local search vs branch and bound) and compare profits.

    gap = [V(S_bnb) - V(S_approx)] / V(S_bnb); None when V(S_bnb) is zero.
    Negative gaps mean the approximate run won, which is legal.
    proven_optimal reports whether every bnb solve ended within the node
    budget (exact_oracle.NODE_BUDGET).
    """
    approx_cfg = replace(cfg, subproblem="local")
    bnb_cfg = replace(cfg, subproblem="bnb")
    S_approx, _ = train(data, approx_cfg)
    S_bnb, report_bnb = train(data, bnb_cfg)
    h = cfg.hyperparams
    v_approx = profit(S_approx, data, h)
    v_bnb = profit(S_bnb, data, h)
    gap = None if abs(v_bnb) <= TOL else (v_bnb - v_approx) / v_bnb
    return GapResult(
        v_approx=v_approx,
        v_bnb=v_bnb,
        gap=gap,
        proven_optimal=report_bnb.all_proven,
        approx_rules=S_approx.feature_sets(),
        bnb_rules=S_bnb.feature_sets(),
        bnb_nodes=report_bnb.bnb_nodes,
    )
