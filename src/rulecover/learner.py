"""Outer training loop: distorted greedy rule selection plus refinement.

The profit V(S) = g(S) - sum c(R) pairs a monotone submodular gain with a
per-rule cost, so plain greedy can be arbitrarily bad. Distorted greedy
fixes this: at step k of K it maximizes

    v_k(R) = (1 - 1/K)^(K - k) * g(R | S) - c(R)

and inserts the winner only when v_k > 0. The early steps discount
coverage, which stops cheap-but-mediocre rules from crowding out the
budget; with an exact subproblem solver the result satisfies
V(S) >= (1 - 1/e) g(OPT) - c(OPT). The schedule at K = 1 is 0^0 = 1.

Refinement then greedily grows the set at full weight (alpha = 1) and
re-solves each rule's subproblem with the rule removed, keeping a
replacement only when the recomputed V strictly improves, so V never
decreases during refinement.

Every rule solve is a pure function of its instance and its solver, and
the key of train's solve memo (see _solve) holds everything that fixes
them on given data. So greedy and refine solve each instance once, and
fits of different configs on the same data may share one memo
(cross-validation shares one per fold) with no change to any result.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

from .dataset import BinaryDataset
from .exact_oracle import bnb_max
from .objective import (
    SUBPROBLEM_MODES,
    TOL,
    ConfigError,
    Hyperparams,
    Rule,
    RuleSet,
    profit,
    ruleset_from_features,
)
from .subproblem import SubproblemInstance, build_instance, local_combinatorial_search


@dataclass(frozen=True)
class TrainConfig:
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    subproblem: str = "local"
    refine: bool = True

    def __post_init__(self) -> None:
        if self.subproblem not in SUBPROBLEM_MODES:
            raise ConfigError(
                f"unknown subproblem mode {self.subproblem!r}; choose from {SUBPROBLEM_MODES}"
            )


@dataclass
class IterationRecord:
    """One greedy or refine solve: what was searched and what happened."""

    phase: str
    step: int
    alpha: float
    rule: tuple[int, ...] | None
    rule_value: float
    inserted: bool
    profit_after: float
    proven_optimal: bool | None = None
    bnb_nodes: int | None = None
    cached: bool = False
    # Wall time of the solve; 0.0 when the memo answered it.
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainReport:
    iterations: list[IterationRecord] = field(default_factory=list)
    greedy_profit: float = 0.0
    final_profit: float = 0.0
    greedy_seconds: float = 0.0
    refine_seconds: float = 0.0
    refine_passes: int = 0

    @property
    def fit_seconds(self) -> float:
        return self.greedy_seconds + self.refine_seconds

    @property
    def all_proven(self) -> bool:
        """True when every exact-mode solve finished within its node budget."""
        return all(r.proven_optimal is not False for r in self.iterations)

    @property
    def bnb_nodes(self) -> int | None:
        """Branch-and-bound nodes over the exact-mode solves actually run
        (a cached record repeats its solve's count); None if none."""
        counts = [
            r.bnb_nodes for r in self.iterations if r.bnb_nodes is not None and not r.cached
        ]
        return sum(counts) if counts else None

    @property
    def cached_solves(self) -> int:
        """Solves answered from the memo without solving: by this fit's
        own earlier solves or, with a shared memo, another fit's."""
        return sum(r.cached for r in self.iterations)

    @property
    def solves(self) -> int:
        """Subproblems actually solved."""
        return len(self.iterations) - self.cached_solves

    def as_dict(self) -> dict:
        return {
            "iterations": [r.as_dict() for r in self.iterations],
            "greedy_profit": self.greedy_profit,
            "final_profit": self.final_profit,
            "greedy_seconds": self.greedy_seconds,
            "refine_seconds": self.refine_seconds,
            "fit_seconds": self.fit_seconds,
            "refine_passes": self.refine_passes,
            "all_proven": self.all_proven,
            "bnb_nodes": self.bnb_nodes,
            "solves": self.solves,
            "cached_solves": self.cached_solves,
        }


# A solve's result: (rule, v, proven, nodes), the last two None for the
# local solver.
Solution = tuple[tuple[int, ...], float, bool | None, int | None]
# Solve results on one dataset, keyed by (positives the rule set covers,
# alpha, beta0, beta1, beta2, lam, active_size, subproblem).
SolveMemo = dict[tuple[int, float, float, float, float, float, int, str], Solution]


def _solve_rule(inst: SubproblemInstance, cfg: TrainConfig) -> Solution:
    """Dispatch one subproblem solve.

    The exact mode seeds branch and bound with the local solver's rule,
    which leaves the rule found unchanged up to TOL (exact_oracle) and
    makes a solve cut short by the node budget never worse than the local
    one by more than TOL.
    """
    feats = local_combinatorial_search(inst, m=cfg.hyperparams.active_size)
    if cfg.subproblem == "local":
        return feats, inst.value(feats), None, None
    res = bnb_max(inst, range(inst.d), seed=feats)
    return res.features, res.value, res.proven_optimal, res.nodes


def _solve(
    S: RuleSet, data: BinaryDataset, cfg: TrainConfig, alpha: float, memo: SolveMemo
) -> tuple[Solution, bool, float]:
    """The best next rule at weight alpha, whether the memo held it, and
    the seconds the solve took (0.0 when the memo held it).

    build_instance weighs the rows by the positives S covers, alpha and
    the objective weights, and the solver reads active_size and the mode,
    so the key holds all of them (max_rules and refine change no
    instance and stay out): a memo shared by fits of different configs on
    the same data answers only what a fresh one would. A solve cut short
    by the node budget is reused as it was; the budget cuts it at the same
    node every time.
    """
    h = cfg.hyperparams
    key = (
        data.positives & S.covered,
        alpha,
        h.beta0,
        h.beta1,
        h.beta2,
        h.lam,
        h.active_size,
        cfg.subproblem,
    )
    hit = memo.get(key)
    if hit is not None:
        return hit, True, 0.0
    t0 = time.monotonic()
    memo[key] = _solve_rule(build_instance(S, data, cfg.hyperparams, alpha), cfg)
    return memo[key], False, time.monotonic() - t0


def _alpha(k: int, K: int) -> float:
    return (1 - 1 / K) ** (K - k)


def _grow(
    S: RuleSet,
    data: BinaryDataset,
    cfg: TrainConfig,
    memo: SolveMemo,
    phase: str,
    step: int,
    alpha: float,
) -> IterationRecord:
    """Solve for the next rule at weight alpha and add it to S (in place)
    when its value is positive and it is not already in S."""
    (feats, v, proven, nodes), cached, seconds = _solve(S, data, cfg, alpha, memo)
    inserted = v > TOL and feats not in S.feature_sets()
    if inserted:
        S.add(Rule.build(feats, data))
    return IterationRecord(
        phase=phase,
        step=step,
        alpha=alpha,
        rule=feats if inserted else None,
        rule_value=v,
        inserted=inserted,
        profit_after=profit(S, data, cfg.hyperparams),
        proven_optimal=proven,
        bnb_nodes=nodes,
        cached=cached,
        seconds=seconds,
    )


def distorted_greedy(
    data: BinaryDataset, cfg: TrainConfig, memo: SolveMemo | None = None
) -> tuple[RuleSet, TrainReport]:
    """Select up to K rules with the distorted marginal-profit schedule.

    memo holds the fit's solve results (see _solve); a fresh one if None.
    """
    h = cfg.hyperparams
    memo = {} if memo is None else memo
    S = RuleSet()
    report = TrainReport()
    t0 = time.monotonic()
    for k in range(1, h.max_rules + 1):
        report.iterations.append(
            _grow(S, data, cfg, memo, "greedy", k, _alpha(k, h.max_rules))
        )
    report.greedy_seconds = time.monotonic() - t0
    report.greedy_profit = profit(S, data, h)
    report.final_profit = report.greedy_profit
    return S, report


def refine(
    S: RuleSet,
    data: BinaryDataset,
    cfg: TrainConfig,
    report: TrainReport,
    memo: SolveMemo,
) -> RuleSet:
    """Grow-then-replace passes at alpha = 1 until the set stops changing.

    Replacements (and pure drops) are kept only when the recomputed V
    strictly improves, otherwise reverted, so V is non-decreasing here
    even though the subproblem solver is approximate. The solves and the
    refine totals go into report; memo is as in distorted_greedy.
    """
    h = cfg.hyperparams
    S = S.copy()
    t0 = time.monotonic()
    passes = 0
    cap = 10 * max(data.d, 1)
    for _ in range(cap):
        before = set(S.feature_sets())
        passes += 1

        # Grow: fill remaining rule budget at full coverage weight.
        for step in range(len(S), h.max_rules):
            record = _grow(S, data, cfg, memo, "refine-grow", step + 1, 1.0)
            report.iterations.append(record)
            if not record.inserted:
                # Deterministic solver, unchanged S: later slots would
                # re-derive the same nonpositive rule.
                break

        # Replace: re-solve each rule's slot with the rule taken out, and
        # keep the result only if V strictly improves.
        for idx, old in enumerate(list(S.rules)):
            v_before = profit(S, data, h)
            S.remove(old)
            record = _grow(S, data, cfg, memo, "refine-replace", idx + 1, 1.0)
            if record.profit_after > v_before + TOL:
                record.inserted = True
            else:
                if record.inserted:
                    S.remove(S.rules[-1])
                S.add(old)
                record.rule = None
                record.inserted = False
                record.profit_after = profit(S, data, h)
            report.iterations.append(record)
        if set(S.feature_sets()) == before:
            break
    else:
        raise RuntimeError("refine failed to reach a fixed point within the iteration cap")

    report.refine_seconds = time.monotonic() - t0
    report.refine_passes = passes
    report.final_profit = profit(S, data, h)
    return S


def train(
    data: BinaryDataset, cfg: TrainConfig, memo: SolveMemo | None = None
) -> tuple[RuleSet, TrainReport]:
    """Distorted greedy plus optional refinement; the standard entry point.

    memo holds solve results on data (see _solve), possibly from fits of
    other configs; a fresh one if None. Its answers count as cached_solves.
    """
    memo = {} if memo is None else memo
    S, report = distorted_greedy(data, cfg, memo)
    if cfg.refine:
        S = refine(S, data, cfg, report, memo)
    return S, report


def predict_dataset(S: RuleSet | Sequence[Sequence[int]], data: BinaryDataset) -> list[int]:
    """Predictions for every row of a binarized dataset."""
    feature_sets = S.feature_sets() if isinstance(S, RuleSet) else S
    covered = ruleset_from_features(feature_sets, data).covered
    return [(covered >> i) & 1 for i in range(data.n)]
