"""Rule sets and the regularized coverage objective.

A rule R is a conjunction of binary features; it covers a sample when all
its features are on. A rule set S predicts 1 when any rule covers the
sample. Training minimizes

    L(S) = sum_i l(yhat_i, y_i) + lam * sum_{R in S} |R|

where yhat_i counts covering rules and the per-sample loss prices false
positives (beta0 per covering rule), false negatives (beta1), and overlap
on positives (beta2 per rule beyond the first):

    l(yhat, y) = beta0 * yhat            if y = 0
               = beta1 * (1 - yhat)      if y = 1, yhat <= 1
               = beta2 * (yhat - 1)      if y = 1, yhat >  1

Equivalently L(S) = beta1*|P| - V(S) with the profit

    V(S) = g(S) - sum_{R in S} c(R)
    g(S) = (beta1 + beta2) * |covered positives|
    c(R) = beta0*|negatives covered by R| + beta2*|positives covered by R|
           + lam*|R|

g is monotone submodular and c is a fixed per-rule cost, which is what the
greedy learner exploits. The construction needs beta1 > (e-1)*beta2 so
that a rule covering a fresh positive is worth more than its overlap
price at every greedy distortion step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Iterator

from .bits import intersect_all
from .dataset import BinaryDataset

TOL = 1e-12
# Rule solvers of TrainConfig.subproblem: local search or branch and bound.
# Defined here so that the CLI parser can offer them without loading either.
SUBPROBLEM_MODES = ("local", "bnb")


class ConfigError(ValueError):
    """Invalid hyperparameter or training configuration."""


@dataclass(frozen=True)
class Hyperparams:
    """Objective weights plus the two structural budgets.

    max_rules is the greedy iteration budget K; active_size is the size M
    of the working feature set grown inside the local rule search.
    """

    beta0: float = 1.0
    beta1: float = 1.0
    beta2: float = 0.1
    lam: float = 1.0
    max_rules: int = 16
    active_size: int = 16

    def __post_init__(self) -> None:
        for f in fields(self):
            check_hyperparam(f.name, getattr(self, f.name))
        if self.beta2 == 0:
            if self.beta1 <= 0:
                raise ConfigError("beta1 must be positive when beta2 = 0")
        elif self.beta1 <= (math.e - 1) * self.beta2:
            raise ConfigError(
                "invalid weights: requires beta1 > (e-1)*beta2 "
                f"(beta1={self.beta1}, beta2={self.beta2})"
            )


def check_hyperparam(name: str, v: object) -> None:
    """Raise ConfigError unless v is a valid value of field name on its own
    (Hyperparams also checks the betas against each other)."""
    # Exact types: bool is an int subclass, and True would pass as 1.
    if name in ("max_rules", "active_size"):
        if type(v) is not int or v < 1:
            raise ConfigError(f"{name} must be a positive integer, got {v!r}")
    elif type(v) not in (int, float) or not math.isfinite(v) or v < 0:
        raise ConfigError(f"{name} must be a finite nonnegative number, got {v!r}")


PRESETS = ("penalized-01", "overlap-eta", "hamming")


def preset(
    name: str,
    *,
    lam: float | None = None,
    eta: float | None = None,
    max_rules: int = Hyperparams.max_rules,
    active_size: int = Hyperparams.active_size,
) -> Hyperparams:
    """Named objective families.

    penalized-01: 0/1 loss plus lam per literal (lam defaults to 1).
    overlap-eta: 0/1 loss plus eta per extra covering rule on positives.
    hamming: plain Hamming loss, no regularization.
    """
    base = Hyperparams(beta0=1.0, beta1=1.0, beta2=0.0, lam=0.0,
                       max_rules=max_rules, active_size=active_size)
    if name == "penalized-01":
        return replace(base, lam=1.0 if lam is None else lam)
    if name == "overlap-eta":
        if eta is None:
            raise ConfigError("overlap-eta preset requires eta")
        if not 0 <= eta <= 1:
            raise ConfigError(f"eta must be in [0, 1], got {eta!r}")
        return replace(base, beta2=eta)
    if name == "hamming":
        if lam not in (None, 0.0) or eta not in (None, 0.0):
            raise ConfigError("hamming preset takes no lam/eta")
        return base
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")


@dataclass(frozen=True)
class Rule:
    """Conjunction of feature indices with its cached training coverage."""

    features: tuple[int, ...]
    coverage: int

    def __post_init__(self) -> None:
        if list(self.features) != sorted(set(self.features)):
            raise ConfigError("rule features must be sorted and distinct")

    def __len__(self) -> int:
        return len(self.features)

    @classmethod
    def build(cls, features: Iterable[int], data: BinaryDataset) -> "Rule":
        feats = tuple(sorted(set(features)))
        if any(j < 0 or j >= data.d for j in feats):
            raise ConfigError(f"feature index out of range for d={data.d}")
        return cls(feats, intersect_all((data.columns[j] for j in feats), data.universe))


class RuleSet:
    """Ordered set of distinct rules with incremental coverage masks.

    covered has a bit per sample hit by at least one rule; overlap per
    sample hit by at least two. Adds are O(1) mask updates; removals
    recompute, which is fine at rule-set sizes.
    """

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self.rules: list[Rule] = []
        self.covered: int = 0
        self.overlap: int = 0
        self._keys: set[tuple[int, ...]] = set()
        for r in rules:
            self.add(r)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __contains__(self, rule: Rule) -> bool:
        return rule.features in self._keys

    def feature_sets(self) -> list[tuple[int, ...]]:
        return [r.features for r in self.rules]

    def add(self, rule: Rule) -> None:
        if rule.features in self._keys:
            raise ConfigError(f"duplicate rule {rule.features!r}")
        self._keys.add(rule.features)
        self.rules.append(rule)
        self.overlap |= self.covered & rule.coverage
        self.covered |= rule.coverage

    def remove(self, rule: Rule) -> None:
        if rule.features not in self._keys:
            raise ConfigError(f"rule {rule.features!r} not in set")
        self._keys.discard(rule.features)
        self.rules = [r for r in self.rules if r.features != rule.features]
        covered = 0
        overlap = 0
        for r in self.rules:
            overlap |= covered & r.coverage
            covered |= r.coverage
        self.covered = covered
        self.overlap = overlap

    def copy(self) -> "RuleSet":
        return RuleSet(self.rules)

    @property
    def n_literals(self) -> int:
        return sum(len(r) for r in self.rules)


def ruleset_from_features(
    feature_sets: Iterable[Iterable[int]], data: BinaryDataset
) -> RuleSet:
    """Rebuild a rule set's coverage against another dataset's columns."""
    return RuleSet(Rule.build(fs, data) for fs in feature_sets)


def rule_cost(rule: Rule, data: BinaryDataset, h: Hyperparams) -> float:
    return (
        h.beta0 * (rule.coverage & data.negatives).bit_count()
        + h.beta2 * (rule.coverage & data.positives).bit_count()
        + h.lam * len(rule)
    )


def coverage_gain(rule: Rule, S: RuleSet, data: BinaryDataset, h: Hyperparams) -> float:
    """Marginal gain g(R | S): value of newly covered positives."""
    fresh = rule.coverage & data.positives & ~S.covered
    return (h.beta1 + h.beta2) * fresh.bit_count()


def profit(S: RuleSet, data: BinaryDataset, h: Hyperparams) -> float:
    v = (h.beta1 + h.beta2) * (S.covered & data.positives).bit_count()
    for r in S:
        v -= rule_cost(r, data, h)
    return v


def loss(S: RuleSet, data: BinaryDataset, h: Hyperparams) -> float:
    return h.beta1 * data.n_pos - profit(S, data, h)


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    n_rules: int
    n_literals: int
    overlap: float

    def as_dict(self) -> dict:
        return asdict(self)


def metrics(S: RuleSet, data: BinaryDataset) -> Metrics:
    """0/1 accuracy of 'predict 1 iff covered', rule-set size, and the
    fraction of samples covered by more than one rule."""
    correct = (S.covered & data.positives).bit_count()
    correct += (data.negatives & ~S.covered).bit_count()
    return Metrics(
        accuracy=correct / data.n if data.n else 0.0,
        n_rules=len(S),
        n_literals=S.n_literals,
        overlap=S.overlap.bit_count() / data.n if data.n else 0.0,
    )
