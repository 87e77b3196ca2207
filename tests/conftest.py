import os
import random

import pytest

from rulecover.dataset import BINARY, CATEGORICAL, LABEL, NUMERIC, BinaryDataset, Table
from rulecover.datasets import TTT_CELLS, TTT_LINES
from rulecover.objective import Hyperparams, Rule, RuleSet
from rulecover.subproblem import ExclusionCoverage, build_instance

MUSHROOM_PATH = os.environ.get("RULECOVER_MUSHROOM", "data/agaricus-lepiota.data")

needs_mushroom = pytest.mark.skipif(
    not os.path.exists(MUSHROOM_PATH),
    reason=(
        "mushroom data file not found; place the classic 8124-row file at "
        f"{MUSHROOM_PATH!r} or point RULECOVER_MUSHROOM at it"
    ),
)


def random_dataset(
    rng: random.Random,
    n: int,
    d: int,
    density: float = 0.5,
    pos_frac: float = 0.5,
) -> BinaryDataset:
    rows = [[int(rng.random() < density) for _ in range(d)] for _ in range(n)]
    labels = [int(rng.random() < pos_frac) for _ in range(n)]
    return BinaryDataset.from_matrix(rows, labels)


def random_hyperparams(rng: random.Random, max_rules: int = 4) -> Hyperparams:
    beta2 = rng.choice([0.0, 0.01, 0.1, 0.25, 0.5])
    beta1 = (1.72 * beta2 if beta2 else 0.0) + rng.uniform(0.05, 2.0)
    return Hyperparams(
        beta0=rng.uniform(0.0, 2.0),
        beta1=beta1,
        beta2=beta2,
        lam=rng.choice([0.0, 0.1, 0.5, 1.0, 2.0]),
        max_rules=max_rules,
        active_size=16,
    )


def random_instance(rng: random.Random, n_max: int = 40, d_max: int = 10):
    n = rng.randint(4, n_max)
    d = rng.randint(2, d_max)
    data = random_dataset(rng, n, d, density=rng.uniform(0.3, 0.8))
    h = random_hyperparams(rng)
    S = RuleSet()
    if rng.random() < 0.5 and data.d >= 2:
        feats = sorted(rng.sample(range(data.d), rng.randint(1, 2)))
        S.add(Rule.build(feats, data))
    alpha = rng.uniform(0.37, 1.0)
    return build_instance(S, data, h, alpha), data, h, S, alpha


def tied_instance(rng: random.Random, n_max: int = 40, d_max: int = 10):
    """Instance with small integer weights at alpha = 1, so that many rules
    tie exactly and every value is an exact float."""
    n = rng.randint(4, n_max)
    d = rng.randint(2, d_max)
    data = random_dataset(rng, n, d, density=rng.uniform(0.3, 0.9))
    beta2 = rng.choice([0, 1])
    h = Hyperparams(
        beta0=rng.choice([0, 1, 2]),
        beta1=rng.choice([1, 2]) + beta2,
        beta2=beta2,
        lam=rng.choice([0, 1, 2]),
    )
    S = RuleSet()
    for _ in range(rng.randint(0, 2)):
        rule = Rule.build(sorted(rng.sample(range(d), rng.randint(1, 2))), data)
        if rule not in S:
            S.add(rule)
    return build_instance(S, data, h, 1.0)


def random_rule_features(rng: random.Random, d: int, k_max: int = 4) -> tuple[int, ...]:
    k = rng.randint(0, min(k_max, d))
    return tuple(sorted(rng.sample(range(d), k)))


def bit_indices(x: int):
    """Yield set bit positions in ascending order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def sample_weights(inst) -> list[float]:
    """The weight of each sample in the instance's rule value."""
    out = [0.0] * inst.n
    for mask, wt in (
        (inst.uncovered_pos, inst.pos_weight),
        (inst.covered_pos, -inst.beta2),
        (inst.negatives, -inst.beta0),
    ):
        for i in bit_indices(mask):
            out[i] = wt
    return out


def cover_counts(S: RuleSet, n: int) -> list[int]:
    """The number of rules of S that cover each of n samples."""
    counts = [0] * n
    for r in S.rules:
        for i in bit_indices(r.coverage):
            counts[i] += 1
    return counts


def pointwise_loss(yhat: int, y: int, h: Hyperparams) -> float:
    """Per-sample loss given the covering-rule count and true label."""
    if y == 0:
        return h.beta0 * yhat
    if yhat <= 1:
        return h.beta1 * (1 - yhat)
    return h.beta2 * (yhat - 1)


def table_three_tic_tac_toe_rules(feature_names: list[str]) -> list[tuple[int, ...]]:
    """The eight three-literal rules 'x fills a line', as feature indices."""
    idx = {name: j for j, name in enumerate(feature_names)}
    rules = []
    for line in TTT_LINES:
        feats = tuple(sorted(idx[f"{TTT_CELLS[i]} = x"] for i in line))
        rules.append(feats)
    return rules


def ref_rule_value(features, inst) -> float:
    """Slow v(R): per-sample weights against an explicit subset check."""
    weights = sample_weights(inst)
    total = -inst.lam * len(features)
    for i in range(inst.n):
        if all(inst.columns[j] >> i & 1 for j in features):
            total += weights[i]
    return total


def enumerate_rule_optimum(inst) -> tuple[tuple[int, ...], float]:
    """Best rule over the whole ground set by exhaustive subset search."""
    import itertools

    best, best_v = (), inst.value(())
    for k in range(1, inst.d + 1):
        for feats in itertools.combinations(range(inst.d), k):
            v = inst.value(feats)
            if v > best_v + 1e-12:
                best, best_v = feats, v
    return best, best_v


def plain_enlarge(features, m: int, inst, path: list[int] | None = None) -> tuple[int, ...]:
    """subproblem.enlarge without filling its tied tail: every step scans
    every unused feature for the best u-gain / w-gain ratio."""
    inf = float("inf")
    r = sorted(set(features))
    vp, vc, vn = inst.cover(r)
    while len(r) < min(m, inst.d):
        best_j, best_ratio = -1, None
        for j in range(inst.d):
            if j in r:
                continue
            col = inst.columns[j]
            du = inst.beta0 * (vn.bit_count() - (vn & col).bit_count()) + inst.beta2 * (
                vc.bit_count() - (vc & col).bit_count()
            )
            dw = inst.pos_weight * (vp.bit_count() - (vp & col).bit_count()) + inst.lam
            ratio = du / dw if dw > 0 else (inf if du > 0 else -inf)
            if best_ratio is None or ratio > best_ratio:
                best_j, best_ratio = j, ratio
        r.append(best_j)
        if path is not None:
            path.append(best_j)
        col = inst.columns[best_j]
        vp, vc, vn = vp & col, vc & col, vn & col
    return tuple(sorted(r))


def plain_local_search(inst, m: int = 16) -> tuple[int, ...]:
    """local_combinatorial_search without its round skips, without seeding
    branch and bound and with plain_enlarge: every round scans every
    enlarge step and runs an unseeded search. The reference the skipping,
    seeded search must equal."""
    from rulecover.exact_oracle import bnb_max
    from rulecover.subproblem import ds_opt, swap_local_search

    if inst.d == 0:
        return ()
    r = ()
    for _ in range(10 * inst.d):
        prev = active = r
        if len(active) < m:
            active = plain_enlarge(active, m, inst)
        if len(active) <= m:
            r = bnb_max(inst, active).features
        r = swap_local_search(ds_opt(r, inst), inst)
        if r == prev:
            return r
    raise RuntimeError("no fixed point")


def random_table(rng, n):
    """A seeded table mixing every column kind, with ties, signed zeros,
    exponent spellings, rare values and constant columns."""
    names, columns, schema = [], [], {}

    def add(name, kind, cells):
        names.append(name)
        columns.append(cells)
        schema[name] = kind

    for j in range(rng.randrange(1, 4)):
        k = rng.choice([1, 2, 3, 12])
        add(f"c{j}", CATEGORICAL, [f"z{rng.randrange(k)}" for _ in range(n)])
    pools = [
        [str(rng.uniform(-5, 5)) for _ in range(n)],
        ["-0", "0", "0.0", "1", "1e3", "1000", "-2.5", "7"],
        ["3"] * 5 + ["4"],
    ]
    for j in range(rng.randrange(1, 4)):
        pool = rng.choice(pools)
        add(f"v{j}", NUMERIC, [rng.choice(pool) for _ in range(n)])
    for j in range(rng.randrange(0, 3)):
        p = rng.choice([0.0, 0.1, 0.5, 1.0])
        add(f"b{j}", BINARY, [str(int(rng.random() < p)) for _ in range(n)])
    add("y", LABEL, [str(rng.randrange(2)) for _ in range(n)])
    return Table(names, columns), schema


def exclusion_coverage(columns, universe, terms, per_element=0.0):
    """An ExclusionCoverage built outside build_instance, with each term's
    counts taken per column."""
    counts = [[(mask & col).bit_count() for col in columns] for _, mask in terms]
    return ExclusionCoverage(columns, universe, terms, counts, per_element=per_element)
