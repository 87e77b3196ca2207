"""Exact maximizers used both as solvers and as test oracles.

bnb_max solves the single-rule subproblem exactly over a candidate
feature set by depth-first branch and bound. Each node fixes a rule R and
may only add candidates at later sorted positions, so the tree enumerates
subsets without repeats. A child R + c is priced when R generates it, so
its stack entry only has to bound the strict descendants of R + c, each of
which holds at least |R|+2 features. With suf the AND of every candidate
column R + c may still add, the bound

    bound(R + c) = pos_weight * |vp(R + c)| - beta2 * |vc(R + c) & suf|
                   - beta0 * |vn(R + c) & suf| - lam*(|R|+2)

dominates v(R') for every strict descendant R' of R + c (CORELS-style,
Angelino et al. 2017). R' adds only columns from that suffix, so it covers
a subset of vp(R + c) and at least vc(R + c) & suf and vn(R + c) & suf,
and it pays at least lam*(|R|+2) length cost. The weights make each of
these a loss: Hyperparams keeps beta0, beta2 and lam nonnegative, and
build_instance requires pos_weight > 0. The bound is computed in the same
operation order as SubproblemInstance.score, so by the monotonicity
argument of SubproblemInstance.pos_ub it also dominates the rounded
v(R'). Charging lam*(|R|+1) and then lam once more would not: its two
roundings could leave the bound an ulp below v(R'), and an ulp exceeds
TOL once values pass about 1e4. A child at the last sorted candidate has
no descendants and is never pushed. Pruning on the bound is therefore
lossless and the search is exact unless it reaches NODE_BUDGET, which the
result reports honestly. Every node is a distinct subset of the
candidates, so a search over at most 24 candidates always ends on its
own. The budget cuts a search at the same node on every run, so a cut
search is as deterministic as a full one.

Before pricing a child R + c, the search drops it when even its
support bound pos_ub[c] - lam*(|R|+1) cannot beat the incumbent (see
SubproblemInstance.pos_ub), and then, after the one AND vp(R) & col_c,
when the same bound at R's cover, pos_weight*|vp(R) & col_c| -
lam*(|R|+1), cannot either. Such a child could neither win nor be pushed,
so the nodes visited and the rule found are unchanged.

A seed, a known rule over the candidates, warm-starts the search: the
incumbent value starts at a floor strictly below v(seed) when that is
above v(empty), while the incumbent rule stays the empty one. The floor
is v(seed) - SEED_MARGIN, or the next float below v(seed) where v is so
large that subtracting the margin rounds back to v(seed); either way
floor + TOL < v(seed) in floating point. So a node pruned only because of
the seed has bound <= floor + TOL < v(seed) <= v(optimum): nothing under
it is an optimum or could have lifted the unseeded incumbent to v(seed).
Every rule worth at least v(seed) is therefore still priced, in the same
DFS order, and the strict > in the update still keeps the first of them
to reach the optimum. When values that differ by at most TOL are equal,
as with integer weights, the rule returned is the unseeded one and the
nodes visited are a subset of the unseeded ones; otherwise the two
searches may keep different rules within TOL of each other, as the
unseeded search may between any two rules that close. A search that
ends, or is cut short, with its incumbent more than TOL below v(seed)
returns the seed, so a cut-short search is never worse than its seed by
more than TOL.

brute_force_ruleset_opt enumerates entire rule sets for tiny instances;
it exists to pin down the outer greedy's quality in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .objective import TOL, ConfigError, Hyperparams, Rule, RuleSet, profit

if TYPE_CHECKING:
    from .dataset import BinaryDataset
    from .subproblem import SubproblemInstance

# Most nodes one bnb_max search visits; 2^24, the number of subsets of 24
# candidates (module docstring).
NODE_BUDGET = 1 << 24
# How far below v(seed) a seeded search starts its incumbent, at least; above
# TOL, so that the first optimum in DFS order is still found (module
# docstring).
SEED_MARGIN = 1e-9


@dataclass(frozen=True)
class BnbResult:
    features: tuple[int, ...]
    value: float
    proven_optimal: bool
    nodes: int


def bnb_max(
    inst: "SubproblemInstance",
    candidates: Sequence[int],
    seed: Sequence[int] | None = None,
) -> BnbResult:
    """Best rule over subsets of the candidate features.

    Candidates are explored in decreasing order of their singleton
    exclusion gain (ties by index), children in decreasing order of
    pos_weight*|vp| - lam*|R|. Each child is priced when it is generated,
    and it is pushed only when its bound (module docstring), which covers
    its strict descendants (at least one literal longer, priced in the
    same operation order), can beat the incumbent by more than the
    tolerance; a child at the last candidate, which has no descendants,
    is never pushed. Ties keep the first-found rule and the search is
    deterministic. A search that ends within NODE_BUDGET nodes is provably
    optimal; one that would visit more stops after exactly NODE_BUDGET and
    reports proven_optimal=False. A seed, a rule over the candidates, only
    prunes more: the rule found is the unseeded one, up to TOL, except that
    a search ending more than TOL below v(seed) returns the seed.
    """
    cands = sorted(set(candidates))
    if any(j < 0 or j >= inst.d for j in cands):
        raise ConfigError(f"candidate index out of range for d={inst.d}")
    if seed is not None:
        seed = tuple(sorted(set(seed)))
        if not set(seed) <= set(cands):
            raise ConfigError("seed rule must use candidate features only")
    # u(j | empty) from the count table, with no AND (subproblem module
    # docstring).
    u_singleton = inst.u.singleton
    cands.sort(key=lambda j: (-u_singleton(j), j))

    columns = inst.columns
    pos_ub = inst.pos_ub()
    cand_ub = [pos_ub[j] for j in cands]
    pos_weight = inst.pos_weight
    beta0 = inst.beta0
    beta2 = inst.beta2
    lam = inst.lam

    vp0, vc0, vn0 = inst.uncovered_pos, inst.covered_pos, inst.negatives
    best_feats: tuple[int, ...] = ()
    best_v = inst.score(vp0, vc0, vn0, 0)
    if seed is not None:
        v_seed = inst.value(seed)
        floor = min(v_seed - SEED_MARGIN, math.nextafter(v_seed, -math.inf))
        best_v = max(best_v, floor)

    budget = NODE_BUDGET
    cut = False
    nodes = 0

    # suffix_and[i]: rows every candidate from sorted position i on covers,
    # so every descendant of a node with next index i still covers them.
    suffix_and = [(1 << inst.n) - 1] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix_and[i] = suffix_and[i + 1] & columns[cands[i]]

    # Stack entries: (sort key, bound, next candidate index, features, vp,
    # vc, vn). The bound, which also charges the rows no descendant can
    # shed and one more literal, prunes. Siblings are ordered (stable sort)
    # by the key, pos_weight*|vp| - lam*|R|, which omits those; so the nodes
    # visited are those a key-only bound would visit, less the pruned ones,
    # in the same order, and ties keep the same first-found rule.
    root_bound = pos_weight * vp0.bit_count()
    stack = [(root_bound, root_bound, 0, (), vp0, vc0, vn0)]
    while stack:
        _, bound, start, feats, vp, vc, vn = stack.pop()
        if bound <= best_v + TOL:
            continue
        if nodes == budget:
            cut = True
            break
        nodes += 1
        children = []
        length = lam * (len(feats) + 1)
        deeper = lam * (len(feats) + 2)
        for i in range(start, len(cands)):
            # Support screen (SubproblemInstance.pos_ub): the child's value and
            # key are at most cand_ub[i] - length <= best_v, so it could
            # neither become the incumbent nor be pushed.
            if cand_ub[i] - length <= best_v:
                continue
            col = columns[cands[i]]
            cvp = vp & col
            gain = pos_weight * cvp.bit_count()
            # The key is the bound without the suffix terms, and the same
            # support screen at the node's cover: a child whose key is at
            # most best_v is skipped before its other two ANDs.
            key = gain - length
            if key <= best_v:
                continue
            cvc, cvn = vc & col, vn & col
            # inst.score inlined: a call per child made bnb_max 1-8% slower
            # on the bench workloads, where bnb_max is most of a fit.
            v_child = gain - beta2 * cvc.bit_count() - beta0 * cvn.bit_count() - length
            if v_child > best_v:
                best_v = v_child
                best_feats = feats + (cands[i],)
            # The child is priced, so its entry only bounds its strict
            # descendants, which hold at least |R|+2 features: charge
            # `deeper`, in the same operation order as their value (not
            # child_bound - lam, whose two roundings can leave it an ulp
            # below a descendant's value). A child at the last candidate
            # has no descendants, so it is not pushed and its suffix ANDs
            # are skipped, as they are for a child whose bound without
            # them prunes it already.
            if i + 1 < len(cands) and gain - deeper > best_v + TOL:
                suf = suffix_and[i + 1]
                child_bound = (
                    gain
                    - beta2 * (cvc & suf).bit_count()
                    - beta0 * (cvn & suf).bit_count()
                    - deeper
                )
                if child_bound > best_v + TOL:
                    children.append(
                        (key, child_bound, i + 1, feats + (cands[i],), cvp, cvc, cvn)
                    )
        children.sort(key=lambda c: c[0])
        stack.extend(children)

    if seed is not None and best_v < v_seed - TOL:
        best_feats, best_v = seed, v_seed
    return BnbResult(
        features=tuple(sorted(best_feats)),
        value=best_v,
        proven_optimal=not cut,
        nodes=nodes,
    )


def enumerate_best(
    inst: "SubproblemInstance", candidates: Sequence[int]
) -> tuple[tuple[int, ...], float]:
    """Exhaustive subset maximum of v; oracle for bnb_max.

    Walks the subset tree with running coverage masks so 2^20 subsets stay
    affordable. No pruning: every subset's value is computed.
    """
    cands = sorted(set(candidates))
    columns = inst.columns
    score = inst.score

    best_feats: tuple[int, ...] = ()
    best_v = inst.value(())

    def walk(start: int, feats: tuple[int, ...], vp: int, vc: int, vn: int) -> None:
        nonlocal best_feats, best_v
        for i in range(start, len(cands)):
            col = columns[cands[i]]
            cvp, cvc, cvn = vp & col, vc & col, vn & col
            child = feats + (cands[i],)
            v = score(cvp, cvc, cvn, len(child))
            if v > best_v:
                best_feats, best_v = child, v
            walk(i + 1, child, cvp, cvc, cvn)

    walk(0, (), inst.uncovered_pos, inst.covered_pos, inst.negatives)
    return best_feats, best_v


def brute_force_ruleset_opt(
    data: "BinaryDataset", h: Hyperparams, max_rules: int | None = None
) -> tuple[RuleSet, float]:
    """Globally best rule set by enumeration over all rule combinations.

    Only feasible for toy instances; guarded so it cannot be misused on
    real data. Ties keep the first set in enumeration order (fewer rules
    first, then lexicographic), matching the deterministic learner tests.
    """
    k_max = h.max_rules if max_rules is None else max_rules
    if data.d > 12:
        raise ConfigError(f"brute force limited to d <= 12, got {data.d}")
    n_rules = 1 << data.d
    total = sum(math.comb(n_rules, k) for k in range(min(k_max, n_rules) + 1))
    if total > 2_000_000:
        raise ConfigError(f"brute force would enumerate {total} rule sets")

    all_rules = []
    for bits in range(n_rules):
        feats = tuple(j for j in range(data.d) if (bits >> j) & 1)
        all_rules.append(Rule.build(feats, data))

    best_set = RuleSet()
    best_v = 0.0
    for k in range(1, min(k_max, n_rules) + 1):
        for combo in itertools.combinations(all_rules, k):
            S = RuleSet(combo)
            v = profit(S, data, h)
            if v > best_v + TOL:
                best_set, best_v = S, v
    return best_set, best_v
