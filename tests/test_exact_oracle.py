"""Tests for the branch-and-bound rule maximizer and enumeration oracles."""

import collections
import dataclasses
import itertools
import random

import pytest

from conftest import random_dataset, random_hyperparams, random_instance, tied_instance
from rulecover import exact_oracle
from rulecover.dataset import BinaryDataset
from rulecover.exact_oracle import (
    BnbResult,
    bnb_max,
    brute_force_ruleset_opt,
    enumerate_best,
)
from rulecover.objective import TOL, ConfigError, Hyperparams, Rule, RuleSet, profit
from rulecover.subproblem import build_instance, local_combinatorial_search


def test_bnb_empty_candidates_returns_empty_rule():
    rng = random.Random(1)
    inst, *_ = random_instance(rng)
    res = bnb_max(inst, ())
    assert res.features == ()
    assert res.value == pytest.approx(inst.weight_total)
    assert res.proven_optimal


def test_bnb_rejects_out_of_range_candidates():
    rng = random.Random(2)
    inst, *_ = random_instance(rng)
    with pytest.raises(ConfigError):
        bnb_max(inst, [inst.d])


def test_bnb_matches_enumeration_on_random_instances():
    rng = random.Random(3)
    for _ in range(60):
        inst, *_ = random_instance(rng, n_max=40, d_max=10)
        k = rng.randint(0, min(8, inst.d))
        cands = sorted(rng.sample(range(inst.d), k))
        res = bnb_max(inst, cands)
        feats, best_v = enumerate_best(inst, cands)
        assert res.value == pytest.approx(best_v, abs=1e-9)
        assert inst.value(res.features) == pytest.approx(best_v, abs=1e-9)
        assert res.proven_optimal


def test_bnb_matches_enumeration_on_many_rows_and_small_lambda():
    # Many rows against a small length price: the regime where the bound
    # prunes least. bnb_max prices children with its own inline copy of
    # score(), so its value must equal value() of its rule exactly.
    rng = random.Random(21)
    for _ in range(12):
        data = random_dataset(
            rng, n=rng.randint(200, 600), d=rng.randint(8, 24),
            density=rng.uniform(0.5, 0.9), pos_frac=rng.uniform(0.2, 0.8),
        )
        h = Hyperparams(beta0=rng.uniform(0.2, 2.0), beta2=rng.choice([0.0, 0.01, 0.1]),
                        lam=rng.choice([0.0, 0.01]))
        S = RuleSet()
        if rng.random() < 0.5:
            S.add(Rule.build(rng.sample(range(data.d), 2), data))
        inst = build_instance(S, data, h, rng.uniform(0.37, 1.0))
        cands = sorted(rng.sample(range(data.d), rng.randint(1, 12)))
        res = bnb_max(inst, cands)
        feats, best_v = enumerate_best(inst, cands)
        assert res.proven_optimal
        assert res.value == pytest.approx(best_v, abs=1e-9)
        assert inst.value(res.features) == res.value
        assert inst.value(feats) == best_v

        rule = sorted(rng.sample(range(data.d), rng.randint(0, 4)))
        vp, vc, vn = inst.cover(rule)
        for i in range(data.n):
            hit = all(data.columns[j] >> i & 1 for j in rule)
            assert vp >> i & 1 == (hit and inst.uncovered_pos >> i & 1)
            assert vc >> i & 1 == (hit and inst.covered_pos >> i & 1)
            assert vn >> i & 1 == (hit and inst.negatives >> i & 1)


def test_bnb_matches_enumeration_when_suffix_terms_prune():
    # A nonempty rule set puts rows in covered_pos, and beta2 up to 1 and
    # beta0 from 0.2 make the rows no descendant can shed weigh in the
    # bound, so both suffix terms decide what is pruned.
    rng = random.Random(22)
    for _ in range(16):
        data = random_dataset(
            rng, n=rng.randint(200, 600), d=rng.randint(8, 24),
            density=rng.uniform(0.5, 0.9), pos_frac=rng.uniform(0.2, 0.8),
        )
        beta2 = rng.choice([0.0, 0.01, 0.1, 1.0])
        h = Hyperparams(beta0=rng.uniform(0.2, 2.0), beta1=1.0 + 2.0 * beta2,
                        beta2=beta2, lam=rng.choice([0.0, 0.01, 1.0]))
        S, n_rules = RuleSet(), rng.randint(1, 3)
        while len(S) < n_rules:
            rule = Rule.build(rng.sample(range(data.d), rng.randint(1, 3)), data)
            if rule not in S:
                S.add(rule)
        inst = build_instance(S, data, h, rng.uniform(0.37, 1.0))
        assert inst.covered_pos
        cands = sorted(rng.sample(range(data.d), rng.randint(1, 12)))
        res = bnb_max(inst, cands)
        feats, best_v = enumerate_best(inst, cands)
        assert res.proven_optimal
        assert res.value == pytest.approx(best_v, abs=1e-9)
        assert inst.value(res.features) == res.value


def unscreened_bnb(inst, candidates):
    """bnb_max without the support screen: every child is priced with its
    three ANDs. Returns (features, value, nodes, suffix-priced children)."""
    u_sing = inst.u.singletons()
    cands = sorted(set(candidates), key=lambda j: (-u_sing[j], j))
    columns, pw, lam = inst.columns, inst.pos_weight, inst.lam
    suffix_and = [(1 << inst.n) - 1] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix_and[i] = suffix_and[i + 1] & columns[cands[i]]
    vp0, vc0, vn0 = inst.uncovered_pos, inst.covered_pos, inst.negatives
    best_feats, best_v, nodes, priced = (), inst.score(vp0, vc0, vn0, 0), 0, 0
    root = pw * vp0.bit_count()
    stack = [(root, root, 0, (), vp0, vc0, vn0)]
    while stack:
        _, bound, start, feats, vp, vc, vn = stack.pop()
        if bound <= best_v + TOL:
            continue
        nodes += 1
        children = []
        length = lam * (len(feats) + 1)
        deeper = lam * (len(feats) + 2)
        for i in range(start, len(cands)):
            col = columns[cands[i]]
            cvp, cvc, cvn = vp & col, vc & col, vn & col
            gain = pw * cvp.bit_count()
            v_child = gain - inst.beta2 * cvc.bit_count() - inst.beta0 * cvn.bit_count() - length
            if v_child > best_v:
                best_v, best_feats = v_child, feats + (cands[i],)
            if i + 1 < len(cands) and gain - deeper > best_v + TOL:
                priced += 1
                suf = suffix_and[i + 1]
                child_bound = (gain - inst.beta2 * (cvc & suf).bit_count()
                               - inst.beta0 * (cvn & suf).bit_count() - deeper)
                if child_bound > best_v + TOL:
                    children.append((gain - length, child_bound, i + 1,
                                     feats + (cands[i],), cvp, cvc, cvn))
        children.sort(key=lambda c: c[0])
        stack.extend(children)
    return tuple(sorted(best_feats)), best_v, nodes, priced


def shallow_bnb(inst, candidates):
    """unscreened_bnb with the bound bnb_max had before it charged strict
    descendants one more literal: a child's entry is bounded with its own
    length cost, and children at the last candidate are priced with the
    suffix ANDs too. Returns (features, value, nodes)."""
    u_sing = inst.u.singletons()
    cands = sorted(set(candidates), key=lambda j: (-u_sing[j], j))
    columns, pw, lam = inst.columns, inst.pos_weight, inst.lam
    suffix_and = [(1 << inst.n) - 1] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix_and[i] = suffix_and[i + 1] & columns[cands[i]]
    vp0, vc0, vn0 = inst.uncovered_pos, inst.covered_pos, inst.negatives
    best_feats, best_v, nodes = (), inst.score(vp0, vc0, vn0, 0), 0
    root = pw * vp0.bit_count()
    stack = [(root, root, 0, (), vp0, vc0, vn0)]
    while stack:
        _, bound, start, feats, vp, vc, vn = stack.pop()
        if bound <= best_v + TOL:
            continue
        nodes += 1
        children = []
        length = lam * (len(feats) + 1)
        for i in range(start, len(cands)):
            col = columns[cands[i]]
            cvp, cvc, cvn = vp & col, vc & col, vn & col
            gain = pw * cvp.bit_count()
            v_child = gain - inst.beta2 * cvc.bit_count() - inst.beta0 * cvn.bit_count() - length
            if v_child > best_v:
                best_v, best_feats = v_child, feats + (cands[i],)
            key = gain - length
            if key > best_v + TOL:
                suf = suffix_and[i + 1]
                child_bound = (gain - inst.beta2 * (cvc & suf).bit_count()
                               - inst.beta0 * (cvn & suf).bit_count() - length)
                if child_bound > best_v + TOL:
                    children.append((key, child_bound, i + 1, feats + (cands[i],),
                                     cvp, cvc, cvn))
        children.sort(key=lambda c: c[0])
        stack.extend(children)
    return tuple(sorted(best_feats)), best_v, nodes


class TaggedMask(int):
    """A row mask tagged with the instance mask it lies in ("p" for the
    uncovered positives, "c" for the covered positives), and with the
    counter of CountingColumn; a "c" mask ANDed with anything but a column
    (in bnb_max, a suffix AND) counts there as "c&suffix"."""

    def __new__(cls, value, kind=None, ands=None):
        mask = super().__new__(cls, value)
        mask.kind = kind
        mask.ands = ands
        return mask

    def __and__(self, other):
        if self.kind == "c" and self.ands is not None:
            self.ands["c&suffix"] += 1
        return int(self) & int(other)


class CountingColumn(TaggedMask):
    """A column that counts in ands, by tag, the masks ANDed into it. As a
    subclass of TaggedMask it takes `mask & column` before TaggedMask
    does."""

    def __new__(cls, value, ands):
        return super().__new__(cls, value, None, ands)

    def __rand__(self, other):
        kind = getattr(other, "kind", None)
        self.ands[kind] += 1
        return TaggedMask(int(other) & int(self), kind, self.ands)


def bnb_with_counted_ands(inst, candidates):
    """bnb_max's result on inst, the children it skipped by the support
    screen at the node's cover, and the children it priced with the two
    suffix ANDs. Every child that passes the instance-level screen ANDs the
    node's vp into its column; of those, the ones the cover screen passes
    also AND vc, and the ones the bound without suffix terms passes AND
    their vc with the suffix."""
    inst.pos_ub()  # cached first: it ANDs every column too
    ands = collections.Counter()
    counted = dataclasses.replace(
        inst,
        columns=[CountingColumn(col, ands) for col in inst.columns],
        uncovered_pos=TaggedMask(inst.uncovered_pos, "p"),
        covered_pos=TaggedMask(inst.covered_pos, "c", ands),
    )
    res = bnb_max(counted, candidates)
    return res, ands["p"] - ands["c"], ands["c&suffix"]


def test_bnb_screen_keeps_rules_and_nodes_on_tied_instances():
    # Integer weights make many subsets tie exactly with the incumbent, the
    # case where a screen that skipped a child whose value equals best_v
    # plus a little would pick another rule or visit other nodes. Both
    # screens, at the instance level and at the node's cover, must fire,
    # and the suffix ANDs must be taken for the same children as without
    # them (only those the bound without suffix terms leaves open).
    rng = random.Random(25)
    cover_screened = 0
    for case in range(360):
        if case % 3:
            inst = tied_instance(rng, n_max=60, d_max=12)
        else:
            inst, *_ = random_instance(rng, n_max=60, d_max=12)
        cands = sorted(rng.sample(range(inst.d), rng.randint(0, inst.d)))
        res = bnb_max(inst, cands)
        counted, skips, priced = bnb_with_counted_ands(inst, cands)
        assert counted == res
        assert (res.features, res.value, res.nodes, priced) == unscreened_bnb(inst, cands)
        cover_screened += skips
        feats, best_v = enumerate_best(inst, cands)
        assert res.proven_optimal
        assert inst.value(res.features) == res.value
        if case % 3:
            assert res.value == best_v
        else:
            assert res.value == pytest.approx(best_v, abs=1e-9)
    assert cover_screened > 300


def test_deeper_bound_keeps_rules_and_visits_fewer_nodes():
    # bnb_max charges a child's descendants one literal more than
    # shallow_bnb. It must return the same rule, and visit no more nodes
    # on any instance and fewer over all. With lam = 0 (a third of the
    # cases) the two bounds are equal, so the nodes must be too.
    rng = random.Random(33)
    nodes = shallow_nodes = 0
    for case in range(330):
        if case % 2:
            inst = tied_instance(rng, n_max=60, d_max=12)
        else:
            inst, *_ = random_instance(rng, n_max=60, d_max=12)
        # bnb_max reads lam only as inst.lam (w, which lam also sets, is
        # not used); 1 keeps tied instances integer.
        inst = dataclasses.replace(inst, lam=0.0 if case % 3 == 0 else inst.lam or 1.0)
        cands = sorted(rng.sample(range(inst.d), rng.randint(0, inst.d)))
        res = bnb_max(inst, cands)
        feats, value, old_nodes = shallow_bnb(inst, cands)
        _, best_v = enumerate_best(inst, cands)
        assert (res.features, res.value) == (feats, value)
        assert res.proven_optimal
        assert inst.value(res.features) == res.value
        if case % 2:
            assert res.value == best_v
        else:
            assert res.value == pytest.approx(best_v, abs=1e-9)
        assert res.nodes <= old_nodes
        if inst.lam == 0:
            assert res.nodes == old_nodes
        nodes += res.nodes
        shallow_nodes += old_nodes
    assert nodes < shallow_nodes


def test_deeper_bound_keeps_rule_when_values_exceed_2_to_24():
    # Weights of 1e5-3e5 on a few thousand rows put v above 2**24, where one
    # ulp of v exceeds TOL: a bound that rounded a single ulp above a
    # descendant's value would prune it. alpha < 1 makes the weights
    # non-integer, so the products round. Labels follow a planted rule, so
    # the optimum is not the empty rule.
    rng = random.Random(35)
    for case in range(12):
        planted = rng.sample(range(8), rng.randint(1, 3))
        rows = [[int(rng.random() < 0.7) for _ in range(8)] for _ in range(3000)]
        labels = [int(all(r[j] for j in planted) != (rng.random() < 0.1)) for r in rows]
        data = BinaryDataset.from_matrix(rows, labels)
        h = Hyperparams(
            beta0=rng.choice([1e5, 2e5, 3e5]),
            beta1=rng.choice([1e5, 3e5]),
            beta2=0.0,
            lam=rng.choice([1e5, 2e5, 3e5]),
        )
        alpha = 1.0 if case % 2 else rng.uniform(0.37, 1.0)
        inst = build_instance(RuleSet(), data, h, alpha)
        cands = range(inst.d)
        res = bnb_max(inst, cands)
        feats, value, old_nodes = shallow_bnb(inst, cands)
        best, best_v = enumerate_best(inst, cands)
        assert best and abs(best_v) >= 2**24
        assert (res.features, res.value) == (feats, value)
        assert res.value == inst.value(res.features) == best_v
        assert res.nodes <= old_nodes


def test_child_bound_charges_descendants_in_one_rounding():
    # Feature 1 holds both positives and negative row 0; feature 0 holds
    # both positives and negatives 2 and 4. With lam == beta0 and beta2 = 0,
    # v({1}) = 2*pw - beta0 - lam and v({0, 1}) = 2*pw - 2*lam are equal in
    # exact arithmetic, but their roundings differ: v({0, 1}) is one ulp
    # (1.5e-8, far above TOL) higher, so it is the optimum. Feature 1 sorts
    # first (it excludes more negatives), and after pricing the child {1}
    # the incumbent is v({1}). Its bound must be 2*pw - 2*lam, which equals
    # v({0, 1}); computing it as (2*pw - lam) - lam rounds one ulp lower,
    # to v({1}) itself, and prunes the optimum. An instance found by a
    # seeded search over weights of 1e4-1e9.
    rows = [[0, 1], [0, 0], [1, 0], [1, 1], [1, 0], [1, 1]]
    data = BinaryDataset.from_matrix(rows, [0, 0, 0, 1, 0, 1])
    h = Hyperparams(
        beta0=15496679.389496025, beta1=71758947.21322563, beta2=0.0, lam=15496679.389496025
    )
    inst = build_instance(RuleSet(), data, h, 0.8332876570936897)
    assert inst.value((0, 1)) - inst.value((1,)) > TOL
    assert (inst.pos_weight * 2 - h.lam) - h.lam == inst.value((1,))
    best, best_v = enumerate_best(inst, [0, 1])
    assert best == (0, 1)
    res = bnb_max(inst, [0, 1])
    assert (res.features, res.value, res.proven_optimal) == (best, best_v, True)


def test_bnb_charges_descendants_one_more_literal_and_never_prices_leaves():
    # Row 3 is the one positive and holds both features; rows 0 and 2 are
    # negatives holding one each. With pos_weight = beta0 = 1:
    rows = [[0, 1], [0, 0], [1, 0], [1, 1]]
    data = BinaryDataset.from_matrix(rows, [0, 0, 0, 1])
    h = Hyperparams(beta0=1, beta1=1, beta2=0, lam=0)
    flat = build_instance(RuleSet(), data, h, 1.0)
    priced = build_instance(RuleSet(), data, dataclasses.replace(h, lam=1), 1.0)
    assert flat.pos_weight == priced.pos_weight == 1.0
    # One candidate, lam = 0: v() = 1 - 3 and v({c}) = 1 - 1. The root is
    # the only node, and its child is a leaf: priced, but neither pushed
    # nor bounded with the suffix ANDs, though 1 - 0 > 0 would pass the
    # bound without them.
    for c in (0, 1):
        res, _, suffix_priced = bnb_with_counted_ands(flat, [c])
        assert (res.features, res.value, res.nodes, suffix_priced) == ((c,), 0.0, 1, 0)
    # Two candidates, lam = 1: v() = -2 and v({0}) = v({1}) = v({0, 1}) =
    # -1. {0} comes first (the two tie on every count) and becomes the
    # incumbent. Its one descendant, {0, 1}, is bounded by 1 - 0 - 2 = -1,
    # so {0} is not pushed, nor its suffix ANDs taken (1 - 2 is no better
    # than -1); the bound with {0}'s own length, 1 - 1 = 0, expanded it.
    res, _, suffix_priced = bnb_with_counted_ands(priced, [0, 1])
    assert (res.features, res.value, res.nodes, suffix_priced) == ((0,), -1.0, 1, 0)
    assert shallow_bnb(priced, [0, 1]) == ((0,), -1.0, 2)


def tied_optima(inst, cands):
    """Every subset of cands whose value equals the best one exactly."""
    _, best_v = enumerate_best(inst, cands)
    return [
        feats
        for k in range(len(cands) + 1)
        for feats in itertools.combinations(cands, k)
        if inst.value(feats) == best_v
    ]


def test_seeded_bnb_keeps_rule_and_value_and_visits_no_more_nodes():
    # Seeds: a random subset of the candidates, enumerate_best's optimum,
    # and a tied optimum other than the rule the search returns, which DFS
    # reaches later or never. A seed that started the incumbent at v(seed)
    # itself would keep that later optimum.
    rng = random.Random(27)
    kinds = {"random": 0, "optimum": 0, "later tie": 0}
    for case in range(330):
        if case % 3:
            inst = tied_instance(rng, n_max=50, d_max=11)
        else:
            inst, *_ = random_instance(rng, n_max=50, d_max=11)
        cands = sorted(rng.sample(range(inst.d), rng.randint(inst.d // 2, inst.d)))
        plain = bnb_max(inst, cands)
        seeds = {
            "random": tuple(sorted(rng.sample(cands, rng.randint(0, len(cands))))),
            "optimum": enumerate_best(inst, cands)[0],
        }
        later = [f for f in tied_optima(inst, cands) if f != plain.features]
        if later:
            seeds["later tie"] = rng.choice(later)
        for kind, seed in seeds.items():
            res = bnb_max(inst, cands, seed=seed)
            assert (res.features, res.value) == (plain.features, plain.value), kind
            assert res.proven_optimal
            assert res.nodes <= plain.nodes
            kinds[kind] += 1
    assert min(kinds.values()) >= 50


def test_seeded_bnb_keeps_rule_when_values_exceed_float_resolution_of_margin():
    # Integer weights around 1e5 on a few thousand rows put v above 2**24,
    # where v - SEED_MARGIN rounds back to v. The seeded incumbent must
    # still start strictly below v(seed), or a seed that is already the
    # optimum is never replaced and the empty rule comes back labelled
    # with the seed's value. Labels follow a planted rule, so the optimum
    # is not the empty rule.
    rng = random.Random(29)
    for case in range(12):
        planted = rng.sample(range(8), rng.randint(1, 3))
        rows = [[int(rng.random() < 0.7) for _ in range(8)] for _ in range(3000)]
        labels = [int(all(r[j] for j in planted) != (rng.random() < 0.1)) for r in rows]
        data = BinaryDataset.from_matrix(rows, labels)
        h = Hyperparams(
            beta0=rng.choice([1e5, 2e5]),
            beta1=rng.choice([1e5, 3e5]),
            beta2=0.0,
            lam=rng.choice([0.0, 1e5]),
        )
        inst = build_instance(RuleSet(), data, h, 1.0)
        cands = range(inst.d)
        plain = bnb_max(inst, cands)
        best, best_v = enumerate_best(inst, cands)
        assert best and abs(best_v) >= 2**24
        seeds = [
            local_combinatorial_search(inst, m=inst.d),
            best,
            *(f for f in tied_optima(inst, cands) if f != plain.features),
        ]
        for seed in seeds:
            res = bnb_max(inst, cands, seed=seed)
            assert (res.features, res.value) == (plain.features, plain.value)
            assert res.value == inst.value(res.features) == best_v
            assert res.nodes <= plain.nodes


def test_seed_within_tol_above_the_unseeded_rule_keeps_that_rule():
    # (2,) scores 0.9 - 0.6 and (0, 2) scores 0.6 - 0.3: both 0.3 on paper,
    # but the first rounds one ulp lower. The unseeded search finds (2,)
    # first and prunes (0, 2) as a tie within TOL; seeded with (0, 2), the
    # search must keep (2,) as well rather than fall back to its seed.
    rows = [[0, 1, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0], [1, 1, 0, 1],
            [1, 0, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
    data = BinaryDataset.from_matrix(rows, [0, 0, 1, 0, 1, 1, 0])
    h = Hyperparams(beta0=0.3, beta1=0.3, beta2=0.0, lam=0.0)
    inst = build_instance(RuleSet(), data, h, 1.0)
    plain = bnb_max(inst, range(4))
    seed = (0, 2)
    assert plain.features == (2,)
    assert plain.value < inst.value(seed) <= plain.value + TOL
    res = bnb_max(inst, range(4), seed=seed)
    assert (res.features, res.value) == (plain.features, plain.value)


def test_bnb_rejects_seed_outside_candidates():
    rng = random.Random(28)
    inst, *_ = random_instance(rng)
    with pytest.raises(ConfigError):
        bnb_max(inst, [0], seed=[1])


# The suffix bound visits 5,953 nodes on this instance; the bound without
# the suffix terms visited all 2^16 = 65,536 subsets.
SUFFIX_BOUND_MAX_NODES = 2**16 // 8


def test_bnb_suffix_bound_prunes_dense_instance():
    rng = random.Random(31)
    data = random_dataset(rng, n=400, d=16, density=0.9, pos_frac=0.5)
    inst = build_instance(RuleSet(), data, Hyperparams(beta2=0.1, lam=0.01), 1.0)
    res = bnb_max(inst, range(16))
    assert res.proven_optimal
    assert res.nodes <= SUFFIX_BOUND_MAX_NODES
    assert res.value == pytest.approx(enumerate_best(inst, range(16))[1], abs=1e-9)


def test_bnb_on_wide_instance_restricted_to_candidate_pool():
    # transfusion-scale width: only the candidate features may appear
    rng = random.Random(4)
    data = random_dataset(rng, n=120, d=64, density=0.6, pos_frac=0.4)
    h = Hyperparams(beta2=0.01, lam=0.5)
    inst = build_instance(RuleSet(), data, h, 1.0)
    cands = sorted(rng.sample(range(64), 18))
    res = bnb_max(inst, cands)
    feats, best_v = enumerate_best(inst, cands)
    assert set(res.features) <= set(cands)
    assert res.value == pytest.approx(best_v, abs=1e-9)
    assert res.proven_optimal


def test_bnb_value_agrees_with_instance_value():
    rng = random.Random(5)
    for _ in range(40):
        inst, *_ = random_instance(rng)
        res = bnb_max(inst, range(inst.d))
        assert res.value == pytest.approx(inst.value(res.features), abs=1e-9)


def test_bnb_is_deterministic():
    rng = random.Random(6)
    inst, *_ = random_instance(rng, n_max=40, d_max=10)
    r1 = bnb_max(inst, range(inst.d))
    r2 = bnb_max(inst, range(inst.d))
    assert r1 == r2


def test_bnb_reports_timeout_honestly(monkeypatch):
    # dense mixed-label columns with no literal price keep the optimistic
    # bound high everywhere, so a small node budget must cut the search
    # and clear the optimality flag
    rng = random.Random(7)
    data = random_dataset(rng, n=60, d=20, density=0.9, pos_frac=0.5)
    h = Hyperparams(beta0=1.0, beta1=1.0, beta2=0.0, lam=0.0)
    inst = build_instance(RuleSet(), data, h, 1.0)
    full = bnb_max(inst, range(20))
    assert full.proven_optimal
    budget = 256
    monkeypatch.setattr(exact_oracle, "NODE_BUDGET", budget)
    res = bnb_max(inst, range(20))
    assert not res.proven_optimal
    assert res.nodes == budget
    assert res.value == pytest.approx(inst.value(res.features), abs=1e-9)
    assert full.value >= res.value - 1e-9


def test_bnb_cut_short_is_never_worse_than_its_seed(monkeypatch):
    # A larger instance of the kind in test_bnb_reports_timeout_honestly,
    # where the unseeded search cut short by a small node budget falls
    # below the local solver's rule; seeded with that rule, the cut-short
    # search returns the better of its incumbent and the seed.
    rng = random.Random(7)
    data = random_dataset(rng, n=200, d=24, density=0.9, pos_frac=0.5)
    h = Hyperparams(beta0=1.0, beta1=1.0, beta2=0.0, lam=0.0)
    inst = build_instance(RuleSet(), data, h, 1.0)
    seed = local_combinatorial_search(inst, m=16)
    budget = 256
    monkeypatch.setattr(exact_oracle, "NODE_BUDGET", budget)
    cut = bnb_max(inst, range(24))
    assert not cut.proven_optimal
    assert cut.nodes == budget
    assert cut.value < inst.value(seed)
    res = bnb_max(inst, range(24), seed=seed)
    assert not res.proven_optimal
    assert res.nodes == budget
    assert res.value >= inst.value(seed)
    assert res.value == inst.value(res.features)


def test_bnb_proves_optimal_within_a_budget_of_every_subset(monkeypatch):
    # Each node is a distinct subset of the candidates, so a budget of
    # 2^|cands| nodes never cuts a search: it ends proven and matches the
    # exhaustive oracle, also on dense lam = 0 instances, where the bound
    # prunes least.
    rng = random.Random(22)
    for trial in range(40):
        dense = trial % 2 == 0
        data = random_dataset(
            rng, n=rng.randint(10, 40), d=rng.randint(1, 10),
            density=0.9 if dense else 0.5, pos_frac=rng.uniform(0.2, 0.8),
        )
        h = Hyperparams(beta2=0.0, lam=0.0) if dense else random_hyperparams(rng)
        inst = build_instance(RuleSet(), data, h, 1.0)
        cands = sorted(rng.sample(range(inst.d), rng.randint(1, inst.d)))
        monkeypatch.setattr(exact_oracle, "NODE_BUDGET", 2 ** len(cands))
        res = bnb_max(inst, cands)
        _, best_v = enumerate_best(inst, cands)
        assert res.proven_optimal
        assert res.nodes <= 2 ** len(cands)
        assert res.value == pytest.approx(best_v, abs=1e-9)
        # A budget of exactly the nodes the search visits does not cut it;
        # one node less cuts it at exactly that many.
        monkeypatch.setattr(exact_oracle, "NODE_BUDGET", res.nodes)
        assert bnb_max(inst, cands) == res
        if res.nodes:
            monkeypatch.setattr(exact_oracle, "NODE_BUDGET", res.nodes - 1)
            cut = bnb_max(inst, cands)
            assert not cut.proven_optimal
            assert cut.nodes == res.nodes - 1


def test_bnb_counts_nodes():
    rng = random.Random(8)
    inst, *_ = random_instance(rng)
    res = bnb_max(inst, range(inst.d))
    assert isinstance(res, BnbResult)
    assert res.nodes >= 1


def test_enumerate_best_small_oracle_against_itertools():
    rng = random.Random(9)
    for _ in range(30):
        inst, *_ = random_instance(rng, n_max=25, d_max=6)
        feats, best_v = enumerate_best(inst, range(inst.d))
        expect = inst.value(())
        for k in range(1, inst.d + 1):
            for combo in itertools.combinations(range(inst.d), k):
                expect = max(expect, inst.value(combo))
        assert best_v == pytest.approx(expect, abs=1e-9)
        assert inst.value(feats) == pytest.approx(best_v, abs=1e-9)


def test_brute_force_zero_rules_budget_gives_empty_set():
    rng = random.Random(11)
    data = random_dataset(rng, n=15, d=4)
    h = Hyperparams(max_rules=4)
    S, v = brute_force_ruleset_opt(data, h, max_rules=0)
    assert len(S) == 0
    assert v == 0.0


def test_brute_force_single_rule_matches_direct_scan():
    rng = random.Random(12)
    for _ in range(20):
        data = random_dataset(rng, n=20, d=4)
        h = Hyperparams(beta2=0.0, lam=0.2, max_rules=4)
        S, v = brute_force_ruleset_opt(data, h, max_rules=1)
        best = 0.0
        for bits in range(1 << data.d):
            feats = tuple(j for j in range(data.d) if bits >> j & 1)
            one = RuleSet()
            one.add(Rule.build(feats, data))
            best = max(best, profit(one, data, h))
        assert v == pytest.approx(best, abs=1e-9)
        assert profit(S, data, h) == pytest.approx(v, abs=1e-9)


def test_brute_force_profit_never_below_empty_set():
    rng = random.Random(13)
    for _ in range(10):
        data = random_dataset(rng, n=12, d=3, pos_frac=0.2)
        h = Hyperparams(beta2=0.0, lam=1.0, max_rules=2)
        S, v = brute_force_ruleset_opt(data, h)
        assert v >= 0.0


def test_brute_force_guards_against_large_instances():
    rng = random.Random(14)
    data = random_dataset(rng, n=10, d=13)
    with pytest.raises(ConfigError):
        brute_force_ruleset_opt(data, Hyperparams())
    data = random_dataset(rng, n=10, d=8)
    with pytest.raises(ConfigError):
        brute_force_ruleset_opt(data, Hyperparams(max_rules=8))
