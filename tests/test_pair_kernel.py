"""The full-width scans over the pair plan against per-column references.

enlarge and SubproblemInstance.pos_ub count a complement pair (j, j + 1)
with one AND per mask; chain_gains stops ANDing once every mask is empty. The count table (the dataset's
class_counts and each instance's uncovered counts) answers pos_ub, the
singleton marginals and enlarge's first step without an AND, and ds_opt
walks only the live prefix of its chain. The frozen_* functions below are
the code they replaced, kept verbatim except that frozen_ds_opt calls the
frozen scans; every result must equal theirs exactly, not within a
tolerance.
"""

import random
import warnings

from conftest import (
    exclusion_coverage,
    random_dataset,
    random_hyperparams,
    random_instance,
    tied_instance,
)
from rulecover.bits import all_ones, complement_pairs
from rulecover.dataset import BINARY, CATEGORICAL, LABEL, NUMERIC, BinaryDataset, Table, binarize
from rulecover.objective import TOL, ConfigError, Hyperparams, Rule, RuleSet
from rulecover.subproblem import (
    build_instance,
    chain_permutation,
    ds_opt,
    enlarge,
)

INF = float("inf")


def frozen_enlarge(features, m, inst, path=None):
    """subproblem.enlarge before the pair plan: one AND per mask and column."""
    if m < 1:
        raise ConfigError("active set size must be >= 1")
    d = inst.d
    columns = inst.columns
    beta0, beta2, pos_weight, lam = inst.beta0, inst.beta2, inst.pos_weight, inst.lam
    r = sorted(set(features))
    in_r = set(r)
    vp, vc, vn = inst.cover(r)
    target = min(m, d)
    while len(r) < target:
        if not vn and not vc and (lam > 0 or not vp):
            tail = [j for j in range(d) if j not in in_r][: target - len(r)]
            r.extend(tail)
            if path is not None:
                path.extend(tail)
            break
        pcp = vp.bit_count()
        pcc = vc.bit_count()
        pcn = vn.bit_count()
        best_j = -1
        best_ratio = None
        for j in range(d):
            if j in in_r:
                continue
            col = columns[j]
            du = beta0 * (pcn - (vn & col).bit_count()) + beta2 * (
                pcc - (vc & col).bit_count()
            )
            dw = pos_weight * (pcp - (vp & col).bit_count()) + lam
            if dw > 0:
                ratio = du / dw
            else:
                ratio = INF if du > 0 else -INF
            if best_ratio is None or ratio > best_ratio:
                best_j, best_ratio = j, ratio
        col = columns[best_j]
        r.append(best_j)
        in_r.add(best_j)
        if path is not None:
            path.append(best_j)
        vp &= col
        vc &= col
        vn &= col
    return tuple(sorted(r))


def frozen_marginals_given(f, base):
    """ExclusionCoverage.marginals_given before the pair plan."""
    base_set = set(base)
    cov = f.cover(base)
    state = [(coef, mask & cov, (mask & cov).bit_count()) for coef, mask in f.terms]
    gains = [0.0] * f.d
    for j in range(f.d):
        if j in base_set:
            continue
        col = f.columns[j]
        g = f.per_element
        for coef, mv, pc in state:
            g += coef * (pc - (mv & col).bit_count())
        gains[j] = g
    return gains


def frozen_pos_ub(inst):
    """SubproblemInstance.pos_ub before the pair plan."""
    return [inst.pos_weight * (inst.uncovered_pos & col).bit_count() for col in inst.columns]


def frozen_chain_gains(f, perm):
    """ExclusionCoverage.chain_gains without its stop at empty masks."""
    gains = [0.0] * f.d
    state = [[coef, mask] for coef, mask in f.terms]
    for j in perm:
        col = f.columns[j]
        g = f.per_element
        for entry in state:
            coef, mv = entry
            nm = mv & col
            g += coef * (mv.bit_count() - nm.bit_count())
            entry[1] = nm
        gains[j] = g
    return gains


def frozen_ds_opt(features, inst, trace):
    """subproblem.ds_opt before the live prefix: every iteration takes the
    chain gains and w's marginals over all d features, here with the
    frozen per-column scans, and w(j | all others) from loo_marginals."""
    d = inst.d
    r = tuple(sorted(set(features)))
    v_r = inst.value(r)
    trace.append(v_r)
    w_sing = frozen_marginals_given(inst.w, ())
    loo = inst.w.loo_marginals(range(d))
    w_full_loo = [loo[j] for j in range(d)]
    for _ in range(10 * max(d, 1)):
        hv = frozen_chain_gains(inst.u, chain_permutation(r, d))
        w_loo_r = inst.w.loo_marginals(r)
        w_given_r = frozen_marginals_given(inst.w, r)
        in_r = set(r)
        r1 = []
        r2 = []
        for j in range(d):
            if j in in_r:
                if hv[j] - w_loo_r[j] > 0:
                    r1.append(j)
                if hv[j] - w_full_loo[j] > 0:
                    r2.append(j)
            else:
                if hv[j] - w_sing[j] > 0:
                    r1.append(j)
                if hv[j] - w_given_r[j] > 0:
                    r2.append(j)
        v1 = inst.value(r1)
        v2 = inst.value(r2)
        cand, v_cand = (r1, v1) if v1 >= v2 else (r2, v2)
        if v_cand > v_r + TOL:
            r, v_r = tuple(cand), v_cand
            trace.append(v_r)
        else:
            return r
    raise RuntimeError("descent failed to reach a fixed point within the iteration cap")


def per_column_counts(mask, columns):
    return [(mask & col).bit_count() for col in columns]


# Instance sources -----------------------------------------------------------


def binarized_dataset(rng):
    """A binarized table of categorical, numeric and binary columns."""
    n = rng.randint(6, 40)
    names, columns, schema = [], [], {}
    for c in range(rng.randint(1, 4)):
        kind = rng.choice([CATEGORICAL, NUMERIC, BINARY])
        if kind == CATEGORICAL:
            col = [rng.choice("abcd"[: rng.randint(2, 4)]) for _ in range(n)]
        elif kind == NUMERIC:
            col = [str(rng.randint(0, rng.choice([3, 20]))) for _ in range(n)]
        else:
            col = [str(rng.randrange(2)) for _ in range(n)]
        names.append(f"x{c}")
        columns.append(col)
        schema[f"x{c}"] = kind
    names.append("y")
    columns.append([str(int(rng.random() < 0.5)) for _ in range(n)])
    schema["y"] = LABEL
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant columns, duplicate features
        return binarize(Table(names, columns), schema)


def dataset_from_columns(n, columns, labels):
    rows = [[c >> i & 1 for c in columns] for i in range(n)]
    return BinaryDataset.from_matrix(rows, [labels >> i & 1 for i in range(n)])


def layout_dataset(rng):
    """Hand-made column layouts: a trailing single column after pairs, a
    complement pair at non-adjacent positions, duplicated columns and
    pairs, and the constant pair (universe, 0)."""
    n = rng.randint(4, 30)
    u = all_ones(n)
    a, b, c = (rng.getrandbits(n) for _ in range(3))
    layouts = [
        [a, u ^ a, b, u ^ b, c],
        [a, b, u ^ a, u ^ b],
        [a, b, u ^ b, c, u ^ a],
        [a, a, u ^ a, u ^ a, a],
        [a, u ^ a, a, u ^ a, u ^ a, a],
        [u, 0, a, u ^ a, 0, u],
        [c],
    ]
    return dataset_from_columns(n, rng.choice(layouts), rng.getrandbits(n))


def hyperparams(rng):
    """Random real weights, or small integer weights that tie exactly;
    lam = 0 and beta2 = 0 in both."""
    if rng.random() < 0.5:
        return random_hyperparams(rng)
    beta2 = rng.choice([0, 1])
    return Hyperparams(
        beta0=rng.choice([0, 1, 2]),
        beta1=rng.choice([1, 2]) + beta2,
        beta2=beta2,
        lam=rng.choice([0, 0, 1, 2]),
    )


def instances(seed, count):
    """build_instance over the three sources, with a random rule set."""
    rng = random.Random(seed)
    sources = [
        binarized_dataset,
        layout_dataset,
        lambda r: random_dataset(r, r.randint(4, 30), r.randint(1, 9), r.uniform(0.2, 0.8)),
    ]
    for case in range(count):
        data = sources[case % 3](rng)
        S = RuleSet()
        if rng.random() < 0.1:
            S.add(Rule.build((), data))  # every positive covered
        for _ in range(rng.randint(0, 2)):
            if data.d:
                rule = Rule.build(rng.sample(range(data.d), rng.randint(1, min(2, data.d))), data)
                if rule not in S:
                    S.add(rule)
        alpha = 1.0 if rng.random() < 0.5 else rng.uniform(0.37, 1.0)
        yield rng, data, build_instance(S, data, hyperparams(rng), alpha)


def start_features(rng, inst):
    """A random start, often holding exactly one side of a pair."""
    feats = set(rng.sample(range(inst.d), rng.randint(0, min(3, inst.d))))
    paired = [j for j, _, p in inst.pairs if p]
    if paired and rng.random() < 0.5:
        j = rng.choice(paired)
        feats.add(j + rng.randrange(2))
    return sorted(feats)


# Tests ----------------------------------------------------------------------


def test_pair_plan_is_the_greedy_left_to_right_pairing():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 12)
        u = all_ones(n)
        cols = []
        for _ in range(rng.randint(0, 10)):
            pick = rng.random()
            if cols and pick < 0.4:
                cols.append(u ^ cols[-1])
            elif cols and pick < 0.6:
                cols.append(rng.choice(cols))
            else:
                cols.append(rng.getrandbits(n))
        plan = complement_pairs(cols, u)
        covered = []
        for j, col, paired in plan:
            assert col == cols[j]
            following = j + 1 < len(cols) and cols[j + 1] == u ^ cols[j]
            # An entry pairs exactly when its right neighbour is its complement.
            assert paired == following
            covered += [j, j + 1] if paired else [j]
        # Entries start where the previous one ended: every column once, in order.
        assert covered == list(range(len(cols)))


def test_pair_plan_of_hand_made_layouts():
    u = 0b1111
    a, b = 0b0011, 0b0101
    assert complement_pairs([a, u ^ a, b, u ^ b, a], u) == [
        (0, a, True), (2, b, True), (4, a, False)
    ]
    # Complements that are not neighbours are not paired.
    assert [p for _, _, p in complement_pairs([a, b, u ^ a, u ^ b], u)] == [False] * 4
    # a, a, ~a, ~a: the first a is unpaired, then (a, ~a), then ~a alone.
    assert complement_pairs([a, a, u ^ a, u ^ a], u) == [
        (0, a, False), (1, a, True), (3, u ^ a, False)
    ]
    assert complement_pairs([], u) == []


def test_binarize_pairs_every_feature():
    rng = random.Random(2)
    for _ in range(60):
        data = binarized_dataset(rng)
        plan = data.pair_plan()
        assert all(paired for _, _, paired in plan)
        assert 2 * len(plan) == data.d


def test_dataset_builds_its_plan_once_and_only_on_demand():
    rng = random.Random(3)
    data = binarized_dataset(rng)
    assert data._pair_plan is None
    assert "pair" not in repr(data)
    plan = data.pair_plan()
    assert data.pair_plan() is plan
    twin = BinaryDataset(data.n, list(data.columns), data.labels, list(data.descriptors))
    assert twin == data
    inst = build_instance(RuleSet(), data, Hyperparams(), 1.0)
    assert inst.pairs is plan


def test_enlarge_matches_per_column_scan():
    for rng, _, inst in instances(4, 600):
        start = start_features(rng, inst)
        m = rng.randint(1, inst.d + 2)
        path, ref_path = [], []
        got = enlarge(start, m, inst, path=path)
        assert got == frozen_enlarge(start, m, inst, path=ref_path)
        assert path == ref_path


def test_enlarge_matches_per_column_scan_with_infinite_ratios():
    # lam = 0 and a start that covers no uncovered positive: every w-gain
    # is 0, so every ratio is +inf or -inf and the lowest index wins ties.
    rng = random.Random(5)
    checked = 0
    for _ in range(400):
        data = binarized_dataset(rng) if rng.random() < 0.7 else layout_dataset(rng)
        h = Hyperparams(beta0=rng.choice([0.0, 1.0]), beta1=1.0,
                        beta2=rng.choice([0.0, 0.1]), lam=0.0)
        inst = build_instance(RuleSet(), data, h, 1.0)
        for j in range(inst.d):
            if not inst.uncovered_pos & inst.columns[j] and inst.negatives & inst.columns[j]:
                path, ref_path = [], []
                m = rng.randint(2, inst.d + 1)
                assert enlarge([j], m, inst, path=path) == frozen_enlarge([j], m, inst, ref_path)
                assert path == ref_path
                checked += 1
                break
    assert checked > 50


def test_marginals_given_match_per_column_scan():
    for rng, _, inst in instances(6, 600):
        for f in (inst.u, inst.w):
            base = start_features(rng, inst)
            assert f.marginals_given(base) == frozen_marginals_given(f, base)
            assert f.singletons() == frozen_marginals_given(f, ())


def test_directly_built_coverage_matches_per_column_scan():
    rng = random.Random(7)
    for _ in range(200):
        data = layout_dataset(rng)
        terms = [(rng.choice([0.5, 1.0, 3.0]), rng.getrandbits(data.n)) for _ in range(2)]
        f = exclusion_coverage(data.columns, data.universe, terms,
                               per_element=rng.choice([0.0, 1.0]))
        base = start_features(rng, build_instance(RuleSet(), data, Hyperparams(), 1.0))
        assert f.marginals_given(base) == frozen_marginals_given(f, base)


def test_pos_ub_matches_per_column_scan():
    for _, _, inst in instances(8, 600):
        assert inst.pos_ub() == frozen_pos_ub(inst)


def test_chain_gains_match_the_full_chain():
    # With pairs the masks go empty once a whole pair outside the rule has
    # passed; the filled gains must equal the ones the loop computes.
    for rng, _, inst in instances(9, 600):
        anchor = start_features(rng, inst)
        for f in (inst.u, inst.w):
            for perm in (chain_permutation(anchor, inst.d), rng.sample(range(inst.d), inst.d)):
                assert f.chain_gains(perm) == frozen_chain_gains(f, perm)
    f = exclusion_coverage([0b01, 0b10], 0b11, [], per_element=2.0)
    assert f.chain_gains([1, 0]) == frozen_chain_gains(f, [1, 0]) == [2.0, 2.0]


class CountedColumn(int):
    """A column that counts the ANDs a mask takes with it. int & int_subclass
    calls the subclass's __rand__ first, so every scan's `mask & col` lands
    here."""

    ands = 0

    def __rand__(self, other):
        CountedColumn.ands += 1
        return int(other) & int(self)


def test_scans_and_each_pair_once_and_chains_stop_at_empty_masks():
    rng = random.Random(10)
    data = binarized_dataset(rng)
    while data.d < 6:
        data = binarized_dataset(rng)
    data.columns = [CountedColumn(c) for c in data.columns]
    h = Hyperparams(beta0=1.0, beta1=1.0, beta2=0.1, lam=0.5)
    S = RuleSet([Rule.build([0], data)])
    half = data.d // 2
    # The dataset's table costs two ANDs per pair, once; each instance's
    # uncovered counts one more per pair.
    CountedColumn.ands = 0
    inst = build_instance(S, data, h, 1.0)
    assert CountedColumn.ands == 2 * half + half
    CountedColumn.ands = 0
    build_instance(S, data, h, 1.0)
    assert CountedColumn.ands == half
    for call, ands in (
        # Read from the count table.
        (inst.pos_ub, 0),
        (lambda: [inst.u.singleton(j) for j in range(data.d)], 0),
        (lambda: [inst.w.singleton(j) for j in range(data.d)], 0),
        # The plan holds at least three pairs, so every value is lam.
        (inst.w_full_loo, 0),
        # Views over marginals_of: one AND per kept term and feature.
        (lambda: inst.u.marginals_given(()), 2 * data.d),
        (lambda: inst.w.marginals_given(()), data.d),
        # The first step reads the table; then the chosen column's three.
        (lambda: enlarge((), 1, inst), 3),
        # One step from a one-feature rule: its cover, three masks per
        # pair, then the chosen column's three.
        (lambda: enlarge((1,), 2, inst), 1 + 3 * half + 3),
        # A pair empties every mask: the chain ANDs only that pair.
        (lambda: inst.u.chain_gains(list(range(data.d))), 2 * 2),
        (lambda: inst.u.live_chain(range(data.d)), 2 * 2),
        # The base's cover, then one AND per term (w has one) and feature.
        (lambda: inst.w.marginals_of([2, 3], [0]), 1 + 2),
    ):
        CountedColumn.ands = 0
        call()
        assert CountedColumn.ands == ands


def test_count_table_matches_per_column_counts():
    seen_pairs = set()
    for _, data, inst in instances(11, 600):
        pos, neg = data.class_counts()
        assert data.class_counts() is data.class_counts()
        assert pos == per_column_counts(data.positives, data.columns)
        assert neg == per_column_counts(data.negatives, data.columns)
        assert inst.uncovered_counts == per_column_counts(inst.uncovered_pos, inst.columns)
        assert inst.covered_counts == per_column_counts(inst.covered_pos, inst.columns)
        assert inst.negative_counts == neg
        for f in (inst.u, inst.w):
            reference = frozen_marginals_given(f, ())
            assert [f.singleton(j) for j in range(inst.d)] == reference
            assert f.singletons() == reference
        loo = inst.w.loo_marginals(range(inst.d))
        assert inst.w_full_loo() == [loo[j] for j in range(inst.d)]
        seen_pairs.add(min(2, sum(p for _, _, p in inst.pairs)))
        if not inst.uncovered_pos:
            seen_pairs.add("all covered")
    # Both ways of taking w(j | all others) ran, and so did a rule set that
    # covers every positive.
    assert seen_pairs == {0, 1, 2, "all covered"}


def test_directly_built_coverage_keeps_the_counts_of_its_kept_terms():
    # A term with a zero coefficient or an empty mask is dropped, and its
    # counts with it.
    rng = random.Random(12)
    for _ in range(200):
        data = layout_dataset(rng)
        terms = [(rng.choice([0.0, 0.5, 3.0]), rng.choice([0, rng.getrandbits(data.n)]))
                 for _ in range(2)]
        per_element = rng.choice([0.0, 1.0])
        f = exclusion_coverage(data.columns, data.universe, terms, per_element=per_element)
        assert f.counts == [per_column_counts(m, data.columns) for _, m in f.terms]
        assert [f.singleton(j) for j in range(f.d)] == frozen_marginals_given(f, ())


def test_marginals_of_match_marginals_given():
    for rng, _, inst in instances(13, 600):
        base = start_features(rng, inst)
        outside = [j for j in range(inst.d) if j not in base]
        asked = rng.sample(outside, rng.randint(0, len(outside)))
        for f in (inst.u, inst.w):
            reference = frozen_marginals_given(f, base)
            assert f.marginals_of(asked, base) == [reference[j] for j in asked]


def test_live_chain_is_the_chain_up_to_empty_masks():
    for rng, _, inst in instances(14, 400):
        anchor = start_features(rng, inst)
        for f in (inst.u, inst.w):
            perm = chain_permutation(anchor, inst.d)
            full = frozen_chain_gains(f, perm)
            live, tail = f.live_chain(iter(perm))
            assert [j for j, _ in live] == perm[: len(live)]
            assert [g for _, g in live] == [full[j] for j in perm[: len(live)]]
            assert all(full[j] == tail for j in perm[len(live):])


def ds_opt_starts(rng, inst):
    """A random start, the empty rule, a start that holds both sides of a
    pair (its own features empty every mask), and every feature."""
    starts = [start_features(rng, inst), (), tuple(range(inst.d))]
    paired = [j for j, _, p in inst.pairs if p]
    if paired:
        j = rng.choice(paired)
        starts.append(tuple(sorted(set(start_features(rng, inst)) | {j, j + 1})))
    return starts


def test_ds_opt_matches_full_width_descent():
    moved = 0
    for rng, _, inst in instances(15, 500):
        for start in ds_opt_starts(rng, inst):
            trace, ref_trace = [], []
            got = ds_opt(start, inst, trace=trace)
            assert got == frozen_ds_opt(start, inst, ref_trace)
            assert trace == ref_trace
            moved += len(trace) > 1
    # The descent improved its start often enough to exercise later iterations.
    assert moved > 100


def test_ds_opt_matches_full_width_descent_on_random_and_tied_instances():
    rng = random.Random(16)
    for case in range(400):
        if case % 2:
            inst = tied_instance(rng, n_max=40, d_max=12)
        else:
            inst, *_ = random_instance(rng, n_max=40, d_max=12)
        for start in ds_opt_starts(rng, inst):
            trace, ref_trace = [], []
            assert ds_opt(start, inst, trace=trace) == frozen_ds_opt(start, inst, ref_trace)
            assert trace == ref_trace
