"""Tests for the weighted single-rule subproblem and its local solvers."""

import random

import pytest

import conftest
from conftest import (
    enumerate_rule_optimum,
    exclusion_coverage,
    plain_enlarge,
    plain_local_search,
    random_instance,
    ref_rule_value,
    tied_instance,
)
from rulecover import exact_oracle, subproblem
from rulecover.dataset import BinaryDataset
from rulecover.objective import TOL, ConfigError, Hyperparams, Rule, RuleSet
from rulecover.subproblem import (
    build_instance,
    chain_permutation,
    ds_opt,
    enlarge,
    local_combinatorial_search,
    swap_local_search,
)


def hamming_instance(rows, labels):
    """Instance with unit weights: +1 uncovered positives, -1 negatives."""
    data = BinaryDataset.from_matrix(rows, labels)
    h = Hyperparams(beta0=1.0, beta1=1.0, beta2=0.0, lam=0.0)
    return build_instance(RuleSet(), data, h, 1.0)


def test_build_instance_weights_at_start():
    rng = random.Random(1)
    for _ in range(50):
        inst, data, h, S, alpha = random_instance(rng)
        weights = conftest.sample_weights(inst)
        pw = alpha * (h.beta1 + h.beta2) - h.beta2
        for i in range(data.n):
            if inst.uncovered_pos >> i & 1:
                assert abs(weights[i] - pw) <= 1e-12
            elif inst.covered_pos >> i & 1:
                assert weights[i] == -h.beta2
            elif inst.negatives >> i & 1:
                assert weights[i] == -h.beta0
            else:
                assert weights[i] == 0.0
        assert abs(inst.weight_total - sum(weights)) <= 1e-9


def test_build_instance_rejects_bad_alpha():
    rng = random.Random(2)
    inst, data, h, S, _ = random_instance(rng)
    with pytest.raises(ConfigError):
        build_instance(S, data, h, 0.0)
    with pytest.raises(ConfigError):
        build_instance(S, data, h, 1.5)


def test_empty_rule_value_is_weight_total():
    rng = random.Random(3)
    for _ in range(30):
        inst, *_ = random_instance(rng)
        assert abs(inst.value(()) - inst.weight_total) <= 1e-12


def test_u_w_of_empty_set_are_zero():
    rng = random.Random(4)
    for _ in range(30):
        inst, *_ = random_instance(rng)
        assert inst.u.value(()) == 0.0
        assert inst.w.value(()) == 0.0


def test_value_decomposition_identity():
    # v(R) = total weight + weight excluded from penalties - weight
    # excluded from rewards, checked against a per-sample evaluation
    rng = random.Random(5)
    for _ in range(300):
        inst, *_ = random_instance(rng)
        k = rng.randint(0, min(4, inst.d))
        feats = tuple(sorted(rng.sample(range(inst.d), k)))
        via_parts = inst.weight_total + inst.u.value(feats) - inst.w.value(feats)
        assert abs(inst.value(feats) - via_parts) <= 1e-9
        assert abs(inst.value(feats) - ref_rule_value(feats, inst)) <= 1e-9


def test_exclusion_coverage_value_matches_direct_count():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(4, 30)
        d = rng.randint(2, 8)
        universe = (1 << n) - 1
        cols = [rng.getrandbits(n) for _ in range(d)]
        terms = [(rng.uniform(0.1, 2.0), rng.getrandbits(n)) for _ in range(2)]
        pe = rng.choice([0.0, 0.5])
        f = exclusion_coverage(cols, universe, terms, per_element=pe)
        feats = sorted(rng.sample(range(d), rng.randint(0, d)))
        cov = universe
        for j in feats:
            cov &= cols[j]
        expect = pe * len(feats)
        for coef, mask in terms:
            expect += coef * bin(mask & ~cov & universe).count("1")
        assert abs(f.value(feats) - expect) <= 1e-9


def test_chain_gains_telescope_to_prefix_values():
    rng = random.Random(7)
    for _ in range(50):
        inst, *_ = random_instance(rng)
        for f in (inst.u, inst.w):
            perm = list(range(inst.d))
            rng.shuffle(perm)
            gains = f.chain_gains(perm)
            running = 0.0
            for k in range(1, inst.d + 1):
                running += gains[perm[k - 1]]
                assert abs(running - f.value(perm[:k])) <= 1e-9


def test_chain_gains_requires_full_permutation():
    rng = random.Random(8)
    inst, *_ = random_instance(rng)
    with pytest.raises(ConfigError):
        inst.u.chain_gains(list(range(inst.d - 1)))


def test_chain_bound_below_function_everywhere():
    rng = random.Random(9)
    for _ in range(100):
        inst, *_ = random_instance(rng)
        f = rng.choice([inst.u, inst.w])
        anchor = sorted(rng.sample(range(inst.d), rng.randint(0, inst.d)))
        gains = f.chain_gains(chain_permutation(anchor, inst.d))
        y = sorted(rng.sample(range(inst.d), rng.randint(0, inst.d)))
        h_y = sum(gains[j] for j in y)
        assert h_y <= f.value(y) + 1e-9
        h_anchor = sum(gains[j] for j in anchor)
        assert abs(h_anchor - f.value(anchor)) <= 1e-9


def test_marginals_given_match_direct_differences():
    rng = random.Random(10)
    for _ in range(50):
        inst, *_ = random_instance(rng)
        f = rng.choice([inst.u, inst.w])
        base = sorted(rng.sample(range(inst.d), rng.randint(0, inst.d - 1)))
        gains = f.marginals_given(base)
        fb = f.value(base)
        for j in range(inst.d):
            if j in base:
                assert gains[j] == 0.0
            else:
                direct = f.value(sorted(base + [j])) - fb
                assert abs(gains[j] - direct) <= 1e-9


def test_loo_marginals_match_direct_differences():
    rng = random.Random(11)
    for _ in range(50):
        inst, *_ = random_instance(rng)
        f = rng.choice([inst.u, inst.w])
        feats = sorted(rng.sample(range(inst.d), rng.randint(1, inst.d)))
        loo = f.loo_marginals(feats)
        fv = f.value(feats)
        for j in feats:
            rest = [x for x in feats if x != j]
            assert abs(loo[j] - (fv - f.value(rest))) <= 1e-9


def test_chain_permutation_deterministic_layout():
    assert chain_permutation((4, 1), 6) == [1, 4, 0, 2, 3, 5]
    assert chain_permutation((), 3) == [0, 1, 2]


def test_ds_opt_finds_clean_single_feature_rule():
    # feature 0 covers both positives and excludes both negatives; with a
    # small literal price the descent must pick it up from the empty rule
    rows = [[1, 1], [1, 1], [0, 1], [0, 1]]
    labels = [1, 1, 0, 0]
    data = BinaryDataset.from_matrix(rows, labels)
    h = Hyperparams(beta0=1.0, beta1=1.0, beta2=0.0, lam=0.1)
    inst = build_instance(RuleSet(), data, h, 1.0)
    r = ds_opt((), inst)
    assert r == (0,)
    assert inst.value(r) == pytest.approx(2 - 0.1)


def test_ds_opt_never_returns_worse_than_start():
    rng = random.Random(13)
    for _ in range(100):
        inst, *_ = random_instance(rng)
        start = tuple(sorted(rng.sample(range(inst.d), rng.randint(0, inst.d // 2))))
        r = ds_opt(start, inst)
        assert inst.value(r) >= inst.value(start) - 1e-9


def test_ds_opt_trace_is_monotone():
    rng = random.Random(14)
    for _ in range(50):
        inst, *_ = random_instance(rng)
        trace = []
        ds_opt((), inst, trace=trace)
        assert trace, "descent must log its starting value"
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-9


def test_enlarge_prefers_higher_gain_ratio():
    # feature 0 trades 5 excluded negatives for 1 excluded positive,
    # feature 1 trades 4 for 2; ratio picks feature 0 first
    rows = []
    for i in range(10):
        rows.append([int(i in (0, 1, 2, 9)), int(i in (0, 1, 8, 9))])
    labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    inst = hamming_instance(rows, labels)
    assert enlarge((), 1, inst) == (0,)
    assert enlarge((), 2, inst) == (0, 1)


def test_enlarge_zero_price_feature_wins():
    # feature 1 excludes a negative at no positive cost (ratio +inf),
    # feature 0 pays one positive for one negative (ratio 1)
    rows = [[0, 1], [1, 1], [1, 0], [0, 1]]
    labels = [1, 1, 0, 0]
    inst = hamming_instance(rows, labels)
    assert enlarge((), 1, inst) == (1,)


def test_enlarge_respects_size_and_keeps_input():
    rng = random.Random(17)
    for _ in range(50):
        inst, *_ = random_instance(rng)
        start = tuple(sorted(rng.sample(range(inst.d), rng.randint(0, inst.d))))
        m = rng.randint(1, inst.d + 3)
        out = enlarge(start, m, inst)
        assert set(start) <= set(out)
        assert len(out) == max(len(start), min(m, inst.d))
        assert list(out) == sorted(set(out))
    with pytest.raises(ConfigError):
        enlarge((), 0, inst)


def test_enlarge_path_lists_additions_and_any_set_on_it_reaches_the_same_end():
    # enlarge's next choice depends only on the set chosen so far, so
    # starting from any set on its path gives the same active set: the
    # fact local_combinatorial_search skips enlarge on.
    rng = random.Random(23)
    for case in range(150):
        if case % 3:
            inst = tied_instance(rng, n_max=40, d_max=12)
        else:
            inst, *_ = random_instance(rng, n_max=40, d_max=12)
        start = sorted(rng.sample(range(inst.d), rng.randint(0, min(3, inst.d))))
        m = rng.randint(1, inst.d + 2)
        path = []
        out = enlarge(start, m, inst, path=path)
        assert len(path) == len(out) - len(start)
        assert set(out) == set(start) | set(path)
        for k in range(len(path) + 1):
            on_path = sorted(set(start) | set(path[:k]))
            assert enlarge(on_path, m, inst) == out


def test_enlarge_fill_matches_a_scan_of_every_step():
    # enlarge appends its tied tail without scanning (its docstring); a scan
    # of every step must give the same rule and the same path. Starts are
    # random, some extended until they cover no negatives or covered
    # positives, and lam = 0 occurs, so both the filled steps and the ones
    # the fill must leave to the scan (lam = 0 with uncovered positives
    # still covered) are reached.
    rng = random.Random(29)
    steps = {"filled": 0, "lam 0 scanned": 0}
    for case in range(600):
        if case % 2:
            inst = tied_instance(rng, n_max=40, d_max=14)
        else:
            inst, *_ = random_instance(rng, n_max=40, d_max=14)
        start = rng.sample(range(inst.d), rng.randint(0, min(3, inst.d)))
        if case % 3 == 0:
            for j in rng.sample(range(inst.d), inst.d):
                _, vc, vn = inst.cover(start)
                if not vc and not vn:
                    break
                if j not in start:
                    start.append(j)
        m = rng.randint(1, inst.d + 2)
        path, want_path = [], []
        got = enlarge(start, m, inst, path=path)
        assert got == plain_enlarge(start, m, inst, path=want_path)
        assert path == want_path
        rule = sorted(set(start))
        for j in path:
            vp, vc, vn = inst.cover(rule)
            if not vc and not vn:
                steps["filled" if inst.lam > 0 or not vp else "lam 0 scanned"] += 1
            rule.append(j)
    assert steps["filled"] >= 500
    assert steps["lam 0 scanned"] >= 25


def test_best_subset_matches_enumeration():
    rng = random.Random(18)
    for _ in range(50):
        inst, *_ = random_instance(rng, d_max=8)
        active = sorted(rng.sample(range(inst.d), rng.randint(0, inst.d)))
        got = exact_oracle.bnb_max(inst, active).features
        import itertools

        best_v = inst.value(())
        for k in range(1, len(active) + 1):
            for feats in itertools.combinations(active, k):
                best_v = max(best_v, inst.value(feats))
        assert inst.value(got) == pytest.approx(best_v, abs=1e-9)
        assert set(got) <= set(active)


def test_best_subset_of_nothing_is_empty():
    rng = random.Random(19)
    inst, *_ = random_instance(rng)
    assert exact_oracle.bnb_max(inst, ()).features == ()


def test_swap_search_drops_redundant_duplicate_literal():
    rows = [[1, 1], [1, 1], [0, 0], [0, 0]]
    labels = [1, 1, 0, 0]
    data = BinaryDataset.from_matrix(rows, labels)
    for lam in (0.0, 0.25):
        h = Hyperparams(beta0=1.0, beta1=1.0, beta2=0.0, lam=lam)
        inst = build_instance(RuleSet(), data, h, 1.0)
        out = swap_local_search((0, 1), inst)
        assert len(out) == 1


def test_swap_search_takes_strictly_better_single_swap():
    # no addition or removal helps, but trading feature 0 for 1 does
    rows = [
        [1, 1],
        [1, 1],
        [0, 1],
        [1, 1],
        [0, 0],
        [0, 0],
    ]
    labels = [1, 1, 1, 0, 0, 0]
    inst = hamming_instance(rows, labels)
    assert inst.value((0,)) == pytest.approx(1.0)
    assert inst.value((1,)) == pytest.approx(2.0)
    assert inst.value((0, 1)) == pytest.approx(1.0)
    out = swap_local_search((0,), inst)
    assert out == (1,)


def test_swap_search_never_decreases_value():
    rng = random.Random(20)
    for _ in range(100):
        inst, *_ = random_instance(rng)
        start = tuple(sorted(rng.sample(range(inst.d), rng.randint(0, inst.d))))
        trace = []
        out = swap_local_search(start, inst, trace=trace)
        assert inst.value(out) >= inst.value(start) - 1e-9
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-9


def unscreened_swap_search(features, inst, trace):
    """swap_local_search without the support screen: every add and swap
    candidate is priced with its three ANDs."""
    d, columns, cover, score = inst.d, inst.columns, inst.cover, inst.score
    r = sorted(set(features))
    while True:
        changed = False
        vp, vc, vn = cover(r)
        v_r = score(vp, vc, vn, len(r))
        grew = True
        while grew:
            grew = False
            for j in range(d):
                if j in r:
                    continue
                col = columns[j]
                nvp, nvc, nvn = vp & col, vc & col, vn & col
                gain = score(nvp, nvc, nvn, len(r) + 1) - v_r
                if gain > TOL:
                    r.append(j)
                    vp, vc, vn = nvp, nvc, nvn
                    v_r += gain
                    changed = grew = True
                    trace.append(v_r)
        r.sort()
        shrunk = True
        while shrunk:
            shrunk = False
            for j in list(r):
                rest = [x for x in r if x != j]
                bvp, bvc, bvn = cover(rest)
                v_rest = score(bvp, bvc, bvn, len(rest))
                if v_r - v_rest <= TOL:
                    r, (vp, vc, vn), v_r = rest, (bvp, bvc, bvn), v_rest
                    changed = shrunk = True
                    trace.append(v_r)
                    break
        swapped = True
        while swapped:
            swapped = False
            for a in list(r):
                rest = [x for x in r if x != a]
                bvp, bvc, bvn = cover(rest)
                for b in range(d):
                    if b in r:
                        continue
                    col = columns[b]
                    v_new = score(bvp & col, bvc & col, bvn & col, len(r))
                    if v_new > v_r + TOL:
                        r = sorted(rest + [b])
                        vp, vc, vn = cover(r)
                        v_r = v_new
                        changed = swapped = True
                        trace.append(v_r)
                        break
                if swapped:
                    break
        if not changed:
            return tuple(r)


def test_swap_screen_changes_no_step_of_the_search():
    # Float weights, and small integer weights where many candidates tie
    # exactly with the current rule: the screens, at the instance level and
    # at the current cover, must skip only candidates the exact test
    # rejects, so every step and the result are unchanged.
    rng = random.Random(23)
    screened = cover_screened = 0
    for case in range(400):
        if case % 2:
            inst = tied_instance(rng, n_max=40, d_max=12)
        else:
            inst, *_ = random_instance(rng, d_max=12)
        start = tuple(sorted(rng.sample(range(inst.d), rng.randint(0, min(4, inst.d)))))
        got_trace, want_trace = [], []
        got = swap_local_search(start, inst, trace=got_trace)
        assert got == unscreened_swap_search(start, inst, want_trace)
        assert got_trace == want_trace
        pos_ub = inst.pos_ub()
        screened += sum(pos_ub[j] - inst.lam * (len(got) + 1) - inst.value(got) <= TOL
                        for j in range(inst.d) if j not in got)
        cover_screened += last_sweep_cover_skips(got, inst)
    assert screened > 1000
    assert cover_screened > 500


def last_sweep_cover_skips(rule, inst):
    """Candidates the search's last sweep, at its final rule, skips by the
    support screen at the current cover after passing the one at the
    instance level: adds, then swaps for each feature swapped out."""
    pw, lam, pos_ub = inst.pos_weight, inst.lam, inst.pos_ub()
    v = inst.value(rule)
    outside = [j for j in range(inst.d) if j not in rule]
    vp = inst.cover(rule)[0]
    add_cost = lam * (len(rule) + 1)
    skips = sum(
        (pos_ub[j] - add_cost) - v > TOL
        and (pw * (vp & inst.columns[j]).bit_count() - add_cost) - v <= TOL
        for j in outside
    )
    swap_cost = lam * len(rule)
    for a in rule:
        bvp = inst.cover([x for x in rule if x != a])[0]
        skips += sum(
            pos_ub[b] - swap_cost > v + TOL
            and pw * (bvp & inst.columns[b]).bit_count() - swap_cost <= v + TOL
            for b in outside
        )
    return skips


def test_pos_ub_bounds_every_rule_holding_the_feature():
    rng = random.Random(24)
    for case in range(200):
        inst = tied_instance(rng) if case % 2 else random_instance(rng)[0]
        pos_ub = inst.pos_ub()
        assert inst.pos_ub() is pos_ub
        for _ in range(10):
            rule = sorted(rng.sample(range(inst.d), rng.randint(1, inst.d)))
            for j in rule:
                assert inst.value(rule) <= pos_ub[j] - inst.lam * len(rule)


def test_local_search_matches_enumeration_on_small_instances():
    rng = random.Random(21)
    for _ in range(30):
        inst, *_ = random_instance(rng, n_max=30, d_max=8)
        got = local_combinatorial_search(inst, m=16)
        _, best_v = enumerate_rule_optimum(inst)
        assert inst.value(got) == pytest.approx(best_v, abs=1e-9)


def test_local_search_handles_empty_ground_set():
    data = BinaryDataset.from_matrix([[], []], [1, 0])
    h = Hyperparams()
    inst = build_instance(RuleSet(), data, h, 1.0)
    assert local_combinatorial_search(inst) == ()


def test_local_search_trace_is_monotone():
    rng = random.Random(22)
    for _ in range(30):
        inst, *_ = random_instance(rng)
        trace = []
        local_combinatorial_search(inst, m=6, trace=trace)
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-9


def test_round_skips_and_seeds_change_no_result(monkeypatch):
    # Rounds skipped because they repeat the last active set or retrace the
    # last enlarge path, and branch and bound seeded with the best rule on
    # that path, must return what running every round in full returns.
    # Each round is logged as its exact search's candidates (when it runs
    # one) and its descent's start rule: the full run must make the same
    # rounds, plus at most one repeat of the last, which the skip drops.
    # Integer weights (tied_instance) make many rules and many enlarge
    # ratios tie exactly; small m forces several rounds and rules longer
    # than the active set.
    log, counts = [], {"enlarge": 0, "nodes": 0}
    enlarge_fn, ds_fn, bnb_fn = subproblem.enlarge, subproblem.ds_opt, exact_oracle.bnb_max

    def logged(fn):
        def logged_enlarge(*args, **kwargs):
            counts["enlarge"] += 1
            return fn(*args, **kwargs)
        return logged_enlarge

    def logged_bnb(inst, candidates, *args, **kwargs):
        res = bnb_fn(inst, candidates, *args, **kwargs)
        counts["nodes"] += res.nodes
        log.append(("bnb", tuple(candidates)))
        return res

    def logged_ds(features, inst, **kwargs):
        log.append(("ds", tuple(features)))
        return ds_fn(features, inst, **kwargs)

    def rounds(events):
        out, current = [], []
        for event in events:
            current.append(event)
            if event[0] == "ds":
                out.append(current)
                current = []
        assert not current
        return out

    monkeypatch.setattr(subproblem, "enlarge", logged(enlarge_fn))
    monkeypatch.setattr(conftest, "plain_enlarge", logged(plain_enlarge))
    monkeypatch.setattr(subproblem, "ds_opt", logged_ds)
    monkeypatch.setattr(exact_oracle, "bnb_max", logged_bnb)
    rng = random.Random(26)
    totals = {"skipping": dict(counts), "plain": dict(counts)}
    repeats = 0
    for case in range(450):
        if case % 3:
            inst = tied_instance(rng, n_max=60, d_max=16)
        else:
            inst, *_ = random_instance(rng, n_max=60, d_max=16)
        m = rng.choice([1, 2, 3, 4, 6, 16])
        runs = {}
        for side, search in (("skipping", local_combinatorial_search),
                             ("plain", plain_local_search)):
            log.clear()
            counts.update(enlarge=0, nodes=0)
            runs[side] = search(inst, m), rounds(log)
            for key in counts:
                totals[side][key] += counts[key]
        (got, skipped), (want, full) = runs["skipping"], runs["plain"]
        assert got == want
        assert full in (skipped, skipped + skipped[-1:])
        repeats += len(full) - len(skipped)
    assert repeats >= 100
    assert totals["skipping"]["enlarge"] < totals["plain"]["enlarge"]
    assert totals["skipping"]["nodes"] < totals["plain"]["nodes"]
