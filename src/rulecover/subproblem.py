"""Single-rule subproblem: maximize a difference of submodular functions.

Each greedy step must find a rule R maximizing

    v(R) = sum_i omega_i * [R covers sample i] - lam * |R|

where omega_i is alpha*(beta1+beta2) - beta2 > 0 on positives not yet
covered by the current rule set, -beta2 on covered positives, and -beta0
on negatives. Writing exclusion(R) for the samples R does not cover,

    v(R) = v(empty) + u(R) - w(R)
    u(R) = beta0*|negatives excluded| + beta2*|covered positives excluded|
    w(R) = pos_weight*|uncovered positives excluded| + lam*|R|

u and w are nonnegative, monotone, and submodular (weighted coverage of
exclusion sets), so v is maximized by difference-of-submodular descent:
replace u by a modular chain lower bound tight at the current R, replace
w by one of two modular upper bounds, and move to the best modular
maximizer while it strictly improves v. A greedy ratio heuristic
(enlarge), an exact search over a small active set (exact_oracle.bnb_max),
and a swap local search round out the rule finder.

local_combinatorial_search runs rounds of enlarge, exact search over the
active set, descent and swap search. A round's result is a pure function
of its active set: bnb_max, ds_opt and swap_local_search are
deterministic and read only the instance and their input. Two rules
therefore skip work without changing any result:

  - a round whose active set equals the previous round's would end on the
    rule the previous round ended on, the current one, so the search
    returns that rule at once;
  - enlarge's next choice depends only on the set chosen so far and its
    cover masks, so enlarge from any set on the last enlarge call's path
    (its start set plus a prefix of the features it added, in order)
    reaches the same active set, which is reused without calling enlarge.

The exact search is seeded with the best rule on that path, which holds
the rule the round starts from; a seed changes no rule bnb_max returns.

The full-width scans (enlarge's ratio step and bits.plan_counts) walk
the instance's pair plan (bits.complement_pairs): column j + 1 is paired
with j when it equals universe ^ column j, as binarize always makes it.
For a mask m within the universe,

    |m & col_{j+1}| = |m| - |m & col_j|

holds exactly in integers. So one AND per mask gives both counts: the
rows j + 1 excludes from m are the |m & col_j| that j keeps, and the rows
j excludes are |m| - |m & col_j| as before. Every float expression then
gets the integer operands the per-column scan gave it, in the same
operation order; enlarge still weighs j before j + 1 with the same
strict >, so ties pick the same feature and every result is bit-identical.
Unpaired columns keep the per-column arithmetic.

Scans at the empty cover read a count table instead. Negatives never
change, and the covered and uncovered positives split the positives, so
the dataset's |positives & col_j| and |negatives & col_j|
(BinaryDataset.class_counts, two ANDs per pair once per dataset) and one
AND per pair per instance for |uncovered & col_j| give every count the
empty rule needs: |covered & col_j| is the difference of two of them.
pos_ub, the singleton marginals ExclusionCoverage.singleton returns (which
order bnb_max's candidates and give ds_opt its w(j | empty)) and enlarge's
first step from the empty rule take their integers from it, with no AND.
They are the integers the scans counted, used in the same operation
order, so the floats are too.

ds_opt walks only the live prefix of its chain. The chain holds R's
features, then the rest in ascending order, and u has no per-element
term, so once every u mask is empty each later chain gain is exactly
0.0. The masks go empty early: any complement pair both of whose columns
have passed empties them. Every w marginal is at least 0.0 (lam >= 0,
positive weights, counts >= 0), so a feature outside R whose gain is 0.0
fails both of the descent's strict tests and joins neither candidate. So
w's marginals are taken only for the features of the prefix with a
positive gain, and w(j | all other features) is needed only for j in R.
That value is exactly lam (plus coef * 0 per term) once the plan holds
two complement pairs: one of them avoids j, and its columns share no row.

enlarge stops scanning once every candidate ties. When the rule covers
no negatives and no covered positives, every u-gain is 0.0; with lam > 0
every w-gain is at least lam, so every ratio is 0.0, and with lam == 0
and an empty cover every ratio is -inf. The strict > then keeps the
lowest unused index, at every later step too, since ANDs only shrink the
cover; so the rest of the rule is the lowest unused indices in order.
With lam == 0 and uncovered positives still covered the ratios can
differ (0.0 or -inf), and the scan runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

from . import exact_oracle
from .bits import intersect_all, plan_counts
from .dataset import BinaryDataset
from .objective import TOL, ConfigError, Hyperparams, RuleSet

INF = float("inf")


class ExclusionCoverage:
    """f(A) = sum_t coef_t * |mask_t minus cover(A)| + per_element * |A|.

    cover(A) is the intersection of the columns in A (everything for the
    empty A), so f counts, with weights, the samples in each mask that A
    excludes. Nonnegative, monotone, and submodular in A.
    """

    __slots__ = ("columns", "universe", "d", "terms", "counts", "per_element")

    def __init__(
        self,
        columns: Sequence[int],
        universe: int,
        terms: Iterable[tuple[float, int]],
        counts: Iterable[list[int]],
        per_element: float = 0.0,
    ) -> None:
        self.columns = list(columns)
        self.universe = universe
        self.d = len(self.columns)
        # counts[t][j] = |mask_t & col_j| (bits.plan_counts), one list per
        # term; build_instance passes its count table.
        self.terms: list[tuple[float, int]] = []
        self.counts: list[list[int]] = []
        for (c, m), kept in zip(terms, counts, strict=True):
            if c > 0 and m:
                self.terms.append((float(c), m))
                self.counts.append(kept)
        self.per_element = float(per_element)

    def cover(self, features: Iterable[int]) -> int:
        return intersect_all((self.columns[j] for j in features), self.universe)

    def value(self, features: Sequence[int]) -> float:
        cov = self.cover(features)
        total = self.per_element * len(features)
        for coef, mask in self.terms:
            total += coef * (mask.bit_count() - (mask & cov).bit_count())
        return total

    def singletons(self) -> list[float]:
        """f(j | empty) for every feature j."""
        return [self.singleton(j) for j in range(self.d)]

    def singleton(self, j: int) -> float:
        """f(j | empty), read from the count table without an AND. Each term
        adds coef * (|mask| - |mask & col_j|) in marginals_of's order, and
        the table's count for a paired j + 1, |mask| - |mask & col_j|, is
        the same integer as |mask & col_{j+1}|, so the float is the same."""
        g = self.per_element
        for (coef, mask), kept in zip(self.terms, self.counts):
            g += coef * (mask.bit_count() - kept[j])
        return g

    def marginals_given(self, base: Sequence[int]) -> list[float]:
        """f(j | base) for every feature j, 0.0 for j in base: marginals_of
        over the features outside base."""
        in_base = set(base)
        outside = [j for j in range(self.d) if j not in in_base]
        gains = [0.0] * self.d
        for j, g in zip(outside, self.marginals_of(outside, base)):
            gains[j] = g
        return gains

    def marginals_of(self, features: Iterable[int], base: Sequence[int]) -> list[float]:
        """f(j | base) for each j in features, none of them in base, in
        order: one AND per term each."""
        cov = self.cover(base)
        state = [(coef, mask & cov, (mask & cov).bit_count()) for coef, mask in self.terms]
        columns, per_element = self.columns, self.per_element
        out = []
        for j in features:
            col = columns[j]
            g = per_element
            for coef, mv, pc in state:
                g += coef * (pc - (mv & col).bit_count())
            out.append(g)
        return out

    def chain_gains(self, perm: Sequence[int]) -> list[float]:
        """Telescoping gains f(prefix k) - f(prefix k-1) along a permutation.

        Indexed by feature, not position. Summing entries over any set Y
        gives the modular chain bound h(Y) <= f(Y), with equality on every
        prefix of the permutation. The gains past live_chain's prefix are
        its tail gain.
        """
        if len(perm) != self.d:
            raise ConfigError("chain permutation must cover all features")
        live, tail = self.live_chain(perm)
        gains = [tail] * self.d
        for j, g in live:
            gains[j] = g
        return gains

    def live_chain(self, perm: Iterable[int]) -> tuple[list[tuple[int, float]], float]:
        """The chain gains along perm while some mask is nonempty, as
        (feature, gain) pairs, and the gain of every later feature. Once
        every mask is empty, each later gain is per_element plus coef * 0
        per term, taken without an AND; perm is read no further."""
        state = [[coef, mask] for coef, mask in self.terms]
        columns = self.columns
        live = []
        for j in perm:
            if not any(entry[1] for entry in state):
                break
            col = columns[j]
            g = self.per_element
            for entry in state:
                coef, mv = entry
                nm = mv & col
                g += coef * (mv.bit_count() - nm.bit_count())
                entry[1] = nm
            live.append((j, g))
        tail = self.per_element
        for coef, _ in state:
            tail += coef * 0
        return live, tail

    def loo_marginals(self, features: Sequence[int]) -> dict[int, float]:
        """f(j | features minus j) for every j in features."""
        feats = list(features)
        k = len(feats)
        out = {j: self.per_element for j in feats}
        columns = self.columns
        for coef, mask in self.terms:
            prefix = [mask] * (k + 1)
            for i, j in enumerate(feats):
                prefix[i + 1] = prefix[i] & columns[j]
            suffix = [mask] * (k + 1)
            for i in range(k - 1, -1, -1):
                suffix[i] = suffix[i + 1] & columns[feats[i]]
            pc_full = prefix[k].bit_count()
            for i, j in enumerate(feats):
                without = prefix[i] & suffix[i + 1]
                out[j] += coef * (without.bit_count() - pc_full)
        return out


@dataclass
class SubproblemInstance:
    """One greedy step's rule-search problem over the sample weights."""

    columns: list[int]
    universe: int
    n: int
    lam: float
    beta0: float
    beta2: float
    pos_weight: float
    uncovered_pos: int
    covered_pos: int
    negatives: int
    u: ExclusionCoverage
    w: ExclusionCoverage
    pairs: list[tuple[int, int, bool]]
    # The count table: |mask & col_j| for every column j and each of the
    # three masks (build_instance). u.counts and w.counts hold the same
    # lists, but only for the terms they keep; enlarge reads all three.
    uncovered_counts: list[int] = field(repr=False)
    covered_counts: list[int] = field(repr=False)
    negative_counts: list[int] = field(repr=False)

    _w_full_loo: list[float] | None = field(default=None, repr=False)
    _pos_ub: list[float] | None = field(default=None, repr=False)

    @property
    def d(self) -> int:
        return len(self.columns)

    @property
    def weight_total(self) -> float:
        """v(empty): the summed sample weights."""
        return self.score(self.uncovered_pos, self.covered_pos, self.negatives, 0)

    def cover(self, features: Iterable[int]) -> tuple[int, int, int]:
        """The uncovered positives, covered positives and negatives the
        rule covers, as bitsets."""
        cov = intersect_all((self.columns[j] for j in features), self.universe)
        return cov & self.uncovered_pos, cov & self.covered_pos, cov & self.negatives

    def score(self, vp: int, vc: int, vn: int, size: int) -> float:
        """v of a rule of the given length that covers the masks from cover()."""
        return (
            self.pos_weight * vp.bit_count()
            - self.beta2 * vc.bit_count()
            - self.beta0 * vn.bit_count()
            - self.lam * size
        )

    def value(self, features: Sequence[int]) -> float:
        """v(R) for a rule given as sorted distinct feature indices."""
        return self.score(*self.cover(features), len(features))

    def pos_ub(self) -> list[float]:
        """pos_weight * |uncovered positives in column j| for every j, cached.

        A rule holding j covers a subset of those rows, so any rule of
        length k holding j has v <= pos_ub[j] - lam*k (CORELS' minimum
        support bound, Angelino et al. 2017). The bound also holds for the
        rounded values: score() computes ((p - c) - n) - l with the same
        rounded products p <= pos_ub[j] (rounded x is monotone) and l, and
        c, n >= 0; rounded - is monotone in its left operand and never
        rounds x - c above x. So a scan may skip j when pos_ub[j] - lam*k,
        written in the same operation order as the exact test it guards,
        already fails that test.

        The same argument holds at any cover the candidate is ANDed into:
        a rule covering vp & col has v <= pos_weight*|vp & col| - lam*k.
        So the swap and add scans of swap_local_search and bnb_max's child
        loop, after this instance-level test, also skip a candidate whose
        support within the current cover fails the exact test, before its
        other two ANDs and its score.
        """
        if self._pos_ub is None:
            pw = self.pos_weight
            self._pos_ub = [pw * kept for kept in self.uncovered_counts]
        return self._pos_ub

    def w_full_loo(self) -> list[float]:
        """w(j | all other features) for every j, cached; used by one upper
        bound. The values w.loo_marginals(range(d)) gives: once the plan
        holds two complement pairs, one of them avoids any j, and its two
        columns share no row, so the other columns AND to nothing. Every
        term then counts 0 - 0 rows and each value is per_element plus
        coef * 0 per term, taken without an AND."""
        if self._w_full_loo is None:
            if sum(paired for _, _, paired in self.pairs) >= 2:
                g = self.w.per_element
                for coef, _ in self.w.terms:
                    g += coef * 0
                self._w_full_loo = [g] * self.d
            else:
                loo = self.w.loo_marginals(range(self.d))
                self._w_full_loo = [loo[j] for j in range(self.d)]
        return self._w_full_loo


def build_instance(
    S: RuleSet, data: BinaryDataset, h: Hyperparams, alpha: float
) -> SubproblemInstance:
    """Weights for the next rule given the rules already chosen."""
    if not 0 < alpha <= 1:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha!r}")
    pos_weight = alpha * (h.beta1 + h.beta2) - h.beta2
    if pos_weight <= 0:
        raise ConfigError(
            "nonpositive weight on uncovered positives; "
            "hyperparameter validation should have rejected this"
        )
    uncovered_pos = data.positives & ~S.covered
    covered_pos = data.positives & S.covered
    negatives = data.negatives
    pairs = data.pair_plan()
    # The count table (module docstring): one AND per pair here, two per
    # pair once per dataset.
    positive_counts, negative_counts = data.class_counts()
    uncovered_counts = plan_counts(uncovered_pos, pairs)
    covered_counts = [p - k for p, k in zip(positive_counts, uncovered_counts)]
    u = ExclusionCoverage(
        data.columns,
        data.universe,
        [(h.beta0, negatives), (h.beta2, covered_pos)],
        counts=[negative_counts, covered_counts],
    )
    w = ExclusionCoverage(
        data.columns,
        data.universe,
        [(pos_weight, uncovered_pos)],
        per_element=h.lam,
        counts=[uncovered_counts],
    )
    return SubproblemInstance(
        columns=data.columns,
        universe=data.universe,
        n=data.n,
        lam=h.lam,
        beta0=h.beta0,
        beta2=h.beta2,
        pos_weight=pos_weight,
        uncovered_pos=uncovered_pos,
        covered_pos=covered_pos,
        negatives=negatives,
        u=u,
        w=w,
        pairs=pairs,
        uncovered_counts=uncovered_counts,
        covered_counts=covered_counts,
        negative_counts=negative_counts,
    )


def chain_permutation(features: Sequence[int], d: int) -> list[int]:
    """Ground-set order: the rule's features ascending, then the rest
    ascending. Keeping the rule's features first makes the chain bound
    tight at the rule."""
    return list(_chain_order(features, d))


def _chain_order(features: Sequence[int], d: int) -> Iterator[int]:
    """chain_permutation's order, generated as it is read."""
    inside = sorted(features)
    in_rule = set(inside)
    return chain(inside, (j for j in range(d) if j not in in_rule))


def _iteration_cap(d: int) -> int:
    return 10 * max(d, 1)


def ds_opt(
    features: Sequence[int],
    inst: SubproblemInstance,
    *,
    trace: list[float] | None = None,
) -> tuple[int, ...]:
    """Difference-of-submodular descent from the given rule.

    Per iteration the chain bound h (tight at R) replaces u and two
    modular upper bounds replace w, giving two candidate maximizers:

      m1: w(j | R minus j) inside R, w(j | empty) outside
      m2: w(j | everything else) inside R, w(j | R) outside

    The better candidate is taken while it improves v by more than the
    tolerance. Only the live prefix of the chain is walked, and w's
    marginals are taken only for the features that can pass a test
    (module docstring); each test sees the value a full-width scan would
    give it, so the result is the same.
    """
    d = inst.d
    u, w = inst.u, inst.w
    r = tuple(sorted(set(features)))
    v_r = inst.value(r)
    if trace is not None:
        trace.append(v_r)
    cap = _iteration_cap(d)
    w_full_loo = inst.w_full_loo()
    for _ in range(cap):
        in_r = set(r)
        live, tail = u.live_chain(_chain_order(r, d))
        hv = dict(live)
        w_loo_r = w.loo_marginals(r)
        r1 = []
        r2 = []
        for j in r:
            g = hv.get(j, tail)
            if g - w_loo_r[j] > 0:
                r1.append(j)
            if g - w_full_loo[j] > 0:
                r2.append(j)
        outside = [(j, g) for j, g in live if g > 0 and j not in in_r]
        w_given_r = w.marginals_of([j for j, _ in outside], r)
        for (j, g), given in zip(outside, w_given_r):
            if g - w.singleton(j) > 0:
                r1.append(j)
            if g - given > 0:
                r2.append(j)
        r1.sort()
        r2.sort()
        v1 = inst.value(r1)
        v2 = inst.value(r2)
        cand, v_cand = (r1, v1) if v1 >= v2 else (r2, v2)
        if v_cand > v_r + TOL:
            r, v_r = tuple(cand), v_cand
            if trace is not None:
                trace.append(v_r)
        else:
            return r
    raise RuntimeError("descent failed to reach a fixed point within the iteration cap")


def enlarge(
    features: Sequence[int],
    m: int,
    inst: SubproblemInstance,
    *,
    path: list[int] | None = None,
) -> tuple[int, ...]:
    """Grow the rule to min(m, d) features by best gain ratio.

    Each step adds the feature maximizing u-gain / w-gain given the
    current rule; a zero w-gain counts as +inf when the u-gain is
    positive and -inf otherwise. Ties keep the lowest index. Features are
    added unconditionally, so the result can be worse than the input;
    callers re-optimize over the enlarged active set. path, when given,
    receives the added features in the order they were added.

    Once the rule covers no negatives and no covered positives, every
    u-gain is exactly 0.0. With lam > 0 every w-gain is at least lam, so
    every ratio is 0.0; with lam == 0 and an empty cover every w-gain is
    0.0, so every ratio is -inf. Either way all candidates tie and the
    lowest unused index wins, and since adding a feature only shrinks the
    cover, every later step ties the same way. The rest of the rule is
    then the lowest unused indices in ascending order, appended without a
    scan. With lam == 0 and uncovered positives still covered, a w-gain
    can be 0.0 or positive, so those steps keep the scan.
    """
    if m < 1:
        raise ConfigError("active set size must be >= 1")
    d = inst.d
    columns, plan = inst.columns, inst.pairs
    negative_counts, covered_counts = inst.negative_counts, inst.covered_counts
    uncovered_counts = inst.uncovered_counts
    beta0, beta2, pos_weight, lam = inst.beta0, inst.beta2, inst.pos_weight, inst.lam
    r = sorted(set(features))
    in_r = set(r)
    vp, vc, vn = inst.cover(r)
    target = min(m, d)
    while len(r) < target:
        if not vn and not vc and (lam > 0 or not vp):
            # The tied tail (docstring): fill with the lowest unused indices.
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
        at_empty_rule = not r
        for j, col, paired in plan:
            # Rows of each mask that j keeps; a paired j + 1 excludes exactly
            # these (module docstring). The empty rule covers the instance's
            # masks, whose counts the count table holds.
            if at_empty_rule:
                kn, kc, kp = negative_counts[j], covered_counts[j], uncovered_counts[j]
            else:
                kn = (vn & col).bit_count()
                kc = (vc & col).bit_count()
                kp = (vp & col).bit_count()
            if j not in in_r:
                du = beta0 * (pcn - kn) + beta2 * (pcc - kc)
                dw = pos_weight * (pcp - kp) + lam
                if dw > 0:
                    ratio = du / dw
                else:
                    ratio = INF if du > 0 else -INF
                if best_ratio is None or ratio > best_ratio:
                    best_j, best_ratio = j, ratio
            if paired and j + 1 not in in_r:
                du = beta0 * kn + beta2 * kc
                dw = pos_weight * kp + lam
                if dw > 0:
                    ratio = du / dw
                else:
                    ratio = INF if du > 0 else -INF
                if best_ratio is None or ratio > best_ratio:
                    best_j, best_ratio = j + 1, ratio
        col = columns[best_j]
        r.append(best_j)
        in_r.add(best_j)
        if path is not None:
            path.append(best_j)
        vp &= col
        vc &= col
        vn &= col
    return tuple(sorted(r))


def swap_local_search(
    features: Sequence[int],
    inst: SubproblemInstance,
    *,
    trace: list[float] | None = None,
) -> tuple[int, ...]:
    """Add / remove / swap moves to a local maximum of v.

    Additions need a gain above tolerance; a feature is dropped when its
    contribution on top of the others is at most tolerance; a swap is
    accepted only when strictly better. Scans are first-improvement in
    ascending index order with immediate application.
    """
    d = inst.d
    columns = inst.columns
    cover, score = inst.cover, inst.score
    lam, pos_weight = inst.lam, inst.pos_weight
    # Candidates whose support bound fails a scan's test are skipped before
    # their three ANDs, and those whose support within the current cover
    # fails it before the other two ANDs and the score call (see
    # SubproblemInstance.pos_ub); scan order is kept.
    pos_ub = inst.pos_ub()
    r = sorted(set(features))

    cap = _iteration_cap(d)
    for _ in range(cap):
        changed = False
        vp, vc, vn = cover(r)
        v_r = score(vp, vc, vn, len(r))

        # Add while some feature has positive marginal value.
        grew = True
        while grew:
            grew = False
            in_r = set(r)
            add_cost = lam * (len(r) + 1)
            for j in range(d):
                if j in in_r or (pos_ub[j] - add_cost) - v_r <= TOL:
                    continue
                col = columns[j]
                nvp = vp & col
                if (pos_weight * nvp.bit_count() - add_cost) - v_r <= TOL:
                    continue
                nvc, nvn = vc & col, vn & col
                gain = score(nvp, nvc, nvn, len(r) + 1) - v_r
                if gain > TOL:
                    r.append(j)
                    in_r.add(j)
                    add_cost = lam * (len(r) + 1)
                    vp, vc, vn = nvp, nvc, nvn
                    v_r += gain
                    changed = grew = True
                    if trace is not None:
                        trace.append(v_r)
        r.sort()

        # Drop features whose contribution is not positive.
        shrunk = True
        while shrunk:
            shrunk = False
            for j in list(r):
                rest = [x for x in r if x != j]
                bvp, bvc, bvn = cover(rest)
                v_rest = score(bvp, bvc, bvn, len(rest))
                if v_r - v_rest <= TOL:
                    r = rest
                    vp, vc, vn = bvp, bvc, bvn
                    v_r = v_rest
                    changed = shrunk = True
                    if trace is not None:
                        trace.append(v_r)
                    break

        # First strictly improving swap, applied immediately.
        swapped = True
        while swapped:
            swapped = False
            in_r = set(r)
            # The screen depends on neither the feature swapped out nor the
            # position in the scan, so it runs once per sweep.
            swap_cost, limit = lam * len(r), v_r + TOL
            incoming = [
                b for b in range(d) if b not in in_r and pos_ub[b] - swap_cost > limit
            ]
            for a in list(r):
                rest = [x for x in r if x != a]
                bvp, bvc, bvn = cover(rest)
                found = False
                for b in incoming:
                    col = columns[b]
                    nvp = bvp & col
                    if pos_weight * nvp.bit_count() - swap_cost <= limit:
                        continue
                    v_new = score(nvp, bvc & col, bvn & col, len(r))
                    if v_new > limit:
                        r = sorted(rest + [b])
                        vp, vc, vn = cover(r)
                        v_r = v_new
                        changed = swapped = found = True
                        if trace is not None:
                            trace.append(v_r)
                        break
                if found:
                    break

        if not changed:
            return tuple(r)
    raise RuntimeError("swap search failed to reach a fixed point within the iteration cap")


def _best_prefix(start: Sequence[int], path: Sequence[int], inst: SubproblemInstance):
    """The best rule among start plus each prefix of path (ties: shortest)."""
    rule = sorted(start)
    vp, vc, vn = inst.cover(rule)
    best, best_v = tuple(rule), inst.score(vp, vc, vn, len(rule))
    for j in path:
        col = inst.columns[j]
        vp, vc, vn = vp & col, vc & col, vn & col
        rule.append(j)
        v = inst.score(vp, vc, vn, len(rule))
        if v > best_v:
            best, best_v = tuple(sorted(rule)), v
    return best


def _on_path(rule: Sequence[int], start: frozenset[int], path: Sequence[int]) -> bool:
    """Whether rule, as a set, is start plus a prefix of path."""
    k = len(rule) - len(start)
    return 0 <= k <= len(path) and set(rule) == start.union(path[:k])


def local_combinatorial_search(
    inst: SubproblemInstance,
    m: int = Hyperparams.active_size,
    *,
    trace: list[float] | None = None,
) -> tuple[int, ...]:
    """Full single-rule search from the empty rule.

    Rounds of enlarge -> exact active-subset search -> descent -> swap
    search, repeated until the rule stops changing. Every phase is
    non-decreasing in v, so the fixed point is the best rule seen and is
    never worse than the empty rule. Rounds that would repeat work are
    skipped (module docstring), and the exact search is seeded with the
    best rule on enlarge's path.
    """
    if inst.d == 0:
        return ()
    r: tuple[int, ...] = ()
    prev_active: tuple[int, ...] | None = None
    # The last enlarge call: its start set, the features it added in order,
    # the active set it reached and the best rule along the way.
    start: frozenset[int] = frozenset()
    path: list[int] = []
    reached: tuple[int, ...] | None = None
    path_best: tuple[int, ...] = ()
    cap = _iteration_cap(inst.d)
    for _ in range(cap):
        if len(r) < m:
            if reached is None or not _on_path(r, start, path):
                start, path = frozenset(r), []
                reached = enlarge(r, m, inst, path=path)
                path_best = _best_prefix(start, path, inst)
            active, seed = reached, path_best
        else:
            active = seed = r
        if active == prev_active:
            return r
        prev, prev_active = r, active
        if len(active) <= m:
            # Looked up on the module at each call, so a wrapper installed
            # on exact_oracle.bnb_max sees the active-set solves too.
            r = exact_oracle.bnb_max(inst, active, seed=seed).features
            if trace is not None:
                trace.append(inst.value(r))
        r = ds_opt(r, inst, trace=trace)
        r = swap_local_search(r, inst, trace=trace)
        if r == prev:
            return r
    raise RuntimeError("rule search failed to reach a fixed point within the iteration cap")
