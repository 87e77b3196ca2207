"""Spans around the calls into each rulecover layer, for the traced run.

``Tracer.installed()`` swaps wrappers into the module attributes that the
callers look up at call time, and restores the originals on exit. Each
wrapped call records a span ``[name, start, end, parent, workload]`` in
memory; ``layer_metrics`` turns the spans plus a few counters read from
return values into the per-layer metrics. Nothing inside the program is
changed: spans sit at the boundaries the program already has.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import rulecover.cli
import rulecover.dataset
import rulecover.evaluation
import rulecover.exact_oracle
import rulecover.learner
import rulecover.subproblem
from rulecover.dataset import Table

# Per-call percentile of bnb_max reported as exact_oracle.bnb_call_tail_ms,
# fixed per workload so that commits compare the same percentile: the
# highest of 50/75/90/99 with at least 10 of the calls that HEAD made at
# full size beyond it (ttt-cv 3,604 calls, mixed 47, wide 102).
TAIL_PERCENTILE = {"ttt-cv": 99.0, "mixed": 75.0, "wide": 90.0}


def _same_rule(features, result) -> bool:
    return tuple(sorted(set(features))) == tuple(result)


class Tracer:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn, on_result=None):
        spans, stack, workload = self.spans, self._stack, self.workload

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, workload]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # Counters read from return values -------------------------------------

    def _on_bnb(self, args, result) -> None:
        self.counts["bnb_nodes"] += result.nodes
        self.counts["bnb_unproven"] += not result.proven_optimal

    def _on_ds_opt(self, args, result) -> None:
        self.counts["ds_opt_changed"] += not _same_rule(args[0], result)

    def _on_swap(self, args, result) -> None:
        self.counts["swap_changed"] += not _same_rule(args[0], result)

    def _on_train(self, args, result) -> None:
        report = result[1]
        self.counts["refine_passes"] += report.refine_passes
        for rec in report.iterations:
            if rec.phase == "refine-replace":
                self.counts["refine_replace_attempts"] += 1
                self.counts["refine_replace_accepted"] += rec.inserted

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        cli, ev = rulecover.cli, rulecover.evaluation
        learner, sub = rulecover.learner, rulecover.subproblem
        oracle, dataset = rulecover.exact_oracle, rulecover.dataset
        bnb = self.wrap("exact_oracle.bnb_max", oracle.bnb_max, self._on_bnb)
        binarize = self.wrap("dataset.binarize", dataset.binarize)
        apply = self.wrap("dataset.apply_descriptors", dataset.apply_descriptors)
        train = self.wrap("learner.train", learner.train, self._on_train)
        pack = self.wrap("bits.pack_bools", dataset.pack_bools)

        def pack_bools(flags):
            # Callers pass generators that test or compare every cell; draining
            # one before the span opens counts that work toward the caller, so
            # the span holds the packing alone.
            return pack(list(flags))

        read_csv = Table.__dict__["read_csv"]
        targets = [
            (learner, "local_combinatorial_search", self.wrap(
                "subproblem.local_combinatorial_search",
                learner.local_combinatorial_search)),
            (learner, "bnb_max", bnb),
            (oracle, "bnb_max", bnb),
            (learner, "build_instance", self.wrap(
                "subproblem.build_instance", learner.build_instance)),
            (learner, "distorted_greedy", self.wrap(
                "learner.distorted_greedy", learner.distorted_greedy)),
            (learner, "refine", self.wrap("learner.refine", learner.refine)),
            (sub, "enlarge", self.wrap("subproblem.enlarge", sub.enlarge)),
            (sub, "ds_opt", self.wrap("subproblem.ds_opt", sub.ds_opt, self._on_ds_opt)),
            (sub, "swap_local_search", self.wrap(
                "subproblem.swap_local_search", sub.swap_local_search, self._on_swap)),
            (dataset, "pack_bools", pack_bools),
            (Table, "read_csv", classmethod(
                self.wrap("dataset.read_csv", read_csv.__func__))),
            (cli, "binarize", binarize),
            (ev, "binarize", binarize),
            (cli, "apply_descriptors", apply),
            (ev, "apply_descriptors", apply),
            (cli, "train", train),
            (ev, "train", train),
            (cli, "save_model", self.wrap("modelio.save_model", cli.save_model)),
            (cli, "load_model", self.wrap("modelio.load_model", cli.load_model)),
            (cli, "cross_validate", self.wrap(
                "evaluation.cross_validate", cli.cross_validate)),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON, one list per span."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "workload"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def command_shares(tracer: Tracer) -> dict[str, tuple[float, dict[str, float]]]:
    """Per top-level span (one per command): its seconds, and the share of
    them spent in each span name below it."""
    spans = tracer.spans
    root = []
    below: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, _) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
        if parent >= 0:
            below[root[i]][name] += end - start
    out = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            total = end - start
            key = name if name not in out else f"{name}#{i}"
            out[key] = (total, {k: v / total for k, v in below[i].items()})
    return out


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from the spans and counters."""
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, start, end, _, _ in spans:
        total[name] += end - start
        self_time[name] += end - start
        calls[name] += 1
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[spans[parent][0]] -= end - start

    def under(span_index: int, ancestor: str) -> bool:
        parent = spans[span_index][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    cv_trains = [
        i for i, s in enumerate(spans)
        if s[0] == "learner.train" and under(i, "evaluation.cross_validate")
    ]
    cv_train_s = sum(spans[i][2] - spans[i][1] for i in cv_trains)

    bnb_ms = sorted(
        (s[2] - s[1]) * 1e3 for s in spans if s[0] == "exact_oracle.bnb_max"
    )
    tail_pct = TAIL_PERCENTILE[tracer.workload]
    c = tracer.counts
    bnb_s = total["exact_oracle.bnb_max"]
    out = {
        "dataset.read_csv_s": (total["dataset.read_csv"], "s"),
        "dataset.binarize_s": (total["dataset.binarize"], "s"),
        "dataset.apply_descriptors_s": (total["dataset.apply_descriptors"], "s"),
        "bits.pack_bools_calls": (calls["bits.pack_bools"], "count"),
        "bits.pack_bools_s": (total["bits.pack_bools"], "s"),
        "learner.greedy_s": (total["learner.distorted_greedy"], "s"),
        "learner.refine_s": (total["learner.refine"], "s"),
        "learner.solves": (calls["subproblem.build_instance"], "count"),
        "learner.refine_passes": (c["refine_passes"], "count"),
        "learner.refine_accept_ratio": (
            _ratio(c["refine_replace_accepted"], c["refine_replace_attempts"]),
            "fraction"),
        "subproblem.build_instance_s": (total["subproblem.build_instance"], "s"),
        "subproblem.local_search_calls": (
            calls["subproblem.local_combinatorial_search"], "count"),
        "subproblem.local_search_self_s": (
            self_time["subproblem.local_combinatorial_search"], "s"),
        "subproblem.rounds": (calls["subproblem.enlarge"], "count"),
        "subproblem.enlarge_s": (total["subproblem.enlarge"], "s"),
        "subproblem.swap_s": (total["subproblem.swap_local_search"], "s"),
        "subproblem.swap_improve_ratio": (
            _ratio(c["swap_changed"], calls["subproblem.swap_local_search"]),
            "fraction"),
        "subproblem.ds_opt_s": (total["subproblem.ds_opt"], "s"),
        "subproblem.ds_opt_improve_ratio": (
            _ratio(c["ds_opt_changed"], calls["subproblem.ds_opt"]), "fraction"),
        "exact_oracle.bnb_calls": (len(bnb_ms), "count"),
        "exact_oracle.bnb_nodes": (c["bnb_nodes"], "count"),
        "exact_oracle.bnb_s": (bnb_s, "s"),
        "exact_oracle.bnb_us_per_node": (_ratio(bnb_s * 1e6, c["bnb_nodes"]), "us"),
        "exact_oracle.bnb_call_p50_ms": (
            _percentile(bnb_ms, 50.0) if bnb_ms else 0.0, "ms"),
        "exact_oracle.bnb_call_tail_ms": (
            _percentile(bnb_ms, tail_pct) if bnb_ms else 0.0, "ms"),
        "exact_oracle.bnb_unproven": (c["bnb_unproven"], "count"),
        "modelio.save_model_s": (total["modelio.save_model"], "s"),
        "modelio.load_model_s": (total["modelio.load_model"], "s"),
        "evaluation.fits": (len(cv_trains), "count"),
        "evaluation.fold_overhead_s": (
            total["evaluation.cross_validate"] - cv_train_s, "s"),
    }
    return out
