"""rulecover benchmark: three generated workloads run through the CLI.

Usage (from the repository root):

    python3 bench/run.py --workload {ttt-cv,mixed,wide} --seed N \
        --seconds S --trace {0,1} [--tiny]

Each run generates its inputs (set-up, timed five times), then repeats the
workload's rulecover commands as subprocesses, one at a time, until the
next pass would end after ``--seconds``. The seed sets the row order of
the generated tables (see ``gen.py``), the ttt-cv folds and ``--seed``. Every output is
checked (see ``check_pass``); the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``fit_s`` is the
run's total fit time over its passes, ``predict_rows_per_s`` the rows
served over the total time of its predicts, and the others are medians.
With ``--trace 1`` the run makes two untraced and two traced passes, in
which ``rulecover.cli.run`` is called in-process, with wrappers from
``tracing.py`` around each layer's public functions in the traced ones;
the metrics are the per-layer ones plus ``trace.overhead_ratio``.
``--tiny`` shrinks every workload for the smoke test (``bench/smoke.py``).

Scratch files go to ``.bench_work/`` and results and spans to
``.bench_out/``, both under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

import gen  # noqa: E402  (bench/ is on sys.path as the script's directory)
from checks import (  # noqa: E402
    CheckFailed,
    accuracy,
    digest,
    prediction_column,
    raw_predictions,
    read_csv_columns,
    same_float,
    stderr_field,
)

WORKLOADS = ("ttt-cv", "mixed", "wide")
SETUP_REPEATS = 5
MAX_PASSES = 100
DEFAULT_SEED = 0

# ttt-cv: 12-config grid, 5 folds, then gap and a full-table fit of the
# gap config (the README's tic-tac-toe config).
TTT_GRID = [
    {"k": k, "beta2": beta2, "lambda": lam}
    for k in (8, 16) for beta2 in (0.1, 0.01) for lam in (1, 4, 16)
]
TTT_KNOBS = ["--beta2", "0.01", "--lambda", "4", "--k", "8"]
WIDE_KNOBS = ["--beta2", "0.01", "--lambda", "1", "--k", "16"]

# Sizes: (train rows, serve rows[, binary columns]); full and --tiny. The
# full sizes keep a mixed or wide pass to a few seconds, so that a run
# holds several passes; at 10k training rows and k=16 one mixed train
# alone took 45 s on a 2-core Xeon sandbox. That sandbox's CPU also flips
# between a fast and a slow state, about 1.6x apart, that last from a
# second to a minute, so each pass runs predict serve_repeat times, spread
# evenly after its fit commands, and fit_s and predict_rows_per_s come
# from the run's total fit and predict times: the median of a handful of
# passes jumps between the two states, while their total averages over
# them.
SIZES = {
    False: {"ttt_folds": 5, "ttt_grid": TTT_GRID, "ttt_serve_copies": 20,
            "mixed": (3000, 9000), "mixed_k": "8", "wide": (2000, 1000, 1024),
            "serve_repeat": {"ttt-cv": 3, "mixed": 2, "wide": 3}},
    True: {"ttt_folds": 2, "ttt_grid": TTT_GRID[:2], "ttt_serve_copies": 1,
           "mixed": (300, 300), "mixed_k": "2", "wide": (200, 200, 64),
           "serve_repeat": {"ttt-cv": 3, "mixed": 2, "wide": 2}},
}


@dataclass
class Step:
    """One rulecover command. role: fit, serve (timed) or check (pass 1).

    A step name may appear more than once in a workload; a pass runs each
    occurrence and keeps one time sample per run."""

    name: str
    argv: list[str]
    role: str


@dataclass
class Workload:
    """A workload's files and commands. Every workload fits on train.csv and
    serves serve.csv; the checks read both."""

    name: str
    work: str
    steps: list[Step]
    serve_rows: int
    label: str
    n_configs: int = 0
    n_folds: int = 0
    tables: dict = field(default_factory=dict)

    @property
    def profit_step(self) -> str:
        """The command whose output carries the workload's profit."""
        return "gap" if self.n_configs else "train"

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def table(self, name: str) -> dict[str, list[str]]:
        if name not in self.tables:
            self.tables[name] = read_csv_columns(self.path(name))
        return self.tables[name]


def setup(name: str, seed: int, tiny: bool) -> Workload:
    """Generate the workload's inputs and write its files; the timed set-up."""
    size = SIZES[tiny]
    work = os.path.join(WORK, name)
    os.makedirs(work, exist_ok=True)
    p = lambda f: os.path.join(work, f)  # noqa: E731
    data = ["--data", p("train.csv"), "--schema", p("schema.json")]
    fit_out = ["--model", p("model.json"), "--report", p("report.json")]
    seed_arg = ["--seed", str(seed)]
    if name == "ttt-cv":
        header, rows, schema = gen.ttt_table()
        # Serving every board the same number of times keeps the serve
        # accuracy equal to the training accuracy, which the checks compare.
        train, serve, label = rows, rows * size["ttt_serve_copies"], "class"
        gen.write_json(p("grid.json"), size["ttt_grid"])
        fits = [
            Step("train", ["train", *data, *TTT_KNOBS, *seed_arg, *fit_out], "fit"),
            Step("evaluate", ["evaluate", *data, "--grid", p("grid.json"),
                              "--folds", str(size["ttt_folds"]), "--jobs", "1",
                              *seed_arg, "--out", p("evaluate.json")], "fit"),
            Step("gap", ["gap", *data, *TTT_KNOBS, *seed_arg, "--out", p("gap.json")],
                 "fit"),
        ]
    else:
        if name == "mixed":
            n_train, n_serve = size["mixed"]
            header, rows, schema = gen.mixed_table(n_train + n_serve)
            knobs = ["--k", size["mixed_k"]]
        else:
            n_train, n_serve, d = size["wide"]
            header, rows, schema = gen.wide_table(n_train + n_serve, d)
            knobs = WIDE_KNOBS
        train, serve, label = rows[:n_train], rows[n_train:], "y"
        fits = [Step("train", ["train", *data, *knobs, *seed_arg, *fit_out], "fit")]
    predict = ["predict", "--model", p("model.json"), "--labels-column", label]
    serve_step = Step("predict", [*predict, "--data", p("serve.csv"),
                                  "--out", p("predict.csv")], "serve")
    per_fit = size["serve_repeat"][name] // len(fits)
    steps = [s for fit in fits for s in [fit] + [serve_step] * per_fit]
    if name != "ttt-cv":
        steps.append(Step("predict-train", [*predict, "--data", p("train.csv"),
                                            "--out", p("predict-train.csv")], "check"))
    gen.write_csv(p("train.csv"), header, gen.shuffled(train, seed))
    gen.write_csv(p("serve.csv"), header, gen.shuffled(serve, seed + 1))
    gen.write_json(p("schema.json"), schema)
    return Workload(name, work, steps, len(serve), label,
                    len(size["ttt_grid"]) if name == "ttt-cv" else 0, size["ttt_folds"])


# Running commands -----------------------------------------------------------

# Runs one rulecover command, then appends the process's own peak resident
# set (VmHWM) to its stderr. ru_maxrss from wait4 would instead report at
# least this benchmark's own resident set, which the child inherits until
# it execs.
CLI_MAIN = """
import sys
from rulecover.cli import run
code = run(sys.argv[1:])
with open("/proc/self/status") as fh:
    kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(f"vmhwm_kb={kb}", file=sys.stderr)
sys.exit(code)
"""


def run_subprocess(argv: list[str], out_path: str, err_path: str):
    """(seconds, exit code, peak RSS in MB) of ``rulecover <argv>``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *argv],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        proc.wait()
        seconds = time.perf_counter() - t0
    with open(err_path) as fh:
        try:
            rss_mb = int(stderr_field(fh.read(), "vmhwm_kb")) / 1024.0
        except CheckFailed:
            rss_mb = None
    return seconds, proc.returncode, rss_mb


def run_inprocess(argv: list[str], out_path: str, err_path: str):
    """Like run_subprocess, but calls ``rulecover.cli.run`` in this process."""
    from rulecover import cli

    with open(out_path, "w") as out, open(err_path, "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception:  # the run must go on and count the failure
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - t0
    return seconds, code, None


@dataclass
class StepResult:
    """One step name in one pass: a time sample per run of it, the first
    failing exit code (else 0), the peak RSS and the matching stderr."""

    samples: list[float]
    code: int
    rss_mb: float | None
    stderr: str

    @property
    def seconds(self) -> float:
        return sum(self.samples)


def run_pass(wl: Workload, roles: tuple[str, ...], runner,
             repeat: bool = True) -> dict[str, StepResult]:
    """Run the steps with the given roles; ``repeat=False`` runs each name once."""
    results: dict[str, StepResult] = {}
    for step in wl.steps:
        if step.role not in roles or (not repeat and step.name in results):
            continue
        out_path = wl.path(f"{step.name}.stdout")
        err_path = wl.path(f"{step.name}.stderr")
        seconds, code, rss = runner(step.argv, out_path, err_path)
        with open(err_path) as fh:
            stderr = fh.read()
        res = results.setdefault(step.name, StepResult([], 0, rss, stderr))
        res.samples.append(seconds)
        if rss is not None:
            res.rss_mb = max(res.rss_mb or 0.0, rss)
        if res.code == 0:
            res.code, res.stderr = code, stderr
    return results


# Checking outputs -----------------------------------------------------------


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _check_predict(wl: Workload, step: str, csv_name: str, res: StepResult,
                   values: dict) -> float:
    """Predictions equal the raw-cell evaluation; printed accuracy is right."""
    predicted = prediction_column(wl.path(f"{step}.csv"))
    table = wl.table(csv_name)
    if predicted != raw_predictions(wl.path("model.json"), table):
        raise CheckFailed(f"{step}: predictions differ from the raw-cell evaluation")
    acc = accuracy(predicted, table[wl.label])
    if stderr_field(res.stderr, "accuracy") != f"{acc:.4f}":
        raise CheckFailed(f"{step}: printed accuracy is not {acc:.4f}")
    values["digests"][step] = digest(table, predicted)
    return acc


def check_pass(wl: Workload, results: dict[str, StepResult]):
    """Check one pass; returns (values, problems by step name)."""
    problems: dict[str, list[str]] = defaultdict(list)
    values: dict = {"digests": {}}

    def guard(step: str, fn) -> None:
        if step not in results:
            return
        if results[step].code != 0:
            tail = results[step].stderr.strip().splitlines()[-1:] or [""]
            problems[step].append(f"exit {results[step].code}: {tail[0]}")
            return
        try:
            fn(results[step])
        except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as e:
            problems[step].append(f"{type(e).__name__}: {e}")

    def evaluate(res):
        doc = _load_json(wl.path("evaluate.json"))
        configs = doc["configs"]
        if len(configs) != wl.n_configs or doc["n_folds"] != wl.n_folds:
            raise CheckFailed("evaluate: wrong number of configs or folds")
        for cfg in configs:
            if any(f["skipped"] for f in cfg["folds"]) or len(cfg["folds"]) != wl.n_folds:
                raise CheckFailed("evaluate: a fold was skipped")
        acc = configs[doc["best"]]["test_accuracy_mean"]
        if not 0.5 < acc <= 1.0:
            raise CheckFailed(f"evaluate: implausible test accuracy {acc}")
        values["test_accuracy"] = acc

    def gap(res):
        doc = _load_json(wl.path("gap.json"))
        if doc["proven_optimal"] is not True:
            raise CheckFailed("gap: branch and bound did not prove optimality")
        values["profit"] = float(doc["v_approx"])

    def train(res):
        profit = float(_load_json(wl.path("report.json"))["final_profit"])
        if "profit" in values and not same_float(values["profit"], profit):
            raise CheckFailed(f"train: profit {profit} differs from gap v_approx")
        values["profit"] = profit
        values["train_accuracy"] = stderr_field(res.stderr, "train_accuracy")

    def serve_matches_train(step: str, res: StepResult) -> None:
        if stderr_field(res.stderr, "accuracy") != values.get("train_accuracy"):
            raise CheckFailed(f"{step}: accuracy on the training rows differs from "
                              "the one train printed")

    def predict(res):
        acc = _check_predict(wl, "predict", "serve.csv", res, values)
        if wl.name == "ttt-cv":
            serve_matches_train("predict", res)
        else:
            values["test_accuracy"] = acc

    def predict_train(res):
        _check_predict(wl, "predict-train", "train.csv", res, values)
        serve_matches_train("predict-train", res)

    guard("evaluate", evaluate)
    guard("gap", gap)
    guard("train", train)
    guard("predict", predict)
    guard("predict-train", predict_train)
    return values, problems


def check_against(reference: dict | None, values: dict, problems,
                  profit_step: str) -> None:
    """Profit and prediction digests must equal the reference's, if any."""
    if reference is None:
        return
    if not same_float(reference["profit"], values.get("profit", float("nan"))):
        problems[profit_step].append(
            f"profit {values.get('profit')} != reference {reference['profit']}")
    for step, want in reference["digests"].items():
        got = values["digests"].get(step)
        if got is not None and got != want:
            problems[step].append(f"prediction digest {got} != reference {want}")


def expected_for(workload: str, tiny: bool) -> dict | None:
    """Expected profit and prediction digests; row order does not change them."""
    if tiny:
        return None
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        return json.load(fh).get(workload)


# Metrics ----------------------------------------------------------------------


def end_to_end(wl: Workload, setups: list[float], passes: list[dict],
               values: dict) -> dict:
    fit = [sum(r.seconds for s, r in p.items() if _role(wl, s) == "fit") for p in passes]
    serve = [x for p in passes for x in p["predict"].samples]  # seconds each
    rss = [max(r.rss_mb or 0.0 for r in p.values()) for p in passes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "fit_s": (statistics.mean(fit), "s"),
        "predict_rows_per_s": (wl.serve_rows * len(serve) / sum(serve), "rows/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "profit": (values["profit"], "objective"),
        "test_accuracy": (values["test_accuracy"], "fraction"),
    }


def _role(wl: Workload, step: str) -> str:
    return next(s.role for s in wl.steps if s.name == step)


def command_seconds(passes: list[dict]) -> dict[str, float]:
    """Median wall time of one run of each timed command."""
    return {name: statistics.median(x for p in passes for x in p[name].samples)
            for name in passes[0]}


# Measuring -------------------------------------------------------------------


class Tally:
    """Commands attempted and failed, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, results: dict, problems: dict) -> None:
        self.attempted += len(results)
        for step, msgs in problems.items():
            if step in results and msgs:
                self.failed += 1
                self.reasons += [f"{step}: {m}" for m in msgs]


def measure(wl: Workload, seconds: float, tally: Tally, expected: dict | None):
    """Timed passes until the next one would end after ``seconds``.

    The first pass also runs the check commands and is compared with the
    expected outputs; every later pass must reproduce the first.
    """
    passes, durations, first = [], [], None
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        t0 = time.perf_counter()
        roles = ("fit", "serve", "check") if not passes else ("fit", "serve")
        results = run_pass(wl, roles, run_subprocess)
        durations.append(time.perf_counter() - t0)
        values, problems = check_pass(wl, results)
        check_against(expected if first is None else first, values, problems,
                      wl.profit_step)
        first = first or values
        tally.add(results, problems)
        passes.append({s: r for s, r in results.items() if _role(wl, s) != "check"})
        if problems:
            break
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break
    return passes, first


TRACE_ORDER = (False, True, True, False)  # untraced, traced, traced, untraced


def traced_run(wl: Workload, tally: Tally, seed: int, expected: dict | None):
    """Untraced and traced passes in ``TRACE_ORDER``, all in-process, so that
    the ratio of their median times is the tracing overhead alone and a
    steady drift in clock speed cancels. Each per-layer metric is the median
    over the traced passes; the spans and shares are the first traced pass's.
    """
    import tracing

    seconds: dict[bool, list[float]] = {False: [], True: []}
    layers, tracers, first = [], [], None
    for traced in TRACE_ORDER:
        if traced:
            tracer = tracing.Tracer(wl.name)
            tracers.append(tracer)
            # In-process run under a root span named after the command.
            runner = lambda argv, *paths, t=tracer: t.wrap(  # noqa: E731
                f"command.{argv[0]}", run_inprocess)(argv, *paths)
            with tracer.installed():
                results = run_pass(wl, ("fit", "serve"), runner, repeat=False)
            layers.append(tracing.layer_metrics(tracer))
        else:
            results = run_pass(wl, ("fit", "serve"), run_inprocess, repeat=False)
        seconds[traced].append(sum(r.seconds for r in results.values()))
        results.update(run_pass(wl, ("check",), run_subprocess))
        values, problems = check_pass(wl, results)
        check_against(expected if first is None else first, values, problems,
                      wl.profit_step)
        first = first or values
        tally.add(results, problems)

    os.makedirs(OUT, exist_ok=True)
    tracers[0].write(os.path.join(OUT, f"spans-{wl.name}-seed{seed}.json"))
    metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(seconds[True]) / statistics.median(seconds[False]), "ratio")
    return metrics, first, tracing.command_shares(tracers[0])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rulecover", "cli.py")):
        print(f"error: rulecover sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    setups = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        t0 = time.perf_counter()
        wl = setup(args.workload, args.seed, args.tiny)
        setups.append(time.perf_counter() - t0)

    tally = Tally()
    expected = expected_for(args.workload, args.tiny)
    if args.trace:
        metrics, values, shares = traced_run(wl, tally, args.seed, expected)
        commands, pass_seconds = {}, []
    else:
        passes, values = measure(wl, args.seconds, tally, expected)
        commands = command_seconds(passes)
        pass_seconds = [{s: res.samples for s, res in p.items()} for p in passes]
        shares, metrics = {}, {}
        if tally.failed == 0:
            metrics = end_to_end(wl, setups, passes, values)
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"tiny={int(args.tiny)}")
    for name, secs in commands.items():
        print(f"  {name}_s = {secs:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for command, (secs, parts) in shares.items():
        top = sorted(parts.items(), key=lambda kv: -kv[1])
        print(f"  {command} {secs:.3f} s: "
              + ", ".join(f"{name} {share:.0%}" for name, share in top))
    print(f"  error_rate = {tally.failed / max(tally.attempted, 1):.4f} fraction "
          f"({tally.failed} of {tally.attempted} commands)")
    for reason in tally.reasons:
        print(f"  FAILED {reason}", file=sys.stderr)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  tiny=args.tiny, commands=commands, passes=pass_seconds, shares=shares,
                  profit=values.get("profit"), digests=values.get("digests"))
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}{suffix}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
