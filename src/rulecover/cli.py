"""Command-line front end: binarize, train, predict, evaluate, gap.

One command per invocation. Input tables are comma-separated text with a
header row; column kinds come from a JSON sidecar schema (name -> one of
categorical/numeric/binary/label) or are inferred with --labels-column.
Models are the JSON documents described in modelio. Evaluation reports
are emitted as a delimiter-separated table (one row per config,
mean/std per metric) or as full JSON, chosen by the output extension.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from dataclasses import fields, replace
from typing import TYPE_CHECKING, Iterator, TextIO

from .dataset import (
    DataError,
    SchemaError,
    Table,
    apply_descriptors,
    binarize,
    check_schema,
    infer_schema,
)
from .modelio import (
    HYPERPARAM_KEYS,
    LoadedModel,
    ModelFormatError,
    hyperparams_from_json,
    hyperparams_to_json,
    load_model,
    read_json,
    render_rules,
    save_model,
)
from .objective import (
    ConfigError,
    Hyperparams,
    PRESETS,
    SUBPROBLEM_MODES,
    metrics,
    n_correct,
    preset,
    ruleset_from_features,
)


# The solver modules (learner, subproblem, exact_oracle, evaluation) are
# imported inside the commands that run them, so predict and binarize load
# only dataset, modelio, objective and bits. Without cached bytecode
# (PYTHONDONTWRITEBYTECODE=1) every import compiles its module from source.
if TYPE_CHECKING:
    from .dataset import BinaryDataset
    from .evaluation import ConfigResult
    from .learner import TrainConfig, TrainReport
    from .objective import RuleSet


def train(data: BinaryDataset, cfg: TrainConfig) -> tuple[RuleSet, TrainReport]:
    """learner.train, imported on call. This name is the bench's seam:
    bench/tracing.py swaps its wrapper in here. The bench change that wraps
    each layer on its defining module (ROADMAP item 6, steps 2 and 3)
    deletes it."""
    from . import learner
    return learner.train(data, cfg)


def cross_validate(*args, **kwargs) -> list[ConfigResult]:
    """evaluation.cross_validate, imported on call. Like train, this name is
    the bench's seam, and the bench change of ROADMAP item 6, steps 2 and
    3, deletes it."""
    from . import evaluation
    return evaluation.cross_validate(*args, **kwargs)


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input table (CSV with header)")
    p.add_argument("--schema", help="JSON file mapping column name to kind")
    p.add_argument("--labels-column", help="label column name (schema inferred)")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta0", type=float, default=None, help="false-coverage weight")
    p.add_argument("--beta1", type=float, default=None, help="missed-positive weight")
    p.add_argument("--beta2", type=float, default=None, help="overlap weight")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="per-literal penalty")
    p.add_argument("--k", dest="max_rules", metavar="K", type=int, default=None,
                   help="maximum number of rules")
    p.add_argument("--m", dest="active_size", metavar="M", type=int, default=None,
                   help="active-set size")
    p.add_argument("--preset", choices=PRESETS, help="named objective preset")
    p.add_argument("--eta", type=float, default=None,
                   help="overlap price for the overlap-eta preset")
    p.add_argument("--seed", type=int, default=0,
                   help="fold shuffle for evaluate; training is deterministic")
    p.add_argument("--no-refine", action="store_true", help="skip refinement")


def _add_subproblem_arg(p: argparse.ArgumentParser) -> None:
    # Not on gap, which runs both solvers.
    p.add_argument("--subproblem", choices=SUBPROBLEM_MODES, default="local",
                   help="rule solver: local search or exact branch and bound")


def _load_table(args: argparse.Namespace) -> tuple[Table, dict[str, str], str]:
    table = Table.read_csv(args.data)
    if args.schema:
        schema = read_json(args.schema, SchemaError)
        if not isinstance(schema, dict):
            raise SchemaError(f"{args.schema}: expected a JSON object")
        if args.labels_column:
            schema[args.labels_column] = "label"
    elif args.labels_column:
        schema = infer_schema(table, args.labels_column)
    else:
        raise SchemaError("provide --schema or --labels-column")
    label = check_schema(table, schema)
    return table, schema, label


def _hyperparams(args: argparse.Namespace) -> Hyperparams:
    # Each hyperparameter flag's dest is its Hyperparams field; unset
    # flags are left out so the dataclass (or the preset) supplies them.
    given = {
        f.name: getattr(args, f.name)
        for f in fields(Hyperparams)
        if getattr(args, f.name) is not None
    }
    if args.preset:
        weights = sorted(given.keys() & {"beta0", "beta1", "beta2"})
        if weights:
            raise ConfigError(f"--preset is mutually exclusive with --{weights[0]}")
        return preset(args.preset, eta=args.eta, **given)
    if args.eta is not None:
        raise ConfigError("--eta only applies with --preset overlap-eta")
    return Hyperparams(**given)


def _hyperparam_flags(args: argparse.Namespace) -> list[str]:
    """The hyperparameter, --preset and --eta flags set on the command line."""
    flags = [f"--{key}" for key, name in HYPERPARAM_KEYS.items()
             if getattr(args, name) is not None]
    return flags + [f"--{name}" for name in ("preset", "eta")
                    if getattr(args, name) is not None]


def _train_config(args: argparse.Namespace) -> TrainConfig:
    from .learner import TrainConfig

    return TrainConfig(
        hyperparams=_hyperparams(args),
        subproblem=args.subproblem,
        refine=not args.no_refine,
    )


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The file at path, open for writing until the block ends; stdout when
    path is None or "-"."""
    if not path or path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        yield fh


def _write_json(doc: object, path: str | None) -> None:
    with _output(path) as out:
        json.dump(doc, out, indent=2)
        out.write("\n")


def _digits(bits: int, n: int) -> str:
    """Bits 0..n-1 of a bitset as "0"/"1" characters, bit 0 first."""
    return format(bits, f"0{n}b")[::-1]


def _cmd_binarize(args: argparse.Namespace) -> int:
    table, schema, label = _load_table(args)
    data = binarize(table, schema)
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(data.feature_names() + [label])
        # Row i holds character i of every column's digit string.
        writer.writerows(zip(*[_digits(c, data.n) for c in data.columns + [data.labels]]))
    print(f"binarized {data.n} rows into {data.d} features", file=sys.stderr)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    table, schema, _ = _load_table(args)
    data = binarize(table, schema)
    cfg = _train_config(args)
    S, report = train(data, cfg)
    save_model(args.model, S, data.descriptors, cfg.hyperparams)
    if args.report:
        _write_json(report.as_dict(), args.report)
    m = metrics(S, data)
    print(render_rules(S.feature_sets(), data.descriptors))
    print(
        f"rules={m.n_rules} literals={m.n_literals} "
        f"train_accuracy={m.accuracy:.4f} overlap={m.overlap:.4f} "
        f"profit={report.final_profit:.6g} seconds={report.fit_seconds:.3f}",
        file=sys.stderr,
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    """Predict the file one block of rows at a time (Table.read_blocks):
    read, encode and cover a block, keep its prediction digits and correct
    count, and drop it, so that the command holds one block of the input,
    not the file. The output is written at the end, so a file that fails
    writes nothing. A block's error need not be the whole file's first: a
    read error in a later block outranks an encode error in an earlier
    one, and a bad label lists the whole column's bad values. So on an
    error the whole file is read and encoded again, as one table, to raise
    the error it gives."""
    model = load_model(args.model)
    digits: list[str] = []
    correct = n = 0
    try:
        with contextlib.closing(Table.read_blocks(args.data)) as blocks:
            for table in blocks:
                data = _encode_served(table, model, args.labels_column)
                S = ruleset_from_features(model.rule_features, data)
                digits.append(_digits(S.covered, data.n))
                correct += n_correct(S, data)
                n += data.n
    except (DataError, SchemaError, UnicodeDecodeError):
        _encode_served(Table.read_csv(args.data), model, args.labels_column)
        raise
    with _output(args.out) as out:
        # The bytes csv.writer writes: one digit per row, each ending in "\r\n".
        out.write("prediction\r\n")
        for block in digits:
            out.write("\r\n".join(block) + "\r\n")
    if args.labels_column:
        print(f"accuracy={correct / n:.4f}", file=sys.stderr)
    return 0


def _encode_served(
    table: Table, model: LoadedModel, labels_column: str | None
) -> BinaryDataset:
    """The table encoded with the model's features, once the labels column,
    if one is named, is found in it."""
    if labels_column and labels_column not in table.names:
        raise SchemaError(f"table lacks column {labels_column!r}")
    return apply_descriptors(table, model.descriptors, labels_column)


def _evaluation_rows(results, best: int) -> list[dict]:
    rows = []
    for i, res in enumerate(results):
        row = {
            **hyperparams_to_json(res.cfg.hyperparams),
            "subproblem": res.cfg.subproblem,
        }
        row.update((key, round(v, 6)) for key, v in res.summary().items())
        row["selected"] = int(i == best)
        rows.append(row)
    return rows


def _fold_progress(n_folds: int):
    """A cross_validate progress callback: one stderr line per finished
    fold, with the elapsed time and an ETA from the mean fold so far."""
    start = time.monotonic()
    done = 0

    def report(fold: int, fits: int, seconds: float) -> None:
        nonlocal done
        done += 1
        elapsed = time.monotonic() - start
        eta = elapsed / done * (n_folds - done)
        print(
            f"fold {fold} done: {fits} fits in {seconds:.2f} s "
            f"({done}/{n_folds} folds, elapsed {elapsed:.1f} s, eta {eta:.1f} s)",
            file=sys.stderr,
        )

    return report


def _cmd_evaluate(args: argparse.Namespace) -> int:
    ignored = [] if args.single else _hyperparam_flags(args)
    if ignored:
        raise ConfigError(
            f"{ignored[0]} applies only with --single; "
            "a grid sets every config's hyperparameters"
        )
    from .evaluation import default_grid, make_folds, select_best

    table, schema, label = _load_table(args)
    if args.grid:
        entries = read_json(args.grid, ConfigError)
        if not isinstance(entries, list) or not entries:
            raise ConfigError(f"{args.grid}: expected a nonempty JSON list")
        base = _train_config(args)
        grid = [
            replace(base, hyperparams=hyperparams_from_json(e, prefix=f"{args.grid}: entry {i}: "))
            for i, e in enumerate(entries)
        ]
    elif args.single:
        grid = [_train_config(args)]
    else:
        grid = default_grid(subproblem=args.subproblem, refine=not args.no_refine)
    labels01 = [1 if v == "1" else 0 for v in table.column(label)]
    plan = make_folds(labels01, args.folds, seed=args.seed)
    results = cross_validate(
        table, schema, grid, plan, jobs=args.jobs, progress=_fold_progress(plan.n_folds)
    )
    best = select_best(results)
    rows = _evaluation_rows(results, best)

    if args.out and args.out.endswith(".json"):
        doc = {
            "n_folds": plan.n_folds,
            "seed": plan.seed,
            "best": best,
            "configs": [res.as_dict() for res in results],
        }
        _write_json(doc, args.out)
    else:
        with _output(args.out) as out:
            writer = csv.DictWriter(out, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    sel = rows[best]
    print(
        f"best config: beta2={sel['beta2']} lambda={sel['lambda']} k={sel['k']} "
        f"test_accuracy={sel['test_accuracy_mean']:.4f} "
        f"rules={sel['test_n_rules_mean']:.1f} literals={sel['test_n_literals_mean']:.1f}",
        file=sys.stderr,
    )
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    from .evaluation import relative_gap
    from .learner import TrainConfig

    table, schema, _ = _load_table(args)
    data = binarize(table, schema)
    # relative_gap picks both runs' solvers.
    cfg = TrainConfig(hyperparams=_hyperparams(args), refine=not args.no_refine)
    result = relative_gap(data, cfg)
    _write_json(result.as_dict(), args.out)
    gap_text = "undefined" if result.gap is None else f"{result.gap:.6f}"
    print(
        f"gap={gap_text} v_approx={result.v_approx:.6g} v_bnb={result.v_bnb:.6g} "
        f"proven_optimal={result.proven_optimal}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulecover",
        description="Learn and apply interpretable DNF rule-set classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("binarize", help="write the binarized 0/1 table")
    _add_data_args(p)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_binarize)

    p = sub.add_parser("train", help="fit a rule set and save the model")
    _add_data_args(p)
    _add_train_args(p)
    _add_subproblem_arg(p)
    p.add_argument("--model", required=True, help="output model JSON")
    p.add_argument("--report", help="output training report JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to new rows")
    p.add_argument("--data", required=True, help="input table (CSV with header)")
    p.add_argument("--model", required=True, help="model JSON from train")
    p.add_argument("--labels-column", help="optional: report accuracy against this column")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="cross-validated grid search")
    _add_data_args(p)
    _add_train_args(p)
    _add_subproblem_arg(p)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--grid", help="JSON list of hyperparameter dicts")
    which.add_argument("--single", action="store_true",
                       help="evaluate only the flag-specified config")
    p.add_argument("--out", help=".csv table or .json full report (default stdout)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gap", help="local-search vs branch-and-bound profit gap")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--out", help="output JSON (default stdout)")
    p.set_defaults(func=_cmd_gap)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ConfigError, SchemaError, ModelFormatError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
