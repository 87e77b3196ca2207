"""The benchmark's tracer still finds every name it wraps, and puts each back.

bench/tracing.py swaps wrappers into module attributes by name, so a
refactor that moves or drops one of those names breaks the traced
benchmark run. This test catches that in the test suite; it reads bench/
and changes nothing there.
"""

import importlib.util
import os

import rulecover.cli
import rulecover.dataset
import rulecover.evaluation
import rulecover.exact_oracle
import rulecover.learner
import rulecover.subproblem
from rulecover.dataset import Table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OWNERS = [rulecover.cli, rulecover.dataset, rulecover.evaluation, rulecover.exact_oracle,
          rulecover.learner, rulecover.subproblem, Table]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def test_tracer_installs_on_existing_names_and_restores_them(tmp_path):
    tracing = load_tracing()
    before = snapshot()
    data_csv = tmp_path / "data.csv"
    data_csv.write_text("a,b,y\n" + "".join(f"{i % 2},{i % 3 % 2},{i % 2}\n" for i in range(30)))
    tracer = tracing.Tracer("ttt-cv")
    with tracer.installed():
        for name in ("train", "cross_validate"):
            assert vars(rulecover.cli)[name] is not before[0][name]
        assert rulecover.cli.run(
            ["train", "--data", str(data_csv), "--labels-column", "y",
             "--model", str(tmp_path / "model.json")]) == 0
    # The CLI looks each name up when it runs, so the wrappers saw the train.
    names = {span[0] for span in tracer.spans}
    assert {"dataset.read_csv", "dataset.binarize", "learner.train",
            "modelio.save_model"} <= names
    after = snapshot()
    for owner, old, new in zip(OWNERS, before, after):
        for name, value in old.items():
            assert new[name] is value, (owner, name)
