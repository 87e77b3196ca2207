"""Tests for model persistence and rendering."""

import json
import random
import re
from dataclasses import fields, replace

import pytest

from conftest import random_dataset
from rulecover.dataset import BINARY, LABEL, SchemaError, Table, binarize
from rulecover.modelio import (
    FORMAT_VERSION,
    HYPERPARAM_KEYS,
    ModelFormatError,
    hyperparams_from_json,
    hyperparams_to_json,
    load_model,
    render_rules,
    save_model,
)
from rulecover.objective import ConfigError, Hyperparams, Rule, RuleSet


def small_model(tmp_path, rng=None):
    rng = rng or random.Random(0)
    rows = [
        [str(int(rng.random() < 0.5)) for _ in range(3)] + [str(rng.randint(0, 1))]
        for _ in range(20)
    ]
    rows[0][3], rows[1][3] = "0", "1"
    table = Table.from_rows(["a", "b", "c", "y"], rows)
    schema = {"a": BINARY, "b": BINARY, "c": BINARY, "y": LABEL}
    data = binarize(table, schema)
    S = RuleSet()
    S.add(Rule.build([0, 2], data))
    S.add(Rule.build([5], data))
    h = Hyperparams(beta2=0.05, lam=0.5, max_rules=4)
    path = tmp_path / "model.json"
    save_model(path, S, data.descriptors, h)
    return path, data, S, h


def test_hyperparams_json_roundtrip():
    h = Hyperparams(beta0=2.0, beta1=1.5, beta2=0.25, lam=4.0, max_rules=8, active_size=12)
    doc = hyperparams_to_json(h)
    assert doc == {
        "beta0": 2.0,
        "beta1": 1.5,
        "beta2": 0.25,
        "lambda": 4.0,
        "k": 8,
        "m": 12,
    }
    assert hyperparams_from_json(doc) == h


# A valid non-default value for every Hyperparams field.
NON_DEFAULT = {"beta0": 2.5, "beta1": 3.0, "beta2": 0.05, "lam": 0.25,
               "max_rules": 3, "active_size": 5}


def test_hyperparam_keys_cover_every_field():
    assert sorted(HYPERPARAM_KEYS.values()) == sorted(f.name for f in fields(Hyperparams))


@pytest.mark.parametrize("key, name", list(HYPERPARAM_KEYS.items()))
def test_hyperparams_json_roundtrip_per_key(key, name):
    h = replace(Hyperparams(), **{name: NON_DEFAULT[name]})
    doc = hyperparams_to_json(h)
    assert doc[key] == NON_DEFAULT[name]
    assert hyperparams_from_json(doc) == h
    assert hyperparams_from_json(doc, require_all=True) == h
    assert hyperparams_from_json({key: NON_DEFAULT[name]}) == h


def test_hyperparams_from_json_defaults_and_validation():
    assert hyperparams_from_json({}) == Hyperparams()
    with pytest.raises(ConfigError):
        hyperparams_from_json({"beta1": 1.0, "beta2": 1.0})


def test_model_roundtrip_preserves_everything(tmp_path):
    path, data, S, h = small_model(tmp_path)
    model = load_model(path)
    assert model.hyperparams == h
    assert sorted(model.rule_features) == sorted(
        tuple(f) for f in S.feature_sets()
    )
    assert [d.name for d in model.descriptors] == [d.name for d in data.descriptors]
    assert [d.kind for d in model.descriptors] == [d.kind for d in data.descriptors]
    assert [d.operand for d in model.descriptors] == [
        d.operand for d in data.descriptors
    ]


def test_model_file_is_versioned_json_with_named_rules(tmp_path):
    path, data, S, h = small_model(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["format_version"] == FORMAT_VERSION
    names = data.feature_names()
    for rule in doc["rules"]:
        assert rule == sorted(rule), "literals are written in name order"
        for nm in rule:
            assert nm in names


def test_model_save_is_byte_stable(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1, *_ = small_model(tmp_path / "a", rng=random.Random(0))
    p2, *_ = small_model(tmp_path / "b", rng=random.Random(0))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_model_rejects_malformed_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(ModelFormatError):
        load_model(path)

    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)

    path.write_text(json.dumps({"rules": []}))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_model_rejects_unknown_rule_feature(tmp_path):
    path, data, S, h = small_model(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["rules"].append(["no such feature"])
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="no such feature"):
        load_model(path)


def test_load_model_rejects_duplicate_feature_names(tmp_path):
    path, data, S, h = small_model(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["features"].append(doc["features"][0])
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="duplicate"):
        load_model(path)


def test_load_model_rejects_repeated_rules_and_literals(tmp_path):
    path, data, S, h = small_model(tmp_path)
    doc = json.loads(path.read_text())
    first = doc["rules"][0]
    for rules, match in (
        (doc["rules"] + [list(reversed(first))], "listed twice"),
        ([first + first[:1]], "repeats a feature"),
    ):
        path.write_text(json.dumps(dict(doc, rules=rules)))
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)


def test_load_model_rejects_non_numeric_threshold(tmp_path):
    path, data, S, h = small_model(tmp_path)
    doc = json.loads(path.read_text())
    doc["features"][0].update(kind="numeric-le", operand="abc")
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="bad feature entry"):
        load_model(path)


def test_load_model_rejects_operands_of_the_wrong_type(tmp_path):
    path, data, S, h = small_model(tmp_path)
    doc = json.loads(path.read_text())
    for kind, operand in (
        ("raw-binary", True),
        ("raw-binary", 2),
        ("raw-binary", "1"),
        ("categorical-eq", 7),
        ("categorical-neq", None),
    ):
        features = [dict(doc["features"][0], kind=kind, operand=operand)]
        path.write_text(json.dumps(dict(doc, features=features + doc["features"][1:])))
        with pytest.raises(ModelFormatError, match="bad feature entry.*operand"):
            load_model(path)


def test_load_model_rejects_a_source_column_that_is_not_a_nonnegative_integer(tmp_path):
    path, data, S, h = small_model(tmp_path)
    doc = json.loads(path.read_text())
    for bad in ("zz", "0", -1, 1.0, True, False, None, [0]):
        features = [dict(doc["features"][0], source_column=bad)] + doc["features"][1:]
        path.write_text(json.dumps(dict(doc, features=features)))
        prefix = re.escape(f"{path}: bad feature entry")
        with pytest.raises(ModelFormatError, match=f"^{prefix}.*source_column"):
            load_model(path)
        with pytest.raises(SchemaError, match="source_column"):
            replace(data.descriptors[0], source_column=bad)
    # Any nonnegative integer loads.
    features = [dict(doc["features"][0], source_column=99)] + doc["features"][1:]
    path.write_text(json.dumps(dict(doc, features=features)))
    assert load_model(path).descriptors[0].source_column == 99


def test_load_model_rejects_unknown_feature_key(tmp_path):
    path, data, S, h = small_model(tmp_path)
    doc = json.loads(path.read_text())
    doc["features"][0]["note"] = "kept by hand"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="bad feature entry.*'note'"):
        load_model(path)


def test_load_model_names_the_file_and_key_of_an_invalid_hyperparameter(tmp_path):
    path, data, S, h = small_model(tmp_path)
    doc = json.loads(path.read_text())
    for hyperparams, message in (
        (dict(doc["hyperparams"], k=True),
         "max_rules must be a positive integer, got True (key 'k')"),
        (dict(doc["hyperparams"], beta1=1.0, beta2=1.0), "invalid weights"),
    ):
        path.write_text(json.dumps(dict(doc, hyperparams=hyperparams)))
        with pytest.raises(ConfigError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: {message}")


def test_empty_model_roundtrip(tmp_path):
    rng = random.Random(1)
    data = random_dataset(rng, n=10, d=3)
    path = tmp_path / "empty.json"
    save_model(path, RuleSet(), data.descriptors, Hyperparams())
    model = load_model(path)
    assert model.rule_features == []


def test_render_rules_formats():
    path_data = random.Random(2)
    data = random_dataset(path_data, n=8, d=4)
    descs = data.descriptors
    text = render_rules([(0, 2), (3,)], descs)
    lines = text.splitlines()
    assert len(lines) == 2
    assert " AND " in lines[0]
    assert lines[0] == f"{descs[0].name} AND {descs[2].name}"
    assert lines[1] == descs[3].name


def test_render_rules_empty_cases():
    rng = random.Random(3)
    data = random_dataset(rng, n=8, d=4)
    assert render_rules([], data.descriptors) == ""
    assert render_rules([()], data.descriptors) == "TRUE"
