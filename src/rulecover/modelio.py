"""Model persistence.

A model file is JSON carrying the format version, the hyperparameters it
was trained with, the feature descriptors (so raw rows can be re-encoded
at prediction time), and the rules as lists of feature names, ascending
within each rule. Names rather than indices keep files diffable and make
tampering obvious.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

from .dataset import FeatureDescriptor
from .objective import ConfigError, Hyperparams, RuleSet, check_hyperparam

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Model file is missing fields, inconsistent, or from another version."""


@dataclass
class LoadedModel:
    hyperparams: Hyperparams
    descriptors: list[FeatureDescriptor]
    rule_features: list[tuple[int, ...]]


# External hyperparameter key (model files, grid files, evaluate output and
# the CLI flag names) -> Hyperparams field, in output order.
HYPERPARAM_KEYS = {
    "beta0": "beta0",
    "beta1": "beta1",
    "beta2": "beta2",
    "lambda": "lam",
    "k": "max_rules",
    "m": "active_size",
}


def hyperparams_to_json(h: Hyperparams) -> dict:
    return {key: getattr(h, name) for key, name in HYPERPARAM_KEYS.items()}


def hyperparams_from_json(obj: object, require_all: bool = False, prefix: str = "") -> Hyperparams:
    """Hyperparams from a JSON dict; missing keys default unless required.

    Model files must carry every key; grid files may name only the knobs
    they sweep. Unknown keys are always rejected to catch typos. prefix (say
    the file and entry) starts every error message, and an invalid value's
    error names its key.
    """
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{prefix}hyperparams must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(HYPERPARAM_KEYS)
    if unknown:
        raise ModelFormatError(f"{prefix}unknown hyperparameter key(s): {sorted(unknown)}")
    if require_all:
        missing = set(HYPERPARAM_KEYS) - set(obj)
        if missing:
            raise ModelFormatError(f"{prefix}hyperparams missing key(s): {sorted(missing)}")
    for key, v in obj.items():
        try:
            check_hyperparam(HYPERPARAM_KEYS[key], v)
        except ConfigError as e:
            raise ConfigError(f"{prefix}{e} (key {key!r})") from None
    try:
        return Hyperparams(**{HYPERPARAM_KEYS[key]: v for key, v in obj.items()})
    except ConfigError as e:
        raise ConfigError(f"{prefix}{e}") from None


def save_model(
    path: str, S: RuleSet, descriptors: Sequence[FeatureDescriptor], h: Hyperparams
) -> None:
    names = [d.name for d in descriptors]
    doc = {
        "format_version": FORMAT_VERSION,
        "hyperparams": hyperparams_to_json(h),
        "features": [asdict(d) for d in descriptors],
        "rules": [sorted(names[j] for j in feats) for feats in S.feature_sets()],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path: str, error: type[ValueError]) -> object:
    """The JSON document in a UTF-8 file; a leading byte-order mark, as
    Table.read_csv takes it, is dropped. Text that is not JSON (nesting
    too deep for the decoder included), or bytes that are not UTF-8, raise
    error naming the file."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise error(f"{path}: not valid JSON ({e})") from None


def load_model(path: str) -> LoadedModel:
    doc = read_json(path, ModelFormatError)
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format_version {version!r}, expected {FORMAT_VERSION}"
        )
    for key in ("hyperparams", "features", "rules"):
        if key not in doc:
            raise ModelFormatError(f"{path}: missing {key!r}")
    h = hyperparams_from_json(doc["hyperparams"], require_all=True, prefix=f"{path}: ")
    for key in ("features", "rules"):
        if not isinstance(doc[key], list):
            raise ModelFormatError(f"{path}: {key!r} must be a JSON list")
    descriptors = []
    for f in doc["features"]:
        try:
            descriptors.append(FeatureDescriptor(**f))
        except (TypeError, ValueError) as e:
            raise ModelFormatError(f"{path}: bad feature entry ({e})") from None
    index = {d.name: j for j, d in enumerate(descriptors)}
    if len(index) != len(descriptors):
        raise ModelFormatError(f"{path}: duplicate feature names")
    rule_features = []
    for rule in doc["rules"]:
        if not isinstance(rule, list) or not all(isinstance(name, str) for name in rule):
            raise ModelFormatError(f"{path}: rule {rule!r} is not a list of feature names")
        feats = []
        for name in rule:
            if name not in index:
                raise ModelFormatError(f"{path}: rule uses unknown feature {name!r}")
            feats.append(index[name])
        key = tuple(sorted(feats))
        if len(set(key)) != len(key):
            raise ModelFormatError(f"{path}: rule {rule!r} repeats a feature")
        if key in rule_features:
            raise ModelFormatError(f"{path}: rule {rule!r} is listed twice")
        rule_features.append(key)
    return LoadedModel(
        hyperparams=h, descriptors=descriptors, rule_features=rule_features
    )


def render_rules(
    rule_features: Sequence[Sequence[int]],
    descriptors: Sequence[FeatureDescriptor],
) -> str:
    """One human-readable line per rule: literals joined by ' AND '."""
    names = [d.name for d in descriptors]
    lines = []
    for feats in rule_features:
        lines.append(" AND ".join(names[j] for j in feats) if feats else "TRUE")
    return "\n".join(lines)
