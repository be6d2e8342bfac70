"""Declared value rules: one rule per config value, checked on every
construction of a spec and on every classifier param."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from swipebench.aggregation import AggregationSpec, TrustParams
from swipebench.classifiers.base import (DEFAULT_PARAMS, PARAM_RULES,
                                         ClassifierSpec)
from swipebench.errors import ConfigError, RuleError
from swipebench.protocol import ProtocolConfig
from swipebench.spec import check, count, number
from swipebench.stacking import StackerSpec
from swipebench.synthetic import SyntheticSpec

SPECS = (ProtocolConfig, TrustParams, AggregationSpec, SyntheticSpec,
         StackerSpec)


def test_every_default_param_has_a_rule_it_passes():
    for kind, defaults in DEFAULT_PARAMS.items():
        for name, value in defaults.items():
            ok, phrase = PARAM_RULES[name]
            assert ok(value), (kind, name, value, phrase)
    names = {name for defaults in DEFAULT_PARAMS.values() for name in defaults}
    assert set(PARAM_RULES) == names


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.__name__)
def test_every_spec_default_passes_its_own_rules(spec):
    """Each spec builds with no arguments, so its defaults pass its field
    rules and its cross-field rules alike."""
    made = spec()
    assert set(spec.RULES) <= {f.name for f in fields(spec)}
    for name, (ok, phrase) in spec.RULES.items():
        assert ok(getattr(made, name)), (name, phrase)


def test_an_omitted_aggregation_window_follows_the_method():
    assert AggregationSpec().window == 1
    assert AggregationSpec("mean").window == 5
    assert AggregationSpec.from_dict({"method": "none"}).window == 1
    assert AggregationSpec.from_dict({"method": "vote"}).window == 5
    assert AggregationSpec.from_dict({"method": "mean", "window": 2}).window == 2
    with pytest.raises(ConfigError, match="method 'none' requires window"):
        AggregationSpec.from_dict({"method": "none", "window": 5})
    with pytest.raises(ConfigError, match="window must be an integer"):
        AggregationSpec.from_dict({"method": "mean", "window": None})


@pytest.mark.parametrize("rule, good, bad, phrase", [
    (number(0), [0, 0.0, 2.5, 7], [-1e-300, float("inf"), True, "1", None],
     "a number >= 0"),
    (number(0, ends="()"), [1e-300, 3], [0, 0.0, -1], "a number > 0"),
    (number(0, 1, "[)"), [0, 0.5], [1, 1.0, -0.1, float("nan")],
     "a number in [0, 1)"),
    (number(0, 1, "(]"), [1, 0.25], [0, 1.5], "a number in (0, 1]"),
    (count(2), [2, 10], [1, 2.0, True, "3", None], "an integer >= 2"),
], ids=["at-least-0", "above-0", "half-open", "open-closed", "count"])
def test_rule_vocabulary(rule, good, bad, phrase):
    ok, said = rule
    assert said == phrase
    assert all(ok(v) for v in good)
    assert not any(ok(v) for v in bad)


def test_check_names_the_value():
    check("x", 3, count(1))
    with pytest.raises(RuleError, match=r"^x must be an integer >= 1, got 0$"):
        check("x", 0, count(1))


def test_direct_construction_is_checked():
    """A library call meets the same rules as a config file."""
    cases = [
        (lambda: ProtocolConfig(repetitions=0),
         "repetitions must be an integer >= 1, got 0"),
        (lambda: SyntheticSpec(seed=-1), "seed must be an integer >= 0"),
        (lambda: StackerSpec(hidden=0), "hidden must be an integer >= 1"),
        (lambda: TrustParams(reward=-0.1), "reward must be a number >= 0"),
        (lambda: AggregationSpec(method="vote", vote_threshold=1.5),
         "vote_threshold must be a number in [0, 1]"),
        (lambda: ClassifierSpec("knn", {"k": 0}),
         "params.k must be an integer >= 1"),
    ]
    for make, message in cases:
        with pytest.raises(RuleError) as err:
            make()
        assert str(err.value).startswith(message)


def test_from_dict_joins_rule_paths_with_a_dot():
    with pytest.raises(RuleError, match=r"^run\.repetitions must be"):
        ProtocolConfig.from_dict({"repetitions": 0}, "run")
    with pytest.raises(RuleError, match=r"^agg\.stacker\.beta1 must be"):
        AggregationSpec.from_dict({"method": "stacking",
                                   "stacker": {"beta1": 1}}, "agg")
    # a cross-field fault names the entry, then the fault
    with pytest.raises(ConfigError,
                       match=r"^agg: method 'none' requires window == 1$"):
        AggregationSpec.from_dict({"method": "none", "window": 3}, "agg")


def test_readme_lists_every_param_rule_with_its_kinds():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = {}
    for line in readme.split("| param | kinds | range |", 1)[1].split(
            "\n\n", 1)[0].splitlines()[2:]:
        names, kinds, _ = [cell.strip() for cell in line.strip("|").split("|")]
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = set(kinds.split(", "))
    assert listed == {name: {kind for kind, defaults in DEFAULT_PARAMS.items()
                             if name in defaults} for name in PARAM_RULES}
