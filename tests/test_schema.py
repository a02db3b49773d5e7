"""The in-package config validator against ``jsonschema``, its oracle.

`sqstates._schema` implements the dozen JSON Schema Draft 2020-12
keywords that the ``cli`` schemas use.  Here it must agree with
``Draft202012Validator`` plus ``best_match`` on accept or reject, on
the reported path and on the message text, for valid configs of every
subcommand, every ``statistics`` mode and every ``state`` kind after
one to three random edits: a key dropped or added, a value retyped, a
list resized, or a number pushed across a schema bound.
"""

import copy
import math

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

import sqstates.cli as cli
from sqstates import _schema

PACKET = {"alpha": 0.6, "beta": 1.4, "gamma": 0.3, "delta": -0.8,
          "epsilon": 0.5, "kappa": 0.1}
TERMS = [{"level": 0, "amplitude": [0.6, 0.0]},
         {"level": 2, "amplitude": [0.0, 0.8]}]

# (name, root of the reported path, schema, a valid instance using
# every optional field)
CASES = [
    ("evolve", "config", cli._EVOLVE_SCHEMA,
     {"params": PACKET, "times": {"start": 0.0, "stop": 6.2832,
                                  "count": 65}}),
    ("wigner", "config", cli._WIGNER_SCHEMA,
     {"params": PACKET, "state": {"kind": "fock", "level": 1},
      "times": [0.0, 1.3], "points": 41, "spread": 5.0,
      "rotation_check": True}),
    ("state-fock", "config.state", cli._STATE_SCHEMAS["fock"],
     {"kind": "fock", "level": 3}),
    ("state-tcs", "config.state", cli._STATE_SCHEMAS["tcs"],
     {"kind": "tcs", "zeta": [0.8, -0.5]}),
    ("state-superposition", "config.state",
     cli._STATE_SCHEMAS["superposition"],
     {"kind": "superposition", "terms": TERMS}),
    ("statistics-poisson", "config", cli._STATISTICS_SCHEMAS["poisson"],
     {"mode": "poisson", "delta0": 2.49, "epsilon0": 0.0, "levels": 64}),
    ("statistics-pascal-even", "config",
     cli._STATISTICS_SCHEMAS["pascal-even"],
     {"mode": "pascal-even", "sigma_sum": 40, "levels": 1000}),
    ("statistics-pascal-odd", "config", cli._STATISTICS_SCHEMAS["pascal-odd"],
     {"mode": "pascal-odd", "sigma_sum": 7.0, "levels": 301}),
    ("statistics-full-expansion", "config",
     cli._STATISTICS_SCHEMAS["full-expansion"],
     {"mode": "full-expansion", "params": PACKET, "truncation": 41}),
    ("expand", "config", cli._EXPAND_SCHEMA,
     {"params": PACKET, "columns": [0, 1, 2], "truncation": 64}),
    ("demkov", "config", cli._DEMKOV_SCHEMA,
     {"channel": {"beta0": 0.1, "delta0": 0.0}, "times": [0.0, 1.5],
      "points": 41, "half_width": 3.0}),
    ("verify", "config", cli._VERIFY_SCHEMA, {"seed": 7}),
]
IDS = [case[0] for case in CASES]


def bounds(schema):
    """Every number bound in a schema, nested ones included."""
    found = set()
    if isinstance(schema, dict):
        for key, value in schema.items():
            if key in ("minimum", "maximum", "exclusiveMinimum"):
                found.add(value)
            found |= bounds(value)
    return found


BOUNDS = sorted(set().union(*(bounds(case[2]) for case in CASES)))
assert {cli.MAX_ROWS, cli.MAX_POINTS} <= set(BOUNDS)

# integers and floats on, just inside and just outside every bound
NUMBERS = sorted({v for b in BOUNDS
                  for v in (b - 1, b, b + 1, float(b), b - 0.5, b + 0.5,
                            math.nextafter(b, -math.inf))}, key=float)
OTHERS = [True, False, None, "x", "fock", "tcs", "poisson", [], [0.0],
          [0.0, 1.0, 2.0], {}, {"kind": "fock"}, -0.0, 2.5, -1e-300, 1e300]
VALUES = st.sampled_from(NUMBERS + OTHERS)
SIZES = st.sampled_from([0, 1, 2, 3, cli.MAX_TIMES, cli.MAX_TIMES + 1])
NEW_KEYS = st.sampled_from(["extra", "Extra key", "it's", "levels",
                            "points", "kind"])


def nodes(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from nodes(item, path + (index,))


def draw_value(data):
    # a copy, so that later edits never reach the shared sample
    return copy.deepcopy(data.draw(VALUES))


def mutate(data, instance):
    """One random edit of ``instance`` in place, at a random node."""
    path = data.draw(st.sampled_from(list(nodes(instance))))
    parent, key = None, None
    node = instance
    for part in path:
        parent, key, node = node, part, node[part]
    kinds = ["retype"]
    if isinstance(node, dict):
        kinds += ["add"] + (["drop"] if node else [])
    if isinstance(node, list):
        kinds += ["resize"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "add":
        node[data.draw(NEW_KEYS)] = draw_value(data)
    elif kind == "drop":
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif kind == "resize":
        size = data.draw(SIZES)
        filler = node[-1] if node else draw_value(data)
        node[:] = (node + [copy.deepcopy(filler)
                           for _ in range(size)])[:size]
    elif parent is not None:
        parent[key] = draw_value(data)
    else:
        return draw_value(data)
    return instance


def oracle(instance, schema, where):
    errors = list(Draft202012Validator(schema).iter_errors(instance))
    if not errors:
        return None
    error = best_match(errors)
    return "%s: %s" % (error.json_path.replace("$", where, 1), error.message)


def ours(instance, schema, where):
    try:
        cli._validate(instance, schema, where)
    except cli.ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name, where, schema, valid", CASES, ids=IDS)
def test_valid_configs_pass_both(name, where, schema, valid):
    assert oracle(valid, schema, where) is None
    assert ours(valid, schema, where) is None


@pytest.mark.parametrize("name, where, schema, valid", CASES, ids=IDS)
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_configs_match_jsonschema(name, where, schema, valid, data):
    instance = copy.deepcopy(valid)
    for _ in range(data.draw(st.integers(1, 3))):
        instance = mutate(data, instance)
    assert ours(instance, schema, where) == oracle(instance, schema, where)


@pytest.mark.parametrize("instance, message", [
    # exclusiveMinimum, with the value's own repr
    ({"params": dict(PACKET, beta=-2), "times": {"start": 0, "stop": 1,
                                                  "count": 2}},
     "config.params.beta: -2 is less than or equal to the minimum of 0"),
    # a JSON true is not an integer, and 1.0 is one
    ({"params": PACKET, "times": {"start": 0, "stop": 1, "count": True}},
     "config.times.count: True is not of type 'integer'"),
    ({"params": PACKET, "times": {"start": 0, "stop": 1, "count": 1.0}},
     None),
    # ... nor a number
    ({"params": dict(PACKET, kappa=False), "times": {"start": 0, "stop": 1,
                                                     "count": 2}},
     "config.params.kappa: False is not of type 'number'"),
    # the shallowest failure wins over a deeper one
    ({"params": dict(PACKET, beta=0), "times": {"start": 0, "stop": 1}},
     "config.times: 'count' is a required property"),
    # at one depth the greater path wins: times > params
    ({"params": dict(PACKET, beta=0), "times": {"start": 0, "stop": 1,
                                                 "count": 0}},
     "config.times.count: 0 is less than the minimum of 1"),
    # at one path the failure off the schema's type wins over a bound
    ({"params": PACKET, "times": {"start": 0, "stop": 1, "count": 0.5}},
     "config.times.count: 0.5 is not of type 'integer'"),
    # then the first keyword: required comes before additionalProperties
    ({"params": PACKET, "extra": 1, "more": 2},
     "config: 'times' is a required property"),
    ({"params": PACKET, "times": {"start": 0, "stop": 1, "count": 2},
      "more": 2, "extra": 1},
     "config: Additional properties are not allowed "
     "('extra', 'more' were unexpected)"),
])
def test_pinned_messages(instance, message):
    assert ours(instance, cli._EVOLVE_SCHEMA, "config") == message


def test_item_paths_and_list_messages():
    state = {"kind": "superposition",
             "terms": [TERMS[0], dict(TERMS[1], level=-1)]}
    assert ours(state, cli._STATE_SCHEMAS["superposition"],
                "config.state") == ("config.state.terms[1].level: -1 is less "
                                    "than the minimum of 0")
    assert ours({"channel": {"beta0": 1.0}, "times": []},
                cli._DEMKOV_SCHEMA, "config") == (
        "config.times: [] should be non-empty")
    assert ours({"kind": "tcs", "zeta": [1.0]}, cli._STATE_SCHEMAS["tcs"],
                "config.state") == "config.state.zeta: [1.0] is too short"


def test_json_path_quotes_odd_names():
    assert _schema.json_path("config", ("a b", 0, "it's")) == (
        "config['a b'][0]['it\\'s']")


def test_unsupported_keyword_raises():
    with pytest.raises(KeyError, match="pattern"):
        _schema.best_match("x", {"pattern": "y"})
