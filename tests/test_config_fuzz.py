"""Mutated copies of the bundled config, through load_config and the CLI: a
config is loaded or refused with a ValidationError, and a run exits 0, 2 or 3,
never with a traceback.

A mutation replaces a value with one of another JSON type or an invalid
number (0, -1, NaN, ±inf), deletes a key, or adds one the schema does not
know. Valid but extreme magnitudes are not drawn: a valid config with a tiny
inertia or a huge droop bound needs a substep count that grows as their
ratio, and runs for minutes, which is a matter of run time, not of checking.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from droopinertia import ValidationError, cli
from droopinertia.scenario import default_config_path, load_config

BUNDLED = json.loads(default_config_path().read_text())

REPLACEMENTS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, -1, 0.0, -1.0, math.nan, math.inf, -math.inf]),
    st.text(max_size=4), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=1),
)


def _paths(doc, path=()):
    """The path of every value below doc, as a tuple of keys and indices."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def mutated_configs(draw):
    doc = json.loads(json.dumps(BUNDLED))
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(sorted(_paths(doc), key=repr)))
        parent = doc
        for step in parents:
            parent = parent[step]
        kind = draw(st.sampled_from(["replace", "delete", "unknown"]))
        if kind == "delete" and isinstance(parent, dict):
            del parent[key]
        elif kind == "unknown" and isinstance(parent[key], dict):
            parent[key][draw(st.sampled_from(["extra", "k", ""]))] = draw(REPLACEMENTS)
        else:
            parent[key] = draw(REPLACEMENTS)
    return doc


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_configs())
def test_mutated_config_loads_or_is_refused(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    try:
        load_config(path)
    except ValidationError:
        pass
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--duration", "12", "--dt", "0.01"])
    assert code in (0, 2, 3)
