"""Mutated copies of the bundled config, through load_config and the CLI: a
config is loaded or refused with a ValidationError, and a run exits 0, 2 or 3,
never with a traceback.

A mutation replaces a value with one of another JSON type or an invalid
number (0, -1, NaN, ±inf), deletes a key, or adds one the schema does not
know. Valid but extreme magnitudes are not drawn: a valid config with a tiny
inertia or a huge droop bound needs a substep count that grows as their
ratio, and runs for minutes, which is a matter of run time, not of checking.

check_config_fuzz(n) runs the check over n examples; tier-1 runs EXAMPLES.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from droopinertia import ValidationError, cli
from droopinertia.scenario import default_config_path, load_config

BUNDLED = json.loads(default_config_path().read_text())

EXAMPLES = 60

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


def check_config_fuzz(examples: int) -> None:
    """Assert, over examples derandomized mutated configs, that each loads or
    is refused with a ValidationError, and that simulate exits 0, 2 or 3."""

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(mutated_configs())
    def check(doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(doc))
            try:
                load_config(path)
            except ValidationError:
                pass
            code = cli.main(["simulate", "--config", str(path), "--out", str(Path(tmp) / "out"),
                             "--duration", "12", "--dt", "0.01"])
            assert code in (0, 2, 3)

    check()


def test_mutated_config_loads_or_is_refused():
    check_config_fuzz(EXAMPLES)
