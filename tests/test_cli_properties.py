"""Property tests of the CLI contract: any config shape exits 0, 1 or 2,
the JSON writer matches ``json.dumps(indent=2, sort_keys=True)``, and the
block-streamed result tables match their whole-table encodings.

Sizes (M, n, q_nodes, output counts) are capped small on purpose: the
property under test is shape handling, not problem size.
"""

import json
import math
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dunkl_frft import __version__  # noqa: E402
from dunkl_frft.cli import (  # noqa: E402
    _BLOCK_ROWS, COMMANDS, _csv_chunks, _json_chunks, _pretty, _table, run,
)

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
# No digit strings: a size field must never parse to a large integer.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    SPECIAL,
    st.integers(-3, 3),
    st.floats(-3.0, 3.0),
    st.text(alphabet="ab/ ", max_size=3),
    st.lists(st.booleans(), max_size=2),
    st.dictionaries(st.sampled_from(["a", "nu"]), st.integers(-1, 1), max_size=2),
)
NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0), SPECIAL)


def mostly(valid):
    """Draws from valid, with one draw in sixteen replaced by junk."""
    return st.integers(0, 15).flatmap(lambda i: JUNK if i == 0 else valid)


def listed(items, max_size=3, min_size=0):
    return mostly(st.lists(mostly(items), min_size=min_size, max_size=max_size))


TERM = st.fixed_dictionaries(
    {"nu": listed(st.integers(0, 3))}, optional={"re": mostly(NUMBERS), "im": mostly(NUMBERS)}
)
MONOMIAL = st.fixed_dictionaries(
    {"exp": listed(st.integers(-1, 2))},
    optional={"re": mostly(st.sampled_from(["1", "-1/2", "1/0", "x"]))},
)
FUNCTIONS = mostly(
    st.one_of(
        st.fixed_dictionaries({"kind": st.just("hermite_combo"), "terms": listed(TERM)}),
        st.fixed_dictionaries({"kind": st.just("gaussian")}, optional={"a": mostly(NUMBERS)}),
        st.fixed_dictionaries(
            {"kind": st.just("laguerre_gaussian")},
            optional={"m": mostly(st.integers(-1, 3)), "order": mostly(NUMBERS)},
        ),
        st.fixed_dictionaries(
            {"kind": st.just("samples"), "values_re": listed(NUMBERS)},
            optional={"values_im": listed(NUMBERS)},
        ),
        st.fixed_dictionaries(
            {
                "kind": st.just("gauss_poly"),
                "poly": mostly(
                    st.fixed_dictionaries(
                        {"dim": mostly(st.integers(0, 2)), "terms": listed(MONOMIAL, 2)}
                    )
                ),
            }
        ),
        st.fixed_dictionaries({"kind": JUNK}),
    )
)
POINTS = listed(st.lists(NUMBERS, min_size=1, max_size=3))
OUTPUTS = mostly(
    st.one_of(
        st.fixed_dictionaries(
            {},
            optional={
                "points": POINTS,
                "linspace": listed(st.integers(-3, 5), 4),
                "grid": mostly(st.booleans()),
                "pairs": listed(st.lists(NUMBERS, max_size=4)),
                "radii": mostly(st.one_of(listed(st.floats(0.0, 4.0)), POINTS)),
            },
        ),
        POINTS,
    )
)
CONFIGS = st.fixed_dictionaries(
    {
        "command": st.sampled_from([c for c in COMMANDS if c != "check"]),
        "mu": listed(st.sampled_from([0.0, 0.5, 1.5]), 2, 1),
        "M": mostly(st.integers(0, 4)),
        "n": mostly(st.sampled_from([20, 24])),
        "q_nodes": mostly(st.integers(10, 16)),
        "function": FUNCTIONS,
    },
    optional={
        "alpha": mostly(st.floats(-4.0, 4.0)),
        "r": mostly(st.floats(0.05, 1.0)),
        "route": mostly(st.sampled_from(["spectral", "integral", "smoothed"])),
        "L": mostly(st.sampled_from([6.0, 8.0])),
        "s_min": mostly(st.floats(0.0, 0.3)),
        "outputs": OUTPUTS,
        "order": mostly(st.floats(-0.5, 2.5)),
        "vary": mostly(st.sampled_from(["r", "alpha"])),
        "values": listed(st.floats(0.05, 0.95)),
        "projections": listed(st.integers(-1, 5)),
        "resolvent_lambda": listed(NUMBERS),
        "seed": mostly(st.integers(0, 99)),
    },
)


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(config=CONFIGS)
def test_run_exits_cleanly_on_any_config_shape(config):
    with tempfile.TemporaryDirectory() as out:
        assert run(config, out_dir=out) in (0, 1, 2)


# Strings hold what the writer's separators are made of: ", ", "]", "[",
# newlines (escaped by JSON), quotes and non-ASCII text.
JSON_TEXT = st.text(alphabet=st.sampled_from(list(", ][\n\"\\:aé\u03bb\U0001d400")), max_size=6)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from([-0.0, math.nan]), JSON_TEXT
)
JSON_TABLES = st.lists(st.lists(JSON_SCALARS, max_size=4), max_size=4)
JSON_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, JSON_TABLES),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(obj=JSON_VALUES)
def test_pretty_matches_json_dumps(obj):
    assert _pretty(obj) == json.dumps(obj, indent=2, sort_keys=True)


def _csv_lines(header_cols, rows, config):
    """The CSV text as the writer built it whole, before it streamed blocks."""
    lines = [f"# dunkl-frft {__version__}", f"# config: {json.dumps(config, sort_keys=True)}"]
    lines.append("# " + ",".join(header_cols))
    for row in rows:
        lines.append(",".join(f"{v:.15e}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _assert_streams_match(rows):
    """rows (a float array or a list of rows) through the streamed JSON and
    CSV writers against json.dumps and _csv_lines of the whole table."""
    table = rows.tolist() if isinstance(rows, np.ndarray) else rows
    width = len(table[0]) if table else 1
    cols = [f"c{j}" for j in range(width)]
    config = {"command": "transform", "outputs": {"rows": []}, "rows": [[1.5, "a"]]}
    payload = {"version": __version__, "config": config, "columns": cols, "summary": {"k": 0.25}}
    streamed = "".join(_json_chunks(payload, rows))
    assert streamed == json.dumps(dict(payload, rows=table), indent=2, sort_keys=True) + "\n"
    if table:
        # the table alone, at the indent of a top-level payload value
        assert "".join(_table(rows, "\n  ")) == json.dumps(table, indent=2).replace("\n", "\n  ")
    assert "".join(_csv_chunks(cols, rows, config)) == _csv_lines(cols, table, config)


ROW_COUNTS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 1e16, 0.1, 1.0 / 3.0]


@pytest.mark.parametrize("count", ROW_COUNTS)
@pytest.mark.parametrize("width", range(1, 7))
def test_streamed_edge_tables_match_whole_encodings(count, width):
    # every edge value in every column, across each block boundary
    rows = np.resize(np.array(EDGE_FLOATS), count * width).reshape(count, width)
    _assert_streams_match(rows)
    _assert_streams_match(rows.tolist())


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    count=st.sampled_from(ROW_COUNTS),
    width=st.integers(1, 6),
    pool=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False),
                            st.integers(-(2**53), 2**53).map(float)), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_tables_match_whole_encodings(count, width, pool, seed):
    rows = np.random.default_rng(seed).choice(np.array(pool, dtype=float), size=(count, width))
    _assert_streams_match(rows)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(rows=st.lists(st.tuples(JSON_TEXT, st.floats(allow_nan=False, allow_infinity=False),
                               st.integers(0, 1)).map(list), max_size=2 * _BLOCK_ROWS + 1))
def test_streamed_list_rows_match_whole_encodings(rows):
    # list rows mixing text, floats and ints, as the check command writes
    _assert_streams_match(rows)
