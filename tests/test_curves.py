"""The CSV/JSON emitters: the JSON text is json.dumps's, byte for byte."""

import json

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ranksinr import curves

# quotes, backslashes, commas, newlines, brackets and non-ASCII, plus any text
texts = st.text(alphabet='"\\,\n\t[]: aé€😀') | st.text()
scalars = st.one_of(
    st.floats(),  # NaN, +-inf, -0.0 and subnormals included
    st.floats().map(np.float64),
    st.integers(),
    texts,
)
EDGE_ROW = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
            np.float64(0.1), np.float64("nan"), 2**70, -3,
            'say "hi"', "back\\slash", "a,b", "two\nlines", "né€😀", ""]


@settings(max_examples=300, deadline=None)
@given(st.lists(texts, max_size=4),
       st.lists(st.lists(scalars, max_size=5), max_size=6),
       st.dictionaries(texts, texts, max_size=4))
@example([], [], {})
@example(["x"], [[]], {"k": "v"})
@example(["x", "y"], [[], [1.5], [], [2, "],\n   ["], []], {})
@example(["gamma0_db", "outage"], [EDGE_ROW, EDGE_ROW[::-1]], {"tool": "ranksinr"})
def test_render_json_is_json_dumps_byte_for_byte(columns, rows, meta):
    expected = json.dumps({"columns": columns, "meta": meta, "rows": rows},
                          sort_keys=True, indent=1) + "\n"
    assert curves.render_json(columns, rows, meta) == expected
