"""Property tests of the two JSON wire formats and `llab decompose`.

Every input either parses into something valid or is refused with a
ValueError that `llab decompose` turns into exit code 2; nothing else
escapes.  The draws lean toward nearly valid documents (small n, 2 x 2
matrices built from 0, +-1 and the non-finite floats), so that the checks
past the first field are reached too.  The form parser's exact-type fast
path accepts, refuses and words its refusals as the entry-by-entry
reference parser does.
"""

from __future__ import annotations

import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_loops import ref_form_from_json

from llab.algebra import WIRE_MAX_N, form_from_json, triple_from_json
from llab.cli import main

# derandomized and without an example database: the same examples on
# every run, and about a second for the three properties together
FUZZ = settings(max_examples=40, derandomize=True, database=None, deadline=None)

# the wire formats' own field names, so that random objects hit them; a
# fixed alphabet also spares Hypothesis its full Unicode table
_names = st.sampled_from(
    ["n", "k", "coeffs", "idx", "re", "im", "omega", "J", "g", "standard", "form", "triple", "x"]
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | _names
)
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_names, inner, max_size=4),
    max_leaves=12,
)
_entries = st.sampled_from([0.0, 1.0, -1.0, 0.5, math.nan, math.inf, -math.inf])
_matrix2 = st.lists(st.lists(_entries, min_size=2, max_size=2), min_size=2, max_size=2)
_small_n = st.integers(min_value=-1, max_value=WIRE_MAX_N + 2) | st.integers()


@st.composite
def forms(draw, n=_small_n):
    n = draw(n)
    coeff = st.fixed_dictionaries(
        {"idx": st.lists(st.integers(min_value=0, max_value=5), max_size=4) | json_values},
        optional={"re": _entries | json_values, "im": _entries | json_values},
    )
    k = draw(st.integers(min_value=-1, max_value=5))
    return {"n": n, "k": k, "coeffs": draw(st.lists(coeff, max_size=3))}


@st.composite
def near_standard_triples(draw):
    """The standard n = 1 triple, with or without g, one entry redrawn."""
    mats = {"omega": [[0.0, 1.0], [-1.0, 0.0]], "J": [[0.0, -1.0], [1.0, 0.0]], "g": [[1.0, 0.0], [0.0, 1.0]]}
    name = draw(st.sampled_from(sorted(mats)))
    mats[name][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(_entries)
    if draw(st.booleans()):
        return {"n": 1, **mats}
    return {"omega": mats["omega"], "J": mats["J"]}


triples = (
    st.fixed_dictionaries({"standard": _small_n})
    | st.fixed_dictionaries({"omega": _matrix2, "J": _matrix2})
    | near_standard_triples()
)


@FUZZ
@given(json_values | forms())
def test_form_from_json_parses_or_raises_value_error(obj):
    try:
        a = form_from_json(obj)
    except ValueError:
        return
    assert 1 <= a.n <= WIRE_MAX_N and 0 <= a.k <= 2 * a.n
    assert np.isfinite(a.data).all()


@FUZZ
@given(json_values | triples)
def test_triple_from_json_accepts_only_finite_compatible_triples(obj):
    try:
        t = triple_from_json(obj)
    except ValueError:
        return
    assert 1 <= t.n <= WIRE_MAX_N
    assert all(np.isfinite(m).all() for m in (t.omega, t.J, t.g))
    t.validate()  # an accepted triple is compatible


@settings(FUZZ, max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.fixed_dictionaries({"triple": triples | json_values, "form": forms(st.integers(1, 3)) | json_values})
    | json_values
)
def test_decompose_exits_zero_or_two(capsys, doc):
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "in.json", Path(tmp) / "out.json"
        inp.write_text(json.dumps(doc))
        rc = main(["decompose", str(inp), str(out)])
    err = capsys.readouterr().err
    assert rc in (0, 2)
    assert "Traceback" not in err
    assert (rc == 2) == err.startswith("error: ")


def _parsed(parse, obj):
    """What `parse` makes of obj: its coefficients, or its ValueError's text."""
    try:
        return "accepted", parse(obj).data.tolist()
    except ValueError as e:
        return "refused", str(e)


# index and coefficient values that a JSON document can hold, valid or not
_indices = st.sampled_from([1, 2, 3, 4, 0, 5, -1, True, False, 2.0, "1", None])
_numbers = st.sampled_from(
    [0.5, -2.0, 0.0, -0.0, 1e300, math.nan, math.inf, -math.inf]
    + [1, -3, 0, 2**70, True, False, "1.0", None, [1.0]]
)


def _one_in(m):
    """True once in m draws (Hypothesis would draw the bounds of an integer
    range far more often)."""
    return st.integers(0, m - 1).map(lambda i: i == m // 2)


@st.composite
def wire_forms(draw):
    """A form document whose entries are mostly well formed, so that basis
    elements repeat, with malformed entries of every kind mixed in."""
    n, k = draw(st.sampled_from([(2, 2), (2, 2), (1, 1), (2, 0), (2, 3)]))
    basis = [list(c) for c in itertools.combinations(range(1, 2 * n + 1), k)]
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        if not draw(_one_in(4)):
            idx, re, im = draw(st.sampled_from(basis)), draw(st.floats(-4, 4)), draw(st.floats(-4, 4))
        else:
            idx = st.lists(st.integers(-1, 5), max_size=3) | st.lists(_indices, max_size=3)
            idx = draw(idx | st.sampled_from(basis).map(tuple) | _numbers)
            re, im = draw(_numbers | st.floats(-4, 4)), draw(_numbers | st.floats(-4, 4))
        entry = {"idx": idx, "re": re, "im": im}
        for key in ("idx", "re", "im"):
            if draw(_one_in(20)):
                del entry[key]
        if draw(_one_in(10)):
            entry["x"] = draw(_numbers)
        entries.append(draw(_numbers) if draw(_one_in(30)) else entry)
    return {"n": n, "k": k, "coeffs": entries}


@settings(FUZZ, max_examples=400)
@given(wire_forms())
def test_form_from_json_agrees_with_the_reference_parser(obj):
    assert _parsed(form_from_json, obj) == _parsed(ref_form_from_json, obj)


@pytest.mark.parametrize(
    "entry",
    [
        {"idx": [True, 2], "re": 1.0},
        {"idx": [1.0, 2], "re": 1.0},
        {"idx": ["1", 2], "re": 1.0},
        {"idx": [1, 2], "re": math.nan},
        {"idx": [1, 2], "re": 1.0, "im": math.inf},
        {"idx": [1, 2], "re": -math.inf},
        {"idx": [1, 2], "re": 3, "im": -1},
        {"idx": [1, 2], "re": True},
        {"idx": [1, 2], "re": 1.0, "im": False},
        {"idx": [1, 2], "re": 2.5},
        {"idx": [1, 2], "re": 2.5, "im": 0.5, "note": "extra key"},
        {"idx": [1, 2, 3], "re": 1.0},
        {"idx": [2, 1], "re": 1.0},
        {"idx": [2, 2], "re": 1.0},
        {"idx": [3, 4], "re": 1.0},
        {"idx": [3, 4], "re": 1},
        {"idx": [1, 5], "re": 1.0},
        {"idx": (1, 2), "re": 1.0},
        {"re": 1.0},
        [1, 2],
    ],
)
def test_each_kind_of_entry_is_parsed_as_the_reference_parses_it(entry):
    # the first entry gives [3, 4], which the entry under test may repeat,
    # through the exact type tests or (an int 're') through the full checks
    obj = {"n": 2, "k": 2, "coeffs": [{"idx": [3, 4], "re": 0.25, "im": 0.0}, entry]}
    assert _parsed(form_from_json, obj) == _parsed(ref_form_from_json, obj)

