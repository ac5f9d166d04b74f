"""`dump_json_deterministic` writes exactly the bytes of the standard
library's `json.dumps(obj, sort_keys=True, indent=2, default=_json_default)`
plus a newline, on arbitrary nested objects, on documents that hold KForms
(which `_json_default` maps to `form_to_json`), and on every document llab
writes: decompose outputs over every (n, k) with n <= 4, and a report of
each suite.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import llab.algebra
import llab.cli
from llab.algebra import KForm, form_to_json, random_compatible_triple, triple_to_json
from llab.cli import decompose_file, run_suite
from llab.reports import SuiteConfig, _json_default, _write_form, dump_json_deterministic

# derandomized and without an example database: the same examples on every run
FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _stdlib(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n").encode()


# escapes, control characters, non-ASCII and an astral character (a
# surrogate pair in the output), plus plain ASCII
_chars = st.sampled_from(["é", "ω", " ", "😀", "\x00", "\x1f", "\n", "\t", '"', "\\", "/", "\x7f"])
_text = st.text(_chars | st.characters(max_codepoint=0x7F), max_size=6)
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 5e-324, 1e300, 0.1 + 0.2])
_ints = st.integers() | st.sampled_from([2**64, -(2**100), 10**40])
_numpy = st.one_of(
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.integers(-5, 5), max_size=4).map(np.array),
    st.lists(_floats, max_size=3).map(lambda v: np.array(v, dtype=float).reshape(-1, 1)),
)

# single forms with n <= 3, each coefficient zero or drawn from _floats
# (NaN, infinities and -0.0 included) in each part
@st.composite
def _kforms(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 2 * n))
    part = st.sampled_from([0.0]) | _floats
    size = math.comb(2 * n, k)
    data = np.empty(size, dtype=complex)  # set part by part: 1j * inf is nan + inf j
    data.real, data.imag = (draw(st.lists(part, min_size=size, max_size=size)) for _ in range(2))
    return KForm(n, k, data)


_scalars = st.none() | st.booleans() | _ints | _floats | _text | _numpy | _kforms()
# keys of one kind per dict, so that sorting them is defined
_key_kinds = [_text, _ints | st.booleans(), _floats | _ints, st.none()]


def _dicts(values):
    return st.one_of(*(st.dictionaries(keys, values, max_size=4) for keys in _key_kinds))


json_objects = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple) | _dicts(inner),
    max_leaves=16,
)
# coefficient entries as plain dicts, which take the generic path, and
# dicts of their shape whose 'idx', 're' or 'im' has another type: bools and
# floats among the indices equal ints, so a cache keyed by them would mix them
_coeffs = st.fixed_dictionaries(
    {"idx": st.lists(st.integers(1, 12), max_size=6), "re": _floats, "im": _floats | _ints}
)
_index_like = st.integers(1, 12) | st.booleans() | st.sampled_from([1.0, 2.0, np.int64(3)])
_coefficient_like = st.fixed_dictionaries(
    {
        "idx": st.lists(_index_like, max_size=4) | st.lists(st.integers(1, 12), max_size=4).map(tuple)
        | _scalars,
        "re": _floats | _ints | st.booleans() | st.none() | _numpy,
        "im": _floats | _ints | st.booleans() | _text,
    }
)
_coefficient_lists = st.lists(_coeffs | _coefficient_like | _dicts(_scalars), max_size=4)
# well-formed entries, as form_to_json writes them, then one broken in one
# place, the last
_finite = st.floats(allow_nan=False, allow_infinity=False)
_well_formed = st.fixed_dictionaries(
    {"idx": st.lists(st.integers(1, 12), max_size=6), "re": _finite, "im": _finite}
)
_BREAKS = {
    "nan_im": lambda e: {**e, "im": math.nan},
    "bool_in_idx": lambda e: {**e, "idx": e["idx"] + [True]},
    "fourth_key": lambda e: {**e, "x": 0.0},
}
_bad_last = st.tuples(st.lists(_well_formed, max_size=4), _well_formed, st.sampled_from(sorted(_BREAKS))).map(
    lambda c: c[0] + [_BREAKS[c[2]](c[1])]
)


@FUZZ
@given(
    json_objects | st.lists(_coeffs, max_size=3) | _dicts(_coeffs) | _coefficient_lists | _dicts(_coefficient_lists)
    | _bad_last
)
def test_writer_matches_stdlib_bytes(obj):
    assert dump_json_deterministic(obj) == _stdlib(obj)


@pytest.mark.parametrize("kind", sorted(_BREAKS))
def test_a_malformed_last_entry_takes_the_generic_path(kind):
    # a KForm is written from its array as the text of its form_to_json
    # dict; that dict's coefficient list, as a plain value, well formed or
    # with its last entry broken, is written by the generic path
    a = KForm(2, 2, np.arange(6) * (0.5 - 1.5j))
    good = form_to_json(a)["coeffs"]
    obj = good[:-1] + [_BREAKS[kind](good[-1])]
    parts = []
    _write_form(a, parts, "\n")
    assert "".join(parts) == json.dumps(form_to_json(a), sort_keys=True, indent=2)
    for doc in ({"form": a}, good, obj):
        assert dump_json_deterministic(doc) == _stdlib(doc)


@pytest.mark.parametrize("idx", [[True, 2], [1.0, 2], [np.int64(1), 2]])
def test_an_index_equal_to_an_int_does_not_take_its_frame(idx):
    # the look-alike first, then the int entry, then the look-alike again:
    # neither may be written with the other's cached text
    for first in (idx, [1, 2], idx):
        obj = [{"idx": first, "im": 0.5, "re": -1.5}, {"idx": [3], "im": 0.0, "re": 2.0}]
        assert dump_json_deterministic(obj) == _stdlib(obj)


def _random_form(rng, n, k, zeros=0.0):
    """A form with independent normal parts, each coefficient zero with
    probability `zeros`."""
    size = math.comb(2 * n, k)
    data = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return KForm(n, k, np.where(rng.random(size) < zeros, 0, data))


def test_forms_of_every_degree_up_to_n4_match_stdlib_bytes():
    rng = np.random.default_rng(34)
    for n in range(1, 5):
        for k in range(2 * n + 1):
            for zeros in (0.0, 0.5):
                a = _random_form(rng, n, k, zeros)
                doc = {"form": a, "n": n, "pair": [a, a.conjugate()]}
                assert dump_json_deterministic(doc) == _stdlib(doc), (n, k, zeros)


def test_a_zero_form_writes_an_empty_coefficient_list():
    doc = {"zero": KForm(2, 2, np.zeros(6))}
    text = dump_json_deterministic(doc)
    assert text == _stdlib(doc)
    assert b'"coeffs": [],' in text


def test_a_degree_0_form_writes_an_empty_index_list():
    doc = {"scalar": KForm(3, 0, [1.5 - 2j])}
    text = dump_json_deterministic(doc)
    assert text == _stdlib(doc)
    assert b'"idx": [],' in text


def test_non_finite_and_signed_zero_coefficients_match_stdlib_bytes():
    inf, nan = math.inf, math.nan
    for values in (
        [complex(nan, 0.0), complex(inf, -0.0), complex(-inf, 1.0), complex(-0.0, -inf)],
        [complex(-0.0, 1.0), complex(2.0, -0.0), complex(0.0, nan), 1.0],  # finite but for one
        [complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -2.0), 0.0],  # finite, signed zeros
        [complex(1e308, -1e308), complex(1e308, -1e308), 5e-324, -0.0],  # finite, their sums overflow
    ):
        doc = {"form": KForm(1, 1, [values[0], values[1]]), "two": KForm(2, 1, values)}
        assert dump_json_deterministic(doc) == _stdlib(doc), values
    text = dump_json_deterministic({"form": KForm(1, 1, [complex(-0.0, 1.0), complex(nan, -inf)])})
    assert b'"re": -0.0' in text and b'"re": NaN' in text and b'"im": -Infinity' in text


def test_forms_at_three_nesting_depths_match_stdlib_bytes():
    rng = np.random.default_rng(3)
    a, b, c = (_random_form(rng, 2, k, 0.3) for k in (1, 2, 3))
    for doc in ({"a": a}, {"x": {"b": b, "y": 1}}, {"x": [{"c": [c, a]}]}, a, [a, {"b": b}]):
        assert dump_json_deterministic(doc) == _stdlib(doc)


def test_a_batch_form_raises_form_to_jsons_error():
    batch = KForm(1, 1, np.ones((2, 3)))
    with pytest.raises(ValueError) as wire:
        form_to_json(batch)
    for doc in (batch, {"x": [batch]}):
        with pytest.raises(ValueError) as written:
            dump_json_deterministic(doc)
        assert str(written.value) == str(wire.value) == "the wire format holds one form, got a batch of 3"


def test_decompose_writes_its_forms_without_form_to_json(tmp_path, monkeypatch):
    # the forms in the document decompose_file dumps are KForms, which the
    # writer writes from their arrays: form_to_json, made to raise while the
    # dump runs, is never called
    rng = np.random.default_rng(8)
    t = random_compatible_triple(3, rng)
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(json.dumps({"triple": triple_to_json(t), "form": form_to_json(_random_form(rng, 3, 3))}))
    real_dump, real_form_to_json = llab.cli.dump_json_deterministic, llab.algebra.form_to_json
    written = []

    def refuse(a):
        raise AssertionError("form_to_json called by the writer")

    def dump(doc):
        assert any(isinstance(v, KForm) for v in doc["bidegree_components"].values())
        monkeypatch.setattr(llab.algebra, "form_to_json", refuse)
        try:
            written.append(real_dump(doc))
        finally:
            monkeypatch.setattr(llab.algebra, "form_to_json", real_form_to_json)
        return written[-1]

    monkeypatch.setattr(llab.cli, "dump_json_deterministic", dump)
    result = decompose_file(inp, out)
    assert out.read_bytes() == written[0] == _stdlib(result)
    assert json.loads(written[0]) == result


def test_writer_refuses_what_stdlib_refuses():
    for bad in ({"x": object()}, {(1, 2): 1}, {"a": 1j}):
        with pytest.raises(TypeError):
            _stdlib(bad)
        with pytest.raises(TypeError):
            dump_json_deterministic(bad)


def test_decompose_outputs_match_stdlib_bytes(tmp_path):
    rng = np.random.default_rng(36)
    for i in range(36):  # n cycles through 1..4, each n through its degrees
        n = 1 + i % 4
        k = (i // 4) % (2 * n + 1)
        t = random_compatible_triple(n, rng)
        size = math.comb(2 * n, k)
        a = KForm(n, k, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        inp, out = tmp_path / f"in{i}.json", tmp_path / f"out{i}.json"
        inp.write_text(json.dumps({"triple": triple_to_json(t), "form": form_to_json(a)}))
        result = decompose_file(inp, out)
        assert out.read_bytes() == _stdlib(result), (n, k)


@pytest.mark.parametrize(
    "suite, params",
    [
        ("verify-identities", {"n_values": (1, 2), "cases": 20, "cross_cases": 10}),
        ("torus", {"n_values": (2,), "N": 1, "samples": 2}),
        ("hyperbolic", {"R_values": (2.0,), "h_values": (0.4, 0.3)}),
    ],
)
def test_suite_reports_match_stdlib_bytes(suite, params):
    bundle = run_suite(SuiteConfig(suite=suite, params=params))
    doc = bundle.to_json_dict(timestamp="2026-01-01T00:00:00+00:00")
    assert bundle.json_bytes(timestamp="2026-01-01T00:00:00+00:00") == _stdlib(doc)
