"""Report plumbing: configs, bundles, deterministic JSON, versioned CSV.

Determinism contract: identical SuiteConfig => byte-identical JSON report
except for the single `provenance.timestamp` field.  Everything else is
emitted with sorted keys and Python's shortest round-trip float repr, and
no other wall-clock, hostname, or path-dependent data enters the payload.

CSV contract: the flat residual table has a fixed, versioned column
schema.  Changing columns without bumping CSV_SCHEMA_VERSION is a test
failure (tests pin the pair).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import inspect
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from llab import algebra
from llab.suites import evaluate_verdict, suite_function

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = ("schema_version", "suite", "group", "name", "value")


def code_version() -> str:
    from llab import __version__

    return __version__


@dataclass(frozen=True)
class SuiteConfig:
    """Everything that determines a suite run's numbers, completed from
    the signature of the suite's function (`llab.suites.suite_function`).

    `params` holds every parameter but `seed` and `tol`, given or
    defaulted, `n_values` ascending, a whole number given for a float
    default as that float (`_like`) and a numpy value as its Python value
    (`_plain`), and the tolerance is a float: one run has one hash.  A
    param the function does not take, a bool seed or tolerance, a
    tolerance that is not finite or is negative, a seed that is not a
    non-negative integer, any seed for a suite that takes none (torus,
    hyperbolic), and no format are ValueErrors.  A tolerance or seed left
    at None is the default of `tol` or `seed`.  The hash covers
    suite, params, seed and tolerance -- the semantic content -- and ignores
    routing: output directory and formats.
    """

    suite: str
    seed: int | None = None
    tolerance: float | None = None
    params: dict = field(default_factory=dict)
    out_dir: str | None = None
    formats: tuple[str, ...] = ("json",)

    def __post_init__(self):
        signature = inspect.signature(suite_function(self.suite)).parameters
        defaults = {name: p.default for name, p in signature.items() if name not in ("seed", "tol")}
        unknown = sorted(set(self.params) - set(defaults))
        if unknown:
            raise ValueError(
                f"suite {self.suite} takes no param(s) {', '.join(map(repr, unknown))}; "
                f"it takes {', '.join(sorted(defaults))}"
            )
        params = {name: _like(_plain(self.params.get(name, default)), default) for name, default in defaults.items()}
        if "n_values" in params:
            params["n_values"] = sorted(params["n_values"])
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "seed", _plain(self.seed))
        object.__setattr__(self, "tolerance", _plain(self.tolerance))
        for name in ("seed", "tolerance"):
            # a bool is an int to Python, and True would run as seed 1
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got the bool {getattr(self, name)!r}")
        if self.tolerance is None:
            object.__setattr__(self, "tolerance", signature["tol"].default)
        if "seed" not in signature:
            if self.seed is not None:
                raise ValueError(f"suite {self.suite} draws nothing a seed chooses: it takes no seed")
        elif self.seed is None:
            object.__setattr__(self, "seed", signature["seed"].default)
        elif not (isinstance(self.seed, int) and self.seed >= 0):
            # numpy's own refusal would name neither the seed nor its value
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        # 0 is legal and fails every residual; inf or nan would pass vacuously
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance!r}")
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if not self.formats:
            raise ValueError("no report format given; expected json|csv")
        bad = [f for f in self.formats if f not in ("json", "csv")]
        if bad:
            raise ValueError(f"unknown format(s) {bad}; expected json|csv")

    def semantic_dict(self) -> dict:
        seed = {} if self.seed is None else {"seed": self.seed}
        return {"suite": self.suite, **seed, "tolerance": self.tolerance, "params": dict(self.params)}

    def config_hash(self) -> str:
        payload = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _plain(value):
    """`value` with every numpy scalar and array in it made the Python
    value it holds, so that a config given numpy values hashes as its
    plain twin does."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    return value


def _like(value, default):
    """`value` with each whole number whose default is a float made that
    float: R_values [2, 4] and [2.0, 4.0] are one run, and hash alike."""
    if isinstance(default, float) and isinstance(value, int):
        return float(value)
    if isinstance(default, tuple) and default and isinstance(value, (list, tuple)):
        return [_like(v, default[0]) for v in value]
    return value


@dataclass
class ReportBundle:
    """A finished suite run: payload, verdict, provenance."""

    suite: str
    config: SuiteConfig
    payload: dict
    passed: bool

    def to_json_dict(self, timestamp: str | None = None) -> dict:
        if timestamp is None:
            timestamp = datetime.now(timezone.utc).isoformat()
        return {
            "suite": self.suite,
            "config": self.config.semantic_dict(),
            "report": self.payload,
            "passed": self.passed,
            "provenance": {
                "config_hash": self.config.config_hash(),
                "code_version": code_version(),
                "timestamp": timestamp,
            },
        }

    def json_bytes(self, timestamp: str | None = None) -> bytes:
        return dump_json_deterministic(self.to_json_dict(timestamp))

    def csv_bytes(self) -> bytes:
        rows = flatten_residuals(self.suite, self.payload)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for group, name, value in rows:
            w.writerow([CSV_SCHEMA_VERSION, self.suite, group, name, _csv_value(value)])
        return buf.getvalue().encode()

    def write(self, out_dir: str | os.PathLike) -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        if "json" in self.config.formats:
            p = out / f"{self.suite}.json"
            p.write_bytes(self.json_bytes())
            written.append(p)
        if "csv" in self.config.formats:
            p = out / f"{self.suite}.csv"
            p.write_bytes(self.csv_bytes())
            written.append(p)
        return written


def _json_default(o):
    if isinstance(o, algebra.KForm):
        return algebra.form_to_json(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.bool_,)):
        return bool(o)
    raise TypeError(f"not JSON-serializable: {type(o)}")


def dump_json_deterministic(obj: dict) -> bytes:
    """Sorted keys, round-trip floats, trailing newline; no other state.

    The bytes of `json.dumps(obj, sort_keys=True, indent=2,
    default=_json_default) + "\\n"`, written without the pure-Python encoder
    that `indent` selects in the standard library.  A single KForm anywhere
    in `obj` is written as `form_to_json` of it, straight from its array
    (`_write_form`); a batch raises form_to_json's ValueError.
    """
    parts: list[str] = []
    _write_json(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts).encode()


_encode_str = json.encoder.encode_basestring_ascii


def _float_str(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _key_str(key) -> str:
    """A dict key as json writes it: the text of a scalar key, quoted."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        return _encode_str(_float_str(key))
    if key is True or key is False or key is None:
        return {True: '"true"', False: '"false"', None: '"null"'}[key]
    if isinstance(key, int):
        return _encode_str(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(o, parts: list, nl: str) -> None:
    """Append the indent-2 text of `o` to `parts`, `nl` being the newline and
    indent of the line it starts on; types are tested in json's order."""
    if isinstance(o, str):
        parts.append(_encode_str(o))
    elif o is None:
        parts.append("null")
    elif o is True:
        parts.append("true")
    elif o is False:
        parts.append("false")
    elif isinstance(o, int):
        parts.append(int.__repr__(o))
    elif isinstance(o, float):
        parts.append(_float_str(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        inner = nl + "  "
        parts.append("[")
        for i, v in enumerate(o):
            parts.append("," + inner if i else inner)
            _write_json(v, parts, inner)
        parts.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = nl + "  "
        parts.append("{")
        for i, (key, v) in enumerate(sorted(o.items())):
            parts.append(("," + inner if i else inner) + _key_str(key) + ": ")
            _write_json(v, parts, inner)
        parts.append(nl + "}")
    elif isinstance(o, algebra.KForm):
        _write_form(o, parts, nl)
    else:
        _write_json(_json_default(o), parts, nl)


def _write_form(a, parts: list, nl: str) -> None:
    """Append the text of `algebra.form_to_json(a)` at `nl`, written from
    a.data without building it: one pass finds the nonzero coefficients,
    then each is written as its basis element's cached head and the two
    float texts.  A batch raises form_to_json's ValueError."""
    data = algebra._wire_data(a)
    inner = nl + "  "
    nz = data.nonzero()[0]  # np.flatnonzero of a 1-D array, without its ravel
    if nz.size:
        opening, heads, mid, sep, closing = _form_frame(2 * a.n, a.k, nl)
        values = data[nz]
        re, im = values.real.tolist(), values.imag.tolist()
        # a sum is not finite if a term is not; a finite sum that overflows
        # only sends finite values through the exact, slower _float_str
        text = float.__repr__ if math.isfinite(sum(re) + sum(im)) else _float_str
        parts.append(opening)
        parts.extend(itertools.chain.from_iterable(zip(
            map(heads.__getitem__, nz.tolist()), map(text, im), itertools.repeat(mid), map(text, re),
            itertools.repeat(sep),
        )))
        parts[-1] = closing  # in place of the last separator
    else:
        parts.append("{" + inner + '"coeffs": [],')
    parts.append(inner + '"k": ')
    _write_json(a.k, parts, inner)
    parts.append("," + inner + '"n": ')
    _write_json(a.n, parts, inner)
    parts.append(nl + "}")


@functools.lru_cache(maxsize=256)
def _form_frame(dim: int, k: int, nl: str) -> tuple[str, tuple[str, ...], str, str, str]:
    """The fixed texts of a degree-k form on R^dim written at `nl`:
    (opening up to the first coefficient entry, the head of each basis
    element's entry up to its "im" value, the text between "im" and "re",
    the text between two entries, the text after the last entry up to the
    "k" line)."""
    inner = nl + "  "
    entry = inner + "  "
    member = entry + "  "
    heads = []
    for idx in algebra._basis_indices(dim, k):
        head = ["{" + member + '"idx": ']
        _write_json(list(idx), head, member)
        head.append("," + member + '"im": ')
        heads.append("".join(head))
    return (
        "{" + inner + '"coeffs": [' + entry,
        tuple(heads),
        "," + member + '"re": ',
        entry + "}," + entry,
        entry + "}" + inner + "],",
    )


def _csv_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def flatten_residuals(suite: str, payload: dict) -> list[tuple[str, str, object]]:
    """Depth-first flattening of numeric/boolean leaves into (group, name, value).

    The group is the dotted path up to the leaf's parent.  Lists index
    numerically.  Strings are kept (normalization labels are data too).
    """
    rows: list[tuple[str, str, object]] = []

    def walk(node, path: str):
        if isinstance(node, dict):
            for key in sorted(node, key=str):
                walk(node[key], f"{path}.{key}" if path else str(key))
        elif isinstance(node, (list, tuple)):
            for i, item in enumerate(node):
                walk(item, f"{path}[{i}]")
        elif isinstance(node, (int, float, bool, str)) or node is None:
            group, _, name = path.rpartition(".")
            rows.append((group, name, node))
        elif isinstance(node, (np.integer, np.floating, np.bool_)):
            group, _, name = path.rpartition(".")
            rows.append((group, name, node.item()))

    walk(payload, "")
    return rows


def load_report(path: str | os.PathLike) -> dict:
    return json.loads(Path(path).read_bytes())


def strip_timestamp(report: dict) -> dict:
    """The report minus its single timestamp field (for byte comparisons)."""
    out = json.loads(json.dumps(report))
    out.get("provenance", {}).pop("timestamp", None)
    return out


def verdict_from_report(report: dict) -> bool:
    """Recompute the verdict from a parsed report (parser/emitter closure).

    A report body carries its verdict's inputs, `max_residual`,
    `tolerance` and `checks`, at its top beside the recorded `passed`;
    `evaluate_verdict` of them must reproduce that flag exactly.
    """
    body = report.get("report", {})
    if not {"max_residual", "tolerance", "checks"} <= body.keys():
        raise ValueError("report body carries no verdict: it lacks max_residual, tolerance or checks")
    return evaluate_verdict(body)
