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
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = ("schema_version", "suite", "group", "name", "value")

# the default tolerance of each suite's verdict, for the CLI and for a
# SuiteConfig built without one: the identity and torus checks are exact
# algebra, the hyperbolic residual is an eigenpair certificate at rel_tol 1e-8
DEFAULT_TOLERANCE = {"verify-identities": 1e-10, "torus": 1e-10, "hyperbolic": 1e-8}
# the default seed of each suite that draws random numbers; the hyperbolic
# suite draws none that a seed could choose, and takes no seed
DEFAULT_SEED = {"verify-identities": 7, "torus": 7}


def code_version() -> str:
    from llab import __version__

    return __version__


@dataclass(frozen=True)
class SuiteConfig:
    """Everything that determines a suite run's numbers.

    `params` holds the suite-specific knobs (n values, cutoffs, mesh
    sizes, ...).  The hash covers suite, params, seed and tolerance --
    the semantic content -- and ignores routing: output directory and
    formats.  A tolerance left at None becomes the suite's
    DEFAULT_TOLERANCE; one that is not finite, or negative, is a ValueError.
    A seed left at None becomes the suite's DEFAULT_SEED; a suite with
    none (hyperbolic) takes no seed, and its hash and config block carry
    none.
    """

    suite: str
    seed: int | None = None
    tolerance: float | None = None
    params: dict = field(default_factory=dict)
    out_dir: str | None = None
    formats: tuple[str, ...] = ("json",)

    def __post_init__(self):
        if self.tolerance is None:
            if self.suite not in DEFAULT_TOLERANCE:
                raise ValueError(f"unknown suite id {self.suite!r}")
            object.__setattr__(self, "tolerance", DEFAULT_TOLERANCE[self.suite])
        if self.seed is None:
            object.__setattr__(self, "seed", DEFAULT_SEED.get(self.suite))
        elif self.suite in DEFAULT_TOLERANCE and self.suite not in DEFAULT_SEED:
            raise ValueError(f"suite {self.suite} draws nothing a seed chooses: it takes no seed")
        # 0 is legal and fails every residual; inf or nan would pass vacuously
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance!r}")
        bad = [f for f in self.formats if f not in ("json", "csv")]
        if bad:
            raise ValueError(f"unknown format(s) {bad}; expected json|csv")

    def semantic_dict(self) -> dict:
        seed = {} if self.seed is None else {"seed": self.seed}
        return {"suite": self.suite, **seed, "tolerance": self.tolerance, "params": dict(self.params)}

    def config_hash(self) -> str:
        payload = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


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
    import numpy as np

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
    that `indent` selects in the standard library.
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
        if type(o) is list and _write_coefficients(o, parts, nl):
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
    else:
        _write_json(_json_default(o), parts, nl)


def _write_coefficients(o: list, parts: list, nl: str) -> bool:
    """Write `o`, a list of form coefficients `{"idx": [int, ...], "im": float,
    "re": float}` with finite floats, in one loop over their cached texts;
    False, writing nothing, if any item is something else.  Coefficient
    lists make up most of a decompose output, and the cached texts spare
    the generic writer's key sort and per-item calls on each entry."""
    rows = []
    for v in o:
        if type(v) is not dict or len(v) != 3:
            return False
        idx, im, re = v.get("idx"), v.get("im"), v.get("re")
        if not (type(idx) is list and type(im) is float and type(re) is float):
            return False
        if not (math.isfinite(im) and math.isfinite(re)):
            return False
        rows.append((idx, im, re))
    # exact ints: an index tuple keys the frame cache, and (True,) == (1,) == (1.0,)
    if not {*map(type, itertools.chain.from_iterable(row[0] for row in rows))} <= {int}:
        return False
    inner = nl + "  "
    mid, tail = f',{inner}  "re": ', inner + "}"
    texts = [f"{_coefficient_head(inner, tuple(idx))}{im!r}{mid}{re!r}{tail}" for idx, im, re in rows]
    parts.append("[" + inner + ("," + inner).join(texts) + nl + "]")
    return True


@functools.lru_cache(maxsize=4096)
def _coefficient_head(nl: str, idx: tuple) -> str:
    """The text of a coefficient entry at indent `nl` up to its "im" value."""
    inner = nl + "  "
    parts = ["{" + inner + '"idx": ']
    _write_json(list(idx), parts, inner)
    parts.append("," + inner + '"im": ')
    return "".join(parts)


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
        else:
            import numpy as np

            if isinstance(node, (np.integer, np.floating, np.bool_)):
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


def evaluate_verdict(verdict: dict) -> bool:
    """The one verdict rule, shared by suite authors and report consumers.

    verdict = {"max_residual": float|None, "tolerance": float|None,
               "checks": {name: bool, ...}}
    passes iff the residual clears the tolerance (when both are present)
    and every named check is True.
    """
    ok = all(bool(v) for v in verdict.get("checks", {}).values())
    mr = verdict.get("max_residual")
    tol = verdict.get("tolerance")
    if mr is not None and tol is not None:
        ok = ok and (mr < tol)
    return ok


def verdict_from_report(report: dict) -> bool:
    """Recompute the verdict from a parsed report (parser/emitter closure).

    Reports carry their verdict inputs in report["report"]["verdict"];
    re-evaluating them must reproduce the recorded `passed` flag exactly.
    """
    body = report.get("report", {})
    verdict = body.get("verdict")
    if verdict is None:
        raise ValueError("report has no verdict block")
    return evaluate_verdict(verdict)
