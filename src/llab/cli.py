"""Command-line front door: one binary, one subcommand per module suite.

    llab verify-identities --n 1,2,3,4 --cases 1000 --seed 7 --out reports/
    llab torus --n 2,3 --N 1 --samples 100 --out reports/
    llab hyperbolic --R 2,4 --h 0.2,0.1 --out reports/
    llab decompose input.json output.json

Exit code 0 iff every requested verdict passes (decompose: iff it
completes).  Reports are deterministic byte-for-byte apart from the
provenance timestamp.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np

from llab.reports import ReportBundle, SuiteConfig, dump_json_deterministic
from llab.suites import failure_notes, suite_function, worst_cell


def _comma_list(kind):
    """The option type of a comma list of `kind`, empty items skipped."""
    def parse(s: str) -> tuple:
        return tuple(kind(x) for x in s.split(",") if x.strip() != "")

    parse.__name__ = f"{kind.__name__} list"  # argparse names a bad value's type by it
    return parse


def _takes_seed(suite: str) -> bool:
    return "seed" in inspect.signature(suite_function(suite)).parameters


def run_suite(cfg: SuiteConfig) -> ReportBundle:
    """Run a SuiteConfig's suite on its params, seed (for a suite that
    takes one) and tolerance, and bundle the report; write it when the
    config names an output directory."""
    seed = {} if cfg.seed is None else {"seed": cfg.seed}
    payload = suite_function(cfg.suite)(**cfg.params, **seed, tol=cfg.tolerance)

    bundle = ReportBundle(suite=cfg.suite, config=cfg, payload=payload, passed=bool(payload["passed"]))
    if cfg.out_dir is not None:
        bundle.write(cfg.out_dir)
    return bundle


def decompose_file(in_path, out_path) -> dict:
    """Read a form + triple reference, write both decompositions.

    Input: {"triple": {...} | {"standard": n}, "form": {n, k, coeffs}}.
    Output carries the Lefschetz components (with primitivity residuals)
    and the bidegree components, each with reconstruction residuals.

    The document written holds the KForms themselves, which
    `dump_json_deterministic` writes from their arrays as `form_to_json`
    would; the dict returned is the same document with every form
    converted by `form_to_json`, so `json.loads` of the file equals it.
    The residuals are scaled by the input's norm; above the middle degree
    it is read through the complementary Gram block (`_complement_norm`),
    so that no Gram block above degree n is built.
    """
    from llab.algebra import (
        _complement_norm,
        form_from_json,
        form_to_json,
        norm,
        pq_decompose,
        triple_from_json,
    )
    from llab.lefschetz import _primitivity, dual_lefschetz, primitive_decompose

    try:
        obj = json.loads(Path(in_path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON in {in_path}: {e}") from e
    if not isinstance(obj, dict) or "form" not in obj or "triple" not in obj:
        raise ValueError('input must be {"triple": ..., "form": ...}')

    t = triple_from_json(obj["triple"])
    a = form_from_json(obj["form"])
    n, k = a.n, a.k
    if n != t.n:
        raise ValueError(f"form dimension n={n} does not match triple n={t.n}")

    lef = primitive_decompose(a, t)
    scale = max((norm if k <= n else _complement_norm)(a, t), 1e-300)
    lef_out = {}
    for r, beta in lef.components.items():
        if not (np.abs(beta.data) > 1e-14 * scale).any():
            continue  # structurally absent level
        lam = dual_lefschetz(beta, t)
        lef_out[str(r)] = {
            "form": beta,
            "primitivity_residual": float(np.abs(lam.data).max(initial=0.0)) / scale,
            "is_primitive": bool(_primitivity(beta, lam, t, tol=1e-9)),
        }

    big = pq_decompose(a, t)
    big_out = {f"{p},{q}": c for (p, q), c in sorted(big.components.items()) if c.data.any()}
    out = {
        "input": {"form": a, "n": n, "k": k},
        "lefschetz_components": lef_out,
        "bidegree_components": big_out,
        "reconstruction_residuals": {
            "lefschetz": lef.residual(a, t),
            "bidegree": float(np.abs((big.reconstruct() - a).data).max(initial=0.0)) / scale,
        },
    }
    Path(out_path).write_bytes(dump_json_deterministic(out))
    out["input"]["form"] = form_to_json(a)
    for comp in lef_out.values():
        comp["form"] = form_to_json(comp["form"])
    out["bidegree_components"] = {key: form_to_json(c) for key, c in big_out.items()}
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="llab", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    # each suite option's dest is the suite parameter or SuiteConfig field
    # it sets; an option not given is left out, and the suite's signature
    # supplies its default
    def suite_parser(suite, help):
        sp = sub.add_parser(suite, help=help, argument_default=argparse.SUPPRESS)
        if _takes_seed(suite):
            sp.add_argument("--seed", type=int, help="seed of every random draw")
        else:  # accepted, as scripts pass it to every suite, and ignored
            sp.add_argument("--seed", type=int, help="ignored: this suite draws nothing a seed chooses")
        sp.add_argument("--tol", dest="tolerance", type=float, help="gate on the verdict's max residual")
        sp.add_argument("--out", dest="out_dir", type=str, help="report output directory")
        sp.add_argument("--format", dest="formats", type=_comma_list(str.strip), help="comma list: json,csv")
        return sp

    sp = suite_parser("verify-identities", "pointwise algebra/Lefschetz identity suite")
    sp.add_argument("--n", dest="n_values", type=_comma_list(int), help="comma list of half-dimensions n")
    sp.add_argument("--cases", type=int, help="random forms per (n, k) cell")
    sp.add_argument("--cross-cases", type=int,
                    help="random primitive pairs per cell for the cross-degree orthogonality")

    sp = suite_parser("torus", "Fourier-model harmonic/identity suite")
    sp.add_argument("--n", dest="n_values", type=_comma_list(int), help="comma list of half-dimensions n")
    sp.add_argument("--N", type=int, help="frequency cutoff per coordinate")
    sp.add_argument("--samples", type=int, help="modes the self-dual relation samples")

    sp = suite_parser("hyperbolic", "FEM spectral-gap suite on the disc")
    sp.add_argument("--R", dest="R_values", type=_comma_list(float), help="comma list of disc radii")
    sp.add_argument("--h", dest="h_values", type=_comma_list(float), help="comma list of mesh sizes")
    sp.add_argument("--k", type=int, choices=(0, 1), help="form degree of the Laplacian")
    sp.add_argument("--eps", type=float, help="cutoff parameter, ramp width 2/eps")
    sp.add_argument("--rel-tol", type=float, help="eigenpair certificate: residual < rel_tol*lambda")

    sp = sub.add_parser("decompose", help="Lefschetz + bidegree decomposition of a form file")
    sp.add_argument("input", type=str)
    sp.add_argument("output", type=str)
    return ap


def _say(line: str) -> None:
    """Print a status line to stdout.  A reader that closes the pipe early
    (`llab ... | head -0`) loses the line but not the exit code: stdout is
    pointed at devnull, so that the interpreter's last flush cannot fail."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _run_decompose(args) -> int:
    out = decompose_file(args.input, args.output)
    rs = out["reconstruction_residuals"]
    _say(
        f"decomposed: {len(out['lefschetz_components'])} Lefschetz component(s), "
        f"{len(out['bidegree_components'])} bidegree component(s); "
        f"reconstruction residuals {rs['lefschetz']:.3e} / {rs['bidegree']:.3e}"
    )
    return 0


def _suite_config(args) -> SuiteConfig:
    """The SuiteConfig of a suite's command line: the options given, by
    dest, as its fields and its params.  A --seed given to a suite that
    takes none is left out of it, with a note on stderr."""
    params = dict(vars(args))
    suite = params.pop("command")
    fields = {name: params.pop(name) for name in ("seed", "tolerance", "out_dir", "formats") if name in params}
    if "seed" in fields and not _takes_seed(suite):
        del fields["seed"]
        print(f"note: --seed is ignored: suite {suite} draws nothing a seed chooses", file=sys.stderr)
    return SuiteConfig(suite=suite, params=params, **fields)


def _run_suite(args) -> int:
    cfg = _suite_config(args)
    bundle = run_suite(cfg)
    body = bundle.payload

    status = "PASS" if bundle.passed else "FAIL"
    warn = body.get("warning")
    extra = f" (warning: {warn})" if warn else ""
    mr = body["max_residual"]
    mr_s = "" if mr is None else f", max residual {mr:.3e}"
    failed = ""
    if not bundle.passed:
        # name what failed: the residual when it is over, the cell it sits
        # in, and every false check
        if mr is not None and not mr < body["tolerance"]:
            mr_s += f" > tol {body['tolerance']:g}"
        worst = worst_cell(body)
        if worst is not None:
            mr_s += f"; worst: {worst[0]} {worst[1]:.1e}"
        names = [name for name, ok in body["checks"].items() if not ok]
        if names:
            failed = "; failed: " + ", ".join(names)
    _say(f"[{status}] suite {cfg.suite}{mr_s}{extra}{failed}; config {cfg.config_hash()}")
    if not bundle.passed:
        for note in failure_notes(body):
            _say(note)
    if cfg.out_dir:
        _say(f"reports written to {cfg.out_dir}/")
    return 0 if bundle.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # one error boundary: bad input and numerical failures exit 2 with a
    # message, whether they come from the config, the run or the writer
    try:
        return _run_decompose(args) if args.command == "decompose" else _run_suite(args)
    except (ValueError, OSError, KeyError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
