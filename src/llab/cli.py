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

from llab.reports import DEFAULT_SEED, DEFAULT_TOLERANCE, ReportBundle, SuiteConfig, dump_json_deterministic


def _int_list(s: str) -> list[int]:
    return [int(x) for x in str(s).split(",") if x.strip() != ""]


def _float_list(s: str) -> list[float]:
    return [float(x) for x in str(s).split(",") if x.strip() != ""]


# suite id -> the llab.suites function that runs it
_SUITE_FUNCTIONS = {
    "verify-identities": "identity_suite",
    "torus": "torus_suite",
    "hyperbolic": "hyperbolic_suite",
}


def run_suite(cfg: SuiteConfig) -> ReportBundle:
    """Dispatch a SuiteConfig to its module suite and bundle the result.

    The params are the suite function's keyword arguments, its defaults
    filling the rest; seed (for a suite that takes one) and tol come from
    the config's own fields.  Raises ValueError for a param the function
    does not take, which would enter the config hash and change nothing.
    """
    from llab import suites

    if cfg.suite not in _SUITE_FUNCTIONS:
        raise ValueError(f"unknown suite id {cfg.suite!r}")
    run = getattr(suites, _SUITE_FUNCTIONS[cfg.suite])
    takes = set(inspect.signature(run).parameters) - {"seed", "tol"}
    unknown = sorted(set(cfg.params) - takes)
    if unknown:
        raise ValueError(
            f"suite {cfg.suite} takes no param(s) {', '.join(map(repr, unknown))}; "
            f"it takes {', '.join(sorted(takes))}"
        )
    seed = {} if cfg.seed is None else {"seed": cfg.seed}
    payload = run(**cfg.params, **seed, tol=cfg.tolerance)

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

    def common(sp, suite):
        if suite in DEFAULT_SEED:
            sp.add_argument("--seed", type=int, default=DEFAULT_SEED[suite], help="seed of every random draw")
        else:  # accepted, as scripts pass it to every suite, and ignored
            sp.add_argument("--seed", type=int, default=None,
                            help="ignored: this suite draws nothing a seed chooses")
        sp.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE[suite],
                        help="gate on the verdict's max residual")
        sp.add_argument("--out", type=str, default=None, help="report output directory")
        sp.add_argument("--format", type=str, default="json", help="comma list: json,csv")

    sp = sub.add_parser("verify-identities", help="pointwise algebra/Lefschetz identity suite")
    sp.add_argument("--n", type=_int_list, default=[1, 2, 3, 4], help="comma list of half-dimensions n")
    sp.add_argument("--cases", type=int, default=1000, help="random forms per (n, k) cell")
    sp.add_argument("--cross-cases", type=int, default=500,
                    help="random primitive pairs per cell for the cross-degree orthogonality")
    common(sp, "verify-identities")

    sp = sub.add_parser("torus", help="Fourier-model harmonic/identity suite")
    sp.add_argument("--n", type=_int_list, default=[2, 3], help="comma list of half-dimensions n")
    sp.add_argument("--N", type=int, default=1, help="frequency cutoff per coordinate")
    sp.add_argument("--samples", type=int, default=100,
                    help="random forms for L10's measured constants and modes for the self-dual relation")
    common(sp, "torus")

    sp = sub.add_parser("hyperbolic", help="FEM spectral-gap suite on the disc")
    sp.add_argument("--R", type=_float_list, default=[2.0, 4.0], help="comma list of disc radii")
    sp.add_argument("--h", type=_float_list, default=[0.2, 0.1], help="comma list of mesh sizes")
    sp.add_argument("--k", type=int, default=0, choices=(0, 1), help="form degree of the Laplacian")
    sp.add_argument("--eps", type=float, default=0.6, help="cutoff parameter, ramp width 2/eps")
    sp.add_argument("--rel-tol", type=float, default=1e-8,
                    help="eigenpair certificate: residual < rel_tol*lambda")
    common(sp, "hyperbolic")

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
    """The SuiteConfig of a suite's command line.  A --seed given to a
    suite that takes none is left out of it.  --n enters it ascending, so
    that its order does not change the config hash."""
    params: dict = {}
    if args.command == "verify-identities":
        params = {
            "n_values": sorted(args.n),
            "cases": args.cases,
            "cross_cases": args.cross_cases,
        }
    elif args.command == "torus":
        params = {"n_values": sorted(args.n), "N": args.N, "samples": args.samples}
    elif args.command == "hyperbolic":
        params = {
            "R_values": args.R,
            "h_values": args.h,
            "k": args.k,
            "eps": args.eps,
            "rel_tol": args.rel_tol,
        }

    return SuiteConfig(
        suite=args.command,
        seed=args.seed if args.command in DEFAULT_SEED else None,
        tolerance=args.tol,
        params=params,
        out_dir=args.out,
        formats=tuple(x.strip() for x in args.format.split(",") if x.strip()),
    )


def _run_suite(args) -> int:
    if args.command not in DEFAULT_SEED and args.seed is not None:
        print(f"note: --seed is ignored: suite {args.command} draws nothing a seed chooses", file=sys.stderr)
    cfg = _suite_config(args)
    bundle = run_suite(cfg)

    status = "PASS" if bundle.passed else "FAIL"
    warn = bundle.payload.get("warning")
    extra = f" (warning: {warn})" if warn else ""
    verdict = bundle.payload.get("verdict", {})
    mr = bundle.payload.get("max_residual", verdict.get("max_residual"))
    mr_s = f", max residual {mr:.3e}" if isinstance(mr, float) else ""
    failed = ""
    if not bundle.passed:
        # name what failed: the residual when it is over, the cell it sits
        # in, and every false check
        from llab.suites import failure_notes, worst_cell

        tol = verdict.get("tolerance")
        if mr_s and tol is not None and not mr < tol:
            mr_s += f" > tol {tol:g}"
        worst = worst_cell(bundle.payload)
        if worst is not None:
            mr_s += f"; worst: {worst[0]} {worst[1]:.1e}"
        names = [name for name, ok in verdict.get("checks", {}).items() if not ok]
        if names:
            failed = "; failed: " + ", ".join(names)
    _say(f"[{status}] suite {cfg.suite}{mr_s}{extra}{failed}; config {cfg.config_hash()}")
    if not bundle.passed:
        for note in failure_notes(bundle.payload):
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
