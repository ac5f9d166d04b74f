"""llab benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload identities --seed 7 --seconds 20 --trace 0

Run from the repository root.  Each repetition runs in a fresh child
interpreter (child.py) against the sources in ./src, with BLAS and
LLAB_THREADS pinned to one thread.  --trace 0 measures the end-to-end
metrics: one warm-up child without sampling gives peak RSS, then timed
children report every time scaled to a reference host speed sampled
inside the child (pace.py).  --trace 1 runs one untraced and one traced
child, neither sampled, and reports the per-layer metrics.  Every run's
outputs are checked by the oracles in workloads.py; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}, and the
exit code is non-zero when any check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]  # the benchmark's modules, then the llab under test

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS, Workload, write_decompose_inputs  # noqa: E402

MIN_REPS = 1          # timed repetitions per run, even when one overruns --seconds
MIN_SETUP_SAMPLES = 3  # set-up samples per run; few reps are topped up with import-only children
RUN_BUDGET_S = 170.0  # every child is killed by then, so a run ends within 180 s
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LLAB_THREADS = "1"
TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0)
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag

class BenchError(RuntimeError):
    """The benchmark itself is broken (not the program under test)."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (NumPy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    for pct in TAIL_PCTS:
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return {"pct": pct, "value": percentile(values, pct)}
    return None


def summary(values, unit: str, stat: str = "median") -> dict:
    """A metric record: the statistic, its sample count, and the tail."""
    value = statistics.median(values) if stat == "median" else percentile(values, float(stat[1:]))
    return {"value": value, "unit": unit, "stat": stat, "n": len(values), "tail": tail(values)}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    for key in BLAS_PINS:
        env[key] = "1"
    env["PYTHONPATH"] = str(SRC)
    # str hashing is salted per process, and the salt moves GC timing and
    # with it peak RSS (hyperbolic: 411 or 458 MB); pin it so RSS repeats
    env["PYTHONHASHSEED"] = "0"
    # one llab thread: a second one contends for the GIL, which makes
    # identities slower and its time spread 12 % on a steady host, and
    # the speed sampling (pace.py) needs the main thread to be the worker
    env["LLAB_THREADS"] = LLAB_THREADS
    return env


def fixed_layout() -> None:
    """Turn off address-space randomization for this process and what it
    execs (personality(2); it touches no system setting).

    Run as the children's preexec_fn.  hyperbolic's peak RSS depends on
    where the kernel places the heap and the mappings: over identical runs
    it was 411-421 or 458-461 MB at random, and 412.7-412.8 MB in every
    run without randomization.  The child reports whether the flag held.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.restype = ctypes.c_int
    persona = libc.personality(0xFFFFFFFF)  # query
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def run_child(job: dict, rep_dir: Path, env: dict, deadline: float) -> dict | None:
    """Spawn one child; return its result dict, or None if it died."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    job = dict(job, src=str(SRC), result=str(rep_dir / "result.json"))
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job))
    timeout = max(1.0, deadline - time.monotonic())
    with open(rep_dir / "child.log", "wb") as log:
        spawn_t = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path), repr(spawn_t)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(rep_dir), timeout=timeout,
                preexec_fn=fixed_layout,
            )
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not (rep_dir / "result.json").exists():
        return None
    res = json.loads((rep_dir / "result.json").read_text())
    if not Path(res["llab_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"llab imported from {res['llab_file']}, not from {SRC}")
    return res


def suite_job(w: Workload, seed: int, out_dir: Path) -> dict:
    return {"kind": "suite", "argv": list(w.argv) + ["--seed", str(seed), "--out", str(out_dir)]}


def decompose_job(w: Workload, inputs: list[Path], out_dir: Path) -> dict:
    return {"kind": "decompose", "inputs": [[str(p), str(out_dir / f"out{i:05d}.json")] for i, p in enumerate(inputs)]}


def check_rep(w: Workload, job: dict, res: dict | None, rep_dir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one repetition."""
    if w.kind == "suite":
        if res is None:
            return 1, 1, [f"{rep_dir.name}: child died; see {rep_dir / 'child.log'}"]
        if res["errors"] or res["rc"] not in (0, 1):
            return 1, 1, [f"{rep_dir.name}: {res['errors'] or 'exit ' + str(res['rc'])}"]
        report_path = rep_dir / f"{w.argv[0]}.json"
        try:
            report = json.loads(report_path.read_text())
            problems = w.checks["report"](report)
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems = [f"report unreadable: {e!r}"]
        if res["rc"] != 0:
            problems.append(f"exit code {res['rc']}")
        return 1, int(bool(problems)), [f"{rep_dir.name}: {p}" for p in problems]

    calls = job["inputs"]
    if res is None:
        return len(calls), len(calls), [f"{rep_dir.name}: child died; see {rep_dir / 'child.log'}"]
    raised = {i: err for i, err in res["errors"]}
    problems, failed = [], 0
    for i, (src, dst) in enumerate(calls):
        if i in raised:
            found = [raised[i]]
        else:
            try:
                found = w.checks["call"](json.loads(Path(src).read_text()), json.loads(Path(dst).read_text()))
            except (OSError, ValueError, KeyError, TypeError) as e:
                found = [f"output unreadable: {e!r}"]
        if found:
            failed += 1
            problems += [f"{rep_dir.name} call {i}: {p}" for p in found]
    return len(calls), failed, problems


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Run:
    """Bookkeeping for one invocation: children, checks, counts."""

    def __init__(self, w: Workload, seed: int, out_dir: Path, inputs: list[Path]):
        self.w, self.seed, self.out_dir, self.inputs = w, seed, out_dir, inputs
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.results: list[dict] = []
        self.reps = 0

    def rep(self, label: str, pace: bool, trace: bool = False) -> dict | None:
        rep_dir = self.out_dir / f"{label}{self.reps:03d}"
        self.reps += 1
        job = suite_job(self.w, self.seed, rep_dir) if self.w.kind == "suite" else decompose_job(self.w, self.inputs, rep_dir)
        job.update(trace=trace, pace=pace)
        if trace:
            job.update(run_id=rep_dir.name, trace_file=str(self.out_dir / "trace.json"))
        res = run_child(job, rep_dir, child_env(), self.deadline)
        a, f, p = check_rep(self.w, job, res, rep_dir)
        self.attempted += a
        self.failed += f
        self.problems += p
        if not p:
            shutil.rmtree(rep_dir)  # keep only what failed, for inspection
        if res is not None:
            self.results.append(res)
        return res

    def setup_probe(self) -> dict | None:
        rep_dir = self.out_dir / f"setup{self.reps:03d}"
        self.reps += 1
        res = run_child({"kind": "setup", "trace": False, "pace": True}, rep_dir, child_env(), self.deadline)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return res


def run_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    start = time.monotonic()
    # The first child runs without speed sampling and gives peak RSS alone:
    # the sampling's signals move where hyperbolic's large arrays land, and
    # its peak RSS was 410, 420 or 460 MB at random with them against
    # 459.1 MB in every run without.  Its times are left out: in a fresh
    # checkout it byte-compiles src/ and warms the page cache.
    warm = run.rep("warm", pace=False)
    if warm is None:
        raise BenchError("the warm-up child died; see its child.log under " + str(run.out_dir))
    timed, walls = [], []
    while True:
        t0 = time.monotonic()
        res = run.rep("rep", pace=True)
        walls.append(time.monotonic() - t0)
        if res is not None:
            timed.append(res)
        elapsed = time.monotonic() - start
        if len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            break
        if time.monotonic() + 2 * max(walls) > run.deadline:
            break
    setup_runs = list(timed)
    while len(setup_runs) < MIN_SETUP_SAMPLES and time.monotonic() + 5 < run.deadline:
        s = run.setup_probe()
        if s is None:
            raise BenchError("an import-only child died")
        setup_runs.append(s)
    setups = [r["setup_s"] for r in setup_runs]
    raw_setups = [r["raw_setup_s"] for r in setup_runs]
    setup_scales = [r["setup_scale"] for r in setup_runs]
    if not timed:
        raise BenchError("no timed repetition produced a result")
    calls_ms = [c * 1e3 for r in timed for c in r["calls"]]
    # the readings before scaling to the reference host speed, to show
    # how much the host drifted during the run
    pacing = {
        "raw_wall_s": [r["raw_wall_s"] for r in timed],
        "wall_scale": [r["wall_scale"] for r in timed],
        "samples": [r["samples"] for r in timed],
        "raw_setup_s": raw_setups,
        "setup_scale": setup_scales,
    }
    return {
        "wall_s": summary([r["wall_s"] for r in timed], "s"),
        "setup_s": summary(setups, "s"),
        "peak_rss_mb": summary([warm["peak_rss_mb"]], "MB"),
        "calls_per_s": {
            "value": len(calls_ms) / sum(r["wall_s"] for r in timed),
            "unit": "1/s", "stat": "rate", "n": len(calls_ms), "tail": None,
        },
        "call_p50_ms": summary(calls_ms, "ms", "p50"),
        "call_p95_ms": summary(calls_ms, "ms", "p95"),
    }, pacing


def _sum_of(probe_s: dict, names) -> float:
    return sum(probe_s.get(n, 0.0) for n in names)


def layer_metrics(tr: dict, untraced_wall: float) -> dict:
    """The per_layer metrics of BENCHMARK.json from one traced child."""
    s, c, d = tr["summary"], tr["counts"], tr["distinct"]
    self_s, busy, calls, ps, pself = s["self_s"], s["busy_s"], s["calls"], s["probe_s"], s["probe_self_s"]
    cache = tr["cache"]
    lookups = cache["hits"] + cache["misses"]
    m = {
        "suites.self_s": (self_s.get("suites", 0.0), "s"),
        "algebra.calls": (calls.get("algebra", 0), "count"),
        "algebra.busy_s": (busy.get("algebra", 0.0), "s"),
        "algebra.metric_gram_s": (ps.get("algebra.metric_gram", 0.0), "s"),
        "algebra.hodge_star_s": (ps.get("algebra.hodge_star", 0.0), "s"),
        "algebra.pq_s": (_sum_of(ps, ("algebra.pq_decompose", "algebra.pq_projector_matrices", "algebra.weil_operator")), "s"),
        "lefschetz.calls": (calls.get("lefschetz", 0), "count"),
        "lefschetz.busy_s": (busy.get("lefschetz", 0.0), "s"),
        "lefschetz.primitive_decompose_calls": (c.get("lefschetz.primitive_decompose_calls", 0), "count"),
        "lefschetz.primitive_decompose_s": (ps.get("lefschetz.primitive_decompose", 0.0), "s"),
        "lefschetz.power_matrix_s": (ps.get("lefschetz.power_matrix", 0.0), "s"),
        "lefschetz.primitive_basis_s": (ps.get("lefschetz.primitive_basis", 0.0), "s"),
        "cache.hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "cache.entries": (cache["entries"], "count"),
        "torus.modes": (c.get("torus.modes", 0), "count"),
        "torus.build_s": (ps.get("torus.build", 0.0), "s"),
        "torus.mode_ops_calls": (c.get("torus.mode_ops_calls", 0), "count"),
        "torus.mode_ops_s": (ps.get("torus.mode_ops", 0.0), "s"),
        "torus.mode_ops_distinct_ratio": (
            d.get("torus.xi", 0) / c["torus.mode_ops_calls"] if c.get("torus.mode_ops_calls") else 0.0, "ratio",
        ),
    }
    for stage in ("harmonic_space", "check_complex", "p7", "L8", "L10", "kahler", "anti_invariant", "self_dual"):
        m[f"torus.{stage}_s"] = (ps.get(f"torus.{stage}", 0.0), "s")
    builds = c.get("hyperbolic.mesh.build_calls", 0)
    lu_s = ps.get("hyperbolic.eigensolve.lu", 0.0)
    m.update({
        "hyperbolic.mesh.build_calls": (builds, "count"),
        "hyperbolic.mesh.distinct_ratio": (d.get("hyperbolic.mesh.Rh", 0) / builds if builds else 0.0, "ratio"),
        "hyperbolic.mesh.build_s": (ps.get("hyperbolic.mesh.build", 0.0), "s"),
        "hyperbolic.mesh.vertices": (c.get("hyperbolic.mesh.vertices", 0), "count"),
        "hyperbolic.assembly.laplacian_s": (ps.get("hyperbolic.assembly.laplacian", 0.0), "s"),
        "hyperbolic.assembly.edge_structure_s": (ps.get("hyperbolic.assembly.edge_structure", 0.0), "s"),
        "hyperbolic.assembly.nnz": (c.get("hyperbolic.assembly.nnz", 0), "count"),
        "hyperbolic.eigensolve.solve_s": (ps.get("hyperbolic.eigensolve.solve", 0.0), "s"),
        "hyperbolic.eigensolve.lu_s": (lu_s, "s"),
        "hyperbolic.eigensolve.lu_nnz": (c.get("hyperbolic.eigensolve.lu_nnz", 0), "count"),
        "hyperbolic.eigensolve.lanczos_self_s": (pself.get("hyperbolic.eigensolve.solve", 0.0), "s"),
        "hyperbolic.eigensolve.lanczos_iters": (c.get("hyperbolic.eigensolve.lanczos_iters", 0), "count"),
        "hyperbolic.eigensolve.dofs": (c.get("hyperbolic.eigensolve.dofs", 0), "count"),
        "hyperbolic.forms.bounded_primitive_s": (ps.get("hyperbolic.forms.bounded_primitive", 0.0), "s"),
        "hyperbolic.forms.crossterm_s": (ps.get("hyperbolic.forms.crossterm", 0.0), "s"),
        "hyperbolic.forms.annulus_decay_s": (ps.get("hyperbolic.forms.annulus_decay", 0.0), "s"),
        "hyperbolic.gap.sweep_s": (ps.get("hyperbolic.gap.sweep", 0.0), "s"),
        "hyperbolic.gap.derivation_s": (ps.get("hyperbolic.gap.derivation", 0.0), "s"),
        "reports.write_s": (ps.get("reports.write", 0.0), "s"),
        "reports.bytes": (c.get("reports.bytes", 0), "B"),
        "cli.decompose_self_s": (pself.get("cli.decompose", 0.0), "s"),
    })
    for layer in LAYERS:
        m.setdefault(f"{layer}.self_s", (self_s.get(layer, 0.0), "s"))
    m.update({
        "trace.wall_s": (s["wall_s"], "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (s["wall_s"] - untraced_wall, "s"),
        "trace.accounted_frac": (s["root_s"] / s["wall_s"], "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def known_facts(w: Workload, tr: dict) -> list[dict]:
    """Findings about the code at the time the benchmark was written.

    They are reported, never enforced: a later change may fix them.
    """
    c, d = tr["counts"], tr["distinct"]
    facts = []
    if w.name == "hyperbolic":
        builds, distinct = c.get("hyperbolic.mesh.build_calls", 0), d.get("hyperbolic.mesh.Rh", 0)
        facts.append({"fact": "without a cache dir the largest, finest mesh is built twice (7 builds for 6 meshes)",
                      "observed": f"{builds} builds for {distinct} distinct meshes", "holds": builds == distinct + 1})
    if w.name == "torus":
        calls = c.get("torus.mode_ops_calls", 0)
        ratio = d.get("torus.xi", 0) / calls if calls else None
        facts.append({"fact": "mode operators are rebuilt for repeated xi: distinct ratio < 1",
                      "observed": ratio, "holds": ratio is not None and ratio < 1})
    if w.name == "decompose":
        half, end = tr["cache_entries_half"], tr["cache"]["entries"]
        facts.append({"fact": "algebra/lefschetz caches grow with decompose calls",
                      "observed": f"{half} entries at half the calls, {end} at the end",
                      "holds": half is not None and end > half})
    return facts


def run_traced(run: Run) -> tuple[dict, list[dict]]:
    untraced = run.rep("untraced", pace=False)
    traced = run.rep("traced", pace=False, trace=True)
    if untraced is None or traced is None:
        raise BenchError("the traced or the untraced child died; see the child.log files under " + str(run.out_dir))
    tr = traced["trace"]
    if tr["foreign_thread_calls"]:
        raise BenchError(f"{tr['foreign_thread_calls']} traced calls ran off the main thread")
    fired = set(tr["summary"]["fired"]) | {k for k, v in tr["summary"]["calls"].items() if v}
    silent = [name for name in run.w.expect if name not in fired]
    if silent:
        raise BenchError(f"predicted spans never fired on {run.w.name}: {', '.join(silent)}")
    return layer_metrics(tr, untraced["wall_s"]), known_facts(run.w, tr)


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_block(seed: int, results: list[dict]) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas_name = None
    threads = sorted({r.get("blas_threads") for r in results}, key=str)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": threads[0] if len(threads) == 1 else threads,
        "address_randomization": sorted({"off" if r.get("fixed_layout") else "on" for r in results}),
        "LLAB_THREADS": LLAB_THREADS,
        "git_commit": git_commit(),
        "src_sha256_16": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=str, default=str(HERE / "out"), help="scratch directory for children")
    return ap.parse_args(argv)


def execute(w: Workload, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    """Run one workload; return the full result record."""
    if not (SRC / "llab" / "__init__.py").is_file():
        raise BenchError(f"no llab sources at {SRC}; run from a checkout of the repository")
    out_dir = out_root / w.name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    inputs = []
    if w.kind == "decompose":
        inputs = write_decompose_inputs(out_dir / "inputs", seed, w.calls)
    run = Run(w, seed, out_dir, inputs)
    facts, pacing = [], None
    if trace:
        metrics, facts = run_traced(run)
    else:
        metrics, pacing = run_end_to_end(run, seconds)
    record = {
        "claim": None,
        "workload": w.name,
        "why": w.why,
        "command": ["llab", *w.argv] if w.kind == "suite" else f"decompose_file x {w.calls} per repetition",
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_block(seed, run.results),
        "pacing": pacing,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": run.failed / run.attempted if run.attempted else 1.0,
        "metrics": metrics,
        "facts": facts,
        "problems": run.problems[:50],
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))
    return record


def print_record(rec: dict) -> None:
    print(f"workload {rec['workload']} (seed {rec['seed']}, trace {rec['trace']}): {rec['why']}")
    print("machine " + json.dumps(rec["machine"], sort_keys=True))
    for name, m in rec["metrics"].items():
        extra = ""
        if "n" in m:
            t = m["tail"]
            extra = f"  ({m['stat']} of n={m['n']}" + (f"; p{t['pct']:g} = {t['value']:.6g}" if t else "") + ")"
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  {'fail_frac':42s} {rec['fail_frac']:>14.6g} ratio  ({rec['failed']} of {rec['attempted']} attempted)")
    for f in rec["facts"]:
        print(f"  known fact {'holds' if f['holds'] else 'NO LONGER HOLDS'}: {f['fact']} (observed: {f['observed']})")
    for p in rec["problems"]:
        print(f"  FAILED CHECK: {p}")


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        rec = execute(w, args.seed, args.seconds, bool(args.trace), Path(args.out))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print_record(rec)
    correct = rec["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in rec["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
