"""One repetition of a workload, in a fresh interpreter.

    python3 child.py JOB.json SPAWN_MONOTONIC

The parent passes the time.monotonic() reading taken just before it
spawned this process; set-up time runs from then until llab's entry
modules are imported.  The timed region is the call into llab.cli.main
(suite workloads) or the loop of llab.cli.decompose_file calls, after
imports.  Children with job["pace"] sample the host's speed throughout (pace.py)
and report every time net of the sampling and scaled to the reference
speed; the raw readings and the scale factors go alongside.  The result
is written as JSON to job["result"].
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time


def blas_threads():
    """Thread count reported by the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fixed_layout() -> bool:
    """Whether this process runs without address-space randomization."""
    try:
        with open("/proc/self/personality") as fh:
            return bool(int(fh.read(), 16) & 0x0040000)  # ADDR_NO_RANDOMIZE
    except OSError:
        return False


def main() -> int:
    job = json.loads(open(sys.argv[1]).read())
    spawn_t = float(sys.argv[2])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import pace

    sampler = None
    if job["pace"]:
        sampler = pace.Sampler()
        sampler.start()
    sys.path.insert(0, job["src"])
    import llab.cli
    import llab.hyperbolic
    import llab.suites
    import llab.torus  # noqa: F401

    imported_t = time.monotonic()
    out = {"llab_file": llab.cli.__file__, "fixed_layout": fixed_layout()}
    if sampler is None:
        out["setup_s"] = imported_t - spawn_t
    else:
        # the interpreter's own start-up precedes the first sample; it is
        # scaled by the factor measured over the imports
        busy = sampler.busy_s
        scale = sampler.factor(spawn_t, imported_t)
        out.update(setup_s=(imported_t - spawn_t - busy) * scale, raw_setup_s=imported_t - spawn_t, setup_scale=scale)
    if job["kind"] == "setup":
        sampler.stop()
        return _write(job, out)

    tracer = None
    if job.get("trace"):
        import spans

        tracer = spans.install(job["run_id"])

    def busy():
        return 0.0 if sampler is None else sampler.busy_s

    calls, errors = [], []
    cache_half = None
    clock = time.monotonic
    if job["kind"] == "suite":
        t0, b0 = clock(), busy()
        try:
            rc = llab.cli.main(job["argv"])
        except Exception as e:  # a raising run is a failed run, not a crash of the bench
            rc, errors = None, [[0, repr(e)]]
        t1 = clock()
        calls.append(t1 - t0 - (busy() - b0))
        out["rc"] = rc
    else:
        # creating a file here costs 0.5-0.8 ms, a third of a median call,
        # and moves with the host's I/O load, which the speed samples do not
        # see; the calls overwrite files made before timing (0.06-0.1 ms)
        for _, dst in job["inputs"]:
            open(dst, "wb").close()
        half = len(job["inputs"]) // 2
        call_spans = []
        t0, b0 = clock(), busy()
        for i, (src, dst) in enumerate(job["inputs"]):
            if tracer is not None and i == half:
                cache_half = spans.cache_stats()["entries"]
            c0, cb = clock(), busy()
            try:
                llab.cli.decompose_file(src, dst)
            except Exception as e:
                errors.append([i, repr(e)])
                continue
            calls.append(clock() - c0 - (busy() - cb))
            call_spans.append((c0, clock()))
        t1 = clock()
    wall_s = t1 - t0 - (busy() - b0)
    if sampler is not None:
        sampler.stop()
        scale = sampler.factor(t0, t1)
        out.update(raw_wall_s=t1 - t0, wall_scale=scale, samples=len(sampler.durations))
        wall_s *= scale
        if job["kind"] == "suite":
            calls = [c * scale for c in calls]
        else:
            # the host's speed moves within a repetition, and a quantile,
            # unlike a mean, is not corrected by the repetition's mean
            # factor: each call is scaled by the samples around it
            calls = [c * sampler.factor_near(a, b) for c, (a, b) in zip(calls, call_spans)]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(wall_s=wall_s, calls=calls, errors=errors, blas_threads=blas_threads())

    if tracer is not None:
        tracer.dump(job["trace_file"])
        out["trace"] = {
            "summary": spans.summarize(tracer.spans, wall_s),
            "counts": dict(tracer.counts),
            "distinct": {k: len(v) for k, v in tracer.distinct.items()},
            "cache": spans.cache_stats(),
            "cache_entries_half": cache_half,
            "foreign_thread_calls": tracer.foreign_thread_calls,
        }
    return _write(job, out)


def _write(job, out) -> int:
    with open(job["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
