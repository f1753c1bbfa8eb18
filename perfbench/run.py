"""Benchmark of the hgmm anticipation pipeline through its public API.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_light --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): fleet_light, split_heavy, truth_oracle.
Each is a closed loop with one caller, ``threads=1``, and BLAS threads
capped at the number of usable cores.  The loop runs whole rounds over the
workload's inputs and starts another round only if it is expected to end
within ``--seconds``; at least one round always runs.

``--trace 0`` measures the end-to-end metrics with the library untraced:

* ``call_ms_norm.p50``: median time of one timed call, an ``anticipate``
  call (fleet_light, split_heavy) or one oracle evaluation (truth_oracle),
  each call's wall time scaled to a reference host speed measured by a
  calibration kernel run after every call (see hostspeed.py).  The report
  also gives the raw wall times as ``anticipate_ms.p50`` or
  ``truth_s.p50`` with their sample count, and ``anticipate_ms.p90``
  where a run has at least 100 calls.
* ``truth_ppl``: exp(``nll_nats``), where ``nll_nats`` is the mean
  per-step NLL of truth particles under the frames of every timed call
  (the accuracy guard).  The exponential keeps it positive; its unit is
  the state-space volume m*m*(m/s)*rad.  The report gives ``nll_nats`` and
  its Monte-Carlo standard error.
* ``setup_s``: interpreter import of the library plus the median of five
  builds of the workload (split library, networks, models, inputs, and the
  oracle's frames).
* ``peak_rss_mb``: peak resident memory, read before the accuracy check.

The report also gives ``failed_frac`` and how many inputs gave outputs
that disagree (by digest) within the run and across recorded runs.

``--trace 1`` runs an untraced pass for half the time, then replays the
same calls with every public layer function wrapped, and reports per-layer
metrics averaged per timed call, plus the tracing overhead (traced minus
untraced).  Every output is checked; calls that raise or fail the checker
count as failed.  Human-readable lines come first; the last line of
standard output is one JSON object.  Spans, digests and a full result
record are written under perfbench/out/.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys

WORKLOADS = ("fleet_light", "split_heavy", "truth_oracle")
SETUP_REPEATS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
OUT_DIR = os.path.join("perfbench", "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_rounds(wl, seconds, record, kernel, tracer=None, sequence=None):
    """Time calls in whole rounds over ``wl.cases`` (or replay ``sequence``).

    ``record(case, output, error)`` runs after each call, outside the timed
    region, and so does ``kernel()``, the host-speed calibration.  Returns
    the cases called, in order, their wall times, and the kernel times
    (one before the first call and one after each call).
    """
    called, times, kernels = [], [], [kernel()]

    def one(case):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out, err = wl.call(case), None
            else:
                out, err = tracer.run_request(wl.request_name, wl.call, case), None
        except Exception as exc:            # a failed call is counted, not fatal
            out, err = None, exc
        times.append(time.perf_counter() - t0)
        kernels.append(kernel())
        called.append(case)
        record(case, out, err)

    if sequence is not None:
        for case in sequence:
            one(case)
    else:
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for case in wl.cases:
                one(case)
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    return called, times, kernels


class Outcomes:
    """Checks each output and keeps one copy of each distinct output per input.

    Identical outputs (same digest) are counted, not stored again, so the
    accuracy check can score every call at the cost of the distinct ones.
    """

    def __init__(self, wl):
        self.wl = wl
        self.failed = 0
        self.problems = []
        self.outputs = {}           # case key -> {digest: [output, calls]}

    def __call__(self, case, output, error):
        problems = [f"{type(error).__name__}: {error}"] if error else self.wl.check(case, output)
        if problems:
            self.failed += 1
            self.problems.append(f"{case.key}: {problems[0]}")
            return
        slot = self.outputs.setdefault(case.key, {}).setdefault(self.wl.digest(output), [output, 0])
        slot[1] += 1

    def digests(self):
        return {key: set(found) for key, found in self.outputs.items()}


def host_info(blas_cap):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cores": blas_cap,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_digest": source_digest(),
    }


def git_commit():
    """The checked-out commit, or None outside a git work tree."""
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def source_digest():
    """Hash of the library's and the benchmark's sources; identifies the code without git."""
    h = hashlib.blake2b(digest_size=8)
    for root in (os.path.join("src", "hgmm"), "perfbench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    h.update(os.path.join(dirpath, name).encode())
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def merge_digests(workload, seed, code, digests):
    """Add this run's digests to those recorded by earlier runs of the same seed and code.

    Returns (runs recorded, inputs whose digests disagree across all of them).
    """
    path = os.path.join(OUT_DIR, f"digests-{workload}-seed{seed}-{code}.json")
    doc = {"runs": 0, "digests": {}}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    for key, found in digests.items():
        doc["digests"][key] = sorted(set(doc["digests"].get(key, [])) | found)
    doc["runs"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return doc["runs"], sum(len(v) > 1 for v in doc["digests"].values())


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "hgmm", "__init__.py")):
        print("perfbench: src/hgmm not found; run from the repository root", file=sys.stderr)
        return 2
    blas_cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ.setdefault(var, str(blas_cap))
    sys.path.insert(0, src)
    import hgmm

    if os.path.dirname(os.path.realpath(hgmm.__file__)) != os.path.realpath(os.path.join(src, "hgmm")):
        print(f"perfbench: imported hgmm from {hgmm.__file__}, not from {src}", file=sys.stderr)
        return 2
    import checker
    import hostspeed
    import spans
    import workloads

    import_s = time.perf_counter() - PROCESS_T0
    broken = checker.self_test()
    if broken:
        print(f"perfbench: output checker self-test failed: {broken}", file=sys.stderr)
        return 3
    warnings = spans.WarningCounter()
    warnings.install()

    build_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.SETUPS[args.workload](args.seed)
        build_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(build_times)

    outcomes = Outcomes(wl)
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    called, times, kernels = run_rounds(wl, untraced_seconds, outcomes, hostspeed.kernel_seconds)
    norm = hostspeed.normalize(times, kernels)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        capped0, dropped0 = warnings.depth_capped, warnings.dropped
        tracer.install(wl.models)
        try:
            _, traced_times, kernels = run_rounds(wl, 0, outcomes, hostspeed.kernel_seconds,
                                                  tracer=tracer, sequence=called)
        finally:
            tracer.uninstall()
        traced_norm = hostspeed.normalize(traced_times, kernels)
        layer = tracer.layer_metrics(dropped_hypotheses=warnings.dropped - dropped0,
                                     depth_capped=warnings.depth_capped - capped0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    os.makedirs(OUT_DIR, exist_ok=True)
    host = host_info(blas_cap)
    runs_recorded, disagree_all = merge_digests(args.workload, args.seed, host["source_digest"],
                                                outcomes.digests())
    disagree_run = sum(len(v) > 1 for v in outcomes.outputs.values())
    attempted = len(times) + (len(traced_times) if tracer else 0)
    n = len(times)
    p50_ms = statistics.median(times) * 1e3
    norm_p50_ms = statistics.median(norm) * 1e3
    lines = [
        f"workload {args.workload} seed {args.seed}: closed loop, 1 caller, threads=1, "
        f"{len(wl.cases)} inputs a round",
        f"setup_s = {setup_s:.4f} s (import {import_s:.4f} s + median of {SETUP_REPEATS} "
        f"set-ups {statistics.median(build_times):.4f} s)",
    ]
    if args.workload == "truth_oracle":
        lines.append(f"truth_s.p50 = {p50_ms / 1e3:.4f} s (n={n} oracle calls at "
                     f"{wl.particles} particles)")
    else:
        lines.append(f"anticipate_ms.p50 = {p50_ms:.3f} ms (n={n} calls)")
        if n >= 100:
            p90_ms = statistics.quantiles(times, n=10)[-1] * 1e3
            lines.append(f"anticipate_ms.p90 = {p90_ms:.3f} ms (n={n} calls)")
    lines += [
        f"call_ms_norm.p50 = {norm_p50_ms:.3f} ms at reference host speed (n={n} calls; "
        f"host ran at {norm_p50_ms / p50_ms:.2f}x reference by the kernel)",
        f"peak_rss_mb = {peak_rss_mb:.1f} MB",
        f"failed_frac = {outcomes.failed / attempted:.4f} ({outcomes.failed}/{attempted})",
        f"digests: {disagree_run} of {len(outcomes.outputs)} inputs disagree within this run, "
        f"{disagree_all} across {runs_recorded} recorded run(s) of this seed",
    ]
    lines += [f"failure: {p}" for p in outcomes.problems[:5]]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "call_times_s": times,
              "call_times_norm_s": norm}
    if tracer:
        # Both passes make the same calls; compare them at reference host speed.
        overhead_ms = (sum(traced_norm) - sum(norm)) / n * 1e3
        layer.update({
            "trace.overhead_ms_per_call": overhead_ms,
            "trace.overhead_frac": overhead_ms / (sum(norm) / n * 1e3),
            "digest.inputs_disagreeing": float(disagree_run),
        })
        lines.append(f"tracing overhead = {overhead_ms:.3f} ms per call "
                     f"({layer['trace.overhead_frac']:.1%}), {int(layer['trace.spans'])} spans")
        tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
        metrics = {k: {"value": float(v), "unit": layer_unit(k)} for k, v in sorted(layer.items())}
        record["traced_call_times_s"] = traced_times
        record["traced_call_times_norm_s"] = traced_norm
    else:
        if len(outcomes.outputs) == len(wl.cases):
            nll_nats, nll_se, detail = wl.accuracy(
                {key: list(found.values()) for key, found in outcomes.outputs.items()})
        else:                                # some input never gave a valid output
            nll_nats, nll_se, detail = math.nan, math.nan, "inputs without a valid output"
        lines.append(f"nll_nats = {nll_nats:.4f} nats (Monte-Carlo s.e. {nll_se:.4f}; {detail})")
        metrics = {
            "call_ms_norm.p50": {"value": norm_p50_ms, "unit": "ms"},
            "truth_ppl": {"value": math.exp(nll_nats), "unit": "m3.rad/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    lines.append("host: " + json.dumps(record["host"], sort_keys=True))
    correct = outcomes.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0.0                 # keeps the line valid JSON; correct is false
    result = {"correct": correct, "attempted": attempted, "failed": outcomes.failed,
              "metrics": metrics}
    record.update(report=lines, result=result)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def layer_unit(name):
    if name.endswith(("ms", "ms_per_call")):
        return "ms"
    if name.endswith(("frac", "rate")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
