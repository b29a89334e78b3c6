#!/usr/bin/env python3
"""thermocone benchmark.

    python3 perfbench/run.py --workload pair_stream --seed 1 --seconds 40 --trace 0

Runs one workload (pair_stream, figure_scan or cone_highd) as a closed loop
with one caller in one process and THERMOCONE_THREADS=1, from the source tree
next to this directory.  Every input is generated from --seed.  The timed
section repeats whole passes over the workload's fixed work list while another
pass still fits in --seconds (at least one pass), then every output is checked.
A pass takes a few seconds, so a run makes several; the throughput is that of
the median pass.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs one
untraced and one traced pass over the same work list, interleaved request by
request, and prints the per-layer metrics: calls and self time of each public
function, exact work counts, kernel replay times per 16384-row chunk,
unattributed time and the tracing overhead.  Spans are written to
.perfbench-out/ when the run ends.

The line before the last is a record of the environment, the work counts, the
result digest and any failure; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
REPLAY_CALLS = 12
IMPORT_PROBE = "import time; t = time.perf_counter(); import thermocone; print(time.perf_counter() - t)"


@dataclass
class Pass:
    outs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    wall: float = 0.0
    digest: str = ""
    counts: Counter = field(default_factory=Counter)
    attempted: int = 0


def _import_seconds() -> float:
    """Import time of thermocone in a fresh interpreter (set-up repeats need a cold import)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def _request(wl, api, req, rid: int, tracer, into: Pass) -> None:
    """Run one request; append its output, latency and any error to `into`."""
    out: dict = {}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            wl.execute(api, req, out)
        else:
            with tracer.request(rid, req.kind):
                wl.execute(api, req, out)
    except Exception as exc:  # a request that raises is a failed operation; keep measuring
        into.errors.append(f"request {rid} ({req.kind}) raised {exc!r}")
        out["error"] = True
    into.latencies.append(time.perf_counter() - t0)
    into.outs.append(out)


def run_pass(wl, api, reqs) -> Pass:
    p = Pass()
    start = time.perf_counter()
    for rid, req in enumerate(reqs):
        _request(wl, api, req, rid, None, p)
    p.wall = time.perf_counter() - start
    return p


def run_paired_passes(wl, api, reqs, tracer) -> tuple[Pass, Pass]:
    """An untraced and a traced pass, interleaved request by request.

    Host speed drifts over minutes, so two passes run one after the other
    would mostly measure the drift.  Alternating which copy of a request runs
    first cancels the warm-cache advantage of the second copy.  Each pass's
    wall time is the sum of its request latencies.
    """
    traced_api = {name: tracer.wrap(name, fn) for name, fn in api.items()}
    plain, traced = Pass(), Pass()
    for rid, req in enumerate(reqs):
        runs = [(api, None, plain), (traced_api, tracer, traced)]
        for run_api, run_tracer, into in (runs if rid % 2 == 0 else runs[::-1]):
            _request(wl, run_api, req, rid, run_tracer, into)
    for p in (plain, traced):
        p.wall = sum(p.latencies)
    return plain, traced


def _evaluate(wl, reqs, p: Pass):
    """Digest and work counts of one pass; requests that raised are left out."""
    counts = Counter()
    items = []
    for req, out in zip(reqs, p.outs):
        if "error" in out:
            items.append(None)
            continue
        counts += wl.counts(req, out)
        items.append(wl.digest(req, out))
    digest = hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()
    return digest, counts


def golden(workload: str, seed: int, digest: str) -> str:
    """Compare `digest` with the one recorded for the default work list: match, mismatch or none."""
    recorded = json.loads(GOLDEN.read_text()).get(workload, {}) if GOLDEN.is_file() else {}
    if str(seed) not in recorded:
        return "none"
    return "match" if recorded[str(seed)] == digest else "mismatch"


def _attempted(p: Pass) -> int:
    # one operation per public call made; a request that raised also attempted the call that raised
    return sum(len(out) for out in p.outs)


def _settle(wl, reqs, p: Pass, keep: bool) -> None:
    """Digest, work counts and attempted calls of a finished pass; drops its outputs unless `keep`.

    Only the first pass's outputs are checked, so memory does not grow with
    the number of passes a run makes.
    """
    p.digest, p.counts = _evaluate(wl, reqs, p)
    p.attempted = _attempted(p)
    if not keep:
        p.outs = []


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _lscpu_caches() -> dict:
    try:
        done = subprocess.run(["lscpu", "-B", "-C", "--json"], capture_output=True, text=True,
                              timeout=10, check=True)
        rows = json.loads(done.stdout)["caches"]
    except (OSError, subprocess.SubprocessError, ValueError, KeyError):
        return {}
    return {r["name"]: int(r["one-size"]) for r in rows if r.get("name") in ("L2", "L3")}


def _commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(dims, chunk_rows: int) -> dict:
    import numpy as np

    src = hashlib.sha256()
    for path in sorted((SRC / "thermocone").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    caches = _lscpu_caches()
    chunk = {}
    for d in dims:
        sample_bytes = chunk_rows * d * 8
        curve_bytes = 2 * chunk_rows * (d + 1) * 8  # knot matrices built from one chunk
        chunk[str(d)] = {"sample_bytes": sample_bytes, "curve_bytes": curve_bytes,
                         **{f"share_of_{k}": round((sample_bytes + curve_bytes) / v, 4) for k, v in caches.items()}}
    return {
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "THERMOCONE_THREADS": os.environ.get("THERMOCONE_THREADS"),
        "cache_bytes": caches,
        "chunk_bytes": chunk,
        "note": "computed bytes, not measured traffic; every working set fits in the last-level cache, "
                "so no bandwidth or roofline claim is made from this CPU",
    }


def _replay(wl, reqs, chunk_rows: int) -> tuple[list, list]:
    """Per-chunk times of sample_simplex and region_masks on the workload's own calls."""
    import numpy as np
    import thermocone as tc

    calls = wl.mc_calls(reqs)
    if not calls:
        return [], []
    picked = sorted({int(round(i)) for i in np.linspace(0, len(calls) - 1, min(REPLAY_CALLS, len(calls)))})
    sample_ms, mask_ms = [], []
    for call in (calls[i] for i in picked):
        for chunk in range(min(2, -(-call.samples // chunk_rows))):
            rng = np.random.Generator(np.random.Philox(key=[call.seed, chunk]))
            t0 = time.perf_counter()
            draws = tc.sample_simplex(call.p.size, chunk_rows, rng)
            t1 = time.perf_counter()
            tc.region_masks(call.p, call.spec, draws)
            t2 = time.perf_counter()
            sample_ms.append((t1 - t0) * 1e3)
            mask_ms.append((t2 - t1) * 1e3)
    return sample_ms, mask_ms


def collect(workload: str, seed: int, seconds: float, trace: bool, plan=None, api_patch=None,
            out_dir: Path = OUT_DIR) -> tuple[dict, dict]:
    """Run one workload; returns (result object, record).  `plan` and `api_patch` serve the self-tests."""
    import bench_workloads as bw
    from bench_trace import Tracer

    wl = bw.WORKLOADS[workload](plan)
    api = bw.public_api()
    api.update(api_patch or {})
    failures: list[str] = []
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        setup_times, fingerprints = [], set()
        for _ in range(SETUP_REPEATS):
            imported = _import_seconds()
            t0 = time.perf_counter()
            reqs = wl.build(seed, Path(workdir))
            for req in wl.warmup(reqs):
                try:
                    wl.execute(api, req, {})
                except Exception as exc:  # reported like a timed request that raised
                    msg = f"warm-up {req.kind} raised {exc!r}"
                    if msg not in failures:
                        failures.append(msg)
            setup_times.append(imported + time.perf_counter() - t0)
            fingerprints.add(hashlib.sha256(json.dumps([r.doc() for r in reqs]).encode()).hexdigest())
        if len(fingerprints) != 1:
            failures.append("one seed gave different inputs in two set-ups")

        if trace:
            tracer = Tracer()
            untraced, traced = run_paired_passes(wl, api, reqs, tracer)
            passes = [untraced, traced]
            _settle(wl, reqs, untraced, keep=True)
            _settle(wl, reqs, traced, keep=False)
        else:
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(run_pass(wl, api, reqs))
                elapsed = time.perf_counter() - start
                _settle(wl, reqs, passes[-1], keep=len(passes) == 1)
                if elapsed + passes[-1].wall > seconds:
                    break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for p in passes:
        failures.extend(p.errors)
    failures.extend(wl.check(reqs, passes[0].outs))
    digest, counts = passes[0].digest, passes[0].counts
    if any(p.digest != digest for p in passes):
        failures.append("outputs differ between passes over the same inputs")
    if any(p.counts != counts for p in passes):
        failures.append("work counts differ between passes over the same inputs")
    golden_status = golden(workload, seed, digest) if plan is None else "none"
    if golden_status == "mismatch":
        failures.append(f"result digest {digest} differs from the one recorded in {GOLDEN.name}")

    attempted = sum(p.attempted for p in passes)
    failed = min(len(failures), attempted)
    timed_passes = passes[1:] if trace else passes
    requests = sum(len(p.latencies) for p in timed_passes)
    latencies = [x for p in timed_passes for x in p.latencies]
    dims = sorted({c.p.size for c in wl.mc_calls(reqs)})
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "requests": requests,
        "latency_samples": len(latencies),
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "digest": digest,
        "golden": golden_status,
        "counts": {k: counts[k] for k in bw.COUNT_NAMES},
        "environment": environment(dims, bw.CHUNK_ROWS),
    }
    if not trace:
        mc_samples = counts["volume.samples"] * len(passes)
        record["samples_per_s"] = mc_samples / sum(p.wall for p in passes)
        # each pass does the same work, so the median pass sets the throughput
        # and a burst of host load during one pass does not
        pass_rates = [len(p.latencies) / p.wall for p in passes]
        record["pass_req_per_s"] = pass_rates
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "req_per_s": (statistics.median(pass_rates), "1/s"),
            "req_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "req_p90_ms": (_nearest_rank(latencies, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mib, "MiB"),
        }
    else:
        sample_ms, mask_ms = _replay(wl, reqs, bw.CHUNK_ROWS)
        busy = tracer.busy(bw.LAYER_FUNCTIONS)
        metrics = {}
        for name, (calls, busy_ms) in busy.items():
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.busy_ms"] = (busy_ms, "ms")
        for name in ("volume.mc_volume", "entanglement.volume_ratio_CN_TN"):
            chunks = counts[f"{name}.chunks"]
            metrics[f"{name}.ms_per_chunk"] = (busy[name][1] / chunks if chunks else 0.0, "ms")
        metrics["volume.sample_simplex.ms_per_chunk"] = (statistics.median(sample_ms) if sample_ms else 0.0, "ms")
        metrics["volume.region_masks.ms_per_chunk"] = (statistics.median(mask_ms) if mask_ms else 0.0, "ms")
        for name in bw.COUNT_NAMES:
            metrics[name] = (counts[name], "count")
        layer_ms = sum(busy_ms for _, busy_ms in busy.values())
        metrics["bench.unattributed_ms"] = (traced.wall * 1e3 - layer_ms, "ms")
        metrics["trace.overhead_pct"] = (100.0 * (traced.wall / untraced.wall - 1.0), "%")
        tracer.dump(out_dir / f"spans_{workload}_seed{seed}.json")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pair_stream", "figure_scan", "cone_highd"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thermocone" / "__init__.py").is_file():
        print(f"error: no thermocone source tree at {SRC}", file=sys.stderr)
        return 2
    os.environ["THERMOCONE_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    result, record = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"perfbench_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
