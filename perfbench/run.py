"""Benchmark for the Hermes' Seal toolkit: vehicle prover, roadside verifier
and regulator audit, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload rss-broadcast --seed 1 --seconds 15 --trace 0

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the same op
sequence twice side by side, once with the library wrapped by span
recorders, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object.  Run records, span dumps
and the per-seed layer counts go to `perfbench/out/`.  See
perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3
MALLOC_THRESHOLD = 128 * 1024   # glibc's default initial mmap threshold

# (metric, unit).  Times are wall times scaled to nominal machine speed by
# speed.SpeedProbe; see README.md.  The run also prints them unscaled.
END_TO_END = [
    ("setup_s", "s"), ("create_per_s", "1/s"), ("create_p50_ms", "ms"),
    ("create_p90_ms", "ms"), ("verify_per_s", "1/s"), ("accept_p50_ms", "ms"),
    ("accept_p90_ms", "ms"), ("reject_p50_ms", "ms"), ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics from span aggregates, per op of the named kind:
# (metric, unit, op kind, span names, statistic).  Time statistics use every
# traced op; counts use the exact-count window only, so they repeat per seed.
LAYERS = [
    ("create.total_ms", "ms", "create", (), "total"),
    ("create.other_ms", "ms", "create", ("op.create",), "self"),
    ("create.circuit.make_inputs_ms", "ms", "create",
     ("circuit.make_inputs",), "self"),
    ("create.r1cs.witness_ms", "ms", "create", ("r1cs.witness",), "self"),
    ("create.r1cs.serialize_ms", "ms", "create",
     ("r1cs.serialize", "r1cs.digest"), "self"),
    ("create.r1cs.serialize_calls", "count", "create", ("r1cs.serialize",),
     "calls"),
    ("create.qap.quotient_ms", "ms", "create", ("qap.quotient",), "self"),
    ("create.pairing.msm_ms", "ms", "create", ("pairing.msm",), "self"),
    ("create.pairing.msm_calls", "count", "create", ("pairing.msm",), "calls"),
    ("create.pairing.msm_points", "count", "create", ("pairing.msm",), "size"),
    ("create.pairing.msm_nonzero_ratio", "ratio", "create", ("pairing.msm",),
     "nonzero"),
    ("create.pairing.scalar_mul_ms", "ms", "create", ("pairing.scalar_mul",),
     "self"),
    ("create.pairing.scalar_mul_calls", "count", "create",
     ("pairing.scalar_mul",), "calls"),
    ("create.groth16.prove_self_ms", "ms", "create", ("groth16.prove",),
     "self"),
    ("create.commitment.sponge_ms", "ms", "create",
     ("commitment.sponge", "commitment.permutation"), "self"),
    ("create.commitment.permutations", "count", "create",
     ("commitment.permutation",), "calls"),
    ("create.commitment.byte_hash_ms", "ms", "create",
     ("commitment.byte_hash",), "self"),
    ("create.commitment.byte_hash_kb", "KiB", "create",
     ("commitment.byte_hash",), "kb"),
    ("create.protocol.schnorr_sign_ms", "ms", "create",
     ("protocol.schnorr_sign",), "self"),
    ("create.protocol.payload_ms", "ms", "create", ("protocol.payload",),
     "self"),
    ("create.protocol.encode_ms", "ms", "create", ("protocol.encode",), "self"),
    ("create.protocol.create_self_ms", "ms", "create",
     ("protocol.create_package",), "self"),
    ("verify.total_ms", "ms", "verify", (), "total"),
    ("verify.other_ms", "ms", "verify", ("op.verify",), "self"),
    ("verify.protocol.decode_ms", "ms", "verify", ("protocol.decode",), "self"),
    ("verify.protocol.verify_self_ms", "ms", "verify",
     ("protocol.verify_package",), "self"),
    ("verify.protocol.cert_ms", "ms", "verify", ("protocol.cert",), "self"),
    ("verify.protocol.schnorr_verify_ms", "ms", "verify",
     ("protocol.schnorr_verify",), "self"),
    ("verify.protocol.schnorr_verify_calls", "count", "verify",
     ("protocol.schnorr_verify",), "calls"),
    ("verify.protocol.payload_ms", "ms", "verify", ("protocol.payload",),
     "self"),
    ("verify.commitment.byte_hash_ms", "ms", "verify",
     ("commitment.byte_hash",), "self"),
    ("verify.commitment.byte_hash_kb", "KiB", "verify",
     ("commitment.byte_hash",), "kb"),
    ("verify.groth16.verify_self_ms", "ms", "verify", ("groth16.verify",),
     "self"),
    ("verify.pairing.pair_ms", "ms", "verify", ("pairing.pair",), "self"),
    ("verify.pairing.pair_calls", "count", "verify", ("pairing.pair",),
     "calls"),
    ("verify.pairing.subgroup_ms", "ms", "verify", ("pairing.subgroup",),
     "self"),
    ("verify.pairing.subgroup_calls", "count", "verify", ("pairing.subgroup",),
     "calls"),
    ("verify.pairing.decode_ms", "ms", "verify", ("pairing.decode",), "self"),
    ("verify.pairing.msm_ms", "ms", "verify", ("pairing.msm",), "self"),
    ("verify.pairing.scalar_mul_ms", "ms", "verify", ("pairing.scalar_mul",),
     "self"),
    ("verify.pairing.scalar_mul_calls", "count", "verify",
     ("pairing.scalar_mul",), "calls"),
]
REJECT_STAGES = ["certificate", "unknown_circuit", "signature", "freshness",
                 "replay", "proof", "exception", "other"]
COUNT_STATS = {"calls", "size", "kb", "nonzero"}


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "loadavg": list(os.getloadavg()),
            "probe_loop_us": speed.loop_times_us(),
            "probe_nominal_us": speed.NOMINAL_S * 1e6}


def fix_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds.  Left dynamic, they move with
    the order of large frees, which the speed probe's timer shifts, and in
    about one run in three the heap kept ~3.5 MB more, so `peak_rss_mb`
    jumped between two values.  False where there is no glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, MALLOC_THRESHOLD)
                and mallopt(m_trim_threshold, MALLOC_THRESHOLD))


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (statistics.quantiles, inclusive)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def source_digest() -> str:
    """Fingerprint of the program and the benchmark: counts are compared
    only between runs of identical code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def latency_metrics(calls, seconds) -> dict:
    """Rates, medians and tails of the calls, timed by `seconds(call)`."""
    def times(test):
        return [seconds(c) for c in calls if test(c)]
    creates = times(lambda c: c.kind == "create")
    verifies = times(lambda c: c.kind == "verify")
    accepts = times(lambda c: c.outcome == "accept")
    rejects = times(lambda c: c.outcome.startswith("reject:"))
    return {
        "create_per_s": len(creates) / sum(creates),
        "create_p50_ms": 1e3 * quantile(creates, 0.5),
        "create_p90_ms": 1e3 * quantile(creates, 0.9),
        "verify_per_s": len(verifies) / sum(verifies),
        "accept_p50_ms": 1e3 * quantile(accepts, 0.5),
        "accept_p90_ms": 1e3 * quantile(accepts, 0.9),
        "reject_p50_ms": 1e3 * quantile(rejects, 0.5),
    }, {"create": len(creates), "verify": len(verifies),
        "accept": len(accepts), "reject": len(rejects)}


def layer_metrics(times, counts) -> dict:
    out = {}
    for metric, _, kind, names, stat in LAYERS:
        agg = (counts if stat in COUNT_STATS else times)[kind]
        rows = [agg["names"].get(n, [0, 0, 0, 0]) for n in names]
        ops = agg["ops"]
        if stat == "total":
            value = agg["total_ns"] / ops / 1e6
        elif stat == "self":
            value = sum(r[0] for r in rows) / ops / 1e6
        elif stat == "calls":
            value = sum(r[1] for r in rows) / ops
        elif stat == "size":
            value = sum(r[2] for r in rows) / ops
        elif stat == "kb":
            value = sum(r[2] for r in rows) / ops / 1024
        else:
            value = sum(r[3] for r in rows) / max(1, sum(r[2] for r in rows))
        out[metric] = value
    return out


def check_accounting(times) -> list:
    """Every span must map to a metric, and self times must add up to the
    op totals."""
    problems = []
    mapped = {(kind, n) for _, _, kind, names, _ in LAYERS for n in names}
    for kind in ("create", "verify"):
        agg = times[kind]
        for name in agg["names"]:
            if (kind, name) not in mapped:
                problems.append(f"span {name} under op.{kind} has no metric")
        if sum(r[0] for r in agg["names"].values()) != agg["total_ns"]:
            problems.append(f"op.{kind} self times do not add up")
    return problems


def check_counts(workload, seed, counts) -> list:
    """Counts of one seed must repeat exactly between runs of the same code."""
    path = OUT / f"counts-{workload}-seed{seed}.json"
    record = {"source": source_digest(), "counts": counts}
    if path.exists():
        old = json.loads(path.read_text())
        if old["source"] == record["source"]:
            return [f"count {k} drifted: {old['counts'].get(k)} -> {v}"
                    for k, v in counts.items() if old["counts"].get(k) != v]
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return []


def set_up(wl) -> tuple:
    """SETUP_REPS set-ups; returns [(start, seconds)], the span roots of the
    first one, and problems."""
    times, digests, first_roots = [], set(), None
    for _ in range(SETUP_REPS):
        wl.keys = None
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        times.append((t0, time.perf_counter() - t0))
        digests.add(wl.keys.pk_digest)
        if first_roots is None:
            first_roots = list(wl.recorder.roots)
    problems = [] if len(digests) == 1 else [
        "set-up with one seed gave different proving keys"]
    return times, first_roots, problems


class Lane:
    """One copy of the workload's mutable state, run untraced or traced."""

    def __init__(self, wl, recorder):
        self.recorder = recorder
        self.state = wl.new_lane()
        self.calls = []


def run_loop(wl, lanes, seconds: float) -> tuple:
    """Ops 0, 1, ... on every lane in turn until `seconds` have passed and
    the exact-count window is done.  Returns the op count, the traced
    lane's window (span roots, calls, largest nonce store) and problems."""
    recorder = lanes[-1].recorder
    loop_start = len(recorder.roots)
    window = {"roots": [], "calls": [], "nonce_store_max": 0}
    problems = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        outputs = []
        for lane in lanes:
            op_calls, output = wl.run(lane.state, i, lane.recorder)
            lane.calls += op_calls
            outputs.append(output)
        if len(set(outputs)) != 1:
            problems.append(f"op {i}: traced and untraced outputs differ")
        if i < wl.window:       # op_calls are the last (traced) lane's
            window["calls"] += op_calls
            window["nonce_store_max"] = max(
                window["nonce_store_max"], wl.nonce_store_size(lanes[-1].state))
        if i + 1 == wl.window:
            window["roots"] = recorder.roots[loop_start:]
        i += 1
        if (i >= wl.window and i % wl.stride == 0
                and time.perf_counter() >= deadline):
            return i, window, problems


def end_to_end(wl, calls, setup_times, probe, failed, attempted) -> tuple:
    """Gated metrics (scaled time) and the lines printed beside them."""
    measured = wl.setup_calls + calls
    scaled, samples = latency_metrics(
        measured, lambda c: probe.scaled(c.start, c.seconds))
    raw, _ = latency_metrics(measured, lambda c: c.seconds)
    metrics = {"setup_s": statistics.median(
        probe.scaled(t0, s) for t0, s in setup_times)}
    metrics.update(scaled)
    metrics["ok_ratio"] = (attempted - failed) / attempted
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    units = dict(END_TO_END)
    lines = [f"samples: {json.dumps(samples)}; set-ups: "
             + ", ".join(f"{s:.4f}" for _, s in setup_times) + " s",
             f"error_ratio {failed / attempted:.6f} ({failed} of {attempted} "
             "ops)",
             "wall clock, unscaled (not gated):"]
    lines += [f"  {k:40s} {v:14.6f} {units[k]}" for k, v in raw.items()]
    return metrics, units, lines


def per_layer(args, wl, recorder, lanes, setup_roots, window, probe) -> tuple:
    """Per-layer metrics from the spans, and problems.  Self times are wall
    time (the probe's ~0.5% falls into whichever span is open); the tracing
    overhead compares the lanes in scaled time."""
    times = recorder.aggregate(recorder.roots)
    counts = recorder.aggregate(setup_roots + window["roots"])
    problems = check_accounting(times)
    metrics = layer_metrics(times, counts)
    metrics["groth16.setup_s"] = statistics.median(
        recorder.op_seconds(idx) for idx, kind in recorder.roots
        if kind == "setup")
    exact = {m: metrics[m] for m, _, _, _, stat in LAYERS
             if stat in COUNT_STATS}
    exact.update(wl.keys.context())
    rejects = dict.fromkeys(REJECT_STAGES, 0)
    for c in window["calls"]:
        kind, _, stage = c.outcome.partition(":")
        if kind == "exception":
            rejects["exception"] += 1
        elif kind == "reject":
            rejects[stage if stage in rejects else "other"] += 1
    exact.update({"protocol.reject." + k: v for k, v in rejects.items()})
    exact["protocol.nonce_store_max"] = window["nonce_store_max"]
    problems += check_counts(args.workload, args.seed, exact)
    metrics.update(exact)

    layer_ns = sum(r[0] for kind in ("create", "verify")
                   for name, r in times[kind]["names"].items()
                   if not name.startswith("op."))
    op_ns = sum(times[kind]["total_ns"] for kind in ("create", "verify"))
    untraced, traced = (sum(probe.scaled(c.start, c.seconds)
                            for c in lane.calls) for lane in lanes)
    metrics["trace.attributed_pct"] = 100.0 * layer_ns / op_ns
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    metrics["trace.spans_per_op"] = (
        sum(1 for s in recorder.spans if not s[2].startswith("op."))
        / len(recorder.roots))
    units = {m: u for m, u, *_ in LAYERS}
    units.update({"groth16.setup_s": "s", "trace.attributed_pct": "%",
                  "trace.overhead_pct": "%", "trace.spans_per_op": "count"})
    recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return metrics, units, problems


def defect_lines(wl) -> list:
    """Outcome of each ROADMAP item-1 case, delivered outside the timed
    loop; the protocol requires a reject for every one."""
    if not hasattr(wl, "defect_probe"):
        return []
    import workloads
    results = wl.defect_probe()
    open_ = [(label, outcome) for label, outcome in results
             if not outcome.startswith("reject:")]
    lines = [f"known item-1 defects: {len(open_)} of {len(results)} cases "
             "not rejected (untimed, outside the op counts)"]
    for label, outcome in results:
        note = ("fixed" if outcome.startswith("reject:") else
                "known defect" if outcome == workloads.KNOWN_DEFECTS[label]
                else "new outcome")
        lines.append(f"  {label:12s} required reject, got {outcome} ({note})")
    return lines


def run(args) -> int:
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    args.env_start["malloc_thresholds_fixed"] = fix_malloc_thresholds()
    traced = args.trace == 1
    recorder = spans.Recorder() if traced else spans.NullRecorder()
    wl = workloads.WORKLOADS[args.workload](args.seed, recorder)
    workloads.protocol.toy_group()    # the shared curve, built once, untimed
    probe = speed.SpeedProbe()
    probe.start()
    try:
        setup_times, setup_roots, problems = set_up(wl)
        lanes = [Lane(wl, spans.NullRecorder())]
        if traced:
            lanes.append(Lane(wl, recorder))
        n_ops, window, loop_problems = run_loop(wl, lanes, args.seconds)
    finally:
        probe.stop()
    problems += loop_problems

    all_calls = wl.setup_calls + [c for lane in lanes for c in lane.calls]
    failed = sum(1 for c in all_calls if not c.ok)
    problems += [f"{c.kind} {c.label}: got {c.outcome}" for c in all_calls
                 if not c.ok][:10]
    if traced:
        metrics, units, more = per_layer(args, wl, recorder, lanes,
                                         setup_roots, window, probe)
        problems += more
        lines = [f"traced ops: {len(recorder.roots)}; paired ops: {n_ops}"]
    else:
        metrics, units, lines = end_to_end(wl, lanes[0].calls, setup_times,
                                           probe, failed, len(all_calls))
    defects = defect_lines(wl)
    lines += defects

    env_end = environment()
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env.start " + json.dumps(args.env_start))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units.get(name, 'count')}")
    for line in lines + [f"problem: {p}" for p in problems]:
        print(line)
    print("env.end " + json.dumps(env_end))

    result = {"correct": not problems, "attempted": len(all_calls),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units.get(k, "count")}
                          for k, v in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, problems=problems,
                  known_defects=defects,
                  env_start=args.env_start, env_end=env_end)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["rss-broadcast", "roadside-verify",
                                 "audit-challenge"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    args.env_start = environment()
    if not (ROOT / "src" / "hermes_seal" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
