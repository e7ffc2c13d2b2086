"""nilcert benchmark: one workload per invocation.

    python3 perfbench/run.py --workload generic-cert --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; nilcert is imported from ./src.
The benchmark drives one process with one thread as a closed loop with a
single client: each op starts when the previous one has returned.  It
makes whole passes over the workload's op list (pass k built from the seed
and k) until --seconds have elapsed, checks every answer against a value
computed independently (see algebra.py), and prints as its last stdout
line one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  setup_s is the median over
SETUP_SAMPLES fresh processes of the time from spawn until the first timed
op could start: interpreter start, the import of nilcert, input
generation, dump building (cert-verify) and one warm-up op.

--trace 1 reports the per-layer metrics instead: the passes run with spans
around nilcert's layer boundaries (tracer.py), and a fresh untraced run of
the same workload and seed gives the tracing overhead.  Spans are written
to .perfbench-work/spans-<workload>-<seed>.bin.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
# Samples per pass above the reported tail latency.
TAIL_BEYOND = 10
# Unattributed traced time allowed on top of the measured overhead.
TRACE_SLACK = 0.02

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, SetupError  # noqa: E402

# The metrics of the result line.  latency_tail_s, failure_ratio and
# cert_bytes are printed on the lines before it instead: failure_ratio is 0
# and cert_bytes is 0 on two workloads, and the tail's run-to-run spread on
# a 2-vCPU VM reached 0.33 over 10 seeds, above 0.25, the largest bound
# BENCHMARK.json may set.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.mul.term_pairs", "count"),
    ("poly.add.calls", "count"),
    ("poly.add.self_s", "s"),
    ("poly.parse.self_s", "s"),
    ("poly.parse.bytes", "bytes"),
    ("poly.render.self_s", "s"),
    ("poly.self_s", "s"),
    ("certificates.node_witnesses.self_s", "s"),
    ("certificates.combine.calls", "count"),
    ("certificates.combine.self_s", "s"),
    ("certificates.gauss_product_witness.calls", "count"),
    ("certificates.membership_witness.calls", "count"),
    ("certificates.verify_symbolic.self_s", "s"),
    ("certificates.root_witness_terms", "count"),
    ("certificates.dump.self_s", "s"),
    ("certificates.dump.bytes", "bytes"),
    ("certificates.load.self_s", "s"),
    ("certificates.power_check.self_s", "s"),
    ("certificates.self_s", "s"),
    ("oracles.generic_closure.calls", "count"),
    ("oracles.generic_closure.misses", "count"),
    ("oracles.generic_closure.hit_ratio", "ratio"),
    ("oracles.generic_closure.self_s", "s"),
    ("oracles.mod_membership.calls", "count"),
    ("oracles.mod_membership.self_s", "s"),
    ("oracles.self_s", "s"),
    ("engine.grow_digraph.self_s", "s"),
    ("engine.case_split.calls", "count"),
    ("engine.case_split.self_s", "s"),
    ("engine.nodes", "count"),
    ("engine.edges", "count"),
    ("engine.root_exponent.self_s", "s"),
    ("engine.structural_metrics.self_s", "s"),
    ("engine.self_s", "s"),
    ("rings.xgcd.calls", "count"),
    ("rings.xgcd.self_s", "s"),
    ("rings.power.calls", "count"),
    ("rings.power.self_s", "s"),
    ("rings.self_s", "s"),
    ("induction.ln_decompose.calls", "count"),
    ("induction.ln_decompose.self_s", "s"),
    ("induction.run_induction.self_s", "s"),
    ("induction.poset_elements", "count"),
    ("induction.self_s", "s"),
    ("dot.emit_dot.self_s", "s"),
    ("dot.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_coverage", "ratio"),
)


def import_nilcert():
    sys.path.insert(0, str(ROOT / "src"))
    import nilcert
    import nilcert.cli

    return nilcert


def prepare(workload_name: str, seed: int, workdir: Path):
    """Everything before the first timed op: import, inputs, warm-up."""
    nilcert = import_nilcert()
    workload = WORKLOADS[workload_name]()
    workload.setup(workdir, nilcert)
    first_pass = workload.ops(seed, 0)
    warmup = workload.warmup()
    error = warmup.check(warmup.execute(nilcert), {"cert_bytes": 0, "report_bytes": 0})
    if error is not None:
        raise SetupError(f"warm-up op {warmup.tag} failed: {error}")
    return nilcert, workload, first_pass


def run_passes(nilcert, workload, first_pass, seed, seconds, tracer=None):
    """Whole passes until `seconds` have elapsed; returns per-op records."""
    tally = {"cert_bytes": 0, "report_bytes": 0}
    records = []  # (pass index, tag, latency s, error or None)
    walls = []
    cert_bytes_first_pass = 0

    def attempt(op):
        start = time.perf_counter()
        try:
            result = op.execute(nilcert)
        except Exception as exc:  # any exception is a failed op
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        try:
            return latency, op.check(result, tally)
        except Exception as exc:
            return latency, f"unreadable answer: {type(exc).__name__}: {exc}"

    if tracer is not None:
        attempt = tracer.span("bench.op", attempt)
    ops, pass_index, elapsed = first_pass, 0, 0.0
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(records)
            latency, error = attempt(op)
            records.append((pass_index, op.tag, latency, error))
        walls.append(time.perf_counter() - pass_start)
        if pass_index == 0:
            cert_bytes_first_pass = tally["cert_bytes"]
        elapsed += walls[-1]
        if elapsed >= seconds:
            break
        pass_index += 1
        ops = workload.ops(seed, pass_index)
    return records, walls, len(first_pass), cert_bytes_first_pass, tally


def tail_rank(samples: int, pass_size: int) -> int:
    """1-based rank of the tail latency: the highest sample with, per pass of
    pass_size ops, at least TAIL_BEYOND samples above it."""
    return max(1, samples - TAIL_BEYOND * samples // pass_size)


def print_mix(records) -> None:
    """Ops and op time per op type (the first word of the op tag)."""
    busy = sum(r[2] for r in records)
    kinds: dict[str, list[float]] = {}
    for _, tag, latency, _ in records:
        kinds.setdefault(tag.split()[0], []).append(latency)
    for kind, times in sorted(kinds.items()):
        print(f"  op type {kind:<9} {len(times):5d} ops {sum(times):9.3f} s "
              f"({100 * sum(times) / busy:5.1f}% of op time), median {statistics.median(times):.5f} s")


def child(args, *extra) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def setup_sample(args) -> float:
    """Seconds from spawning a fresh process until it is ready to time.

    The child reports the moment it is ready on the system-wide monotonic
    clock, so its exit is not counted and a hung child cannot block the
    parent past CHILD_TIMEOUT_S."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = child(args, "--setup-only")
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise SetupError(f"setup process exited {proc.returncode}")
    return float(words[1]) - start


def reference_wall_per_op(args) -> float:
    """Untraced wall seconds per op, from a fresh process."""
    proc = child(args, "--trace", "0", "--reference")
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    for line in out.splitlines():
        if line.startswith("reference wall_per_op_s "):
            return float(line.split()[-1])
    raise SetupError(f"reference run exited {proc.returncode} without a wall time")


def layer_metrics(tracer, traced_wall: float, attempted: int, reference_per_op: float, tally):
    values = {}
    for name, _ in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tracer.calls_of(stem)
        elif field == "self_s" and "." in stem:
            values[name] = tracer.self_of(stem)
    for layer, seconds in tracer.layer_self().items():
        values[f"{layer}.self_s"] = seconds
    hits, misses = tracer.cache_counts("oracles.generic_closure")
    values["oracles.generic_closure.misses"] = misses
    values["oracles.generic_closure.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for counter in ("poly.mul.term_pairs", "poly.parse.bytes", "certificates.root_witness_terms",
                    "certificates.dump.bytes", "engine.nodes", "engine.edges",
                    "induction.poset_elements", "dot.bytes"):
        values[counter] = tracer.counters.get(counter, 0)
    values["cli.report_bytes"] = tally["report_bytes"]
    values["trace.spans"] = len(tracer.start)
    values["trace.overhead_ratio"] = traced_wall / (reference_per_op * attempted) - 1
    values["trace.self_coverage"] = sum(tracer.self_s) / traced_wall
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nilcert" / "__init__.py").is_file():
        print(f"error: no nilcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_only:
            prepare(args.workload, args.seed, workdir)
            print("ready", repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
            return 0
        return measure(args, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    traced = args.trace == 1
    setup_times = []
    reference_per_op = None
    if traced:
        reference_per_op = reference_wall_per_op(args)
    elif not args.reference:
        setup_times = [setup_sample(args) for _ in range(SETUP_SAMPLES)]

    nilcert, workload, first_pass = prepare(args.workload, args.seed, workdir)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        records, walls, pass_size, cert_bytes, tally = run_passes(
            nilcert, workload, first_pass, args.seed, args.seconds, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(records)
    failures = [r for r in records if r[3] is not None]
    for pass_index, tag, _, error in failures[:20]:
        print(f"FAILED pass {pass_index} op {tag!r}: {error}", file=sys.stderr)
    wall = sum(walls)
    if args.reference:
        print(f"reference wall_per_op_s {wall / attempted!r}")
        return 0

    correct = not failures
    if traced:
        values = layer_metrics(tracer, wall, attempted, reference_per_op, tally)
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.bin"
        tracer.write(spans_path)
        unattributed = wall - sum(tracer.self_s)
        allowed = max(wall - reference_per_op * attempted, 0.0) + TRACE_SLACK * wall
        print(f"trace: {len(tracer.start)} spans in {spans_path.relative_to(ROOT)}; "
              f"traced wall {wall:.3f} s, untraced {reference_per_op * attempted:.3f} s, "
              f"unattributed {unattributed:.4f} s (allowed {allowed:.4f} s)")
        for layer, seconds in sorted(tracer.layer_self().items(), key=lambda kv: -kv[1]):
            print(f"  layer {layer:<13} self {seconds:10.4f} s  {100 * seconds / wall:5.1f}%")
        if abs(unattributed) > allowed or min(tracer.self_s) < -1e-9:
            print("error: layer self times do not add up to the traced wall time", file=sys.stderr)
            correct = False
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        latencies = sorted(r[2] for r in records)
        rank = tail_rank(attempted, pass_size)
        values = {
            "setup_s": statistics.median(setup_times),
            "throughput_ops_s": (attempted - len(failures)) / wall,
            "latency_p50_s": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        for name, unit in END_TO_END:
            print(f"{name} {values[name]!r} {unit}")
        print(f"latency_tail_s {latencies[rank - 1]!r} s (p{100 * rank / attempted:.2f} "
              f"over {attempted} samples, {attempted - rank} above it)")
        print(f"failure_ratio {len(failures) / attempted!r} ratio ({len(failures)}/{attempted})")
        if args.workload == "generic-cert":
            print(f"cert_bytes {cert_bytes} bytes (first pass)")
        print_mix(records)
        print(f"passes {len(walls)} of {pass_size} ops, wall {wall:.3f} s; "
              f"setup samples {[round(t, 4) for t in setup_times]}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
