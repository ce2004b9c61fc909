"""Benchmark driver for toricmirror: one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: the package is imported from ``src/`` of the checkout this
file sits in, and the benchmark exits with status 2 when that is missing.
It sets up the workload, runs whole request cycles, at least two, until
``--seconds`` have passed, checks every request against its oracle, writes a
results file under ``perfbench/results/`` and prints, as the last line of
stdout, ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is split
into an untraced half and a traced repeat of the same requests, and the
metrics are the per-layer ones (boundaries the workload does not cross are
timed on other workloads' cheapest requests).  A readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_p50_s", "s"),
    ("verdict_tail_s", "s"),
    ("throughput_rps", "1/s"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# metric, unit, span name, work count in that span (None: self time per call)
PER_LAYER = (
    ("toric_core.build_s", "s", "toric_core.build", None),
    ("toric_core.vertices_s", "s", "toric_core.vertices", None),
    ("toric_core.vertex_subsets", "count", "toric_core.vertices", "vertex_subsets"),
    ("disc_algebra.series_s", "s", "disc_algebra.series", None),
    ("disc_algebra.to_admissible_s", "s", "disc_algebra.to_admissible", None),
    ("disc_algebra.prop21_s", "s", "disc_algebra.prop21", None),
    ("disc_algebra.convolve_s", "s", "disc_algebra.convolve", None),
    ("disc_algebra.classes", "count", "disc_algebra.series", "classes"),
    ("disc_algebra.convolve_pairs", "count", "disc_algebra.convolve", "convolve_pairs"),
    ("syz_transform.transform_s", "s", "syz_transform.transform", None),
    ("syz_transform.exp_w_s", "s", "syz_transform.exp_w", None),
    ("syz_transform.product_s", "s", "syz_transform.product", None),
    ("syz_transform.compare_s", "s", "syz_transform.compare", None),
    ("syz_transform.terms", "count", "syz_transform.exp_w", "terms"),
    ("lg_model.superpotential_s", "s", "lg_model.superpotential", None),
    ("lg_model.newton_s", "s", "lg_model.newton", None),
    ("lg_model.evaluate_s", "s", "lg_model.evaluate", None),
    ("lg_model.starts", "count", "lg_model.newton", "starts"),
    ("lg_model.failed_starts", "count", "lg_model.newton", "failed_starts"),
    ("lg_model.roots", "count", "lg_model.newton", "roots"),
    ("quantum_ring.presentation_s", "s", "quantum_ring.presentation", None),
    ("quantum_ring.substitute_s", "s", "quantum_ring.substitute", None),
    ("quantum_ring.quotient_s", "s", "quantum_ring.quotient", None),
    ("quantum_ring.reduce_s", "s", "quantum_ring.reduce", None),
    ("quantum_ring.spectrum_s", "s", "quantum_ring.spectrum", None),
    ("quantum_ring.dim", "count", "quantum_ring.quotient", "dim"),
    ("quantum_ring.degree_cap", "count", "quantum_ring.quotient", "degree_cap"),
    ("quantum_ring.macaulay_monomials", "count", "quantum_ring.quotient", "macaulay_monomials"),
    ("cli.process_s", "s", "cli.process", None),
    ("cli.interpreter_s", "s", "cli.interpreter", None),
    ("cli.import_s", "s", "cli.import", None),
    ("cli.run_s", "s", "cli.run", None),
    ("cli.report_bytes", "count", "cli.process", "report_bytes"),
    ("tropical.count_s", "s", "tropical.count", None),
)
DERIVED = (("lg_model.root_yield", "ratio"), ("trace.overhead_ratio", "ratio"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in a fresh process, print it, exit")
    return p.parse_args(argv)


def timed_setup(workload, tracer):
    start = time.perf_counter()
    ctx = workload.setup(tracer)
    seconds = time.perf_counter() - start
    module = Path(sys.modules["toricmirror"].__file__).resolve()
    if SRC.resolve() not in module.parents:
        raise SystemExit(f"perfbench: toricmirror imported from {module}, not {SRC}")
    return ctx, seconds


def setup_probe(args):
    """Set-up time measured in a fresh interpreter, as a user pays it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True,
    ).stdout
    return float(out.split()[-1])


def run_loop(workload, ctx, cycle_iter, seconds, tracer):
    """Closed loop over whole cycles, at least two, until ``seconds`` have passed.

    Whole cycles keep the request mix, and so the percentiles, the same in
    every run; the last cycle may run over.  Two cycles at least keep the
    sample count from halving when a slow machine stretches one long cycle
    past ``seconds``.
    """
    done, ran = [], []
    start = time.perf_counter()
    for cycle in cycle_iter:
        for req in cycle:
            tracer.request = len(done)
            with tracer.span("request"):
                outcome = workload.execute(req, ctx, tracer)
            done.append((req, outcome))
        ran.append(cycle)
        if len(ran) >= 2 and time.perf_counter() - start >= seconds:
            break
    return done, ran, time.perf_counter() - start


def tail(times):
    """Highest order statistic with ten samples beyond it, and its percentile.

    With ten samples or fewer no such statistic exists; the maximum stands in.
    """
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(workload, ctx, done, wall, setup_samples):
    times = [o.seconds for _, o in done]
    tail_value, tail_pct = tail(times)
    passed = sum(o.status == workloads.PASS for _, o in done)
    if workload is workloads.CLI_DESK:
        rss_kb = ctx.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup_samples),
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": tail_value,
        "throughput_rps": len(done) / wall,
        "pass_ratio": passed / len(done),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "verdict_p50_s": f"n={len(times)}",
        "verdict_tail_s": f"p{tail_pct:.1f}, n={len(times)}",
        "throughput_rps": f"{len(done)} requests in {wall:.2f} s",
        "pass_ratio": f"failed_ratio {1 - values['pass_ratio']:.4f}",
        "peak_rss_mb": "largest toricmirror child" if workload is workloads.CLI_DESK
        else "benchmark process",
    }
    return values, notes, tail_pct


def per_layer(spans_list, probe_spans, overhead_ratio):
    """Per-layer metrics; boundaries absent from ``spans_list`` come from the probe."""
    agg = spans.aggregate(spans_list)
    probe = spans.aggregate(probe_spans)
    values, probed = {}, set()
    for metric, _, span, count in PER_LAYER:
        entry = agg.get(span)
        if entry is None:
            entry = probe[span]
            probed.add(metric)
        if count is None:
            values[metric] = entry["self_s"] / entry["calls"]
        else:
            values[metric] = entry["counts"].get(count, 0) / entry["calls"]
    newton = (agg.get("lg_model.newton") or probe["lg_model.newton"])["counts"]
    values["lg_model.root_yield"] = newton["roots"] / newton["starts"]
    values["trace.overhead_ratio"] = overhead_ratio
    layers = {}
    for name, entry in agg.items():
        if "." in name:
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    return values, agg, layers, sorted(probed)


def probe_other_layers(workload, seed, tracer):
    """The other workloads' probe requests, traced into ``tracer``."""
    done = []
    for name, wanted in workloads.PROBES.items():
        other = workloads.WORKLOADS[name]
        if other is workload:
            continue
        requests = [r for r in next(workloads.cycles(other, seed)) if wanted(r)]
        ctx = other.setup(tracer)
        ran, _, _ = run_loop(other, ctx, iter([requests]), 0.0, tracer)
        other.finish(ctx, ran, tracer)
        done += ran
    if workload is not workloads.CLI_DESK:
        probe_cli(tracer)
    return done


def environment(args):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "toricmirror" / "__init__.py").is_file():
        print(f"perfbench: no toricmirror package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.chdir(ROOT)
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        print(timed_setup(workload, spans.NullTracer())[1])
        return 0

    setup_samples = [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    ctx, seconds = timed_setup(workload, tracer)
    setup_samples.append(seconds)

    cycle_iter = workloads.cycles(workload, args.seed)
    if args.trace:
        done, ran, wall = run_loop(workload, ctx, cycle_iter, args.seconds / 2,
                                   spans.NullTracer())
        traced, _, traced_wall = run_loop(workload, ctx, iter(ran), math.inf, tracer)
        for (_, base), (_, again) in zip(done, traced):
            if again.status != base.status and base.status != workloads.FAILED:
                base.status, base.note = workloads.FAILED, "traced verdict differs"
        done_all = done + traced
    else:
        done, ran, wall = run_loop(workload, ctx, cycle_iter, args.seconds,
                                   spans.NullTracer())
        done_all = done
    workload.finish(ctx, done_all, tracer)
    if args.trace:
        if workload is workloads.CLI_DESK:
            probe_cli(tracer)
        probe = spans.Tracer()
        done_all = done_all + probe_other_layers(workload, args.seed, probe)

    e2e, notes, tail_pct = end_to_end(workload, ctx, done, wall, setup_samples)
    tally = {s: sum(o.status == s for _, o in done_all)
             for s in (workloads.PASS, workloads.KNOWN_DEFECT, workloads.FAILED)}
    failed = tally[workloads.FAILED]
    result = {
        "environment": environment(args),
        "requests": len(done),
        "cycles": len(ran),
        "requests_per_cycle": len(ran[0]),
        "input_sizes": ctx.sizes,
        "tally": tally,
        "failures": [
            {"kind": r.kind, "input": r.input, "q": [str(x) for x in r.q],
             "seed": r.seed, "status": o.status, "note": o.note}
            for r, o in done_all if o.status != workloads.PASS
        ],
        "request_seconds": [[r.kind, r.input, [str(x) for x in r.q], o.seconds]
                            for r, o in done],
        "setup_samples_s": setup_samples,
        "end_to_end": e2e,
        "end_to_end_notes": notes,
        "verdict_tail_percentile": tail_pct,
    }
    if args.trace:
        layer_values, agg, layers, probed = per_layer(tracer.spans, probe.spans,
                                                      traced_wall / wall)
        result.update(per_layer=layer_values, probed_metrics=probed,
                      span_totals=agg, layer_self_s=layers, spans=tracer.spans,
                      probe_spans=probe.spans)
        metrics = {m: {"value": layer_values[m], "unit": u}
                   for m, u, _, _ in PER_LAYER}
        metrics.update({m: {"value": layer_values[m], "unit": u} for m, u in DERIVED})
    else:
        metrics = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END}

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(done)} requests "
          f"in {len(ran)} cycles; tally {tally}", file=sys.stderr)
    for name, entry in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}"
              + (f"  ({note})" if note else ""), file=sys.stderr)
    for item in result["failures"]:
        print(f"  {item['status']}: {item['kind']} {item['input']} q={item['q']}: "
              f"{item['note']}", file=sys.stderr)
    print(f"  results: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(done_all),
                      "failed": failed, "metrics": metrics}))
    return 0


def probe_cli(tracer):
    """Interpreter start alone, and the package import alone, five times each."""
    for _ in range(SETUP_SAMPLES):
        with tracer.span("cli.interpreter"):
            subprocess.run([sys.executable, "-c", "pass"], check=True)
    code = ("import time; t = time.perf_counter(); import toricmirror.cli; "
            "print(t, time.perf_counter())")
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout.split()
        tracer.add("cli.import", float(out[0]), float(out[1]))


if __name__ == "__main__":
    sys.exit(main())
