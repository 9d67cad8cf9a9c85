"""Benchmark of looptool's exact paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A run generates the workload's inputs from the seed (in a child process),
measures set-up in fresh child processes, then runs a fixed number of
passes over the workload's items in this process, one item at a time, and
checks every output exactly outside the timed region.  `--trace 0` reports
the end-to-end metrics, item timings rescaled to a reference speed of the
shared host (`hostspeed.py`); `--trace 1` the per-layer metrics of a traced
run.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Every run also writes a
result file under bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

#: Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150

#: name -> unit of the end-to-end metrics (`--trace 0`).
E2E = {"wall_s": "s", "setup_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms",
       "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """name -> unit of the per-layer metrics (`--trace 1`)."""
    from kernel import BITS, DEGREES, OPS
    from tracer import NF_OPS, SPANS
    units = {}
    for name in SPANS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units["rootsum.av_exact.n_exponent"] = "slope"
    units["diagrams.weight_flow.n_exponent"] = "slope"
    units["linalg.solve.size_exponent"] = "slope"
    for kind in NF_OPS:
        units[f"numberfield.{kind}.calls"] = "count"
        units[f"numberfield.{kind}.self_s"] = "s"
    units["numberfield.max_bits"] = "bits"
    units["numberfield.mul.zero_operand_ratio"] = "ratio"
    for op in OPS:
        for d in DEGREES:
            for b in BITS:
                units[f"numberfield.kernel.{op}_us.d{d}.b{b}"] = "us"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.remainder_share"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _child(args, *extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", args.workdir, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {extra[0]} exited with {proc.returncode}")
    return proc


def generate_inputs(args) -> dict:
    if os.path.isdir(args.workdir):
        shutil.rmtree(args.workdir)
    os.makedirs(args.workdir)
    _child(args, "--generate")
    with open(os.path.join(args.workdir, "manifest.json")) as fh:
        return json.load(fh)


def measure_setup(args) -> list:
    """Seconds from spawning a fresh process until its first item could run."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.time()
        proc = _child(args, "--setup-only")
        ready = float(proc.stdout.split("READY ")[1].split()[0])
        samples.append(ready - spawned)
    return samples


def child_main(args, workload) -> int:
    if args.generate:
        manifest = workload.generate(args.seed, args.workdir)
        with open(os.path.join(args.workdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1)
        return 0
    with open(os.path.join(args.workdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    workload.setup(args.workdir, manifest)
    print(f"READY {time.time()!r}", flush=True)
    return 0


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Passes:
    """Pass times, item latencies and output digests of consecutive passes.

    Without a tracer, a `hostspeed.Sampler` follows the host's speed while
    the items run; the time its probes take is not part of any latency."""

    def __init__(self, workload, items, tracer=None, tag="run"):
        self.workload, self.items = workload, items
        self.tracer, self.tag = tracer, tag
        self.times, self.latencies, self.hashes, self.raised = [], [], [], []
        self.spans, self.probes = [], []
        self.first_outputs = None
        self.first_lines = None

    def run(self, count: int) -> None:
        if self.tracer is not None:
            self._run(count)
            return
        from hostspeed import Sampler
        with Sampler() as sampler:
            bounds = self._run(count)
        self.probes = sampler.times
        for p, row in enumerate(bounds):
            net = [sampler.exclude(t0, t1) for t0, t1 in row]
            self.latencies[p] = [latency for latency, _ in net]
            self.spans.append([span for _, span in net])
            self.times[p] -= sum(t1 - t0 for t0, t1 in row) - sum(self.latencies[p])

    def _run(self, count: int) -> list:
        """The passes; returns the (start, end) clock readings of each item."""
        from workloads import sha256
        clock = time.perf_counter
        items, tracer = self.items, self.tracer
        bounds = []
        for p in range(count):
            outputs = [None] * len(items)
            latencies = [0.0] * len(items)
            row = [(0.0, 0.0)] * len(items)
            raised = {}
            start = clock()
            for i, item in enumerate(items):
                if tracer is not None:
                    tracer.item = (self.tag, p, i)
                t0 = clock()
                try:
                    outputs[i] = item.call()
                except Exception as exc:  # one failed item must not end the run
                    raised[i] = f"{type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
                t1 = clock()
                latencies[i], row[i] = t1 - t0, (t0, t1)
            self.times.append(clock() - start)
            if tracer is not None:
                tracer.item = None
            lines = [None if i in raised else self.workload.line(item, out)
                     for i, (item, out) in enumerate(zip(items, outputs))]
            self.hashes.append([line and sha256(line) for line in lines])
            self.latencies.append(latencies)
            self.raised.append(raised)
            bounds.append(row)
            if self.first_outputs is None:
                self.first_outputs, self.first_lines = outputs, lines
        return bounds

    def failures(self, errors: list) -> dict:
        """Failed item count per pass: raised, failed its check on the first
        pass's output, or gave a different output from the first pass."""
        first = self.hashes[0]
        failed = []
        for hashes, raised in zip(self.hashes, self.raised):
            failed.append(sum(1 for i, h in enumerate(hashes)
                              if i in raised or errors[i] is not None or h != first[i]))
        return {"per_pass": failed, "total": sum(failed)}

    def scaled(self) -> list:
        """Item latencies at the reference host speed (`hostspeed`)."""
        from hostspeed import at_reference
        return at_reference(self.latencies, self.spans, self.probes)

    def robust_wall(self, latencies=None) -> float:
        """Time to finish one pass, as the sum over items of each item's
        median latency across passes.  A burst of load on the machine
        slows the items it overlaps; the per-item median drops it, where
        the median of pass totals would not when bursts hit most passes."""
        from stats import median
        return sum(median(column) for column in zip(*(latencies or self.latencies)))

    def digest(self) -> str:
        from workloads import sha256
        return sha256("\n".join(line or "<raised>" for line in self.first_lines))


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def environment() -> dict:
    import hashlib
    import mpmath
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "looptool")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "mpmath": mpmath.__version__, "commit": commit,
            "src_sha256": src.hexdigest(), "platform": platform.platform()}


def fit_exponent(tracer, name: str, items, upper_half: bool) -> float:
    """Log-log slope of a function's per-item inclusive time against item
    size (n or unknowns), medians per size; upper half of the sizes only
    when `upper_half`."""
    from stats import grouped_medians, loglog_slope
    durations = tracer.durations(name)
    pairs = [(items[item[2]].size, d) for item, d in durations.items()
             if item is not None and item[0] == "traced"]
    per_size = grouped_medians(pairs)
    if upper_half and per_size:
        top = max(per_size)
        per_size = {s: t for s, t in per_size.items() if s > top / 2}
    return loglog_slope(per_size.items())


def run_workload(args, workload) -> int:
    from stats import median, tail
    passes = max(1, round(args.seconds / workload.pass_s))
    manifest = generate_inputs(args)
    setup_samples = measure_setup(args) if not args.trace else []

    import looptool  # noqa: F401  (imported before the tracer wraps it)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.item = ("setup",)
    setup_start = time.perf_counter()
    state = workload.setup(args.workdir, manifest)
    setup_in_process = time.perf_counter() - setup_start
    items = workload.items(state)
    if tracer is not None:
        tracer.item = None

    main = Passes(workload, items, tracer, "traced" if tracer else "run")
    main.run(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = None
    if tracer is not None:
        tracer.uninstall()
        untraced = Passes(workload, items)
        untraced.run(max(1, passes // 2))

    errors = workload.check(state, items, main.first_outputs)
    failures = main.failures(errors)
    attempted = passes * len(items)
    failed = failures["total"]
    notes = sorted({f"{items[i].label}: {e}" for i, e in enumerate(errors) if e})
    for raised in main.raised:
        notes += [f"{items[i].label}: {msg}" for i, msg in sorted(raised.items())]
    if untraced is not None:
        untraced_fail = untraced.failures(errors)["total"]
        if untraced.digest() != main.digest():
            untraced_fail = max(untraced_fail, 1)
            notes.append("untraced outputs differ from traced outputs")
        attempted += len(untraced.times) * len(items)
        failed += untraced_fail

    # timings at the reference host speed when probed (untraced), else raw
    per_pass = main.scaled() if tracer is None else main.latencies
    latencies = [x for lat in per_pass for x in lat]
    tail_value, tail_pct, tail_beyond = tail(latencies)
    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "items_per_pass": len(items),
        "digest_sha256": main.digest(), "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures_per_pass": failures["per_pass"],
        "notes": notes, "replay": manifest.get("replay", []),
        "environment": environment(),
        "pass_s": main.times, "pass_median_s": median(main.times),
        "setup_in_process_s": setup_in_process,
        "item_samples": len(latencies), "item_tail_percentile": tail_pct,
        "item_tail_beyond": tail_beyond,
        "item_median_s": {item.label: median([lat[i] for lat in per_pass])
                          for i, item in enumerate(items)},
        "latencies_s": main.latencies, "probe_spans": main.spans,
        "probes_s": main.probes,
    }
    metrics = {}
    if tracer is None:
        values = {"wall_s": main.robust_wall(per_pass),
                  "setup_s": median(setup_samples),
                  "item_p50_ms": median(latencies) * 1e3,
                  "item_tail_ms": tail_value * 1e3, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": E2E[k]} for k, v in values.items()}
        result["setup_samples_s"] = setup_samples
        result["raw_wall_s"] = main.robust_wall()
        consistent = True
    else:
        from kernel import sweep
        traced_wall = setup_in_process + sum(main.times)
        consistency = tracer.check_consistency(traced_wall)
        consistent = consistency["ok"]
        if not consistent:
            notes.append("layer self times do not add up to the traced wall time")
        values = {}
        for name, (calls, self_s) in tracer.span_totals().items():
            values[name + ".calls"] = calls
            values[name + ".self_s"] = self_s
        values["rootsum.av_exact.n_exponent"] = fit_exponent(
            tracer, "rootsum.av_exact", items, True)
        values["diagrams.weight_flow.n_exponent"] = fit_exponent(
            tracer, "diagrams.weight_flow", items, True)
        values["linalg.solve.size_exponent"] = fit_exponent(
            tracer, "linalg.solve", items, False)
        for kind in tracer.nf_calls:
            values[f"numberfield.{kind}.calls"] = tracer.nf_calls[kind]
            values[f"numberfield.{kind}.self_s"] = tracer.nf_self[kind]
        values["numberfield.max_bits"] = tracer.max_bits
        muls = tracer.nf_calls["mul"]
        values["numberfield.mul.zero_operand_ratio"] = tracer.mul_zero / muls if muls else 0.0
        values.update(sweep(args.seed))
        values["trace.overhead_ratio"] = main.robust_wall() / untraced.robust_wall()
        values["trace.remainder_share"] = consistency["remainder_s"] / traced_wall
        units = per_layer_units()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        result["consistency"] = consistency
        result["untraced_pass_s"] = untraced.times
        spans_path = os.path.join(
            RESULTS, f"{workload.name}-seed{args.seed}-spans.jsonl")
        os.makedirs(RESULTS, exist_ok=True)
        with open(spans_path, "w") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    result["metrics"] = metrics
    result["notes"] = notes[:50]
    correct = failed == 0 and consistent

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print_report(result)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def print_report(result: dict) -> None:
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={result['passes']} items/pass={result['items_per_pass']} "
          f"digest={result['digest_sha256'][:16]}")
    if not result["trace"]:
        extra = {"setup_s": f"median of {len(result['setup_samples_s'])} fresh processes",
                 "item_p50_ms": f"{result['item_samples']} samples",
                 "item_tail_ms": f"p{result['item_tail_percentile']:.1f}, "
                                 f"{result['item_samples']} samples, "
                                 f"{result['item_tail_beyond']} beyond"}
        for name, m in result["metrics"].items():
            print(f"  {name:14s} {m['value']:12.4f} {m['unit']:5s} {extra.get(name, '')}")
        print(f"  {'fail_ratio':14s} {result['fail_ratio']:12.4f} {'':5s} "
              f"{result['failed']} of {result['attempted']} items")
    else:
        c = result["consistency"]
        print(f"  consistency: self {c['self_sum_s']:.4f} s + remainder "
              f"{c['remainder_s']:.4f} s vs traced wall {c['traced_wall_s']:.4f} s: "
              f"{'ok' if c['ok'] else 'FAILED'}")
    for note in result["notes"]:
        print(f"  FAIL {note}")


def run_all(args) -> int:
    """Every workload, each in a fresh process; one table at the end."""
    from workloads import WORKLOADS
    summary, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        summary[name] = result
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--generate", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "looptool", "__init__.py")):
        print(f"error: no looptool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.generate or args.setup_only:
        return child_main(args, workload)
    args.workdir = os.path.join(WORK, f"{workload.name}-seed{args.seed}")
    return run_workload(args, workload)


if __name__ == "__main__":
    sys.exit(main())
