"""Benchmark of weakhj: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: transport, qtilde, constants, cli_cold (see bench/README.md).
The run builds the workload's inputs from the seed, computes every
reference value, then runs rounds of operations until `--seconds` have
passed (at least three rounds).  Each operation starts when the previous
one returns.  Each operation is timed between two runs of a fixed
calibration kernel and reported at the kernel's reference speed, which
cancels the slowdowns a shared machine imposes (README.md, "Timing").
With `--trace 1` rounds alternate untraced and traced, and
the per-layer metrics come from the spans of the set-up, the reference
stage and the first traced round.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
exit code is 1 when any operation failed.  `--smoke` runs toy sizes.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_ROUNDS = 3
TAIL_BEYOND = 10           # the tail percentile keeps ten samples beyond it
# Fastest time of `calibration_kernel` on the reference machine (2 x86-64
# cores, Python 3.11, NumPy 2.4).  Timings are reported as
# latency / kernel time * CAL_REF_S: seconds at the reference speed.
CAL_REF_S = 1.75e-4
CAL_SETUP_RUNS = 200       # kernel runs before and after each set-up
SETUP_PROBES = 5           # fresh interpreters timed per run

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
             "op_p50_ms": "ms", "op_tail_ms": "ms", "fail_frac": "ratio",
             "max_ref_err": "abs", "worst_gap": "abs", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("transport", "qtilde", "constants", "cli_cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes")
    p.add_argument("--setup-probe", action="store_true",
                   help="only time the set-up and print it (internal)")
    return p.parse_args(argv)


def pin_environment():
    """One BLAS thread and no WEAKHJ_THREADS; returns the inherited value."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return os.environ.pop("WEAKHJ_THREADS", None)


def git_commit():
    """Read the commit from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# set-up


def calibration_kernel(np):
    """Fixed interpreter and small-array NumPy work, the mix weakhj runs."""
    s = 0.0
    a = np.arange(16.0)
    for i in range(60):
        s += float(a[i % 16]) * 0.5
        a = np.where(a > s, a, a + 1.0)
    return s


def time_kernel(np):
    t0 = time.perf_counter()
    calibration_kernel(np)
    return time.perf_counter() - t0


def setup_probe(args):
    """Child mode: import weakhj, build the inputs, print the time taken."""
    start = time.perf_counter()
    import workloads
    tmp = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        workloads.build(args.workload, args.seed, args.smoke, tmp)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp)
    print(json.dumps({"raw_s": elapsed}))
    return 0


def time_setup_in_children(args, count, np):
    """Set-up times of `count` fresh interpreters, each at the reference
    speed measured by kernel runs in this process just before and after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(count):
        before = statistics.median(time_kernel(np) for _ in range(CAL_SETUP_RUNS))
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        after = statistics.median(time_kernel(np) for _ in range(CAL_SETUP_RUNS))
        raw = json.loads(done.stdout.strip().splitlines()[-1])["raw_s"]
        samples.append({"setup_s": raw / (before + after) * 2.0 * CAL_REF_S,
                        "raw_s": raw})
    return samples


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Outcome counts over every operation run, traced or not."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_ref_err = 0.0
        self.worst_gap = 0.0
        self.failures = []

    def record(self, key, check):
        self.attempted += 1
        if check.gap is not None:
            self.worst_gap = max(self.worst_gap, check.gap)
        self.max_ref_err = max(self.max_ref_err, check.err)
        if not check.ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"op": key, "why": check.note})


def measure(workload, seconds, recorder=None, package=None):
    """Run rounds of the workload's operations for about `seconds`, at
    least MIN_ROUNDS.  Every operation is timed between two runs of the
    calibration kernel.  Returns the rounds as (traced, {key: (latency,
    latency at the reference speed)}), the kernel times, the tally and
    the first traced round's outputs."""
    import numpy as np
    from workloads import Check

    tally = Tally()
    rounds = []
    kernels = []
    durations = []
    traced_outputs = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (time.perf_counter() - start
                                       + statistics.median(durations)) <= seconds:
        traced = recorder is not None and len(rounds) % 2 == 1
        keep = traced and len(rounds) == 1
        began = time.perf_counter()
        lat = {}
        before = time_kernel(np)
        with (recorder.active(len(rounds), package) if traced
              else contextlib.nullcontext()):
            for op in workload.ops:
                t0 = time.perf_counter()
                try:
                    out = op.call()
                    elapsed = time.perf_counter() - t0
                    failure = None
                except Exception:  # an operation failure, not a benchmark failure
                    elapsed = time.perf_counter() - t0
                    failure = traceback.format_exc(limit=3)
                after = time_kernel(np)
                kernels.append(after)
                lat[op.key] = (elapsed, elapsed / (before + after) * 2.0 * CAL_REF_S)
                before = after
                if failure is None:
                    try:
                        check = op.check(out)
                    except Exception:  # malformed output
                        check = Check(False, note=traceback.format_exc(limit=3))
                    if keep:
                        traced_outputs.append(out)
                else:
                    check = Check(False, note=failure)
                tally.record(op.key, check)
        durations.append(time.perf_counter() - began)
        rounds.append((traced, lat))
    return rounds, kernels, tally, traced_outputs


def per_op(rounds, traced, which):
    """Each operation's median latency over the rounds of one kind;
    `which` is 0 for the measured latency, 1 for the calibrated one."""
    lat = {}
    for is_traced, row in rounds:
        if is_traced == traced:
            for key, pair in row.items():
                lat.setdefault(key, []).append(pair[which])
    return {key: statistics.median(v) for key, v in lat.items()}


def timing_metrics(rounds, which=1):
    """wall_s, ops_per_s and the per-operation percentiles of the
    untraced rounds."""
    samples = sorted(per_op(rounds, False, which).values())
    n = len(samples)
    if n > TAIL_BEYOND:
        tail, pct = samples[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = samples[-1], 100.0
    wall = sum(samples)
    return {
        "wall_s": wall,
        "ops_per_s": n / wall,
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail * 1e3,
    }, {"tail_percentile": pct, "samples": n,
        "untraced_rounds": sum(1 for traced, _ in rounds if not traced),
        "traced_rounds": sum(1 for traced, _ in rounds if traced)}


def cli_output_metrics(outputs):
    """Bytes printed and error objects among CLI outputs (code, text)."""
    printed = [out[1] for out in outputs if isinstance(out, tuple)]
    errors = 0
    for text in printed:
        try:
            errors += "error" in json.loads(text)
        except json.JSONDecodeError:
            pass
    return {"cli.bytes_out": sum(len(t.encode()) for t in printed),
            "cli.error_objects": errors}


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "weakhj" / "__init__.py").is_file():
        print(f"error: no weakhj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    inherited_threads = pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import numpy
    setups = time_setup_in_children(args, 1 if args.smoke else SETUP_PROBES, numpy)

    import scipy
    import weakhj
    import spans
    import workloads

    recorder = spans.Recorder() if args.trace else None

    def traced(phase):
        return recorder.active(phase, weakhj) if recorder else contextlib.nullcontext()

    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        with traced("setup"):
            workload = workloads.build(args.workload, args.seed, args.smoke, tmp)
        with traced("ref"):
            workload.compute_references()
        rounds, kernels, tally, traced_outputs = measure(
            workload, args.seconds, recorder, weakhj)
    finally:
        shutil.rmtree(tmp)

    timing, timing_info = timing_metrics(rounds)
    raw, _ = timing_metrics(rounds, which=0)
    raw["setup_s"] = statistics.median(x["raw_s"] for x in setups)
    raw["kernel_ms"] = statistics.median(kernels) * 1e3
    e2e = {"setup_s": statistics.median(x["setup_s"] for x in setups), **timing,
           "fail_frac": tally.failed / tally.attempted,
           "max_ref_err": tally.max_ref_err, "worst_gap": tally.worst_gap,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "commit": git_commit(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "weakhj_threads_unset": "WEAKHJ_THREADS" not in os.environ,
        "weakhj_threads_inherited": inherited_threads,
    }
    record = {"facts": facts, "end_to_end": e2e, "timing": timing_info,
              "measured": raw, "setups": setups, "attempted": tally.attempted,
              "failed": tally.failed, "failures": tally.failures}

    if args.trace:
        layers = spans.layer_metrics(recorder, {"setup", "ref", 1})
        speed = CAL_REF_S / statistics.median(kernels)
        for m in spec["per_layer"]:
            if m["unit"] in ("s", "ms", "us") and m["name"] in layers:
                layers[m["name"]] *= speed
        layers.update(cli_output_metrics(traced_outputs))
        layers["trace.overhead_s"] = (sum(per_op(rounds, True, 1).values())
                                      - sum(per_op(rounds, False, 1).values()))
        record["per_layer"] = layers
        recorder.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        emitted = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        emitted = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for key, value in facts.items():
        print(f"fact {key} = {value}")
    for name, unit in E2E_UNITS.items():
        print(f"metric {name} = {e2e[name]:.6g} {unit}")
    print(f"op_tail_ms is p{timing_info['tail_percentile']:.1f} of "
          f"{timing_info['samples']} operations, each the median of its "
          f"{timing_info['untraced_rounds']} untraced rounds")
    print("timings are at the reference speed; as measured: "
          + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    if args.trace:
        for m in spec["per_layer"]:
            print(f"layer {m['name']} = {layers[m['name']]:.6g} {m['unit']}")
    for failure in tally.failures:
        print(f"FAILED {failure['op']}: {failure['why']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": emitted}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
