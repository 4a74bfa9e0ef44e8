"""gramflow benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload sentences --seed 1 --seconds 15 --trace 0

Workloads: sentences, long_parse, corpus, cli (see bench/README.md).  The
benchmark is a closed loop: one process, one client, each operation issued
after the previous one returns.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` runs half the time unwrapped,
then the same number of rounds with every public layer function wrapped in
spans, and reports per-layer metrics plus the tracing overhead.

Every time metric is scaled by a reference kernel run between operations
(see probe.py), so that it does not follow the speed of a shared machine;
the unscaled figures are printed as text.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from BENCHMARK.json.  Any wrong output makes the exit code 1.
"""

from __future__ import annotations

import os

# one BLAS thread, for this process and every child it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

from probe import NOMINAL_S, Scaler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 9
BANDS = ((1, 16), (17, 64), (65, 128), (129, 256))    # wire-count bands of reduce


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def tail(samples):
    """(percentile, value): the highest percentile with at least 10 samples beyond it.

    That is p = 100 (n - 10) / n, which moves smoothly with the sample
    count, capped at p99: further out, a run on a shared machine measures
    the machine's scheduling hiccups rather than the program.  With fewer
    than 20 samples the maximum is reported as percentile 100.
    """
    n = len(samples)
    if n < 20:
        return 100.0, float(max(samples))
    p = min(99.0, 100.0 * (n - 10) / n)
    return p, float(np.percentile(samples, p))


# --------------------------------------------------------------------------
# set-up, timed in fresh interpreters

_SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, {here!r})
import probe
probe.kernel()
before = probe.measure()
t0 = time.perf_counter()
import gramflow
t1 = time.perf_counter()
import gramflow.cli
t2 = time.perf_counter()
{code}
t3 = time.perf_counter()
f = probe.factor(before, probe.measure())
print(json.dumps([f * (t1 - t0), f * (t2 - t1), f * (t3 - t2)]))
"""


class SetupSampler:
    """Times the program's set-up in fresh interpreters, one sample at a time.

    Set-up is importing gramflow (and gramflow.cli for the CLI workload)
    plus the workload's own loads, scaled by the reference kernel run in
    the same interpreter just before and after (see probe.py).  Samples
    are spread over the run, so their median does not hang on one moment.
    """

    def __init__(self, wl):
        self.cli = wl.name == "cli"
        self.code = _SETUP_CHILD.format(here=HERE, code=wl.setup_code())
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.setups, self.imports = [], []
        self.sample(keep=False)                 # warm-up: bytecode and file caches

    def sample(self, keep=True):
        proc = subprocess.run([sys.executable, "-c", self.code], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        pkg, cli, load = json.loads(proc.stdout.strip().splitlines()[-1])
        if keep:
            self.setups.append(pkg + load + (cli if self.cli else 0.0))
            self.imports.append(pkg + cli)

    def during(self, seconds):
        """A between-rounds hook taking SETUP_SAMPLES samples evenly over ``seconds``."""
        def hook(tally):
            due = len(self.setups) * seconds / SETUP_SAMPLES
            if len(self.setups) < SETUP_SAMPLES and tally.wall >= due:
                self.sample()
        return hook

    def result(self):
        """(setup_s, cli_import_ms) as medians, topping up to SETUP_SAMPLES samples."""
        while len(self.setups) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.setups), 1000 * statistics.median(self.imports)


# --------------------------------------------------------------------------
# the closed loop


class Tally:
    """Operation times of one phase: ``raw`` as measured, ``latencies`` scaled (probe.py)."""

    def __init__(self):
        self.scaler = Scaler()
        self.raw = []
        self.items = 0
        self.wall = 0.0
        self.rounds = 0
        self.failures = []

    def start(self):
        self.stages = 0
        self.op_s = 0.0
        self.t0 = perf_counter()

    def lap(self):
        """Ends a stage of the current operation; the kernel runs outside the measured time."""
        self._stage(perf_counter() - self.t0)
        self.scaler.flush()
        self.t0 = perf_counter()

    def stop(self):
        self._stage(perf_counter() - self.t0)
        self.raw.append(self.op_s)

    def _stage(self, seconds):
        self.op_s += seconds
        self.wall += seconds
        self.scaler.add(seconds, same_operation=self.stages > 0)
        self.stages += 1

    @property
    def latencies(self):
        self.scaler.flush()
        return self.scaler.scaled

    @property
    def attempted(self):
        return len(self.raw)


def run_rounds(wl, api, tally, first_round, seconds=None, rounds=None, between=None):
    """Run whole rounds until ``seconds`` of measured time or ``rounds`` rounds have passed.

    Measured time is the sum of the operations' own times.  Input
    generation, output checks, the reference kernel and ``between(tally)``
    happen outside it.
    """
    r = first_round
    wl.lap = tally.lap
    while (tally.wall < seconds) if rounds is None else (r - first_round < rounds):
        batch = wl.round(r)
        outs = []
        for item in batch:
            with api.scope("op", **wl.scope(item)):
                tally.start()
                try:
                    out = wl.op(api, item)
                except Exception:                       # counted, reported, loop goes on
                    out = traceback.format_exc()
                tally.stop()
            outs.append(out)
            wl.after_op()
        for item, out in zip(batch, outs):
            err = out if isinstance(out, str) else wl.check(item, out)
            if err:
                tally.failures.append(err)
            else:
                tally.items += wl.items_of(item, out)
        batch = outs = item = out = None    # free this round before making the next
        tally.rounds += 1
        r += 1
        if between:
            between(tally)
    return r


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --------------------------------------------------------------------------
# per-layer metrics from spans


def band_of(wires):
    return next((f"w{lo}-{hi}" for lo, hi in BANDS if lo <= wires <= hi), None)


def layer_metrics(rec, overhead_ratio, import_ms):
    """Per-layer counts and self times (``busy_s``) summed over the traced spans."""
    selfs = rec.self_times()
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for i, (name, start, end, parent, attrs) in enumerate(rec.spans):
        if name in ("op", "setup"):
            continue
        add(f"{name}.calls", 1)
        add(f"{name}.busy_s", selfs[i])
        if name == "pregroup.reduce":
            band = band_of(attrs["wires"])
            if band:
                add(f"{name}.calls.{band}", 1)
                add(f"{name}.busy_s.{band}", selfs[i])
            add("reduce.accepted", attrs["accepted"])
            add("reduce.repeat", attrs["repeat"])
        elif name == "pregroup.enumerate_reductions":
            add(f"{name}.witnesses", attrs["witnesses"])
        elif name == "semantics.meaning":
            cls = rec.root_attr(i, "class")
            if cls:
                add(f"{name}.busy_s.{cls}", selfs[i])
        elif name == "cli.main":
            add(f"{name}.busy_s.{attrs['sub']}", selfs[i])
        elif name in ("tensors.read_tensor", "distributional.save_model",
                      "distributional.load_model"):
            add(f"{name}.bytes", attrs["bytes"])
        elif name == "lexicon.load_lexicon":
            add(f"{name}.entries", attrs["entries"])
        elif name == "distributional.load_corpus":
            add(f"{name}.tokens", attrs["tokens"])

    reduce_calls = m.get("pregroup.reduce.calls", 0)
    m["pregroup.reduce.accepted_ratio"] = m.pop("reduce.accepted", 0) / max(reduce_calls, 1)
    m["pregroup.reduce.repeat_ratio"] = m.pop("reduce.repeat", 0) / max(reduce_calls, 1)
    for lo, hi in BANDS:
        band = f"w{lo}-{hi}"
        n = m.get(f"pregroup.reduce.calls.{band}", 0)
        m[f"pregroup.reduce.ms_per_call.{band}"] = (
            1000 * m.get(f"pregroup.reduce.busy_s.{band}", 0.0) / n if n else 0.0)
    for name in ("pregroup.reduce", "semantics.meaning"):
        n = m.get(f"{name}.calls", 0)
        m[f"{name}.ms_per_call"] = 1000 * m.get(f"{name}.busy_s", 0.0) / n if n else 0.0
    m["cli.import_ms"] = import_ms
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def print_layer_table(m):
    print("per-layer (traced half; busy_s is self time):")
    for key in sorted(m):
        print(f"  {key:44s} {m[key]:.6g}")


# --------------------------------------------------------------------------


END_TO_END_NAMES = {
    "sentences": ("sentences_per_s", "sentence_p50_ms", "sentence_tail_ms"),
    "long_parse": ("parses_per_s", "parse_p50_ms", "parse_tail_ms"),
    "corpus": ("corpus_tokens_per_s", "corpus_pass_p50_ms", "corpus_pass_tail_ms"),
    "cli": ("cli_calls_per_s", "cli_call_p50_ms", "cli_call_tail_ms"),
}


def end_to_end(wl, tally, setup_s):
    lat_ms = [1000 * x for x in tally.latencies]
    p, tail_ms = tail(lat_ms)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": tally.items / (sum(lat_ms) / 1000),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    rate, p50, tl = END_TO_END_NAMES[wl.name]
    n = tally.attempted
    lines = [
        f"workload {wl.name}: {n} operations in {tally.rounds} rounds, "
        f"{tally.wall:.2f} s measured; throughput counts {wl.item}s",
        f"  setup_s           {setup_s:.4f} s (median of {SETUP_SAMPLES})",
        f"  peak_rss_mb       {metrics['peak_rss_mb']:.1f} MB",
        f"  failed_ratio      {len(tally.failures) / max(n, 1):.4g} ({len(tally.failures)}/{n})",
        f"  {rate:17s} {metrics['throughput_per_s']:.6g} 1/s ({wl.item}s per second)",
        f"  {p50:17s} {metrics['latency_p50_ms']:.4f} ms",
        f"  {tl:17s} {tail_ms:.4f} ms (p{p:.4g} of {n})",
        f"times are scaled to a {1000 * NOMINAL_S:g} ms reference kernel (bench/probe.py); "
        f"it took {1000 * statistics.median(tally.scaler.kernel_s):.3f} ms here (median)",
        f"  unscaled: {tally.items / tally.wall:.6g} {wl.item}s/s, "
        f"p50 {1000 * statistics.median(tally.raw):.4f} ms",
    ]
    return metrics, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "gramflow", "__init__.py")):
        fail(f"no gramflow sources under {SRC}")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import gramflow

    if os.path.dirname(os.path.abspath(gramflow.__file__)) != os.path.join(SRC, "gramflow"):
        fail(f"imported gramflow from {gramflow.__file__}, not from {SRC}")

    from spans import Recorder, instrument, plain_api
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work, ROOT)
        wl.prepare()
        setup = SetupSampler(wl)
        plain = plain_api(gramflow)
        wl.load(plain)
        warm = Tally()
        next_round = run_rounds(wl, plain, warm, -1, rounds=1)
        tally = Tally()
        traced = Tally()
        if args.trace == 0:
            run_rounds(wl, plain, tally, next_round, seconds=args.seconds,
                       between=setup.during(args.seconds))
            metrics, lines = end_to_end(wl, tally, setup.result()[0])
            wanted = spec["end_to_end"]
        else:
            next_round = run_rounds(wl, plain, tally, next_round, seconds=args.seconds / 2,
                                    between=setup.during(args.seconds / 2))
            rec = Recorder()
            api, restore = instrument(rec, gramflow)
            try:
                with api.scope("setup"):
                    wl.load(api)
                run_rounds(wl, api, traced, next_round, rounds=tally.rounds)
            finally:
                restore()
            per_op_plain = statistics.fmean(tally.latencies)
            per_op_traced = statistics.fmean(traced.latencies or [0.0])
            metrics = layer_metrics(rec, per_op_traced / per_op_plain - 1, setup.result()[1])
            print_layer_table(metrics)
            rec.write(os.path.join(ROOT, ".bench_work", "traces",
                                   f"{args.workload}-seed{args.seed}.jsonl"))
            lines = [f"spans: {len(rec.spans)}, written to .bench_work/traces/"]
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for t in (warm, tally, traced) for f in t.failures]
    attempted = sum(t.attempted for t in (warm, tally, traced))

    for line in lines + wl.summary():
        print(line)
    for err in failures[:10]:
        print(f"FAILED: {err}", file=sys.stderr)
    if args.trace == 0:
        missing = [mt["name"] for mt in wanted if mt["name"] not in metrics]
        if missing:
            fail(f"metrics not measured: {missing}")
    unknown = sorted(set(metrics) - {mt["name"] for mt in wanted})
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        # a layer a workload never calls reports 0 calls and 0 s
        "metrics": {mt["name"]: {"value": float(metrics.get(mt["name"], 0)), "unit": mt["unit"]}
                    for mt in wanted},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
