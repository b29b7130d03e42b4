"""Benchmark of the homchip simulator: three workloads, end-to-end and per-layer metrics.

Usage, from any directory:

    python3 perfbench/run.py --workload {scan,dip,cli} --seed N --seconds S --trace {0,1}

The package is taken from ``src/`` beside this directory, never from an
installed copy.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every request twice, once plain and once with span wrappers around the
package's public functions, and reports the per-layer metrics.  The last
line of standard output is one JSON object; a fuller record goes to
``perfbench/results/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60.0
SETUP_CODE = ("import time; t0 = time.perf_counter(); import homchip; t1 = time.perf_counter(); "
              "homchip.default_model(); print(t0, t1, time.perf_counter())")
CLI_COMMANDS = ("delay-schedule", "hom-scan", "dip", "phasematch", "rates")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_TAIL_SAMPLES = 10

#: per-layer (name in tracing.TARGETS, extra computed counts) reported per operation
LAYERS = (
    ("dispersion.group_index", ()),
    ("dispersion.refractive_index", ()),
    ("elements.propagation_transfer", ()),
    ("elements.pc_chain_matrix", ()),
    ("elements.pdc_amplitude", ()),
    ("elements.pc_conversion_amplitude", ()),
    ("elements.filter_amplitude", ()),
    ("chip.parse_layout", ()),
    ("chip.delay_schedule", ()),
    ("quantum.hom_scan", ()),
    ("quantum.run_chain", ()),
    ("quantum.chain_transfers", (("bytes", "B/op"),)),
    ("quantum.build_source_state", ()),
    ("quantum.apply_element", (("flops", "flop/op"), ("bytes", "B/op"))),
    ("quantum.coincidence_probability", ()),
    ("quantum.dip_scenarios", ()),
    ("quantum.dip_profile", (("kernel_elements", "count/op"), ("kernel_bytes", "B/op"))),
    ("cli.write_csv", (("bytes", "B/op"),)),
    ("svgplot.write_plot", (("bytes", "B/op"),)),
)


@dataclass
class Op:
    request: object
    block: int
    traced: bool
    duration_s: float
    outcome: workloads.Outcome
    reference_s: float = float("nan")  # reference kernel time around this operation


class ReferenceKernel:
    """A fixed computation, independent of homchip, timed before and after
    every in-process operation to track how fast the shared machine runs.

    It mixes the two kernels the in-process workloads spend their time in
    (the dense per-sample 4x4 contraction and a complex exponential over a
    tau x frequency grid) with interpreter-bound Python.  Dividing an
    operation's wall time by it cancels most of the host's speed drift,
    which is far larger than one run's sampling error on a shared machine.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.u = rng.normal(size=(4096, 4, 4)) + 1j * rng.normal(size=(4096, 4, 4))
        self.a = rng.normal(size=(4, 4, 4096)) + 1j * rng.normal(size=(4, 4, 4096))
        self.phase = np.outer(np.linspace(-1.0, 1.0, 64), np.linspace(-30.0, 30.0, 4096))

    def time(self):
        start = time.perf_counter()
        for _ in range(4):
            np.einsum("kap,kbq,pqk->abk", self.u, self.u[::-1], self.a, optimize=True)
        np.exp(1j * self.phase).sum()
        sum(i * i for i in range(20000))
        return time.perf_counter() - start


def time_reference_child():
    """The CLI workload's reference: a fresh interpreter that imports numpy.
    Like a CLI run it is process start, imports and page-cache reads, and
    it does not touch homchip."""
    return probe([sys.executable, "-c", "import numpy"])[0]


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "platform": platform.platform()}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def probe(argv):
    """Run one fresh interpreter; return (wall time, spawn time, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    end = time.perf_counter()
    if proc.returncode != 0:
        fail(f"probe {argv[1:]} failed: {proc.stderr.strip()[-500:]}")
    return end - start, start, proc.stdout, proc.stderr


def measure_setup():
    """Fresh interpreter until homchip is imported and default_model() loaded.
    The benchmark's own import has filled the bytecode and page caches."""
    runs = []
    for _ in range(SETUP_REPEATS):
        _, spawned, out, _ = probe([sys.executable, "-c", SETUP_CODE])
        started, imported, ready = map(float, out.split())
        runs.append({"setup_s": ready - spawned, "interpreter_s": started - spawned,
                     "import_s": imported - started, "default_model_s": ready - imported})
    return runs


def parse_importtime(text):
    """(cumulative import time of homchip, self time summed over scipy's own
    modules), in seconds, from ``python -X importtime`` output."""
    homchip_us = scipy_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line or "self [us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "homchip":
            homchip_us = int(cumulative)
        elif name == "scipy" or name.startswith("scipy."):
            scipy_us += int(own)
    return homchip_us * 1e-6, scipy_us * 1e-6


def measure_imports():
    return [parse_importtime(probe([sys.executable, "-X", "importtime", "-c", "import homchip"])[3])
            for _ in range(SETUP_REPEATS)]


def run_in_process(workload, request, tracer):
    if tracer:
        tracer.install()
    start = time.perf_counter()
    if tracer:
        index = tracer.open(f"op.{workload.name}", start)
    result, error = None, None
    try:
        result = workload.execute(request)
    except Exception:  # a failed operation is counted, the loop goes on
        error = traceback.format_exc(limit=3)
    end = time.perf_counter()
    if tracer:
        tracer.close(index, end)
        tracer.uninstall()
    outcome = workloads.Outcome(problems=[error]) if error else workload.outcome(request, result)
    return end - start, outcome


def run_cli(workload, request, tracer):
    workdir, argv = workload.prepare(request, traced=tracer is not None)
    start = time.perf_counter()
    code = workload.run(argv, workdir)
    end = time.perf_counter()
    outcome = workload.outcome(request, code, workdir)
    spans = workdir / "spans.json"
    if tracer:
        index = tracer.open("op.cli", start)
        if spans.is_file():
            tracer.adopt(json.loads(spans.read_text(encoding="utf-8")))
        tracer.close(index, end)
    shutil.rmtree(workdir)
    return end - start, outcome


def measure(workload, seconds, tracer):
    """Closed loop over whole blocks, as many as come nearest to ``seconds``.
    With a tracer, each request runs plain and traced, in alternating order."""
    if workload.in_process:
        execute, reference = run_in_process, ReferenceKernel().time
    else:
        execute, reference = run_cli, time_reference_child
    ops, warmup = [], []
    block = workload.block()
    if workload.in_process:
        # first call fills numpy's and the package's lazy state; not timed
        warmup.append(Op(block[0], -1, False, *execute(workload, block[0], None)))
    reference()
    start = time.perf_counter()
    before = reference()
    number = 0
    while True:
        for request in block:
            order = (False, True) if len(ops) % 4 == 0 else (True, False)
            for traced in order if tracer else (False,):
                if traced:
                    tracer.op = len(ops)
                op = Op(request, number, traced,
                        *execute(workload, request, tracer if traced else None))
                after = reference()
                op.reference_s = 0.5 * (before + after)
                before = after
                ops.append(op)
        number += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / number >= seconds:
            break
        block = workload.block()
    return ops, warmup, time.perf_counter() - start


def tail(durations):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(durations)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= MIN_TAIL_SAMPLES:
            return {"percentile": p, "value_s": float(np.percentile(durations, p)), "samples": n}
    return {"percentile": None, "value_s": None, "samples": n}


def end_to_end(workload, ops, setup):
    """Gated metrics and the raw wall-time figures they are derived from."""
    durations = [op.duration_s for op in ops]
    relative = [op.duration_s / op.reference_s for op in ops]
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    gated = {
        "setup_s": (statistics.median(r["setup_s"] for r in setup), "s"),
        "op_p50_ref": (statistics.median(relative), "ref"),
        "ops_per_ref": (len(ops) / sum(relative), "1/ref"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    raw = {
        "op_p50_s": (statistics.median(durations), "s"),
        "ops_per_s": (len(ops) / sum(durations), "1/s"),
        "reference_p50_s": (statistics.median(op.reference_s for op in ops), "s"),
    }
    return gated, raw


def per_layer(ops, spans, setup, imports):
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    n = len(traced)
    own = tracing.self_times(spans)
    totals = {}
    for span, own_s in zip(spans, own):
        total = totals.setdefault(span[0], {"calls": 0, "self_s": 0.0})
        total["calls"] += 1
        total["self_s"] += own_s
        for key, value in (span[5] or {}).items():
            total[key] = total.get(key, 0) + value

    metrics = {
        "import.homchip_s": (statistics.median(i[0] for i in imports), "s"),
        "import.scipy_s": (statistics.median(i[1] for i in imports), "s"),
        "dispersion.default_model_s": (statistics.median(r["default_model_s"] for r in setup), "s"),
    }
    for name, extra in LAYERS:
        total = totals.get(name, {})
        metrics[f"{name}.calls"] = (total.get("calls", 0) / n, "count/op")
        metrics[f"{name}.self_s"] = (total.get("self_s", 0.0) / n, "s/op")
        for key, unit in extra:
            metrics[f"{name}.{key}"] = (total.get(key, 0) / n, unit)
    ops_self = sum(s for span, s in zip(spans, own) if span[0].startswith("op."))
    metrics["bench.op.self_s"] = (ops_self / n, "s/op")

    # CLI start-up per traced child: spawn until homchip is imported, plus default_model()
    spawned, startup = {}, {}
    for name, start, end, _, op_id, _ in spans:
        if name == "op.cli":
            spawned[op_id] = start
        elif name == "import.homchip":
            startup[op_id] = startup.get(op_id, 0.0) + end - spawned[op_id]
        elif name == "dispersion.default_model" and op_id in startup:
            startup[op_id] += end - start
    for command in CLI_COMMANDS:
        times = [op.duration_s for op in plain if op.outcome.command == command]
        ids = [i for i, op in enumerate(ops) if i in startup and op.outcome.command == command]
        metrics[f"cli.{command}.p50_s"] = (statistics.median(times) if times else 0.0, "s/op")
        metrics[f"cli.{command}.startup_s"] = (
            statistics.median(startup[i] for i in ids) if ids else 0.0, "s/op")
    metrics["trace.overhead"] = (
        statistics.median(op.duration_s for op in traced)
        / statistics.median(op.duration_s for op in plain), "ratio")
    return metrics


def block_digest(ops):
    """Digest of the plain runs of the first block: a fixed set of requests
    for a given seed, whatever the run length or machine speed."""
    first = [op.outcome.digest for op in ops if op.block == 0 and not op.traced]
    return workloads.sha256_lines(first)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "dip", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "homchip" / "__init__.py").is_file():
        fail(f"no homchip package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import homchip

    if Path(homchip.__file__).resolve().parent != (SRC / "homchip").resolve():
        fail(f"imported homchip from {homchip.__file__}, not from {SRC}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = RESULTS / f"{stem}-tmp"
    shutil.rmtree(scratch, ignore_errors=True)
    if args.workload == "scan":
        workload = workloads.ScanWorkload(args.seed)
    elif args.workload == "dip":
        workload = workloads.DipWorkload(args.seed)
    else:
        workload = workloads.CliWorkload(args.seed, child_env(), scratch)

    setup = measure_setup()
    imports = measure_imports() if args.trace else []
    tracer = tracing.Tracer() if args.trace else None
    try:
        ops, warmup, wall_s = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    executed = warmup + ops
    failures = [(op.request.describe(), op.outcome.problems) for op in executed
                if op.outcome.problems]
    # tracing must not change what the package computes
    plain = {id(op.request): op.outcome.digest for op in ops if not op.traced}
    failures += [(op.request.describe(), ["traced output differs from the plain run"])
                 for op in ops if op.traced and op.outcome.digest != plain[id(op.request)]]
    attempted, failed = len(executed), len(failures)
    plain_ops = [op for op in ops if not op.traced]
    metrics, diagnostics = end_to_end(workload, plain_ops, setup)
    if args.trace:
        metrics, diagnostics = per_layer(ops, tracer.spans, setup, imports), {**metrics, **diagnostics}
    error_rate = failed / attempted
    durations = [op.duration_s for op in plain_ops]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "loop": "closed, 1 client", "blocks": ops[-1].block + 1, "wall_s": wall_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "diagnostics": {k: {"value": v, "unit": u} for k, (v, u) in diagnostics.items()},
        # work counts computed from array shapes and file sizes, not hardware counters
        "computed_from_shapes": [f"{name}.{key}" for name, extra in LAYERS for key, _ in extra]
        if args.trace else [],
        "error_rate": error_rate, "attempted": attempted, "failed": failed,
        "failures": failures[:20],
        "op_tail": tail(durations),
        "first_op_s": warmup[0].duration_s if warmup else None,
        "digest_first_block": block_digest(ops),
        "setup_probes": setup, "import_probes": imports,
        "ops": [{"block": op.block, "traced": op.traced, "duration_s": op.duration_s,
                 "digest": op.outcome.digest, "ok": not op.outcome.problems,
                 "reference_s": op.reference_s, "request": op.request.describe()}
                for op in executed],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, (value, unit) in diagnostics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (not gated)")
    print(f"{args.workload} error_rate = {error_rate:.6g} ratio ({failed} of {attempted} failed)")
    t = record["op_tail"]
    if t["percentile"] is not None:
        print(f"{args.workload} op_p{t['percentile']:g}_s = {t['value_s']:.6g} s "
              f"over {t['samples']} operations (not gated)")
    print(f"{args.workload} digest of the first block = {record['digest_first_block']}")
    for description, problems in failures[:5]:
        print(f"FAILED {description}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
