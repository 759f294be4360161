"""pinchopt benchmark: closed-loop solve cost on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload maxmin-drops --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each operation is a
``pinchopt.cli.main(argv)`` call that starts when the previous one ends.
Workloads with several user counts run them round-robin, one op of
each per round. Between consecutive ops, a fixed pure-Python reference
loop is timed; an op's cost is its latency in units of the mean of the
loop times taken just before and just after it.
Every answer is checked by ``oracle.py`` after the timed phase,
together with negative controls that the oracle must reject. See
README.md for the metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 5
REFERENCE_ITERATIONS = 10_000  # about 1 ms of interpreter work
CONTROLS = 2  # negative controls per run, see the controls() of workloads.py
SIZE_CLASSES = ("m2", "m8", "m32", "m128")
LAYER_SPANS = (
    "scenario_io.load_scenario", "maxmin.solve_maxmin", "maxmin.invert_f",
    "maxmin.min_avg_snr", "model.f_scalar", "outage.solve_outage", "outage.invert_ccdf",
    "outage.max_threshold_at", "special.ccdf_inst_snr", "kernels.marcum_q1_scalar",
)
CALL_COUNTED = tuple(name for name in LAYER_SPANS
                     if name not in ("maxmin.solve_maxmin", "outage.solve_outage"))
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import pinchopt.cli; print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time to import pinchopt.cli in a fresh interpreter (numpy included)."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


class Runner:
    """Executes operations through cli.main and keeps their outputs."""

    def __init__(self, cli, tracer=None):
        self.main = tracer.span("cli", cli.main) if tracer else cli.main

    def execute(self, op) -> str:
        """Run op; return its output text or raise RuntimeError."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(list(op.argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        if op.out_path is not None:
            return op.out_path.read_text(encoding="utf-8")
        return out.getvalue()


def reference_seconds(loops: int = 1) -> float:
    """Mean time of `loops` runs of a fixed pure-Python loop, the unit op
    costs are expressed in.

    On a shared host the same solve can take twice as long from one
    minute to the next; the loop, timed next to each op, slows with it.
    """
    start = perf_counter()
    total = 0.0
    for _ in range(loops):
        for i in range(REFERENCE_ITERATIONS):
            total += (i * 0.5) ** 0.5
    return (perf_counter() - start) / loops


@dataclass
class Record:
    """One execution of an op, with the reference time taken around it."""

    cls: str
    op: object
    reference: float
    seconds: float
    output: str | None
    error: str | None


def closed_loop(runner, workload, pools, seconds):
    """Run whole rounds until `seconds` have passed; returns the records.

    The reference loop runs between consecutive ops, `workload.reference_loops`
    times, so each op has a reference taken just before and just after it.
    """
    loops = workload.reference_loops
    records = []
    start = perf_counter()
    before = reference_seconds(loops)
    rounds = 0
    while True:
        for cls in workload.classes:
            pool = pools[cls]
            op = pool[rounds % len(pool)]
            began = perf_counter()
            try:
                output, error = runner.execute(op), None
            except Exception as exc:  # a failed op is a result, not a crash
                output, error = None, f"{type(exc).__name__}: {exc}"
            seconds_taken = perf_counter() - began
            after = reference_seconds(loops)
            records.append(Record(cls, op, 0.5 * (before + after), seconds_taken, output, error))
            before = after
        rounds += 1
        if perf_counter() - start >= seconds:
            return records


def check_records(workload, records):
    """Mark records whose answer the oracle rejects (one check per distinct answer)."""
    verdicts = {}
    if hasattr(workload, "prepare"):
        workload.prepare(list({rec.op.key: rec.op for rec in records
                               if rec.error is None}.values()))
    for rec in records:
        if rec.error is not None:
            continue
        key = (rec.op.key, rec.output)
        if key not in verdicts:
            try:
                verdicts[key] = workload.check(rec.op, rec.output)
            except Exception as exc:
                verdicts[key] = (False, f"oracle could not read the answer: {exc!r}")
        ok, reason = verdicts[key]
        if not ok:
            rec.error = f"oracle: {reason}"


def run_controls(workload, runner, records, work):
    """Negative controls on the first answered op; each passes if rejected.

    Returns the failed controls as (name, reason); all CONTROLS fail when
    they cannot be run.
    """
    first = next((rec for rec in records if rec.error is None), None)
    try:
        if first is None:
            raise RuntimeError("no accepted answer to derive them from")
        verdicts = workload.controls(first.op, first.output, work, runner.execute)
    except Exception as exc:
        return [(f"control {i}", f"{type(exc).__name__}: {exc}") for i in range(CONTROLS)]
    return [(f"control {name}", "oracle accepted a known-wrong answer")
            for name, (ok, _) in verdicts if ok]


def quantile(values, q):
    """Linear-interpolation quantile; +inf entries (failed ops) sort last."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if math.isinf(ordered[hi]):
        return ordered[hi] if pos > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_table(workload, records):
    """Per class: p50 and p90 latency (ms), p50 cost (reference units), n.

    Latency is per unit (drop); a failed op counts as +inf.
    """
    table = {}
    for cls in workload.classes:
        ok = [(rec.seconds / rec.op.units, rec.reference) if rec.error is None
              else (math.inf, 1.0) for rec in records if rec.cls == cls]
        ms = [1e3 * seconds for seconds, _ in ok]
        cost = [seconds / reference for seconds, reference in ok]
        table[cls] = {"p50_ms": quantile(ms, 0.5), "p90_ms": quantile(ms, 0.9),
                      "p50_refs": quantile(cost, 0.5), "n": len(ms)}
    return table


def units_per_second(records):
    """Completed units per second spent in ops (reference loops excluded)."""
    return (sum(rec.op.units for rec in records if rec.error is None)
            / sum(rec.seconds for rec in records))


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def cost_refs(table):
    """Geometric mean over the classes of the median op cost (ref)."""
    return geomean(row["p50_refs"] for row in table.values())


def end_to_end(workload, records, setup_s):
    table = latency_table(workload, records)
    return {"setup_s": (setup_s, "s"), "op_p50_refs": (cost_refs(table), "ref")}, table


def per_layer(workload, plain, traced, tracer, probes):
    table = latency_table(workload, plain)
    units = sum(rec.op.units for rec in traced) or 1
    calls, self_s = tracer.calls, tracer.self_s
    per_op = lambda value: value / units
    metrics = {}
    for cls in SIZE_CLASSES:
        row = table.get(cls, {"p50_ms": 0.0, "p50_refs": 0.0})
        metrics[f"op_p50_ms.{cls}"] = (row["p50_ms"], "ms")
        metrics[f"op_p50_refs.{cls}"] = (row["p50_refs"], "ref")
    metrics["op_p50_ms"] = (geomean(row["p50_ms"] for row in table.values()), "ms")
    metrics["ops_per_s"] = (units_per_second(plain), "1/s")
    metrics["cli.self_ms"] = (1e3 * per_op(self_s["cli"]), "ms")
    for name in LAYER_SPANS:
        if name in CALL_COUNTED:
            metrics[f"{name}.calls"] = (per_op(calls[name]), "count")
        metrics[f"{name}.self_ms"] = (1e3 * per_op(self_s[name]), "ms")
    for layer, span in (("maxmin", "maxmin.solve_maxmin"), ("outage", "outage.solve_outage")):
        metrics[f"{layer}.outer_iters"] = (tracer.outer_iters[layer] / max(calls[span], 1),
                                           "count")
    solve_s = tracer.total_s["outage.solve_outage"]
    polish_s = tracer.under_s["outage.max_threshold_at", "outage.solve_outage"]
    metrics["outage.polish_share"] = (polish_s / solve_s if solve_s else 0.0, "ratio")
    gains = tracer.polish_gains
    metrics["outage.polish_gain_rel"] = (statistics.fmean(gains) if gains else 0.0, "ratio")
    marcum = calls["kernels.marcum_q1_scalar"]
    for regime in ("series", "band", "sat", "edge"):
        metrics[f"kernels.marcum_q1_scalar.frac.{regime}"] = (
            tracer.regimes[regime] / marcum if marcum else 0.0, "ratio")
    samples = tracer.samples
    metrics["kernels.snr_samples.samples"] = (per_op(samples), "count")
    metrics["kernels.snr_samples.ns_per_sample"] = (
        1e9 * self_s["kernels.snr_samples"] / samples if samples else 0.0, "ns")
    metrics["montecarlo.estimate_ccdf_curve.self_ms"] = (
        1e3 * per_op(self_s["montecarlo.estimate_ccdf_curve"]), "ms")
    metrics.update(probes)
    # 1 - traced ops_per_s / untraced ops_per_s, from the costs in ref so
    # that a change of host speed between the two halves cancels.
    metrics["trace.overhead_frac"] = (
        1.0 - cost_refs(table) / cost_refs(latency_table(workload, traced)), "ratio")
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pinchopt").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """HEAD of the checkout's own .git, if it has one; never looks above ROOT."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(pinchopt, args):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": getattr(pinchopt, "BACKEND", "numpy"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def benchmark(args, work: Path):
    import numpy as np
    import pinchopt
    from pinchopt import cli, kernels

    import probes
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    index = sorted(WORKLOADS).index(args.workload)
    setups = []
    for _ in range(SETUPS):
        imported = import_seconds()
        began = perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, index]))
        pools = workload.build(rng, work)
        with contextlib.suppress(Exception):  # the timed loop reports failures
            Runner(cli).execute(workload.warmup_op(pools))
        setups.append(imported + perf_counter() - began)
    setup_s = statistics.median(setups)

    runner = Runner(cli)
    if args.trace:
        plain = closed_loop(runner, workload, pools, 0.5 * args.seconds)
        tracer = spans.Tracer(kernels)
        with tracer.installed():
            traced = closed_loop(Runner(cli, tracer), workload, pools, 0.5 * args.seconds)
        probe_metrics, probe_failures = probes.run_probes()
        records = plain + traced
    else:
        records = closed_loop(runner, workload, pools, args.seconds)

    check_records(workload, records)
    control_failures = run_controls(workload, runner, records, work)
    failures = [(rec.op.key, rec.error) for rec in records if rec.error is not None]
    report = {
        "attempted": len(records) + CONTROLS,
        "failed": len(failures) + len(control_failures),
        "failures": failures[:10] + control_failures,
    }
    if args.trace:
        metrics = per_layer(workload, plain, traced, tracer, probe_metrics)
        report["probe_failures"] = probe_failures
        table = latency_table(workload, plain)
    else:
        metrics, table = end_to_end(workload, records, setup_s)
        report["ops_per_s"] = units_per_second(records)
    report["classes"] = table
    report["failed_frac"] = report["failed"] / report["attempted"]
    report["env"] = environment(pinchopt, args)
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pinchopt" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no pinchopt sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics, report = benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for cls, row in report["classes"].items():
        print(f"# {args.workload} {cls}: p50 {row['p50_ms']:.4f} ms, "
              f"p90 {row['p90_ms']:.4f} ms, p50 {row['p50_refs']:.4f} ref, n={row['n']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if "ops_per_s" in report:
        print("# ops_per_s = %.6g 1/s" % report["ops_per_s"])
    print("# failed_frac = %.6g ratio" % report["failed_frac"])
    for key, reason in report["failures"]:
        print(f"# FAILED {key}: {reason}")
    for name, reason in report.get("probe_failures", {}).items():
        print(f"# probe failed {name}: {reason}")
    print("# env " + json.dumps(report["env"], sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
