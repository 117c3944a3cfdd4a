"""sphmult benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload {spectral,kernel,tree,cli} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate run of the same workload: whole passes
untraced, then the same passes with every public function wrapped
(``tracing.py``), giving per-layer self time, calls, failures and work
counts per pass, and the tracing overhead.  Every op's output is checked
against its reference (``workloads.py``, ``reference.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with provenance and failure classes, is written to ``bench/out/``.
METRICS.md describes every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-up probes per run: most before the timed loop, the rest after it, so
# that the median samples the machine at both ends of the run.
SETUP_PROBES_BEFORE = 6
SETUP_PROBES_AFTER = 5

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("min_digits", "digits"),
    ("peak_rss_mb", "MB"),
]

MODULES = ("specfun", "quadrature", "groups", "spherical", "lorentz", "tree")
CLI_COMMANDS = ("norm-table", "eval", "verify", "tree")
COUNTERS = [
    ("specfun.bessel_k_many.points", "specfun.bessel_k_many", "points"),
    ("quadrature.integrate.nodes", "quadrature.integrate", "nodes"),
    ("quadrature.composite.nodes", "quadrature.composite", "nodes"),
    ("tree.spheres.words", "tree.spheres", "words"),
    ("tree.bz_counts.pairs", "tree.bz_counts", "pairs"),
]
PHI_METHODS = ("hypergeometric_stable", "hypergeometric_direct", "integral_quadrature", "asymptotic")
DIGIT_COLUMNS = ("specfun.gamma", "specfun.hyp2f1.pfaff", "specfun.hyp2f1.series",
                 "specfun.hyp2f1.unit", "specfun.bessel_k")


def per_layer_spec(function_names) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for fn in function_names:
        spec += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower"),
                 (f"{fn}.fail", "count", "lower")]
    spec += [(f"cli.{c}.wall_s", "s", "lower") for c in CLI_COMMANDS]
    spec += [(name, "count", "lower") for name, _, _ in COUNTERS]
    spec += [("tree.bz_counts.kept_ratio", "ratio", "higher")]
    spec += [(f"spherical.phi.method.{m}", "ratio",
              "higher" if m == "hypergeometric_stable" else "lower") for m in PHI_METHODS]
    spec += [(f"{c}.digits", "digits", "higher") for c in DIGIT_COLUMNS]
    spec += [(f"{m}.self_share", "ratio", "lower") for m in MODULES + ("other",)]
    spec += [("bench.trace.overhead_s", "s", "lower"), ("bench.trace.overhead_frac", "ratio", "lower")]
    return spec


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def pass_order(seed: int, index: int, size: int) -> list[int]:
    order = list(range(size))
    random.Random(f"order:{seed}:{index}").shuffle(order)
    return order


def classify_failure(exc: BaseException) -> str:
    from sphmult import ConvergenceError, SphmultError

    if isinstance(exc, ConvergenceError):
        return "ConvergenceError"
    if isinstance(exc, SphmultError):
        return "SphmultError"
    return "other_exception"


def failure_site(exc: BaseException) -> str | None:
    """``module.function`` of the innermost sphmult frame the exception passed."""
    site = None
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        directory, filename = os.path.split(code.co_filename)
        if os.path.basename(directory) == "sphmult":
            site = f"{filename.removesuffix('.py')}.{code.co_name}"
        tb = tb.tb_next
    return site


class Run:
    """Op records of one phase: whole passes over the workload's op list.

    Records are kept in flat arrays so that the benchmark's own memory
    does not grow with the program's throughput.  ``failures`` indexes
    ``kinds``, the distinct (failure class, site) pairs seen; index 0 is
    an op that returned.
    """

    def __init__(self):
        self.keys = array("l")
        self.latencies = array("d")
        self.failures = array("l")
        self.kinds: list[tuple[str | None, str | None]] = [(None, None)]
        self.summaries: dict = {}
        self.drift: set[int] = set()
        self.passes = 0
        self.child_rss_mb = 0.0

    def records(self):
        return zip(self.keys, self.latencies, self.failures)

    def kind_index(self, failure: str | None, site: str | None) -> int:
        kind = (failure, site)
        if kind not in self.kinds:
            self.kinds.append(kind)
        return self.kinds.index(kind)

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)


def run_passes(workload, ops, seed, *, seconds=None, passes=None, tracer=None,
               into: Run | None = None) -> Run:
    """Closed loop: one op at a time.  Stops at a pass boundary once
    ``seconds`` have elapsed (or after ``passes`` passes); a pass that is
    still running at three times ``seconds`` is cut short."""
    run = into or Run()
    clock = time.perf_counter
    failure_of = getattr(workload, "failure", lambda r: None)
    child_rss = getattr(workload, "child_rss", lambda r: 0.0)
    start = clock()
    index = 0
    while passes is None or index < passes:
        if passes is None and index > 0 and clock() - start >= seconds:
            break
        for key in pass_order(seed, index, len(ops)):
            op = ops[key]
            if tracer is not None:
                tracer.op_id = len(run.keys)
            t0 = clock()
            site = None
            try:
                result = workload.run(op)
            except Exception as exc:  # every failure is counted, by class and site
                elapsed = clock() - t0
                failure = classify_failure(exc)
                site = failure_site(exc)
            else:
                elapsed = clock() - t0
                failure = failure_of(result)
                run.child_rss_mb = max(run.child_rss_mb, child_rss(result))
                summary = workload.summary(op, result)
                if key not in run.summaries:
                    run.summaries[key] = summary
                elif run.summaries[key] != summary:
                    run.drift.add(key)
            run.keys.append(key)
            run.latencies.append(elapsed)
            run.failures.append(run.kind_index(failure, site))
            if passes is None and clock() - start >= 3 * seconds:
                run.passes = index + 1
                return run
        index += 1
    run.passes = index
    return run


def check_outputs(workload, ops, summaries) -> tuple[dict, list]:
    """Verdicts per executed op key, computed after the timed region."""
    peers = {}
    peer_kind = getattr(workload, "peer_kind", None)
    if peer_kind is not None:
        for op in ops:
            want = peer_kind(op)
            if want is not None:
                for other in ops:
                    if other.kind == want and other.params is op.params:
                        peers[op.key] = other.key
    verdicts = {}
    for key, summary in summaries.items():
        peer = summaries.get(peers[key]) if key in peers else None
        verdicts[key] = workload.check(ops[key], summary, peer)
    return verdicts, [d for v in verdicts.values() for d in v.digits]


def account(runs, ops, verdicts) -> dict:
    """Failure classes over every op executed, and whether each was expected.

    An op fails when it raises, exits nonzero, or returns a value that
    misses its reference ("mismatch").  A failure is expected only when a
    known failure region excuses exactly that failure: a region an op is
    tagged with excuses the exception class it names, raised from the
    site it names; a region a check names (``Verdict.known``) excuses that
    check's mismatch.  Every other failure, and any output that changed
    between executions of one op, makes the run incorrect.
    """
    import workloads

    known = workloads.FAILURE_REGIONS
    classes: dict[str, int] = {}
    sites: dict[str, int] = {}
    regions: dict[str, int] = {}
    by_label: dict[str, dict[str, int]] = {}
    failed = 0
    unexpected = set()
    for run in runs:
        for key, _, code in run.records():
            failure, site = run.kinds[code]
            op = ops[key]
            verdict = verdicts.get(key)
            excused_by = None
            if failure is not None:
                if op.region is not None and known[op.region].excuses(failure, site):
                    excused_by = op.region
            elif key in run.drift or not verdict.ok:
                failure = "mismatch"
                if key not in run.drift:
                    excused_by = verdict.known
            label_slot = by_label.setdefault(op.label, {"attempted": 0, "failed": 0})
            label_slot["attempted"] += 1
            if failure is None:
                continue
            failed += 1
            label_slot["failed"] += 1
            classes[failure] = classes.get(failure, 0) + 1
            where = f"{failure} at {site}" if site else failure
            sites[where] = sites.get(where, 0) + 1
            region = excused_by or "unexpected"
            regions[region] = regions.get(region, 0) + 1
            if excused_by is None:
                unexpected.add(key)
    return {"failed": failed, "classes": classes, "sites": sites, "regions": regions,
            "by_label": by_label, "unexpected": sorted(unexpected),
            "correct": not unexpected}


def judge(workload, ops, runs, summaries) -> tuple[dict, list, dict]:
    """Check the outputs of ``runs`` and account for their failures.

    Returns the accounting (``account``), the (route, digits) accuracy
    pairs, and the verdict of each op key.
    """
    verdicts, digits = check_outputs(workload, ops, summaries)
    acc = account(runs, ops, verdicts)
    acc["unchecked_ops"] = sorted(k for k, v in verdicts.items() if not v.checked)
    return acc, digits, verdicts


def probe_setup(workload_name: str, seed: int) -> float:
    """Seconds from starting a fresh workload process to its first possible op."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--probe-setup", "--workload", workload_name,
         "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    code = proc.wait()
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def provenance(args) -> dict:
    import numpy

    import reference

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sphmult").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": reference.version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "platform": platform.platform(),
    }


def end_to_end(args, workload, ops) -> tuple[dict, dict]:
    import workloads

    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES_BEFORE)]
    workload.warmup()
    run = run_passes(workload, ops, args.seed, seconds=args.seconds)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES_AFTER)]
    acc, digits, verdicts = judge(workload, ops, [run], run.summaries)
    metrics = end_to_end_metrics(workload, run, acc, digits, setup,
                                 run.child_rss_mb if workload.name == "cli" else self_rss)
    attempted = len(run.keys)
    detail = {
        "attempted": attempted,
        "failed": acc["failed"],
        "correct": acc["correct"],
        "n_ops": attempted,
        "passes": run.passes,
        "distinct_ops": len(ops),
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": attempted * (1.0 - workload.tail_pct / 100.0),
        "setup_samples_s": setup,
        "fail_frac": acc["failed"] / attempted,
        "failure_classes": acc["classes"],
        "failure_sites": acc["sites"],
        "failures_by_region": acc["regions"],
        "by_op": acc["by_label"],
        "unchecked_ops": len(acc["unchecked_ops"]),
        "min_digits_by_route": _min_by_route(digits),
        "unexpected_failures": _describe(acc["unexpected"][:20], ops, verdicts),
        "busy_s": run.busy_s,
        "self_peak_rss_mb": self_rss,
        "known_failure_regions": {k: asdict(v) for k, v in workloads.FAILURE_REGIONS.items()},
    }
    return metrics, detail


def end_to_end_metrics(workload, run: Run, acc: dict, digits: list, setup: list,
                       peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one timed run, over every op as it ran."""
    import reference

    attempted = len(run.keys)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": attempted / run.busy_s,
        "latency_p50_ms": 1e3 * percentile(run.latencies, 50.0),
        "latency_tail_ms": 1e3 * percentile(run.latencies, workload.tail_pct),
        "ok_frac": (attempted - acc["failed"]) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    if reference.available():
        metrics["min_digits"] = min(d for _, d in digits) if digits else reference.DIGITS_CAP
    return metrics


def _describe(keys, ops, verdicts) -> list[dict]:
    return [{"key": k, "label": ops[k].label,
             "note": verdicts[k].note if k in verdicts else "raised"} for k in keys]


def _min_by_route(digits) -> dict:
    out: dict[str, float] = {}
    for route, d in digits:
        out[route] = min(d, out.get(route, d))
    return out


def traced(args, workload, ops) -> tuple[dict, dict]:
    import tracing
    import workloads

    import sphmult.cli  # noqa: F401  (every module loaded before wrapping)

    workload.warmup()
    half = max(args.seconds / 2.0, 1e-3)
    plain = run_passes(workload, ops, args.seed, seconds=half)
    tracer = tracing.Tracer()
    if workload.name == "cli":
        workload.traced_entry = [sys.executable, str(BENCH / "tracechild.py")]
    tracer.install()
    try:
        with_trace = run_passes(workload, ops, args.seed, passes=plain.passes, tracer=tracer,
                                into=_continue_summaries(plain))
    finally:
        tracer.uninstall()
        workload.traced_entry = None
    stats = tracer.stats()
    for child in getattr(workload, "child_stats", []):
        _merge_child(stats, child)
    acc, _, verdicts = judge(workload, ops, [plain, with_trace], with_trace.summaries)

    passes = plain.passes
    traced_busy = with_trace.busy_s
    metrics: dict[str, float] = {}
    for fn in tracing.FUNCTION_NAMES:
        s = stats.get(fn, tracing.Stat())
        metrics[f"{fn}.calls"] = s.calls / passes
        metrics[f"{fn}.self_s"] = s.self_s / passes
        metrics[f"{fn}.fail"] = s.fail / passes
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.wall_s"] = sum(
            lat for key, lat, _ in plain.records() if ops[key].kind == command) / passes
    for name, fn, counter in COUNTERS:
        metrics[name] = stats.get(fn, tracing.Stat()).counters.get(counter, 0) / passes
    bz = stats.get("tree.bz_counts", tracing.Stat()).counters
    metrics["tree.bz_counts.kept_ratio"] = bz.get("kept", 0) / bz["pairs"] if bz.get("pairs") else 0.0
    phi_stat = stats.get("spherical.phi", tracing.Stat())
    phi_calls = sum(phi_stat.counters.get("method." + m, 0) for m in PHI_METHODS)
    for m in PHI_METHODS:
        metrics[f"spherical.phi.method.{m}"] = (
            phi_stat.counters.get("method." + m, 0) / phi_calls if phi_calls else 0.0)
    digit_detail = _layer_digits(stats, args.seed)
    for column in DIGIT_COLUMNS:
        if column in digit_detail:
            metrics[f"{column}.digits"] = digit_detail[column]["min"]
    shares = {}
    for module in MODULES:
        shares[module] = sum(s.self_s for name, s in stats.items()
                             if name.startswith(module + ".")) / passes
        metrics[f"{module}.self_share"] = shares[module] / (traced_busy / passes)
    metrics["other.self_share"] = 1.0 - sum(metrics[f"{m}.self_share"] for m in MODULES)
    metrics["bench.trace.overhead_s"] = (traced_busy - plain.busy_s) / passes
    metrics["bench.trace.overhead_frac"] = (traced_busy - plain.busy_s) / plain.busy_s

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_path)
    attempted = len(plain.keys) + len(with_trace.keys)
    detail = {
        "attempted": attempted,
        "correct": acc["correct"],
        "passes_per_phase": passes,
        "untraced_busy_s": plain.busy_s,
        "traced_busy_s": traced_busy,
        "fail_frac": acc["failed"] / attempted,
        "failure_classes": acc["classes"],
        "failure_sites": acc["sites"],
        "failures_by_region": acc["regions"],
        "unexpected_failures": _describe(acc["unexpected"][:20], ops, verdicts),
        "layer_failures_by_class": {n: s.fail_by_class for n, s in sorted(stats.items())
                                    if s.fail_by_class},
        "layer_self_s_per_pass": {m: v for m, v in shares.items()},
        "digits": digit_detail,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_stored": len(tracer.span_cols["id"]),
        "spans_dropped": tracer.dropped_spans,
        "unwrapped_targets": tracer.missing,
        "known_failure_regions": {k: asdict(v) for k, v in workloads.FAILURE_REGIONS.items()},
        "failed": acc["failed"],
    }
    return metrics, detail


def _continue_summaries(plain: Run) -> Run:
    """A fresh phase that checks its outputs against the untraced phase's."""
    run = Run()
    run.summaries = dict(plain.summaries)
    return run


def _merge_child(stats, child: dict):
    import tracing

    for name, data in child.items():
        s = tracing.Stat()
        s.calls, s.self_s, s.fail = data["calls"], data["self_s"], data["fail"]
        s.fail_by_class = dict(data["fail_by_class"])
        s.counters = dict(data["counters"])
        stats.setdefault(name, tracing.Stat()).merge(s)


def _layer_digits(stats, seed: int) -> dict:
    """Accuracy of the sampled special-function calls plus a fixed probe set."""
    import reference

    if not reference.available():
        return {}
    from sphmult import SphmultError, specfun

    rng = random.Random(f"digits:{seed}")
    probes: dict[str, list] = {c: [] for c in DIGIT_COLUMNS}

    def probe(column, fn, *args):
        try:
            probes[column].append((args, {}, fn(*args)))
        except SphmultError:
            pass

    for _ in range(8):
        probe("specfun.gamma", specfun.gamma, complex(rng.uniform(0.1, 5.0), rng.uniform(-5, 5)))
        probe("specfun.gamma", specfun.gamma, complex(rng.uniform(-3.0, 0.4), rng.uniform(-2, 2)))
        a = complex(rng.uniform(0.1, 2.0), rng.uniform(-1, 1))
        b = complex(rng.uniform(0.1, 2.0), rng.uniform(-1, 1))
        c = complex(rng.uniform(1.0, 4.0), rng.uniform(-1, 1))
        for column, z in (("specfun.hyp2f1.pfaff", rng.uniform(-20.0, -0.8)),
                          ("specfun.hyp2f1.series", rng.uniform(-0.75, 0.75)),
                          ("specfun.hyp2f1.unit", rng.uniform(0.8, 0.999))):
            probe(column, specfun.hyp2f1, a, b, c, z)
        probe("specfun.bessel_k", specfun.bessel_k,
              complex(rng.uniform(-1.5, 1.5), rng.uniform(-2, 2)), math.exp(rng.uniform(-5, 3.4)))

    out = {}
    for column in DIGIT_COLUMNS:
        sample = stats[column].sample if column in stats else []
        found = []
        for args, kwargs, value in sample + probes[column]:
            if column == "specfun.gamma":
                want = reference.gamma(args[0])
                env = abs(want)
            elif column == "specfun.bessel_k":
                want, env = reference.besselk(args[0], args[1])
            else:
                a, b, c, z = args[:4]
                w = args[4] if len(args) > 4 and column.endswith("unit") else None
                want = reference.hyp2f1(a, b, c, z, w)
                env = abs(want)
            found.append(reference.digits(value, want, env))
        out[column] = {"min": min(found), "sampled_calls": len(sample),
                       "probes": len(probes[column])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sphmult" / "__init__.py").is_file():
        print(f"error: no sphmult sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.probe_setup:
        workload.generate(args.seed)
        workload.warmup()
        print("READY", flush=True)
        return 0

    ops = workload.generate(args.seed)
    if args.trace:
        metrics, detail = traced(args, workload, ops)
        import tracing

        spec = per_layer_spec(tracing.FUNCTION_NAMES)
    else:
        metrics, detail = end_to_end(args, workload, ops)
        spec = [(name, unit, None) for name, unit in END_TO_END]
    units = {name: unit for name, unit, _ in spec}
    report = {name: {"value": metrics[name], "unit": units[name]}
              for name, _, _ in spec if name in metrics}
    record = {"provenance": provenance(args), "metrics": report, "detail": detail}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for name, item in report.items():
        print(f"{args.workload:9s} {name:44s} {item['value']:.6g} {item['unit']}")
    summary = {k: detail[k] for k in ("fail_frac", "failure_classes") if k in detail}
    print(f"{args.workload:9s} detail {json.dumps(summary)} (full record: {path.relative_to(ROOT)})")
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
