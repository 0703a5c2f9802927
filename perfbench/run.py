"""qubolab benchmark: seeded `qubolab run` batches, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qubolab source checkout; qubolab is imported from
``src``. Workloads: small-train, wide-qaoa, anneal (perfbench/workloads.py;
perfbench/README.md says why).

The process is single-threaded: the BLAS/OpenMP thread counts are pinned to
1 below, before numpy is first imported. --trace 0 times set-up in fresh
copies of this script, then drives `qubolab.cli.main(["run", ...])`
in-process as a closed loop: one untimed warm-up pass, then timed passes,
each on a fresh seed group, for S seconds with tracing off. A fixed
pure-Python reference loop is timed between passes; the gated timings are
medians of pass time / reference-loop time (perfbench/README.md says why).
--trace 1 times a fixed number of traced passes and reports per-layer
metrics from their spans. Every result document is checked either way.
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every check passed.
"""

import os

from workloads import THREAD_VARS

# BLAS reads these when numpy is first imported, so they are set before it
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, build_argv, configs, problems  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60
# an untraced run times at least this many passes, then stops once
# --seconds have passed; a traced run times exactly TRACED_PASSES
MIN_PASSES = 3
TRACED_PASSES = 4

# iterations of the reference loop timed between passes, about 60 ms
REFERENCE_LOOP = 1_000_000

# name -> (unit, better); the first block is what BENCHMARK.json gates
END_TO_END = {
    "setup_s": ("s", "lower"),
    "batch_ref": ("ratio", "lower"),
    "batch_cpu_ref": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
REPORTED = {
    "batch_s": ("s", "lower"),
    "seeds_per_s": ("1/s", "higher"),
    "batch_cpu_s": ("s", "lower"),
    "optimal_pct": ("%", "higher"),
    "feasible_pct": ("%", "higher"),
    "relative_error": ("ratio", "lower"),
    "failed_frac": ("ratio", "lower"),
}
# per-config split of a traced run, for per-call figures
PER_CONFIG = [
    "optimizer.nfev",
    "optimizer.self_us_per_eval",
    "variational.objective.us_per_call",
    "model.cost_vector.calls",
    "model.cost_vector.s",
    "simulator.apply_gate.us_per_call",
]


def _quiet_main(argv) -> int:
    """cli.main with the program's own status lines sent to stderr."""
    import qubolab.cli as cli

    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def build_bundle(argv, path: Path) -> dict:
    """`qubolab build ... -o path`, read back."""
    path.unlink(missing_ok=True)
    if _quiet_main(argv + ["-o", str(path)]) != 0:
        raise RuntimeError(f"qubolab {' '.join(argv)} failed")
    return json.loads(path.read_text())


def setup_sample(workload: str) -> None:
    """The body of one set-up sample: build and hydrate every problem of the
    workload, then print ``ready``."""
    from qubolab.serialize import from_dict

    out_dir = OUT / "setup"
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, argv in enumerate(problems(workload)):
        bundle = build_bundle(argv, out_dir / f"{workload}-{k}.json")
        from_dict(bundle["qubo"])
        from_dict(bundle["spec"])
    print("ready", flush=True)


def setup_seconds(workload: str) -> list:
    """Wall time from spawning a fresh copy of this script to its hydrated
    problems, once per sample; samples run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--setup-sample"]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up sample failed (exit {code})")
        times.append(elapsed)
    return times


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a plain source checkout; source_sha256 identifies it
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _cpu_s() -> float:
    """User+system CPU of this process and its children so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def write_pass(out_dir: Path, workload: str, seed: int, group: int, label: str) -> dict:
    """Config files of one pass over seed group ``group``, and where its
    results go; ``label`` names the files."""
    group_configs = configs(workload, seed, group)
    files = []
    for j, config in enumerate(group_configs):
        config_path = out_dir / f"config-{label}-c{j}.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        files.append((config_path, out_dir / f"result-{label}-c{j}.json"))
    return {"group": group, "configs": group_configs, "files": files}


def reference_loop() -> tuple:
    """(wall, CPU) seconds of a fixed pure-Python loop. Timed next to the
    passes, it measures how fast the host runs this interpreter at the
    moment, which on a shared host drifts by tens of percent over minutes."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return time.perf_counter() - wall0, time.process_time() - cpu0


def run_pass(spec: dict, tracer=None) -> dict:
    """One pass: `qubolab run` on every config of a seed group, in order.
    Timed from before the first run to after the last result is written.
    A run that exits non-zero or writes no result leaves ``None`` in docs."""
    import qubolab.cli as cli

    files = spec["files"]
    for _, result_path in files:
        result_path.unlink(missing_ok=True)
    codes = []
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    for config_path, result_path in files:
        argv = ["run", str(config_path), "-o", str(result_path)]
        if tracer is None:
            codes.append(cli.main(argv))
        else:
            tracer.batch += 1
            codes.append(tracer.wrap("cli.run", cli.main)(argv))
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    docs = [
        json.loads(path.read_text()) if code == 0 and path.is_file() else None
        for code, (_, path) in zip(codes, files)
    ]
    size = sum(path.stat().st_size for _, path in files if path.is_file())
    return dict(spec, wall_s=wall, cpu_s=cpu, codes=codes, docs=docs, bytes=size)


def _mean(values):
    return statistics.fmean(values) if values else None


def quality(passes) -> dict:
    """Means over the seed records of the timed passes, where the records
    define the field (relative_error: variational records only)."""
    fields = {"optimal_pct": [], "feasible_pct": [], "relative_error": []}
    for p in passes:
        for doc in p["docs"]:
            for rec in (doc or {}).get("records", []):
                for name, values in fields.items():
                    if isinstance(rec.get(name), (int, float)):
                        values.append(float(rec[name]))
    return {name: _mean(values) for name, values in fields.items()}


def check_passes(warmup, passes, out_dir: Path) -> tuple:
    """(records attempted, records failed, violation lines) over the warm-up
    pass and the timed passes. Runs after timing; the oracles come from
    bundles built here. A run with a non-zero exit code or no result file
    fails every seed it was given. The first timed pass repeats the warm-up
    pass's seed group, and its records must be identical."""
    from checks import Oracle, check_result, same_records

    oracles = {}
    for config in warmup["configs"]:
        argv = build_argv(config["use_case"])
        if tuple(argv) not in oracles:
            bundle = build_bundle(argv, out_dir / f"oracle-{len(oracles)}.json")
            oracles[tuple(argv)] = Oracle(bundle)
    attempted = failed = 0
    violations = []
    for i, p in enumerate([warmup] + passes):
        label = "warm-up pass" if i == 0 else f"pass {i - 1}"
        for j, (doc, code, config) in enumerate(zip(p["docs"], p["codes"], p["configs"])):
            if doc is None:
                per_record = [[f"exit code {code}, no result"]] * len(config["seeds"])
            else:
                oracle = oracles[tuple(build_argv(config["use_case"]))]
                per_record = check_result(doc, config, oracle)
                earlier = warmup["docs"][j]
                if (i > 0 and p["group"] == warmup["group"] and earlier is not None
                        and not same_records(doc, earlier)):
                    per_record = [v + ["records differ from the warm-up pass"]
                                  for v in per_record]
            attempted += len(per_record)
            failed += sum(1 for v in per_record if v)
            violations += [f"{label} config {j}: {v}" for rec in per_record for v in rec]
    return attempted, failed, violations


def measure(args) -> dict:
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    def next_pass(group, label):
        return write_pass(out_dir, args.workload, args.seed, group, label)

    # untimed: imports, lazily built problems and first-call costs land here
    warmup = run_pass(next_pass(0, "warmup"))
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    passes = []
    references = [reference_loop()]
    started = time.perf_counter()
    try:
        while True:
            done = len(passes)
            if args.trace and done == TRACED_PASSES:
                break  # fixed work, so the counts repeat exactly
            if (not args.trace and done >= MIN_PASSES
                    and time.perf_counter() - started >= args.seconds):
                break
            passes.append(run_pass(next_pass(done, f"p{done}"), tracer))
            references.append(reference_loop())
    finally:
        if tracer is not None:
            tracer.uninstall()
    # each pass against the mean of the reference loops on either side of it
    for p, before, after in zip(passes, references, references[1:]):
        p["wall_ref"] = p["wall_s"] / statistics.fmean([before[0], after[0]])
        p["cpu_ref"] = p["cpu_s"] / statistics.fmean([before[1], after[1]])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, violations = check_passes(warmup, passes, out_dir)
    batch_s = statistics.median(p["wall_s"] for p in passes)
    records_per_pass = sum(len(c["seeds"]) for c in warmup["configs"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": [
            {"group": p["group"], "configs": p["configs"], "wall_s": p["wall_s"],
             "cpu_s": p["cpu_s"], "exit_codes": p["codes"], "output_bytes": p["bytes"]}
            for p in [warmup] + passes
        ],
        "reference_loops": [{"wall_s": wall, "cpu_s": cpu} for wall, cpu in references],
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "batch_s": batch_s,
        "seeds_per_s": records_per_pass / batch_s,
        "batch_cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "batch_ref": statistics.median(p["wall_ref"] for p in passes),
        "batch_cpu_ref": statistics.median(p["cpu_ref"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted if attempted else 1.0,
        "quality": quality(passes),
        "environment": environment(),
    }
    if tracer is not None:
        from spans import layer_metrics, unit

        seed_records = records_per_pass * TRACED_PASSES
        layers = layer_metrics(tracer.spans, TRACED_PASSES, seed_records)
        layers["serialize.output_bytes"] = _mean([p["bytes"] for p in passes])
        layers["trace.batch_s"] = batch_s
        layers["trace.batch_ref"] = report["batch_ref"]
        report["per_layer"] = {
            name: {"value": value, "unit": unit(name)} for name, value in layers.items()
        }
        n_configs = len(warmup["configs"])
        report["per_config"] = [
            {name: layer_metrics(tracer.spans, TRACED_PASSES, seed_records,
                                 batch=lambda b, k=k: b % n_configs == k)[name]
             for name in PER_CONFIG}
            for k in range(n_configs)
        ]
        report["spans"] = str((out_dir / "spans.csv.gz").relative_to(ROOT))
        report["span_count"] = len(tracer.spans)
        tracer.write(out_dir / "spans.csv.gz")
    (out_dir / "run.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qubolab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # internal: one set-up sample, spawned by setup_seconds
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_sample and (args.seed is None or args.seconds is None):
        parser.error("--seed and --seconds are required")
    if not (ROOT / "src" / "qubolab" / "__init__.py").is_file():
        print("error: run from the root of a qubolab source checkout "
              "(src/qubolab not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_sample:
        setup_sample(args.workload)
        return 0

    setup = None if args.trace else setup_seconds(args.workload)
    # the program's status lines go to stderr; stdout stays for the result
    with contextlib.redirect_stdout(sys.stderr):
        report = measure(args)
    correct = report["failed"] == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"warm-up pass + {len(report['passes']) - 1} timed passes, "
          f"{report['attempted']} seed records, "
          f"{report['failed']} failed")
    for line in report["violations"][:50]:
        print(f"  violation: {line}")
    if args.trace:
        metrics = report["per_layer"]
        for name, entry in metrics.items():
            print(f"  {name:<36} {_fmt(entry['value']):>14} {entry['unit']}")
        for k, split in enumerate(report["per_config"]):
            template = WORKLOADS[args.workload][k]
            print(f"  config {k} ({template['algorithm']}, {template['use_case']}): "
                  + ", ".join(f"{name} {_fmt(value)}" for name, value in split.items()))
        print(f"  spans: {report['span_count']} written to {report['spans']}")
    else:
        values = dict(report, setup_s=statistics.median(setup), **report["quality"])
        for name, (unit, better) in {**END_TO_END, **REPORTED}.items():
            print(f"  {name:<16} {_fmt(values[name]):>12} {unit:<6} ({better} is better)")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
