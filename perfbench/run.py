#!/usr/bin/env python3
"""Benchmark for bbcsec: end-to-end and per-layer metrics of three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads are `frontier`, `membership_scan` and `simulate` (see
workloads.py); `all` runs each in its own process and prints a summary of
every end-to-end metric. The run is one process and one thread, BLAS pinned
to one thread. It sets up (timed in fresh processes), then repeats the
workload's fixed unit of work until `--seconds` have passed, at least once,
and reports medians over the units. `setup_s` and `wall_s` are seconds at a
reference speed of the host, sampled while the work runs (refclock.py), so
that the host's drift in speed does not show as a change of the program;
the raw seconds are printed beside them. The oracle values the checks compare
against are computed in a child process, so the peak memory is that of the
set-up and the timed work. With `--trace 1` untraced and traced units
alternate; the per-layer metrics come from the traced ones and the tracing
overhead, printed, is their wall-time difference.

Every run writes a result file and, when traced, the raw spans to
perfbench/out/. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json untraced, the `per_layer` ones traced.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported, here and in child processes

import refclock  # noqa: E402

# Set-up in a child process is timed from here, after numpy's own import,
# which the reference clock needs; every other process stops this clock as
# soon as it has parsed its arguments.
_SETUP_CLOCK = refclock.RefClock().start()

import argparse  # noqa: E402
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import bbcsec and the test oracles from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "bbcsec" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        _fail(f"no bbcsec sources under {ROOT}: run from the root of a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import bbcsec

    if Path(bbcsec.__file__).resolve().parent != (src / "bbcsec").resolve():
        _fail(f"imported bbcsec from {bbcsec.__file__}, not from {src}")
    sys.path.insert(0, str(HERE))
    import workloads

    return bbcsec, workloads


def _child(role: str, workload: str, seed: int, in_dir: Path) -> dict:
    """Child process: import, load the channel JSON and generate the inputs
    (role "setup", timed), or also compute the oracle references."""
    _, workloads = _import_package()
    inp = workloads.prepare(workload, seed, in_dir)
    if role == "setup":
        _SETUP_CLOCK.stop()
        return {"setup_s": _SETUP_CLOCK.scaled_s, "raw_s": _SETUP_CLOCK.work_s}
    return workloads.references(inp)


def _in_child(role: str, workload: str, seed: int, in_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", role, "--workload", workload,
         "--seed", str(seed), "--in-dir", str(in_dir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        _fail(f"{role} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine_facts(bbcsec, numpy) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bbcsec").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": bbcsec.kernel_backend,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
    }


def _tail_percentile(values: list) -> tuple:
    """The highest percentile with at least 10 samples beyond it, as
    (percentile, value, sample count)."""
    n = len(values)
    return 100.0 * (n - 10) / n, sorted(values)[n - 11], n


def _declared_metrics(trace: int) -> list:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc["per_layer"] if trace else doc["end_to_end"]


def run(args, bbcsec, workloads) -> dict:
    import numpy
    import tracing

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    in_dir = out_dir / "inputs"
    workloads.write_input_files(args.workload, args.seed, in_dir)

    setup_probes = [_in_child("setup", args.workload, args.seed, in_dir) for _ in range(SETUP_PROBES)]
    ref = _in_child("references", args.workload, args.seed, in_dir)
    setup_tracer = tracing.Tracer() if args.trace else None
    if setup_tracer:
        setup_tracer.install()
    try:
        inp = workloads.prepare(args.workload, args.seed, in_dir)
    finally:
        if setup_tracer:
            setup_tracer.uninstall()

    clock = time.perf_counter
    # (traced, wall_s at the reference speed or None when traced, raw wall_s, outputs, tracer or None)
    units = []
    attempted = failed = 0
    notes = []
    start = clock()
    while True:
        if bool(args.trace) and len(units) % 2 == 1:
            # no speed samples in a traced unit, so that they do not count in its spans
            tracer = tracing.Tracer()
            tracer.install()
            try:
                t0 = clock()
                outputs = workloads.run_unit(inp, out_dir, clock)
                raw = clock() - t0
            finally:
                tracer.uninstall()
            units.append((True, None, raw, outputs, tracer))
        else:
            with refclock.RefClock() as speed:
                outputs = workloads.run_unit(inp, out_dir, speed.clock)
            units.append((False, speed.scaled_s, speed.work_s, outputs, None))
        a, f, n = workloads.check(inp, ref, outputs)
        attempted, failed, notes = attempted + a, failed + f, notes + n
        # stop when another unit of the typical length would end past --seconds
        typical = statistics.median(u[2] for u in units)
        if clock() - start + typical > args.seconds and (not args.trace or len(units) >= 2):
            break

    plain = [u for u in units if not u[0]]
    wall_s = statistics.median(u[1] for u in plain)
    raw_wall_s = statistics.median(u[2] for u in plain)
    named = {
        "setup_s": (statistics.median(p["setup_s"] for p in setup_probes), "s"),
        "setup_raw_s": (statistics.median(p["raw_s"] for p in setup_probes), "s"),
        "wall_s": (wall_s, "s"),
        "wall_raw_s": (raw_wall_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    tail = None
    if args.workload == "frontier":
        named["support_values_per_s"] = (inp.ops / wall_s, "1/s")
    elif args.workload == "membership_scan":
        named["membership_per_s"] = (inp.ops / wall_s, "1/s")
        named["membership_p50_ms"] = (1e3 * statistics.median(
            statistics.median(u[3]["latency_s"]) for u in plain), "ms")
        tails = [_tail_percentile(u[3]["latency_s"]) for u in plain]
        tail = {"percentile": tails[0][0], "samples": tails[0][2]}
        named["membership_p99_ms"] = (1e3 * statistics.median(t[1] for t in tails), "ms")

    layers, hist, overhead_s = {}, None, None
    if args.trace:
        per_unit = []
        for traced, _, raw, _, tracer in units:
            if traced:
                per_unit.append(tracing.layer_metrics(tracer.spans, raw))
        layers = {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
            [m[k] for m, _ in per_unit]) for k, v in per_unit[0][0].items()}
        hist = per_unit[0][1]
        traced_wall = statistics.median(u[2] for u in units if u[0])
        # load_channel is timed in set-up, where every workload calls it
        layers["channel.load_channel.s"] = sum(
            end - start for name, start, end, _ in setup_tracer.spans if name == "channel.load_channel")
        layers["simulate.equivocation_exact.cells"] = workloads.exact_cells(inp)
        overhead_s = traced_wall - raw_wall_s
        with open(out_dir / "spans.tsv", "w", encoding="utf-8") as fh:
            fh.write("unit\tindex\tparent\tname\tstart_s\tend_s\n")
            for k, (traced, _, _, _, tracer) in enumerate(units):
                if traced:
                    fh.writelines(f"{k}\t{i}\t{p}\t{name}\t{s:.9f}\t{e:.9f}\n"
                                  for i, (name, s, e, p) in enumerate(tracer.spans))

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine_facts(bbcsec, numpy),
        "units": {"untraced": len(plain), "traced": len(units) - len(plain),
                  "untraced_wall_s": [u[1] for u in plain],
                  "untraced_raw_wall_s": [u[2] for u in plain],
                  "traced_raw_wall_s": [u[2] for u in units if u[0]]},
        "setup_probes": setup_probes,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "membership_tail": tail,
        "per_layer": layers,
        "trace_overhead_s": overhead_s,
        "membership_kernel_histogram": hist,
        "unwrapped": sorted({m for u in units if u[4] for m in u[4].missing}),
        "attempted": attempted,
        "failed": failed,
        "check_notes": notes[:50],
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def print_summary(result: dict) -> None:
    import tracing

    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"units={result['units']['untraced']}+{result['units']['traced']}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    for name, m in result["end_to_end"].items():
        extra = ""
        if name == "membership_p99_ms":
            tail = result["membership_tail"]
            extra = f"  (p{tail['percentile']:.2f} of {tail['samples']} calls)"
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  checks: attempted={result['attempted']} failed={result['failed']}")
    for note in result["check_notes"]:
        print(f"    FAIL {note}")
    if result["per_layer"]:
        print("per layer (median of traced units):")
        for layer in tracing.SHOULD_MOVE:
            print(f"  [{layer}] should move: {tracing.SHOULD_MOVE[layer]}")
            for name, value in result["per_layer"].items():
                if name.split(".")[0] == layer:
                    print(f"    {name:<40} {value:>14.6g}")
        if result["membership_kernel_histogram"]:
            print("  membership kernel calls per call -> calls: "
                  + ", ".join(f"{k}:{n}" for k, n in result["membership_kernel_histogram"]))
        overhead = result["trace_overhead_s"]
        print(f"  tracing overhead: {overhead:.4f} s "
              f"({100 * overhead / result['end_to_end']['wall_raw_s']['value']:.2f}% of untraced raw wall_s)")
    if result["unwrapped"]:
        print("  not wrapped (attribute missing): " + ", ".join(result["unwrapped"]))


def final_line(result: dict) -> str:
    values = result["per_layer"] if result["trace"] else {k: m["value"] for k, m in result["end_to_end"].items()}
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in _declared_metrics(result["trace"])}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_all(args, workloads) -> int:
    """Each workload in its own process; prints every end-to-end metric."""
    code = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S, cwd=ROOT,
        )
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="frontier, membership_scan, simulate or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "references"), help=argparse.SUPPRESS)
    ap.add_argument("--in-dir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child != "setup":
        _SETUP_CLOCK.stop()
    if args.child:
        print(json.dumps(_child(args.child, args.workload, args.seed, args.in_dir)))
        return 0
    bbcsec, workloads = _import_package()
    if args.workload == "all":
        return run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    result = run(args, bbcsec, workloads)
    print_summary(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
