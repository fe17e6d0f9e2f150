"""entcesaro benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload converge-haar --seed 1 --seconds 20 --trace 0

Steps: pin to one CPU, generate the seeded scenario files, check the oracle
against a literal tuple loop, compute the expected outputs with the oracle,
time the set-up in fresh interpreters, run the workload process, and print
one JSON object as the last line of standard output.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.

Exits 2 without a result when the checkout has no ``src/entcesaro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

SETUP_REPEATS = 7
# Seconds per reference unit in ``setup_s``: the reference computation takes
# about this long on a 2-vCPU virtual machine.
NOMINAL_REFERENCE_S = 0.08
SETUP_TIMEOUT_S = 60
RUN_DEADLINE_S = 170  # the whole benchmark must end within 180 s
BLAS_THREADS = 1


def run_bounded(cmd: list[str], timeout: float, env: dict) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return subprocess.CompletedProcess(cmd, -signal.SIGKILL, out, err + "\ntimed out")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def compute_expected(cases: list[inputs.Case]) -> dict[str, object]:
    """Oracle values for every case, keyed "<case>:<field>" for numpy.savez."""
    out: dict[str, object] = {}
    for case in cases:
        key = case.name + ":"
        if case.partition is None:
            out[key + "u"] = case.u
            continue
        inner = case.ops if case.state is None else case.ops[1:-1]
        limit = oracle.limit(case.u, inner, case.partition, case.exact_turns)
        means = {n: oracle.mean(case.u, inner, case.partition, n, case.exact_turns)
                 for n in case.horizons}
        out[key + "Ns"] = np.array(case.horizons)
        out[key + "scale"] = float(np.prod([np.linalg.norm(a, 2) for a in inner]))
        if case.state is not None:
            first, last = case.ops[0], case.ops[-1]

            def expect(m):
                return complex(np.trace(case.state @ first @ m @ last))

            out[key + "limit"] = expect(limit)
            out[key + "values"] = np.array([expect(means[n]) for n in case.horizons])
        elif case.name == "converge-haar":
            out[key + "prod_norm"] = out[key + "scale"]
            out[key + "error_op"] = np.array([np.linalg.norm(means[n] - limit, 2) for n in case.horizons])
            out[key + "error_frob"] = np.array([np.linalg.norm(means[n] - limit) for n in case.horizons])
        else:
            out[key + "limit"] = limit
            for n in case.horizons:
                out[key + f"mean{n}"] = means[n]
    return out


def time_setup(work: str, env: dict) -> tuple[float, float, bool]:
    """Set-up time of fresh interpreters running the workload's set-up.

    Returns the median over the repeats of the time in reference units (the
    reference computation is timed between repeats, as beside the
    operations), converted to seconds at ``NOMINAL_REFERENCE_S`` per unit,
    and the median raw wall time.
    """
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "setup", "--root", ROOT, "--work", work]
    times, units, ok = [], [], True
    before = workload.reference_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = run_bounded(cmd, SETUP_TIMEOUT_S, env)
        times.append(time.perf_counter() - start)
        after = workload.reference_seconds()
        units.append(times[-1] / ((before + after) / 2.0))
        before = after
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            ok = False
    return statistics.median(units) * NOMINAL_REFERENCE_S, statistics.median(times), ok


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    The reference computation and the operations then share a CPU, so the
    reference sees the host speed the operations see.  Unpinned, a CLI
    subprocess may run on the other CPU, whose speed differs.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})


def reference_units(passes: list[dict]) -> dict[str, float]:
    """Each operation's median over the passes of its time in reference units.

    On small shared hosts the wall time of the same work drifts by up to 2x
    over minutes (see README.md).  The reference computation timed beside
    each operation drifts with it, so their ratio moves far less.
    """
    ratios: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            ratios.setdefault(op["label"], []).append(op["seconds"] / op["ref"])
    return {label: statistics.median(values) for label, values in ratios.items()}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entcesaro benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "entcesaro", "cli.py")):
        print(f"no entcesaro sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    bench_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    work = os.path.join(bench_dir, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        cases = inputs.generate(args.workload, args.seed, os.path.join(work, "inputs"))
        oracle_problems = oracle.self_check()
        for problem in oracle_problems:
            print(f"oracle self-check: {problem}", file=sys.stderr)
        np.savez(os.path.join(work, "expected.npz"), **compute_expected(cases))
        manifest = {
            "workload": args.workload,
            "blas_threads": BLAS_THREADS,
            "cases": [{"name": c.name, "path": c.path, "partition": c.partition,
                       "horizons": list(c.horizons)} for c in cases],
        }
        with open(os.path.join(work, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)

        threads = str(BLAS_THREADS)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        setup_ok = True
        if not args.trace:
            setup_s, setup_raw_s, setup_ok = time_setup(work, env)

        cmd = [sys.executable, os.path.join(HERE, "workload.py"), "run", "--root", ROOT,
               "--work", work, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        remaining = RUN_DEADLINE_S - (time.perf_counter() - started)
        proc = run_bounded(cmd, remaining, env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        if args.trace:
            shutil.copy(os.path.join(work, "spans.jsonl"),
                        os.path.join(bench_dir, f"spans-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [op for p in result["passes"] for op in p["ops"]]
    failed = [op for op in records if op["problems"]]
    for op in failed:
        print(f"FAILED {op['label']}: {'; '.join(op['problems'])}", file=sys.stderr)
    wrong_output = any(op["wrong_output"] for op in records)
    correct = not oracle_problems and setup_ok and not wrong_output

    if args.trace:
        tr = result["trace"]
        metrics = {f"{name}.s": metric(tr["seconds"].get(name, 0.0), "s") for name in spans.TIMED}
        metrics.update({f"{name}.calls": metric(tr["calls"].get(name, 0), "count")
                        for name in spans.COUNTED})
        metrics["trace.overhead_s"] = metric(tr["traced_wall"] - tr["untraced_wall"], "s")
        print(f"traced pass {tr['traced_wall']:.3f} s, untraced in-process passes "
              f"{tr['untraced_wall']:.3f} s (mean)", file=sys.stderr)
    else:
        ratios = [r for rows in result["ratios"].values() for r in rows]
        units = reference_units(result["passes"])
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_ref": metric(sum(units.values()), "ref"),
            "peak_rss_mib": metric(result["rss_kib"] / 1024.0, "MiB"),
            # wide-means has no certified rows: the geometric mean of none is 1.
            "bound_over_error": metric(checks.geometric_mean(ratios) if ratios else 1.0, "ratio"),
        }
        walls = [p["wall"] for p in result["passes"]]
        refs = [op["ref"] for p in result["passes"] for op in p["ops"]]
        print(f"{len(walls)} passes, wall per pass: {', '.join(f'{w:.3f}' for w in walls)} s; "
              f"reference median {statistics.median(refs):.4f} s; "
              f"set-up median {setup_raw_s:.3f} s raw", file=sys.stderr)
        print("reference units per operation: " + ", ".join(f"{label} {u:.3f}"
                                                            for label, u in units.items()),
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
