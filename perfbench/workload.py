"""Workload process: runs one workload's fixed list of operations.

Modes:

* ``setup``: a fresh interpreter imports ``entcesaro.cli``, loads the
  workload's scenarios and builds their systems, then exits.  ``run.py``
  times it from the outside.
* ``run --trace 0``: repeats whole passes over the operation list for the
  given number of seconds, starting no pass that would end after them once
  ``MIN_PASSES`` have run.  CLI operations run as subprocesses, one at a
  time; library operations run in this process.  A fixed reference
  computation is timed before the first operation of a pass and after each
  operation, so every operation has a reference time on each side.
* ``run --trace 1``: one pass in this process with no wrappers, then the same
  pass with every layer function wrapped by the span recorder.  CLI
  operations are replayed through ``entcesaro.cli.main``.

Each operation's output is checked against the expected values that
``run.py`` computed with the oracle.  Results go to ``result.json`` in the
work directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

CLI_TIMEOUT_S = 60
MIN_PASSES = 3
REFERENCE_ROUNDS = 30  # about 0.08 s on a 2-vCPU virtual machine


def reference_seconds() -> float:
    """Wall time of a fixed computation that is not part of the program.

    Each round spends about equal time on numpy calls on a small complex
    matrix (a power iteration, like ``operator_norm``) and on an interpreted
    Python loop of integer arithmetic.  Timed next to each operation, it
    measures how fast the host runs at that moment; an operation's time
    divided by it is the operation's cost in reference units, which moves
    far less than its time while the host's speed drifts.  Either half alone
    tracked the program worse (README.md).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = a.conj().T @ a
    start = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        v = np.ones(5, dtype=np.complex128)
        for _ in range(200):
            w = m @ v
            v = w / np.linalg.norm(w)
        total = 0
        for i in range(16000):
            total += i * i % 7
    return time.perf_counter() - start


def _load_manifest(work: str) -> dict:
    with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _load_expected(work: str) -> dict:
    import numpy as np

    expected: dict[str, dict] = {}
    with np.load(os.path.join(work, "expected.npz")) as data:
        for key in data.files:
            case, field = key.split(":", 1)
            value = data[key]
            expected.setdefault(case, {})[field] = value[()] if value.ndim == 0 else value
    return expected


def operations(manifest: dict) -> list[dict]:
    """The workload's fixed operation list, in execution order."""
    ops = []
    for case in manifest["cases"]:
        name = case["name"]
        if manifest["workload"] == "converge-haar":
            for threads in (1, 2):
                ops.append({"label": f"converge:{name}:blas{threads}", "kind": "converge",
                            "case": name, "threads": threads})
        elif manifest["workload"] == "exact-correlate":
            ops.append({"label": f"correlate:{name}", "kind": "correlate", "case": name})
            ops.append({"label": f"verify:{name}", "kind": "verify", "case": name})
        elif case["partition"] is None:
            ops.append({"label": f"decompose:{name}", "kind": "decompose", "case": name})
        else:
            for n in case["horizons"]:
                ops.append({"label": f"mean:{name}:N={n}", "kind": "mean", "case": name, "N": n})
            ops.append({"label": f"limit:{name}", "kind": "limit", "case": name})
    return ops


class Runner:
    def __init__(self, root: str, work: str, manifest: dict, in_process: bool):
        self.root = root
        self.work = work
        self.manifest = manifest
        self.cases = {case["name"]: case for case in manifest["cases"]}
        self.expected = _load_expected(work)
        self.in_process = in_process
        self.csv_reference: bytes | None = None
        self.ratios: dict[str, list[float]] = {}
        self.systems: dict[str, tuple] = {}
        self.recorder = None

    # -- setup ---------------------------------------------------------------

    def build_systems(self) -> None:
        """Load every scenario and build its system (library workloads)."""
        from entcesaro import scenario

        self.systems = {}
        for name, case in self.cases.items():
            sc = scenario.load_scenario(case["path"])
            u, dec = sc.system()
            ops = sc.operators(sc.partition.m - 1) if sc.partition is not None else None
            self.systems[name] = (sc, u, dec, ops)

    # -- operations ----------------------------------------------------------

    def _cli(self, op: dict) -> tuple[float, int, str, str]:
        case = self.cases[op["case"]]
        argv = [op["kind"], "--scenario", case["path"]]
        if op["kind"] == "converge":
            argv += ["--out", os.path.join(self.work, f"{op['label'].replace(':', '_')}.csv")]
        if self.in_process:
            from entcesaro import cli

            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception:  # a crash inside the program is a failed operation
                    traceback.print_exc()
                    code = 1
            return time.perf_counter() - start, code, out.getvalue(), err.getvalue()
        threads = str(op.get("threads", self.manifest["blas_threads"]))
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "entcesaro", *argv], cwd=self.root,
                                  env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, -1, "", f"timed out after {CLI_TIMEOUT_S} s"
        return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr

    def _check_cli(self, op: dict, stdout: str) -> list[str]:
        import checks

        expected = self.expected[op["case"]]
        if op["kind"] == "converge":
            problems, ratios = checks.check_converge(stdout, expected)
            with open(os.path.join(self.work, f"{op['label'].replace(':', '_')}.csv"), "rb") as fh:
                csv = fh.read()
            if self.csv_reference is None:
                self.csv_reference = csv
            elif csv != self.csv_reference:
                problems.append("CSV differs from the first converge run (thread count or repeat)")
        elif op["kind"] == "correlate":
            problems, ratios = checks.check_correlate(stdout, expected)
        else:
            problems, ratios = checks.check_verify(stdout), []
        self.ratios.setdefault(op["case"], ratios)
        return problems

    def _library(self, op: dict) -> tuple[float, list[str]]:
        import checks
        from entcesaro import engines, spectral

        sc, u, dec, ops = self.systems[op["case"]]
        expected = self.expected[op["case"]]
        start = time.perf_counter()
        if op["kind"] == "decompose":
            result = spectral.decompose(u, sc.tolerances)
        elif op["kind"] == "mean":
            result = engines.cesaro_spectral(dec, sc.partition, ops, op["N"]).matrix
        else:
            result = engines.limit_operator(dec, sc.partition, ops)
        elapsed = time.perf_counter() - start
        if op["kind"] == "decompose":
            problems = checks.check_decomposition(
                [line.phase.turns for line in result.entries],
                [line.projection for line in result.entries], expected["u"])
        elif op["kind"] == "mean":
            problems = checks.check_matrix(op["label"], result, expected[f"mean{op['N']}"],
                                           expected["scale"])
        else:
            problems = checks.check_matrix(op["label"], result, expected["limit"], expected["scale"])
        return elapsed, problems

    def run_op(self, op: dict) -> dict:
        """Run and check one operation.

        A non-zero exit, a traceback or an exception fails the operation; a
        failed output check also marks the output as wrong.
        """
        import checks

        elapsed, crash, problems = 0.0, [], []
        try:
            if op["kind"] in ("converge", "correlate", "verify"):
                elapsed, code, stdout, stderr = self._cli(op)
                if code != 0:
                    crash.append(f"exit code {code}: {stderr.strip()[-300:]}")
                if checks.traceback_in(stderr):
                    crash.append("traceback on stderr")
                if not crash:
                    problems = self._check_cli(op, stdout)
            else:
                elapsed, problems = self._library(op)
        except Exception:  # a crash inside the program fails the operation
            crash.append(traceback.format_exc())
        return {"label": op["label"], "seconds": elapsed, "problems": crash + problems,
                "wrong_output": bool(problems)}

    def run_pass(self, ops: list[dict], reference: bool = False) -> dict:
        """One pass over ``ops``; with ``reference``, each record gets ``ref``,
        the mean of the reference times taken just before and just after it."""
        records = []
        before = reference_seconds() if reference else 0.0
        for op in ops:
            if self.recorder is not None:
                records.append(self.recorder.span(f"op:{op['label']}", self.run_op, op))
            else:
                records.append(self.run_op(op))
            if reference:
                after = reference_seconds()
                records[-1]["ref"] = (before + after) / 2.0
                before = after
        return {"wall": sum(r["seconds"] for r in records), "ops": records}


def cmd_setup(args) -> int:
    sys.path.insert(0, os.path.join(args.root, "src"))
    import entcesaro.cli  # noqa: F401  (part of what set-up measures)
    from entcesaro.scenario import load_scenario

    for case in _load_manifest(args.work)["cases"]:
        load_scenario(case["path"]).system()
    return 0


def cmd_run(args) -> int:
    sys.path.insert(0, os.path.join(args.root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    manifest = _load_manifest(args.work)
    ops = operations(manifest)
    library = manifest["workload"] == "wide-means"
    runner = Runner(args.root, args.work, manifest, in_process=library or args.trace)
    result: dict = {"passes": []}

    if args.trace:
        import spans

        if library:
            runner.build_systems()
        else:
            import entcesaro.cli  # noqa: F401  (import outside the timed passes)
        # Untraced, traced, untraced: the mean of the two untraced passes is the
        # reference for the tracing overhead, which cancels a steady drift in
        # the machine's speed.
        result["passes"].append(runner.run_pass(ops))
        recorder = spans.Recorder()
        recorder.install()
        runner.recorder = recorder
        if library:
            recorder.span("op:setup", runner.build_systems)
        result["passes"].append(runner.run_pass(ops))
        recorder.uninstall()
        runner.recorder = None
        result["passes"].append(runner.run_pass(ops))
        seconds, calls = recorder.self_times()
        walls = [p["wall"] for p in result["passes"]]
        result["trace"] = {"seconds": seconds, "calls": calls,
                           "untraced_wall": (walls[0] + walls[2]) / 2.0,
                           "traced_wall": walls[1]}
        recorder.write(os.path.join(args.work, "spans.jsonl"))
    else:
        if library:
            runner.build_systems()
        start = time.perf_counter()
        longest = 0.0
        while True:
            pass_start = time.perf_counter()
            result["passes"].append(runner.run_pass(ops, reference=True))
            longest = max(longest, time.perf_counter() - pass_start)
            if len(result["passes"]) == 1:
                # Peak of set-up plus one pass: later passes only add allocator
                # fragmentation, and their number depends on the machine's speed.
                result["rss_kib"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            # Start no pass that would end after --seconds, once MIN_PASSES ran.
            if (len(result["passes"]) >= MIN_PASSES
                    and time.perf_counter() - start + longest > args.seconds):
                break

    result["ratios"] = runner.ratios
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--root", required=True, help="checkout holding src/entcesaro")
    parser.add_argument("--work", required=True, help="work directory with manifest.json")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.mode == "setup" else cmd_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
