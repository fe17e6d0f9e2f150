"""Command line front end: scenario in, machine-readable reports out.

Exit codes: 0 success, 1 verification failure, 2 malformed scenario or unwritable report.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile

import numpy as np

from .engines import (
    ENGINE_NAMES,
    BudgetError,
    ConvergenceReport,
    _check_horizon,
    _engine,
    _engines_for,
    convergence_report,
    limit_operator,
    spectral_gap,
)
from .linalg import ROUNDING_TOL, bound_excess, norm_product, operator_norm, rounding_gap
from .partitions import render_partition
from .scenario import Scenario, ScenarioError, load_scenario
from .spectral import antidiagonal_spectrum, decomposition_residuals

CSV_HEADER = "N,engine,error_op,error_frob,certified_bound,spectral_gap,seconds"

DEMO_SCENARIO = {
    "unitary": {
        "kind": "random",
        "dim": 4,
        "seed": 21,
        "phaseMode": "rational",
        "maxDenominator": 6,
    },
    "partition": [1, 2, 1, 3, 2, 3],
    "operators": [{"kind": "random"} for _ in range(5)],
    "engine": "spectral",
    "Ns": [100, 1000, 10000],
    "seed": 21,
}

DEMO_CROSS_CHECK_N = 30


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` and rename it over ``path``.

    The file gets the mode ``open(path, "w")`` would give it, not ``mkstemp``'s 0600: the mode of
    the file it replaces, or 0666 less the umask when ``path`` is new.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_csv(report: ConvergenceReport, include_timings: bool = False) -> str:
    """Fixed-schema CSV; the seconds column is blank unless timings are requested.

    Wall time is the one nondeterministic quantity in a report, so leaving it
    out by default keeps byte-identical output across runs and thread counts.
    """
    lines = [CSV_HEADER]
    for row in report.rows:
        seconds = repr(row.seconds) if include_timings else ""
        lines.append(
            f"{row.N},{row.engine},{row.error_op!r},{row.error_frob!r},"
            f"{row.certified_bound!r},{report.spectral_gap!r},{seconds}"
        )
    return "\n".join(lines) + "\n"


def _complex_text(z: complex, places: int) -> str:
    """``z`` as signed real and imaginary parts to ``places`` decimals; a part that rounds to zero prints as +0."""
    return "".join(f"{round(float(x), places) + 0.0:+.{places}f}" for x in (z.real, z.imag)) + "j"


def _print_matrix(mat: np.ndarray, label: str) -> None:
    print(f"{label}:")
    if mat.shape[0] > 8:
        print(f"  ({mat.shape[0]}x{mat.shape[1]} matrix suppressed)")
        return
    for row in mat:
        print("  " + "  ".join(_complex_text(v, 6) for v in row))


def _inputs(scenario: Scenario, command: str, horizons: bool = False, edges: bool = False):
    """(u, dec, p, ops) of a command that needs a partition (and, with ``horizons``, a nonempty 'Ns'):
    the inner operators of the partition's mean, or with ``edges`` every operator the scenario lists."""
    if scenario.partition is None:
        raise ScenarioError(f"the '{command}' command needs a partition")
    if horizons and not scenario.horizons:
        raise ScenarioError(f"the '{command}' command needs a nonempty 'Ns' list")
    u, dec = scenario.system()
    ops, inner = scenario.partition_operators()
    return u, dec, scenario.partition, ops if edges else inner


def _emit_report(report: ConvergenceReport, ops, out: str | None, timings: bool) -> int:
    """Write the report's CSV to ``out`` if given, then print it; 2 if ``out`` cannot be written, else 1
    if a row's error fails its certified bound by ``bound_excess`` over ``ops``, the report's operators.

    The file is written first, so a reader of stdout that has gone away does not stop it.
    """
    text = report_csv(report, include_timings=timings)
    note, code = None, 0
    if out:
        try:
            _write_atomic(out, text)
            note = f"wrote {out}"
        except OSError as exc:
            note, code = f"error: cannot write report to {out}: {exc.strerror or exc}", 2
    print(text, end="")
    if note:
        print(note, file=sys.stderr)
    return code or _violations([(row.N, row.error_op, row.certified_bound) for row in report.rows], ops)


def _violations(rows, ops) -> int:
    """1 after naming on stderr the horizons of the (N, error, bound) ``rows`` whose error fails its bound,
    that is, whose ``bound_excess`` over ``ops`` is not within ``ROUNDING_TOL``; 0 when there are none."""
    bad = [n for n, error, bound in rows if not bound_excess(error, bound, ops) <= ROUNDING_TOL]
    if bad:
        print(f"certified bound violated at N in {bad}", file=sys.stderr)
    return 1 if bad else 0


def cmd_decompose(scenario: Scenario, args) -> int:
    u, dec = scenario.system()
    partners, one = dec._resonance.partners, dec._resonance.one
    ranks = np.bincount(dec.blocks).tolist()
    print(f"dimension {dec.dim}, {len(ranks)} spectral lines")
    print("phase  rank  antidiagonal")
    for phase, rank, partner in zip(dec.phases, ranks, partners):
        print(f"{str(phase):>12}  {rank:>4}  {'no' if partner is None else 'yes'}")
    print(f"invariant projection rank {0 if one is None else ranks[one]}")
    for name, value in decomposition_residuals(dec, u).items():
        print(f"residual {name}: {value:.3e}")
    return 0


def cmd_mean(scenario: Scenario, args) -> int:
    u, dec, p, ops = _inputs(scenario, "mean")
    horizon = args.N if args.N is not None else (scenario.horizons[-1] if scenario.horizons else 100)
    result = _engine(scenario.engine)(u, dec, p, ops, horizon)
    print(f"partition {render_partition(p)}, engine {result.engine}, N={result.N}")
    print(f"operator norm {operator_norm(result.matrix):.12f}")
    print(f"elapsed {result.elapsed:.3f}s")
    _print_matrix(result.matrix, "mean")
    return 0


def cmd_limit(scenario: Scenario, args) -> int:
    _, dec, p, ops = _inputs(scenario, "limit")
    limit = limit_operator(dec, p, ops)
    print(f"partition {render_partition(p)}")
    print(f"limit operator norm {operator_norm(limit):.12f} (operator norm product {norm_product(ops):.12f})")
    _print_matrix(limit, "limit")
    return 0


def cmd_converge(scenario: Scenario, args) -> int:
    _, dec, p, ops = _inputs(scenario, "converge", horizons=True)
    report = convergence_report(dec, p, ops, scenario.horizons, scenario.engine)
    return _emit_report(report, ops, args.out or scenario.out, args.timings)


def cmd_verify(scenario: Scenario, args) -> int:
    from .verify import run_invariant_suite

    checks = run_invariant_suite(scenario)
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  ({check.detail})" if check.detail else ""
        print(f"{status}  {check.name}: {check.value:.3e} <= {check.threshold:.3e}{detail}")
        failures += 0 if check.passed else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def cmd_bench(scenario: Scenario, args) -> int:
    u, dec, p, ops = _inputs(scenario, "bench", horizons=True)

    def run(engine, horizon):
        try:
            return _engine(engine)(u, dec, p, ops, horizon)
        except BudgetError:
            return None

    print("N        engine    seconds      |diff vs spectral| / norm product")
    for horizon in scenario.horizons:
        reference = run("spectral", horizon)
        for engine in _engines_for(p):
            result = reference if engine == "spectral" else run(engine, horizon)
            if result is None:
                print(f"{horizon:<8} {engine:<9} (skipped: over budget)")
                continue
            diff = "" if reference is None else f"{rounding_gap(result.matrix, reference.matrix, ops):.3e}"
            print(f"{horizon:<8} {engine:<9} {result.elapsed:<12.6f} {diff}")
    return 0


def cmd_correlate(scenario: Scenario, args) -> int:
    from .correlations import CorrelationSpec, correlation_deviations, correlation_limit, make_system

    state = scenario.state()  # first, so that a scenario without a state is refused as such
    u, dec, p, ops = _inputs(scenario, "correlate", edges=True)
    system = make_system(u, state, dec=dec)
    spec = CorrelationSpec(p, tuple(ops))
    limit = correlation_limit(system, spec)
    horizons = scenario.horizons or [100]
    deviations = correlation_deviations(system, spec, horizons)  # every horizon before the first line
    print(f"correlation limit: {_complex_text(limit, 12)}")
    print("N        value                          |value-limit|   certified")
    for horizon, (deviation, bound) in zip(horizons, deviations):
        value = limit + deviation
        print(f"{horizon:<8} {_complex_text(value, 9)}   {abs(deviation):.3e}       {bound:.3e}")
    # bound >= |deviation| by construction, so this fails only on a NaN; ``verify`` checks a mean formed apart
    return _violations([(n, abs(deviation), bound) for n, (deviation, bound) in zip(horizons, deviations)], ops)


def cmd_demo_appendix(args) -> int:
    scenario_dict = dict(DEMO_SCENARIO)
    if args.seed is not None:
        scenario_dict["seed"] = args.seed
    scenario = Scenario(scenario_dict)

    u, dec, p, ops = _inputs(scenario, "demo-appendix")
    print(f"entangled partition {render_partition(p)} on a dimension-{dec.dim} system")
    print("phases:", ", ".join(str(ph) for ph in dec.phases))
    print("antidiagonal spectrum:", ", ".join(str(ph) for ph in antidiagonal_spectrum(dec)))
    print(f"spectral gap: {spectral_gap(dec):.6f}")

    from .verify import engine_checks  # here, so that importing the CLI loads no verify

    for check in engine_checks(u, dec, p, ops, DEMO_CROSS_CHECK_N)[0]:
        print(f"{check.name}: |diff| / norm product {check.value:.3e}")
        if not check.passed:
            print("engines disagree beyond tolerance", file=sys.stderr)
            return 1

    report = convergence_report(dec, p, ops, scenario.horizons, scenario.engine)
    return _emit_report(report, ops, args.out, args.timings)


def _horizon(text: str) -> int:
    """The value of ``--N``: an integer the engines take as a horizon (``_check_horizon``)."""
    try:
        return _check_horizon(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"horizon N must be a positive integer within the float range, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entcesaro",
        description="entangled Cesaro means of unitary dynamics: engines, limits, reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--engine": dict(choices=ENGINE_NAMES, help="override the scenario engine"),
        "--N": dict(type=_horizon, help="horizon for the evaluation"),
        "--out": dict(help="output CSV path"),
        "--timings": dict(action="store_true", help="include wall time in CSV output (breaks byte reproducibility)"),
    }
    # Each command's handler, help and the options it reads; all take --seed, all but demo-appendix --scenario.
    commands = {
        "decompose": (cmd_decompose, "print eigenphases, the antidiagonal spectrum, and residuals", ()),
        "mean": (cmd_mean, "evaluate one entangled Cesaro mean", ("--engine", "--N")),
        "limit": (cmd_limit, "evaluate the limit operator and its norm bound", ()),
        "converge": (cmd_converge, "emit a CSV convergence report with certified bounds",
                     ("--engine", "--out", "--timings")),
        "verify": (cmd_verify, "run the full invariant suite; exit 0 iff all checks pass", ("--engine",)),
        "bench": (cmd_bench, "time the engines against each other across horizons", ()),
        "correlate": (cmd_correlate, "compare correlation averages against their limit", ()),
        "demo-appendix": (cmd_demo_appendix, "built-in demonstration on the partition 1,2,1,3,2,3",
                          ("--out", "--timings")),
    }
    for name, (handler, help_text, reads) in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        if name != "demo-appendix":
            cmd.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        cmd.add_argument("--seed", type=int, help="override the scenario seed")
        for option in reads:
            cmd.add_argument(option, **options[option])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo-appendix":
            return args.handler(args)
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario.seed = args.seed
        if hasattr(args, "engine"):  # the commands that run the scenario's engine
            if args.engine is not None:
                scenario.engine = args.engine
            try:
                _engine(scenario.engine, scenario.partition)
            except ValueError as exc:  # the engine does not evaluate the partition
                raise ScenarioError(str(exc)) from None
        return args.handler(scenario, args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
