"""Output checks: each returns a list of problems, empty when the output is right.

Outputs are compared with the oracle's values or with a property the method
must have, never with stored output.
"""

from __future__ import annotations

import math

import numpy as np

MATRIX_REL_TOL = 1e-9  # the program's own oracle tolerance
NORM_REL_TOL = 1e-9  # error columns against the oracle, relative
NORM_ABS_TOL = 1e-15  # rounding floor, times prod ||A_j||
PRINT_9 = 2e-9  # values printed with 9 decimals: rounding plus oracle slack
PRINT_12 = 2e-12  # the correlation limit, printed with 12 decimals
BOUND_PRINT_SLACK = 1e-3  # bounds printed with 4 significant digits
DECOMPOSE_TOL = 1e-9
# The certified bound must fall by about 10x per 10x in N; this allows 20%.
BOUND_DECAY = 0.8


def traceback_in(stderr: str) -> bool:
    return "Traceback (most recent call last)" in stderr


def parse_converge(stdout: str) -> list[dict]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "N,engine,error_op,error_frob,certified_bound,spectral_gap,seconds":
        raise ValueError("missing CSV header")
    rows = []
    for line in lines[1:]:
        n, engine, err, frob, bound, gap, seconds = line.split(",")
        rows.append({"N": int(n), "engine": engine, "error_op": float(err),
                     "error_frob": float(frob), "bound": float(bound)})
    return rows


def check_converge(stdout: str, expected: dict) -> tuple[list[str], list[float]]:
    """Problems and per-row bound/error ratios of one ``converge`` CSV."""
    problems = []
    try:
        rows = parse_converge(stdout)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"], []
    if [r["N"] for r in rows] != list(expected["Ns"]):
        return [f"rows for N={[r['N'] for r in rows]}, expected {list(expected['Ns'])}"], []
    floor = NORM_ABS_TOL * expected["prod_norm"]
    for row, err_op, err_frob in zip(rows, expected["error_op"], expected["error_frob"]):
        n = row["N"]
        if not row["error_op"] <= row["bound"]:
            problems.append(f"N={n}: error_op {row['error_op']:.3e} above bound {row['bound']:.3e}")
        if abs(row["error_op"] - err_op) > NORM_REL_TOL * err_op + floor:
            problems.append(f"N={n}: error_op {row['error_op']!r}, oracle {err_op!r}")
        if abs(row["error_frob"] - err_frob) > NORM_REL_TOL * err_frob + floor:
            problems.append(f"N={n}: error_frob {row['error_frob']!r}, oracle {err_frob!r}")
    for a, b in zip(rows, rows[1:]):
        if a["bound"] / b["bound"] < BOUND_DECAY * b["N"] / a["N"]:
            problems.append(f"bound falls only {a['bound'] / b['bound']:.2f}x "
                            f"from N={a['N']} to N={b['N']}")
    ratios = [r["bound"] / r["error_op"] for r in rows]
    return problems, ratios


def check_correlate(stdout: str, expected: dict) -> tuple[list[str], list[float]]:
    """Problems and per-row bound/error ratios of one ``correlate`` table."""
    lines = stdout.splitlines()
    prefix = "correlation limit: "
    if not lines or not lines[0].startswith(prefix):
        return ["missing correlation limit line"], []
    problems = []
    limit = complex(lines[0][len(prefix):])
    if abs(limit - expected["limit"]) > PRINT_12:
        problems.append(f"limit {limit}, oracle {expected['limit']}")
    rows = [line.split() for line in lines[2:]]
    if [int(r[0]) for r in rows] != list(expected["Ns"]):
        return problems + [f"rows {[r[0] for r in rows]}, expected {list(expected['Ns'])}"], []
    ratios = []
    for (n, value, gap, bound), want in zip(rows, expected["values"]):
        value, gap, bound = complex(value), float(gap), float(bound)
        if abs(value - want) > PRINT_9:
            problems.append(f"N={n}: value {value}, oracle {want}")
        true_gap = abs(want - expected["limit"])
        if not (gap <= bound and true_gap <= bound * (1 + BOUND_PRINT_SLACK)):
            problems.append(f"N={n}: |value-limit| {true_gap:.3e} above bound {bound:.3e}")
        ratios.append(bound / gap)
    return problems, ratios


def check_verify(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    problems = [line for line in lines[:-1] if not line.startswith("PASS")]
    total = len(lines) - 1
    if not lines or lines[-1] != f"{total}/{total} checks passed":
        problems.append(f"summary line {lines[-1] if lines else ''!r}")
    return problems


def check_matrix(name: str, got: np.ndarray, want: np.ndarray, scale: float) -> list[str]:
    diff = float(np.linalg.norm(got - want))
    if diff > MATRIX_REL_TOL * scale:
        return [f"{name}: differs from the oracle by {diff:.3e} (scale {scale:.3e})"]
    return []


def check_decomposition(turns: list[float], projections: list[np.ndarray], u: np.ndarray) -> list[str]:
    """The decomposition reconstructs U and its phases are U's eigenvalues."""
    problems = []
    rebuilt = sum(np.exp(2j * np.pi * t) * p for t, p in zip(turns, projections))
    residual = float(np.linalg.norm(rebuilt - u, 2))
    if residual > DECOMPOSE_TOL:
        problems.append(f"reconstruction residual {residual:.3e}")
    ranks = [int(round(float(np.trace(p).real))) for p in projections]
    counts = [0] * len(turns)
    for z in np.linalg.eigvals(u):
        t = float(np.angle(z) / (2.0 * np.pi)) % 1.0
        dist = [min(abs(t - s), 1.0 - abs(t - s)) for s in turns]
        best = int(np.argmin(dist))
        if dist[best] > DECOMPOSE_TOL:
            problems.append(f"eigenvalue at {t!r} turns has no phase within {DECOMPOSE_TOL}")
        counts[best] += 1
    if counts != ranks:
        problems.append(f"eigenvalue counts {counts} differ from block ranks {ranks}")
    return problems


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
