"""Property test: any JSON-shaped scenario ends every command with exit code 0, 1 or 2."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from entcesaro.cli import main

COMMANDS = ("converge", "verify", "correlate", "mean", "limit", "decompose")

# Values a scenario field might hold by mistake: non-finite numbers, an integer beyond the float
# range, booleans, null, strings.
BAD_NUMBERS = [math.nan, math.inf, -math.inf, 10**400, True, False, None, "1", -1, 0]
junk = st.one_of(st.sampled_from(BAD_NUMBERS), st.floats(allow_nan=True, allow_infinity=True),
                 st.integers(-10, 10**20), st.text(max_size=3), st.just([]), st.just({}))


PARTITIONS = [[1, 1], [1, 2, 1, 2], [1, 2, 2, 1], [1, 2, 1, 3, 2, 3], [1, 1, 1]]
CROSSING = [[1, 2, 1, 2], [1, 2, 1, 3, 2, 3]]
PHASES = ["0/1", "1/2", "1/3", "2/3", "1/4", "3/4"]
TOLERANCES = {"unitarity": [1e-10, 1e-8], "cluster": [1e-8, 1e-6], "resonance": [1e-10, 1e-8, 1e-6, 1e-2]}


@st.composite
def unitaries(draw, d):
    kind = draw(st.sampled_from(["random", "diagonal-rational", "matrix"]))
    if kind == "random":
        spec = {"kind": kind, "dim": d, "phaseMode": draw(st.sampled_from(["haar", "rational"])),
                "maxDenominator": draw(st.integers(1, 8))}
        if draw(st.booleans()):
            spec["seed"] = draw(st.integers(0, 2**32))
        return spec
    if kind == "diagonal-rational":
        return {"kind": kind, "phases": draw(st.lists(st.sampled_from(PHASES), min_size=d, max_size=d))}
    perm = draw(st.permutations(range(d)))  # a permutation matrix, so unitary
    return {"kind": kind, "re": [[float(perm[i] == j) for j in range(d)] for i in range(d)]}


@st.composite
def operators(draw, d):
    kind = draw(st.sampled_from(["random", "random", "identity", "matrix"]))
    if kind == "random":
        spec = {"kind": kind}
        if draw(st.booleans()):
            spec["norm"] = draw(st.floats(0.1, 10.0))
        if draw(st.booleans()):
            spec["seed"] = draw(st.integers(0, 2**32))
        return spec
    if kind == "identity":
        return {"kind": kind}
    entries = st.lists(st.lists(st.floats(-1, 1), min_size=d, max_size=d), min_size=d, max_size=d)
    return {"kind": kind, "re": draw(entries), "im": draw(entries)}


@st.composite
def valid_scenarios(draw):
    """A well-formed scenario with d <= 4 and N <= 300; a correlation one when it has a state."""
    d = draw(st.integers(1, 4))
    partition = list(draw(st.sampled_from(PARTITIONS)))  # a copy: mutations write into it
    raw = {"unitary": draw(unitaries(d)), "partition": partition,
           "Ns": sorted(draw(st.lists(st.integers(1, 300), min_size=1, max_size=3, unique=True))),
           "engine": draw(st.sampled_from(["spectral", "direct", "nested"])), "seed": draw(st.integers(0, 2**32))}
    correlation = draw(st.booleans())
    if correlation:
        kind = draw(st.sampled_from(["vector", "trace"]))
        raw["state"] = {"kind": kind, "omega" if kind == "vector" else "diag": [1.0] + [0.0] * (d - 1)}
    count = len(partition) + (1 if correlation else -1)
    raw["operators"] = draw(st.lists(operators(d), min_size=count, max_size=count))
    keys = draw(st.lists(st.sampled_from(sorted(TOLERANCES)), unique=True))
    raw["tolerances"] = {key: draw(st.sampled_from(TOLERANCES[key])) for key in keys}
    return raw


def _fields(value):
    """(container, key) of every entry of the dicts and lists nested in ``value``, matrix entries aside."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    out = []
    for key, inner in list(items):
        out.append((value, key))
        if key not in ("re", "im"):
            out += _fields(inner)
    return out


@st.composite
def scenarios(draw):
    """A valid scenario with up to two fields replaced by junk, or a junk field added."""
    raw = draw(valid_scenarios())
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        container, key = draw(st.sampled_from(_fields(raw)))
        container[key] = draw(junk)
    if draw(st.sampled_from([False] * 9 + [True])):
        raw[draw(st.sampled_from(["tolerances", "seed", "unitary", "partition"]))] = draw(junk)
    return raw


def _run(path, command) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--scenario", path])
    return code, err.getvalue()


def _bad(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value))


def _must_exit_2(raw, command) -> bool:
    """Whether ``command`` reads a non-pair partition, or a top-level seed, tolerance or operator norm
    that is a bool or not finite, or runs the nested engine on a crossing partition.

    Partitions, seeds and tolerances are read when the scenario loads; the engine is checked against
    the partition right after, by the commands that run it; operator norms are read when a command
    with a partition builds its operators, which ``decompose`` never does.
    """
    tolerances = raw.get("tolerances")
    if raw.get("partition") == [1, 1, 1] or _bad(raw.get("seed")) or (
            isinstance(tolerances, dict) and any(map(_bad, tolerances.values()))):
        return True
    if (command in ("converge", "mean", "verify") and raw.get("engine") == "nested"
            and raw.get("partition") in CROSSING):
        return True
    specs = raw["operators"] if isinstance(raw["operators"], list) else []
    bad_norm = any(isinstance(s, dict) and s.get("kind") == "random" and _bad(s.get("norm")) for s in specs)
    return bad_norm and command != "decompose" and "partition" in raw


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scenarios())
def test_every_command_exits_0_1_or_2(raw):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        for command in COMMANDS:
            code, err = _run(path, command)
            assert code in (0, 1, 2), (command, code, err)
            assert "Traceback" not in err, (command, err)
            if _must_exit_2(raw, command):
                assert code == 2, (command, code, err)
