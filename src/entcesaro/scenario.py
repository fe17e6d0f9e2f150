"""JSON scenario files: the single input format of the command line tool.

A scenario bundles a unitary spec, a partition, operator specs, an optional
state (for correlation runs), the engine selection, the horizon list, and
tolerance overrides.  All randomness derives from one scenario seed through
named child generators, so runs are reproducible end to end.

Example::

    {
      "unitary": {"kind": "random", "dim": 4, "phaseMode": "rational",
                  "maxDenominator": 6},
      "partition": [1, 2, 1, 2],
      "operators": [{"kind": "random"}, {"kind": "random"}, {"kind": "random"}],
      "engine": "spectral",
      "Ns": [100, 1000, 10000],
      "seed": 7
    }
"""

from __future__ import annotations

import json
import zlib

import numpy as np

from .engines import _check_horizon, _engine
from .linalg import _integer, _positive, gaussian_operator
from .partitions import canonicalize
from .spectral import (
    Phase,
    SpectralDecomposition,
    Tolerances,
    decompose,
    from_eigensystem,
    random_system,
)

__all__ = ["Scenario", "ScenarioError", "load_scenario", "rng_for"]


class ScenarioError(ValueError):
    """The scenario file is missing, malformed, or inconsistent."""


def rng_for(seed: int, *names) -> np.random.Generator:
    """Child generator named by a path of labels, derived from one seed."""
    entropy = [int(seed) & 0xFFFFFFFF] + [zlib.crc32(str(n).encode()) for n in names]
    return np.random.default_rng(entropy)


class Scenario:
    """A scenario read from its JSON object; mutable, so that command line options can override ``seed`` and
    ``engine``.  The top-level fields are checked here, the unitary, operator and state specs when built."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise _fail("top level must be an object")
        if "unitary" not in raw:
            raise _fail("missing 'unitary'")
        self.unitary_spec = raw["unitary"]

        self.partition = None
        if "partition" in raw:
            labels = raw["partition"]
            if not isinstance(labels, list) or not labels:
                raise _fail("'partition' must be a nonempty integer array")
            try:
                self.partition = canonicalize(labels)
            except ValueError as exc:
                raise _fail(f"bad partition: {exc}") from exc

        self.engine = raw.get("engine", "spectral")
        try:
            _engine(self.engine)
        except ValueError as exc:
            raise _fail(str(exc)) from exc

        horizons, message = raw.get("Ns", []), "'Ns' must be a list of positive integers within the float range"
        if not isinstance(horizons, list):
            raise _fail(message)
        self.horizons = [_read(_check_horizon, n, message) for n in horizons]
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise _fail("'Ns' must be strictly increasing")

        self.seed = _read(_integer, raw.get("seed", 0), "'seed' must be an integer")

        self.out = raw.get("out")
        if self.out is not None and not isinstance(self.out, str):
            raise _fail("'out' must be a string path")

        self.operator_specs = raw.get("operators")
        if self.operator_specs is not None and not isinstance(self.operator_specs, list):
            raise _fail("'operators' must be a list")

        self.state_spec = raw.get("state")
        self.tolerances = _parse_tolerances(raw.get("tolerances"))
        self._system: tuple[np.ndarray, SpectralDecomposition] | None = None

    def system(self) -> tuple[np.ndarray, SpectralDecomposition]:
        if self._system is None:
            self._system = _build_unitary(self.unitary_spec, self.tolerances, self.seed)
        return self._system

    def operators(self, count: int) -> list[np.ndarray]:
        """Materialize ``count`` operator specs against the system dimension."""
        if self.operator_specs is None:
            raise ScenarioError("scenario has no 'operators' entry")
        if len(self.operator_specs) != count:
            raise ScenarioError(
                f"scenario provides {len(self.operator_specs)} operators, "
                f"this command needs {count}"
            )
        _, dec = self.system()
        return [
            _build_operator(spec, dec.dim, self.seed, j)
            for j, spec in enumerate(self.operator_specs)
        ]

    def partition_operators(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(all, inner): the listed A_0 ... A_m with a state or A_1 ... A_{m-1} without, and A_1 ... A_{m-1}."""
        edges = self.state_spec is not None
        ops = self.operators(self.partition.m - 1 + 2 * edges)
        return ops, ops[1:-1] if edges else ops

    def state(self) -> np.ndarray:
        if self.state_spec is None:
            raise ScenarioError("scenario has no 'state' entry")
        _, dec = self.system()
        return _build_state(self.state_spec, dec.dim)


def _fail(msg: str) -> ScenarioError:
    return ScenarioError(f"malformed scenario: {msg}")


def _read(reader, value, message: str):
    """``reader(value, message)``, its ``ValueError`` raised as ``_fail(message)``."""
    try:
        return reader(value, message)
    except ValueError:
        raise _fail(message) from None


def _seed(value, what: str):
    message = f"{what} 'seed' must be a non-negative integer"
    if value is not None and _read(_integer, value, message) < 0:
        raise _fail(message)
    return value


def _numbers(value, message: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array.  Anything else is ``_fail(message)``: a bool,
    a string or null, NaN and Infinity (which Python's JSON reader accepts), an integer beyond the float
    range, and ragged lists."""
    try:
        entries = np.array(value, dtype=object)
        if all(type(v) in (int, float) for v in entries.flat):
            numbers = entries.astype(float)
            if np.isfinite(numbers).all():
                return numbers
    except (TypeError, ValueError, OverflowError):  # ragged lists; an integer beyond the float range
        pass
    raise _fail(message)


def _matrix_from_spec(spec: dict, what: str) -> np.ndarray:
    if spec.get("re") is None:
        raise _fail(f"{what} of kind 'matrix' needs 're'")
    message = f"{what} 're' and 'im' must hold finite numbers"
    re = _numbers(spec["re"], message)
    im = np.zeros_like(re) if spec.get("im") is None else _numbers(spec["im"], message)
    if re.ndim != 2:
        raise _fail(f"{what} 're' must be a 2-d array")
    if im.shape != re.shape:
        raise _fail(f"{what} 'im' shape differs from 're'")
    return re + 1j * im


def _parse_phase(text) -> Phase:
    from fractions import Fraction

    try:
        return Phase(Fraction(str(text)))
    except (ValueError, ZeroDivisionError):
        raise _fail(f"bad phase {text!r}, expected a fraction like '1/3'") from None


def _build_unitary(spec, tol: Tolerances, seed: int):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise _fail("'unitary' must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "diagonal-rational":
            phases = spec.get("phases")
            if not isinstance(phases, list) or not phases:
                raise _fail("'diagonal-rational' needs a nonempty 'phases' list")
            phases = [_parse_phase(t) for t in phases]
            return from_eigensystem(phases, np.eye(len(phases)), tol)
        if kind == "matrix":
            u = _matrix_from_spec(spec, "unitary")
            return u, decompose(u, tol)
        if kind == "random":
            dim, message = spec.get("dim"), "'random' unitary needs a positive integer 'dim'"
            if _read(_integer, dim, message) < 1:
                raise _fail(message)
            mode = spec.get("phaseMode", "haar")
            max_den = _read(_integer, spec.get("maxDenominator", 8), "'maxDenominator' must be an integer")
            u_seed = _seed(spec.get("seed"), "unitary")
            return random_system(u_seed if u_seed is not None else rng_for(seed, "unitary"), dim, mode, max_den, tol)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise _fail(f"unitary spec rejected: {exc}") from exc
    raise _fail(f"unknown unitary kind {kind!r}")


def _build_operator(spec, dim: int, seed: int, index: int) -> np.ndarray:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise _fail(f"operator {index} must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "identity":
        return np.eye(dim, dtype=np.complex128)
    if kind == "matrix":
        mat = _matrix_from_spec(spec, f"operator {index}")
        if mat.shape != (dim, dim):
            raise _fail(f"operator {index} has shape {mat.shape}, system dimension is {dim}")
        return mat
    if kind == "random":
        op_seed = _seed(spec.get("seed"), f"operator {index}")
        rng = np.random.default_rng(op_seed) if op_seed is not None else rng_for(seed, "operator", index)
        norm = _read(_positive, spec.get("norm", 1.0), f"operator {index} 'norm' must be a positive finite number")
        return gaussian_operator(rng, dim, op_norm=norm)
    raise _fail(f"unknown operator kind {kind!r}")


def _build_state(spec, dim: int) -> np.ndarray:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise _fail("'state' must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "vector":
        omega = spec.get("omega")
        if not isinstance(omega, list) or len(omega) != dim:
            raise _fail(f"vector state needs 'omega' with {dim} entries")
        message = "omega entries must be finite numbers or [re, im] pairs"
        entries = [_numbers(v, message) for v in omega]
        if any(z.shape not in ((), (2,)) for z in entries):
            raise _fail(message)
        return np.array([complex(*z.flat) for z in entries])
    if kind == "trace":
        if "diag" in spec:
            message = f"trace state 'diag' needs {dim} finite numbers"
            values = _numbers(spec["diag"], message)
            if values.shape != (dim,):
                raise _fail(message)
            return np.diag(values).astype(np.complex128)
        mat = _matrix_from_spec(spec, "trace state")
        if mat.shape != (dim, dim):
            raise _fail(f"trace state has shape {mat.shape}, system dimension is {dim}")
        return mat
    raise _fail(f"unknown state kind {kind!r}")


def _parse_tolerances(spec) -> Tolerances:
    if spec is None:
        return Tolerances()
    if not isinstance(spec, dict):
        raise _fail("'tolerances' must be an object")
    unknown = set(spec) - set(Tolerances._fields)
    if unknown:
        raise _fail(f"unknown tolerance keys {sorted(unknown)}")
    return Tolerances(**{key: _read(_positive, spec[key], f"tolerance {key!r} must be a positive finite number")
                         for key in Tolerances._fields if key in spec})


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return Scenario(raw)
