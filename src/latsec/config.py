"""Experiment configuration documents.

Configs are either a JSON object or flat ``key=value`` lines (``#`` starts a
comment).  Every document names a ``kind`` selecting one experiment schema;
unknown keys are rejected so that typos fail loudly instead of silently
falling back to defaults.

Typed values accepted in the flat format:

* integers (``trials=5000``) and floats (``a=0.3``, ``power=inf``),
* exact rationals (``scale=3/2``),
* integer lists (``p_values=2,3,5,7``),
* integer matrices, rows separated by ``;`` (``g=1,0;0,1``),
* booleans (``include_bins=false``).

The JSON form uses native types for the same fields (nested lists for
matrices, strings such as ``"3/2"`` for rationals).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import ParseError, ValidationError

_GRID_FIELDS: dict[str, tuple[str, Any]] = {
    "p_values": ("intlist", (2, 3, 5, 7)),
    "n_max": ("int", 6),
    "coset_limit": ("int", 512),
    "draws": ("int", 5),
}

_LATTICE_FIELDS: dict[str, tuple[str, Any]] = {
    "p": ("int", 2),
    "k": ("int", 1),
    "n": ("int", 1),
    "g": ("matrix", None),
    "g_seed": ("int", 0),
    "gprime": ("matrix", None),
    "gprime_seed": ("int", 0),
    "scale": ("fraction", Fraction(1)),
}

# Optional single-point override for grid kinds: when p, k and n are all
# given the suite runs that one lattice instead of the standard grid.
_SINGLE_POINT_FIELDS: dict[str, tuple[str, Any]] = {
    **_LATTICE_FIELDS,
    "p": ("int", None),
    "k": ("int", None),
    "n": ("int", None),
}

_COMMON_FIELDS: dict[str, tuple[str, Any]] = {"budget": ("int", 10**6)}

SCHEMAS: dict[str, dict[str, tuple[str, Any]]] = {
    "lattice": {
        **_LATTICE_FIELDS,
        **_COMMON_FIELDS,
        "max_points": ("int", 64),
    },
    "lemmas": {
        **_SINGLE_POINT_FIELDS,
        **_GRID_FIELDS,
        **_COMMON_FIELDS,
    },
    "theorem1": {
        **_SINGLE_POINT_FIELDS,
        **_GRID_FIELDS,
        **_COMMON_FIELDS,
        "bin_seed": ("int", 0),
    },
    "layered": {
        "p": ("int", 2),
        "n": ("int", 2),
        "k1": ("int", 2),
        "k2": ("int", 1),
        "scale": ("fraction", Fraction(1)),
        "g": ("matrix", None),
        "g_seed": ("int", 0),
        "gprime": ("matrix", None),
        "gprime_seed": ("int", 0),
        "power1": ("float", float("inf")),
        "power2": ("float", float("inf")),
        "a": ("float", 4.0),
        "noise_var": ("float", 1.0),
        "seed": ("int", 0),
        "trials": ("int", 0),
        **_COMMON_FIELDS,
    },
    "baseline": {
        "size": ("int", 16),
        "dim": ("int", 2),
        "power": ("float", 1.0),
        "num_seeds": ("int", 100),
        "seed": ("int", 0),
        **_COMMON_FIELDS,
    },
    "pipeline": {
        **_LATTICE_FIELDS,
        "a": ("float", 0.3),
        "b": ("float", 1.0),
        "power": ("float", 1.0),
        "noise_var": ("float", 1.0),
        "ne": ("float", 1.0),
        "num_bins": ("int", 1),
        "bin_seed": ("int", 0),
        # retired: power scaling is exact; still accepted, validated, echoed
        "power_samples": ("int", 20000),
        "seed": ("int", 0),
        "trials": ("int", 1000),
        **_COMMON_FIELDS,
    },
    "sweep": {
        **_GRID_FIELDS,
        **_COMMON_FIELDS,
        "bin_seed": ("int", 0),
        "include_bins": ("bool", True),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description with defaults applied."""

    kind: str
    values: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)


def _coerce_int(field: str, raw: Any) -> int:
    if isinstance(raw, bool):
        raise ValidationError(field, f"{field!r} must be an integer")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw.strip(), 10)
        except ValueError:
            raise ValidationError(field, f"{field!r} is not an integer: {raw!r}") from None
    raise ValidationError(field, f"{field!r} must be an integer")


def _coerce_float(field: str, raw: Any) -> float:
    if isinstance(raw, bool):
        raise ValidationError(field, f"{field!r} must be a number")
    if isinstance(raw, (int, float)):
        return float(raw)
    if isinstance(raw, str):
        text = raw.strip().lower()
        try:
            return float(text)
        except ValueError:
            raise ValidationError(field, f"{field!r} is not a number: {raw!r}") from None
    raise ValidationError(field, f"{field!r} must be a number")


def _coerce_fraction(field: str, raw: Any) -> Fraction:
    try:
        if isinstance(raw, bool):
            raise ValueError
        if isinstance(raw, (int, Fraction)):
            return Fraction(raw)
        if isinstance(raw, float):
            return Fraction(raw).limit_denominator(10**12)
        if isinstance(raw, str):
            return Fraction(raw.strip())
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValidationError(field, f"{field!r} is not a rational: {raw!r}") from None
    raise ValidationError(field, f"{field!r} must be a rational")


def _coerce_bool(field: str, raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        text = raw.strip().lower()
        if text in ("true", "1", "yes"):
            return True
        if text in ("false", "0", "no"):
            return False
    raise ValidationError(field, f"{field!r} must be a boolean")


def _coerce_intlist(field: str, raw: Any) -> tuple[int, ...]:
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",") if part.strip()]
        raw = parts
    if isinstance(raw, (list, tuple)):
        return tuple(_coerce_int(field, item) for item in raw)
    raise ValidationError(field, f"{field!r} must be a list of integers")


def _coerce_matrix(field: str, raw: Any) -> tuple[tuple[int, ...], ...]:
    if isinstance(raw, str):
        rows = [row.strip() for row in raw.split(";") if row.strip()]
        raw = [[cell.strip() for cell in row.split(",")] for row in rows]
    if isinstance(raw, (list, tuple)) and raw and all(isinstance(r, (list, tuple)) for r in raw):
        out = tuple(tuple(_coerce_int(field, cell) for cell in row) for row in raw)
        width = len(out[0])
        if width == 0 or any(len(row) != width for row in out):
            raise ValidationError(field, f"{field!r} rows have unequal length")
        return out
    raise ValidationError(field, f"{field!r} must be an integer matrix")


_COERCERS = {
    "int": _coerce_int,
    "float": _coerce_float,
    "fraction": _coerce_fraction,
    "bool": _coerce_bool,
    "intlist": _coerce_intlist,
    "matrix": _coerce_matrix,
}


def _parse_flat(text: str) -> tuple[dict[str, Any], dict[str, int]]:
    values: dict[str, Any] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        comment = value.find("#")
        if comment >= 0:
            value = value[:comment]
        values[key] = value.strip()
        lines[key] = lineno
    return values, lines


_FLOAT_MAX = Fraction(sys.float_info.max)


def _validate(kind: str, values: dict[str, Any], given: set[str]) -> None:
    def bad(field: str, why: str) -> None:
        raise ValidationError(field, f"{field!r} {why}")

    for field in ("p", "k", "n", "k1", "k2", "n_max", "coset_limit", "draws",
                  "num_bins", "num_seeds", "size", "dim", "max_points",
                  "power_samples"):
        if values.get(field) is not None and values[field] < 1:
            bad(field, "must be at least 1")
    for field in ("budget", "trials", "seed", "bin_seed", "g_seed", "gprime_seed"):
        if values.get(field) is not None and values[field] < 0:
            bad(field, "must be nonnegative")
    if "a" in values:
        a = values["a"]
        if a != a:
            bad("a", "must not be NaN")
        if a == 1.0:
            bad("a", "must differ from 1; unit cross gain makes the two "
                     "direct and cross observations indistinguishable")
    for field in ("power", "power1", "power2"):
        if field in values and not values[field] > 0:
            bad(field, "must be positive")
    # power1/power2 keep inf, which means "leave the layer unscaled"
    for field in ("a", "b", "power", "noise_var", "ne"):
        if field in values and math.isinf(values[field]):
            bad(field, "must be finite")
    for field in ("noise_var", "ne"):
        if field in values and not values[field] >= 0:
            bad(field, "must be nonnegative")
    if "b" in values and values["b"] != values["b"]:
        bad("b", "must not be NaN")
    if "scale" in values and values["scale"] is not None and values["scale"] <= 0:
        bad("scale", "must be positive")
    # these kinds report or compare a coarse cell's power, at most the
    # square of its scale, as a float; layered's second layer is at p * scale
    if kind in ("lattice", "pipeline", "layered"):
        coarse = values["scale"] * (values["p"] if kind == "layered" else 1)
        if coarse * coarse > _FLOAT_MAX:
            name = "(p * scale)^2" if kind == "layered" else "scale^2"
            bad("scale", f"is too large: {name} must not exceed the largest float, "
                         f"{sys.float_info.max:.4g}")
    # a rank-k code needs at least k coordinates
    for field in ("k", "k1", "k2"):
        if values.get(field) is not None and values.get("n") is not None \
                and values[field] > values["n"]:
            bad(field, f"must not exceed n={values['n']}")
    if kind in ("lemmas", "theorem1"):
        single = [values.get(f) is not None for f in ("p", "k", "n")]
        if any(single) and not all(single):
            bad("p", "single-lattice runs need all of p, k and n")
        for field in ("g", "gprime", "g_seed", "gprime_seed", "scale"):
            if not any(single) and field in given:
                bad(field, "needs a single-lattice run (all of p, k and n)")
    if kind == "sweep" and not values["include_bins"] and "bin_seed" in given:
        bad("bin_seed", "needs include_bins=true")
    if kind in ("layered", "pipeline") and values["trials"] == 0 and "seed" in given:
        bad("seed", "needs trials of at least 1")
    if kind == "pipeline" and values["num_bins"] == 1 and "bin_seed" in given:
        bad("bin_seed", "needs num_bins of at least 2")
    if "p_values" in values:
        primes = values["p_values"]
        if not primes:
            bad("p_values", "must not be empty")
        if len(set(primes)) != len(primes):
            bad("p_values", "must not repeat a prime")
        # a grid run gives a prime p its first point once p <= coset_limit
        if values.get("p") is None and values["coset_limit"] < min(primes):
            bad("coset_limit", "is below every prime in p_values, so the grid is empty")


def parse_config(text: str, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Parse and validate a config document.

    Accepts a JSON object or flat key=value lines.  ``overrides`` (such as
    command line flags) replace the document's values and are checked like
    them.  Applies per-kind defaults, rejects unknown keys (a kind's schema
    holds only the keys it reads), and checks value ranges.
    """
    stripped = text.lstrip()
    lines: dict[str, int] = {}
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    else:
        raw, lines = _parse_flat(text)

    if "kind" not in raw:
        raise ValidationError("kind", "config is missing the 'kind' key")
    kind = str(raw.pop("kind")).strip()
    if kind not in SCHEMAS:
        raise ValidationError(
            "kind", f"unknown kind {kind!r}; expected one of {sorted(SCHEMAS)}")

    schema = SCHEMAS[kind]
    values: dict[str, Any] = {}
    for key, raw_value in {**raw, **(overrides or {})}.items():
        if key not in schema:
            raise ParseError(
                f"unknown key {key!r} for kind {kind!r}", line=lines.get(key))
        typename, _ = schema[key]
        if raw_value is None or (isinstance(raw_value, str) and raw_value.strip() == ""):
            values[key] = None
        else:
            values[key] = _COERCERS[typename](key, raw_value)
    given = {key for key, value in values.items() if value is not None}
    for key, (_, default) in schema.items():
        if key not in values or values[key] is None:
            values[key] = default

    _validate(kind, values, given)
    return ExperimentConfig(kind=kind, values=values)


def load_config(path: str, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config(text, overrides)
