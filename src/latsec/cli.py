"""Command line front end: config ingestion, experiment orchestration, and
machine-readable result emission.

Every run produces a result envelope: schema version, package version, the
echoed config, per-item results and a suite verdict. The envelope holds no
timing, so two runs of one config render byte-identical reports. Numeric
result groups carry a provenance label, one of "exact-rational",
"monte-carlo±stderr" or "formula".

Grid items are processed sequentially in grid order; results are buffered
and emitted by a single writer, so output ordering never depends on timing.

Exit codes: 0 all checks pass, 1 a suite check fails, 2 configuration
error, 3 computation budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np

from .channel import ChannelParams, stage_condition_witnesses
from .codebooks import (
    LayeredCodebook,
    build_layered,
    enumerate_codebook,
)
from .config import ExperimentConfig, load_config, parse_config
from .errors import (
    BudgetExceeded,
    IoError,
    LatsecError,
    ParseError,
    ValidationError,
)
from .experiments import (
    BaselineRow,
    LayeredReport,
    LemmaReport,
    SecrecyReport,
    equivocation_identity_exact,
    iter_grid,
    layered_reliability,
    random_codebook_baseline,
    run_layered_suite,
    run_lemma_suite,
    run_regime_pipeline,
    run_sweep,
    run_theorem1_suite,
    suite_passed,
    theorem_suite_passed,
)
from .lattices import ConstructionALattice, random_code_matrix, random_unimodular

SCHEMA_VERSION = "2.0"

PROV_EXACT = "exact-rational"
PROV_MC = "monte-carlo±stderr"
PROV_FORMULA = "formula"


# ----------------------------------------------------------------------
# building blocks shared by the experiment kinds


def _explicit_matrix(config: ExperimentConfig, field: str, rows: int, cols: int):
    """config[field], which must be None or a rows x cols matrix."""
    m = config.get(field)
    if m is not None and (len(m), len(m[0])) != (rows, cols):
        raise ValidationError(
            field, f"{field!r} must be {rows}x{cols}, got {len(m)}x{len(m[0])}"
        )
    return m


def lattice_from_config(config: ExperimentConfig) -> ConstructionALattice:
    """Lattice from explicit matrices when given, else from recorded seeds."""
    p, k, n = config["p"], config["k"], config["n"]
    g = _explicit_matrix(config, "g", n, k)
    if g is None:
        g = random_code_matrix(p, k, n, seed=[p, k, n, config["g_seed"], 11])
    t = _explicit_matrix(config, "gprime", n, n)
    if t is None:
        t = random_unimodular(n, seed=[p, k, n, config["gprime_seed"], 13])
    return ConstructionALattice(p, g, t, config["scale"])


def _grid_items(config: ExperimentConfig):
    """The run's one explicit lattice, or its grid's points streamed one at
    a time, so only the configuration in hand keeps its build."""
    if config.get("p") is not None:
        lat = lattice_from_config(config)
        return [(f"p{lat.p}_k{lat.k}_n{lat.n}", lat)]
    return iter_grid(
        config["p_values"], config["n_max"], config["coset_limit"], config["draws"]
    )


def _layered_from_config(config: ExperimentConfig) -> LayeredCodebook:
    p, n = config["p"], config["n"]
    k1, k2 = config["k1"], config["k2"]
    scale = config["scale"]
    g = _explicit_matrix(config, "g", n, k1)
    if g is None:
        g = random_code_matrix(p, k1, n, seed=[p, n, k1, k2, config["g_seed"], 17])
    t = _explicit_matrix(config, "gprime", n, n)
    if t is None:
        t = random_unimodular(n, seed=[p, n, k1, k2, config["gprime_seed"], 19])
    base = ConstructionALattice(p, g, t, scale)
    layered = build_layered(
        base,
        [(k1, scale), (k2, p * scale)],
        [config["power1"], config["power2"]],
        config["budget"],
    )
    # Infinite target power means "leave the layer at natural scale"; the
    # stage witnesses still need finite numbers, so substitute the exact
    # per-dimension average power of each layer.
    powers = [
        pw if math.isfinite(pw) else float(cb.average_power)
        for cb, pw in zip(layered.layers, layered.powers)
    ]
    return LayeredCodebook(layered.fine_lattice, layered.layers, powers)


# ----------------------------------------------------------------------
# per-kind experiment runners; each returns (results dict, verdict bool)


def _run_lattice(config: ExperimentConfig):
    lat = lattice_from_config(config)
    cb = enumerate_codebook(lat, config["budget"])
    results = {
        "provenance": PROV_EXACT,
        "p": lat.p,
        "k": lat.k,
        "n": lat.n,
        "num_cosets": lat.num_cosets,
        "scale": lat.scale,
        "scale_float": float(lat.scale),
        "code_matrix": lat.code_matrix,
        "transform": lat.transform,
        "codebook_size": len(cb),
        "rate_per_dim": cb.rate_per_dim,
        "average_power": cb.average_power,
        "average_power_float": float(cb.average_power),
    }
    if len(cb) <= config["max_points"]:
        results["points"] = cb.points
        results["points_float"] = cb.float_matrix()
    else:
        results["points"] = None
        results["points_note"] = (
            f"codebook has {len(cb)} points, above max_points="
            f"{config['max_points']}; points omitted"
        )
    return results, True


def _run_lemmas(config: ExperimentConfig):
    reports = run_lemma_suite(_grid_items(config), config["budget"])
    checked = [r for r in reports if r.skipped is None]
    results = {
        "provenance": PROV_EXACT,
        "reports": [asdict(r) for r in reports],
        "summary": {
            "configs": len(reports),
            "failures": sum(1 for r in reports if not r.passed),
            "skipped": sum(1 for r in reports if r.skipped is not None),
            "max_mi_per_dim": max((r.mi_per_dim for r in checked), default=0.0),
        },
    }
    return results, suite_passed(reports)


def _run_theorem1(config: ExperimentConfig):
    reports = run_theorem1_suite(
        _grid_items(config), config["bin_seed"], config["budget"]
    )
    results = {
        "provenance": PROV_EXACT,
        "reports": [asdict(r) for r in reports],
        "summary": {
            "configs": len(reports),
            "failures": sum(1 for r in reports if not r.onebit_pass),
            "equivocation_identity_exact": equivocation_identity_exact(reports),
            "max_leakage_per_dim": max(
                (r.leakage_per_dim for r in reports), default=0.0
            ),
        },
    }
    return results, theorem_suite_passed(reports)


def _run_layered(config: ExperimentConfig):
    layered = _layered_from_config(config)
    reports = run_layered_suite([("layered", layered)], config["budget"])
    witnesses = stage_condition_witnesses(
        layered.powers, config["a"], config["noise_var"]
    )
    results = {
        "provenance": PROV_EXACT,
        "reports": [asdict(r) for r in reports],
        "layer_powers": list(layered.powers),
        "stage_conditions": {"provenance": PROV_FORMULA, "witnesses": witnesses},
        "reliability": None,
    }
    if config["trials"] > 0:
        params = ChannelParams(
            config["a"], sum(layered.powers), noise_var=config["noise_var"]
        )
        reliability = layered_reliability(
            layered, params, config["trials"], config["seed"]
        )
        reliability["provenance"] = PROV_MC
        results["reliability"] = reliability
    return results, all(r.passed for r in reports)


def _run_baseline(config: ExperimentConfig):
    seeds = range(config["seed"], config["seed"] + config["num_seeds"])
    cmp = random_codebook_baseline(
        config["size"], config["dim"], config["power"], seeds, config["budget"]
    )
    results = {
        "provenance": PROV_EXACT,
        **asdict(cmp),
        "fraction_random_above_one": cmp.fraction_random_above_one,
        "fraction_lattice_within_one": cmp.fraction_lattice_within_one,
    }
    verdict = (
        cmp.fraction_random_above_one >= 0.95
        and cmp.fraction_lattice_within_one == 1.0
    )
    return results, verdict


def _run_pipeline(config: ExperimentConfig):
    lat = lattice_from_config(config)
    cb = enumerate_codebook(lat, config["budget"])
    result = run_regime_pipeline(
        cb,
        ChannelParams(config["a"], config["power"], config["b"],
                      config["noise_var"], config["ne"]),
        num_bins=config["num_bins"],
        trials=config["trials"],
        root_seed=config["seed"],
        bin_seed=config["bin_seed"],
        budget=config["budget"],
    )
    reliability = None
    if result.reliability is not None:
        reliability = dict(result.reliability)
        reliability["provenance"] = PROV_MC
    results = {
        "regime": {
            "provenance": PROV_FORMULA,
            "tag": result.regime.tag,
            "witness": result.regime.witness,
        },
        "secrecy": {"provenance": PROV_EXACT, **asdict(result.secrecy)},
        "reliability": reliability,
        "references": {"provenance": PROV_FORMULA, **result.references},
        "notes": list(result.notes),
    }
    return results, result.secrecy.onebit_pass


def _run_sweep(config: ExperimentConfig):
    bin_seed = config["bin_seed"] if config["include_bins"] else None
    configs = run_sweep(_grid_items(config), bin_seed, config["budget"])
    rows = []
    for lemma, threps in configs:
        row = dict(asdict(lemma), scale=Fraction(1), scale_float=1.0)
        row["max_bin_leak_per_dim"] = row["bins_onebit_pass"] = row["identity_pass"] = None
        if threps is not None:
            row["max_bin_leak_per_dim"] = max(r.leakage_per_dim for r in threps)
            row["bins_onebit_pass"] = all(r.onebit_pass for r in threps)
            row["identity_pass"] = equivocation_identity_exact(threps)
        rows.append(row)
    verdict = all(
        lemma.passed and (threps is None or theorem_suite_passed(threps))
        for lemma, threps in configs
    )
    results = {
        "provenance": PROV_EXACT,
        "rows": rows,
        "summary": {"grid_points": len(rows)},
    }
    return results, verdict


_RUNNERS = {
    "lattice": _run_lattice,
    "lemmas": _run_lemmas,
    "theorem1": _run_theorem1,
    "layered": _run_layered,
    "baseline": _run_baseline,
    "pipeline": _run_pipeline,
    "sweep": _run_sweep,
}


def run(config: ExperimentConfig) -> dict:
    """Run the experiment a config describes and wrap it in an envelope."""
    from . import __version__

    try:
        results, verdict = _RUNNERS[config.kind](config)
    except LatsecError as exc:
        exc.args = (f"{exc} [while running kind={config.kind!r}]",)
        raise
    return {
        "schema_version": SCHEMA_VERSION,
        "package": {"name": "latsec", "version": __version__},
        "kind": config.kind,
        "config": {"kind": config.kind, **config.values},
        "results": results,
        "verdict": "pass" if verdict else "fail",
    }


# ----------------------------------------------------------------------
# serialization


def jsonable(value):
    """Deterministic JSON-ready primitives: exact rationals as "num/den"
    strings, non-finite floats as strings, numpy scalars unwrapped."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isfinite(value):
            return value
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, (list, tuple, np.ndarray)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if value is None or isinstance(value, str):
        return value
    return str(value)


def _cell(value) -> str:
    """One CSV cell from jsonable's output: None empty, booleans in lower
    case, lists space-joined; str of a float is its repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(_cell(item) for item in value)
    return str(value)


_LEMMA_COLUMNS, _THEOREM_COLUMNS, _LAYERED_COLUMNS, _BASELINE_COLUMNS = (
    tuple(f.name for f in fields(report))
    for report in (LemmaReport, SecrecyReport, LayeredReport, BaselineRow)
)
_SWEEP_COLUMNS = _LEMMA_COLUMNS + (
    "scale", "scale_float", "max_bin_leak_per_dim", "bins_onebit_pass",
    "identity_pass",
)
_PIPELINE_COLUMNS = (
    "regime", "num_bins", "rate_per_dim", "bin_rate_per_dim",
    "leakage_per_dim", "equivocation_per_dim", "onebit_pass",
    "secrecy_provenance", "scheme", "trials", "error_rate",
    "reliability_provenance",
)
_LATTICE_COLUMNS = ("message", "point_rational", "point_float", "provenance")
# kinds whose CSV is one row per entry of a results list:
# kind -> (columns before "provenance", results key of the list)
_ROW_TABLES = {
    "lemmas": (_LEMMA_COLUMNS, "reports"),
    "theorem1": (_THEOREM_COLUMNS, "reports"),
    "layered": (_LAYERED_COLUMNS, "reports"),
    "baseline": (_BASELINE_COLUMNS, "rows"),
    "sweep": (_SWEEP_COLUMNS, "rows"),
}


def _csv_rows(envelope: dict):
    kind = envelope["kind"]
    results = envelope["results"]
    prov = results.get("provenance", PROV_EXACT)
    if kind in _ROW_TABLES:
        columns, key = _ROW_TABLES[kind]
        rows = [dict(r, provenance=prov) for r in results[key]]
        return columns + ("provenance",), rows
    if kind == "pipeline":
        secrecy = results["secrecy"]
        reliability = results["reliability"] or {}
        row = {
            "regime": results["regime"]["tag"],
            "num_bins": secrecy["num_bins"],
            "rate_per_dim": secrecy["rate_per_dim"],
            "bin_rate_per_dim": secrecy["bin_rate_per_dim"],
            "leakage_per_dim": secrecy["leakage_per_dim"],
            "equivocation_per_dim": secrecy["equivocation_per_dim"],
            "onebit_pass": secrecy["onebit_pass"],
            "secrecy_provenance": secrecy["provenance"],
            "scheme": reliability.get("scheme"),
            "trials": reliability.get("trials"),
            "error_rate": reliability.get("error_rate"),
            "reliability_provenance": reliability.get("provenance"),
        }
        return _PIPELINE_COLUMNS, [row]
    if kind == "lattice":
        points = results.get("points")
        rows = []
        if points is not None:
            for message, point in enumerate(points):
                rows.append(
                    {
                        "message": message,
                        "point_rational": point,
                        "point_float": [float(c) for c in point],
                        "provenance": prov,
                    }
                )
        return _LATTICE_COLUMNS, rows
    raise ValidationError("kind", f"no CSV schema for kind {kind!r}")


def render(envelope: dict, fmt: str) -> str:
    """Envelope as a JSON document or a CSV table with a fixed per-kind
    column set; both are byte-deterministic."""
    if fmt == "json":
        return json.dumps(jsonable(envelope), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        columns, rows = _csv_rows(envelope)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(jsonable(row.get(c))) for c in columns])
        return buffer.getvalue()
    raise ValidationError("format", f"unknown format {fmt!r}; expected csv or json")


def emit(envelope: dict, fmt: str, path: str) -> str:
    """Write the rendered envelope to a file; returns the path."""
    text = render(envelope, fmt)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from None
    return path


# ----------------------------------------------------------------------
# argument parsing and entry point

_SUBCOMMANDS = (
    ("lattice", "build", "lattice", "build a lattice and list its codebook"),
    ("verify", "lemmas", "lemmas", "exact sum-support and one-bit checks"),
    ("verify", "theorem1", "theorem1", "exact binned-leakage checks"),
    ("simulate", "pipeline", "pipeline", "regime pipeline on one configuration"),
    ("simulate", "layered", "layered", "layered codebook checks and decoding"),
    ("compare", "random", "baseline", "random versus lattice leakage"),
    ("sweep", None, "sweep", "full verification grid as one table"),
)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="config document path")
    parser.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--budget", type=int, help="override the computation budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latsec",
        description="lattice-coded interference-channel secrecy workbench",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    group_subs: dict[str, argparse._SubParsersAction] = {}
    for group, action, kind, help_text in _SUBCOMMANDS:
        if action is None:
            leaf = sub.add_parser(group, help=help_text)
        else:
            if group not in group_subs:
                gp = sub.add_parser(group)
                group_subs[group] = gp.add_subparsers(dest="action", required=True)
            leaf = group_subs[group].add_parser(action, help=help_text)
        leaf.set_defaults(kind=kind)
        _add_common_arguments(leaf)
    return parser


def _config_for(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {
        field: getattr(args, field)
        for field in ("seed", "trials", "budget")
        if getattr(args, field) is not None
    }
    if args.config is not None:
        config = load_config(args.config, overrides)
    else:
        config = parse_config(f"kind={args.kind}", overrides)
    if config.kind != args.kind:
        raise ValidationError(
            "kind",
            f"config kind {config.kind!r} does not match subcommand "
            f"kind {args.kind!r}",
        )
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_for(args)
        envelope = run(config)
        if args.out is not None:
            emit(envelope, args.format, args.out)
        else:
            sys.stdout.write(render(envelope, args.format))
    except BudgetExceeded as exc:
        print(f"latsec: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValidationError, IoError) as exc:
        print(f"latsec: configuration error: {exc}", file=sys.stderr)
        return 2
    except LatsecError as exc:
        print(f"latsec: error: {exc}", file=sys.stderr)
        return 2
    return 0 if envelope["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
