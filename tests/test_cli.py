"""Result envelopes, serialization, and the command line entry point."""

import json
import math
import os
import pathlib
import subprocess
import sys
import weakref
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest

import latsec
from latsec import BudgetExceeded, ValidationError, experiments, parse_config, render, run
from latsec.config import SCHEMAS
from latsec.experiments import BaselineRow, LayeredReport, LemmaReport, SecrecyReport
from latsec.cli import (
    _BASELINE_COLUMNS,
    _LATTICE_COLUMNS,
    _LEMMA_COLUMNS,
    _PIPELINE_COLUMNS,
    _SUBCOMMANDS,
    _ROW_TABLES,
    _RUNNERS,
    _SWEEP_COLUMNS,
    _cell,
    _csv_rows,
    emit,
    jsonable,
    main,
)

SINGLE_LEMMA = "kind=lemmas\np=2\nk=1\nn=1\n"


def run_json(text):
    return run(parse_config(text))


class TestRunEnvelope:
    def test_envelope_shape_and_single_lattice_lemma(self):
        envelope = run_json(SINGLE_LEMMA)
        # the envelope is its deterministic payload: no timing field
        assert list(envelope) == [
            "schema_version", "package", "kind", "config", "results", "verdict"
        ]
        assert envelope["schema_version"] == "2.0"
        assert envelope["package"] == {"name": "latsec", "version": latsec.__version__}
        assert envelope["kind"] == "lemmas"
        assert list(envelope["config"])[0] == "kind"
        assert envelope["verdict"] == "pass"
        results = envelope["results"]
        assert results["provenance"] == "exact-rational"
        assert results["summary"] == {
            "configs": 1,
            "failures": 0,
            "skipped": 0,
            "max_mi_per_dim": 0.5,
        }
        report = results["reports"][0]
        assert report["mi_bits"] == 0.5
        assert report["support_pass"] is True

    def test_pipeline_classifies_strong_interference(self):
        envelope = run_json("kind=pipeline\na=1.5\ntrials=50\npower_samples=2000\n")
        assert envelope["results"]["regime"]["tag"] == "very_strong"
        assert envelope["results"]["regime"]["provenance"] == "formula"
        assert envelope["results"]["secrecy"]["provenance"] == "exact-rational"
        reliability = envelope["results"]["reliability"]
        assert reliability["scheme"] == "very_strong"
        assert reliability["provenance"] == "monte-carlo±stderr"
        assert envelope["results"]["references"]["provenance"] == "formula"

    def test_identical_configs_give_identical_payloads(self):
        for fmt in ("json", "csv"):
            assert render(run_json(SINGLE_LEMMA), fmt) == render(run_json(SINGLE_LEMMA), fmt)

    def test_power_samples_is_retired(self):
        # Power scaling uses the exact cell moment; the key is only echoed.
        base = "kind=pipeline\na=0.3\nscale=4\nnum_bins=2\ntrials=20\n"
        one = run_json(base + "power_samples=1\n")
        many = run_json(base + "power_samples=20000\n")
        assert one["config"]["power_samples"] == 1
        assert {**one["config"], "power_samples": 20000} == many["config"]
        assert jsonable(one["results"]) == jsonable(many["results"])
        assert one["verdict"] == many["verdict"] == "pass"

    def test_errors_carry_the_running_kind(self):
        config = parse_config("kind=lattice\nk=2\nn=2\nbudget=1\n")
        with pytest.raises(BudgetExceeded, match=r"while running kind='lattice'"):
            run(config)

    def test_layered_kind_reports_stage_witnesses(self):
        envelope = run_json("kind=layered\ntrials=0\n")
        results = envelope["results"]
        assert results["stage_conditions"]["provenance"] == "formula"
        witnesses = results["stage_conditions"]["witnesses"]
        assert [w["stage"] for w in witnesses] == [1, 2]
        assert all(isinstance(p, float) for p in results["layer_powers"])
        assert results["reliability"] is None
        assert envelope["verdict"] == "pass"


class TestSweep:
    def test_rows_equal_separate_suite_runs(self):
        budget = 300
        envelope = run_json(f"kind=sweep\np_values=2,3\nn_max=3\ndraws=1\nbudget={budget}\n")
        grid = latsec.standard_grid((2, 3), 3, 512, 1)
        rows = envelope["results"]["rows"]
        assert [row["label"] for row in rows] == [gp.label for gp in grid]
        skipped = 0
        for gp, row in zip(grid, rows):
            lemma = asdict(latsec.run_lemma_suite([gp], budget)[0])
            assert {key: row[key] for key in lemma} == lemma
            bin_fields = (row["max_bin_leak_per_dim"], row["bins_onebit_pass"], row["identity_pass"])
            if lemma["skipped"] is not None:
                skipped += 1
                assert bin_fields == (None, None, None)
                continue
            reports = latsec.run_theorem1_suite([gp], 0, budget)
            assert bin_fields == (
                max(r.leakage_per_dim for r in reports),
                all(r.onebit_pass for r in reports),
                latsec.equivocation_identity_exact(reports),
            )
        assert 0 < skipped < len(rows)
        assert envelope["verdict"] == "pass"


class TestGridStreaming:
    @pytest.mark.parametrize("kind", ["lemmas", "theorem1", "sweep"])
    def test_grid_kinds_hold_one_build_at_a_time(self, kind, monkeypatch):
        # each configuration's build is freed before the next one is made
        built = []
        real = experiments.sum_structure

        def one_at_a_time(cb, other, budget):
            assert all(ref() is None for ref in built)
            built.append(weakref.ref(cb))
            return real(cb, other, budget)

        monkeypatch.setattr(experiments, "sum_structure", one_at_a_time)
        envelope = run_json(f"kind={kind}\np_values=2,3\nn_max=3\ndraws=2\n")
        assert envelope["verdict"] == "pass"
        assert len(built) == len(latsec.standard_grid((2, 3), 3, 512, 2))


class TestJsonRendering:
    def test_json_round_trips_and_is_sorted(self):
        envelope = run_json(SINGLE_LEMMA)
        text = render(envelope, "json")
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["kind"] == "lemmas"
        assert list(doc) == sorted(doc)

    def test_rationals_and_nonfinite_floats_become_strings(self):
        envelope = run_json("kind=lattice\n")
        doc = json.loads(render(envelope, "json"))
        assert doc["results"]["scale"] == "1/1"
        assert doc["results"]["points"] == [["0/1"], ["-1/2"]]
        layered = json.loads(render(run_json("kind=layered\ntrials=0\n"), "json"))
        assert layered["config"]["power1"] == "inf"

    def test_unknown_format_rejected(self):
        envelope = run_json(SINGLE_LEMMA)
        with pytest.raises(ValidationError):
            render(envelope, "yaml")


class TestValueSerialiser:
    """Values no golden report reaches, held to their rendered bytes."""

    VALUES = (
        float("nan"), -math.inf, np.bool_(True), np.int64(7), np.float32(0.1),
        [Fraction(1, 2), Fraction(-3, 4)], None,
    )

    def test_cells(self):
        cells = [_cell(jsonable(value)) for value in self.VALUES]
        assert cells == ["nan", "-inf", "true", "7", "0.10000000149011612", "1/2 -3/4", ""]
        nested = (np.bool_(False), math.inf, [Fraction(2), 3])
        assert _cell(jsonable(nested)) == "false inf 2/1 3"
        assert _cell(jsonable(np.array([1.5, -2.0]))) == "1.5 -2.0"

    def test_jsonable(self):
        assert jsonable(list(self.VALUES)) == [
            "nan", "-inf", True, 7, 0.10000000149011612, ["1/2", "-3/4"], None,
        ]
        assert type(jsonable(np.bool_(False))) is bool
        assert type(jsonable(np.int64(7))) is int
        assert type(jsonable(np.float32(0.5))) is float

    def test_other_values_take_their_str(self):
        # anything that is not a number, a string, None or a container
        assert jsonable(1 + 2j) == "(1+2j)"
        assert jsonable([frozenset({3})]) == ["frozenset({3})"]
        assert jsonable({"path": pathlib.PurePosixPath("a/b")}) == {"path": "a/b"}

    def envelope(self):
        nan, neg_inf, flag, count, single, fractions, none = self.VALUES
        rows = [
            {"seed": count, "random_leak_bits": nan, "random_leak_per_dim": neg_inf,
             "lattice_leak_bits": fractions, "lattice_leak_per_dim": single},
            {"seed": flag, "random_leak_bits": none, "random_leak_per_dim": math.inf,
             "lattice_leak_bits": (np.int64(-1), 2.5), "lattice_leak_per_dim": Fraction(5, 3)},
        ]
        return {"kind": "baseline", "results": {"provenance": "exact-rational", "rows": rows}}

    def test_csv_bytes(self):
        assert render(self.envelope(), "csv") == (
            "seed,random_leak_bits,random_leak_per_dim,lattice_leak_bits,"
            "lattice_leak_per_dim,provenance\n"
            "7,nan,-inf,1/2 -3/4,0.10000000149011612,exact-rational\n"
            "true,,inf,-1 2.5,5/3,exact-rational\n"
        )

    def test_json_bytes(self):
        doc = json.loads(render(self.envelope(), "json"))
        assert doc["results"]["rows"] == [
            {"seed": 7, "random_leak_bits": "nan", "random_leak_per_dim": "-inf",
             "lattice_leak_bits": ["1/2", "-3/4"], "lattice_leak_per_dim": 0.10000000149011612},
            {"seed": True, "random_leak_bits": None, "random_leak_per_dim": "inf",
             "lattice_leak_bits": [-1, 2.5], "lattice_leak_per_dim": "5/3"},
        ]


class TestCsvRendering:
    def test_lemma_table(self):
        text = render(run_json(SINGLE_LEMMA), "csv")
        lines = text.split("\n")
        assert lines[0] == ",".join(_LEMMA_COLUMNS + ("provenance",))
        assert len(lines) == 3 and lines[2] == ""
        row = lines[1].split(",")
        assert row[0] == "p2_k1_n1"
        assert row[-1] == "exact-rational"
        assert "true" in row and "0.5" in row

    def test_lattice_table_has_rational_and_float_points(self):
        text = render(run_json("kind=lattice\n"), "csv")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(_LATTICE_COLUMNS)
        assert lines[1] == "0,0/1,0.0,exact-rational"
        assert lines[2] == "1,-1/2,-0.5,exact-rational"

    def test_baseline_table(self):
        text = render(
            run_json("kind=baseline\nnum_seeds=2\n"), "csv"
        )
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(_BASELINE_COLUMNS + ("provenance",))
        assert len(lines) == 3
        assert lines[1].startswith("0,3.0625,1.53125,2.0,0.5")

    def test_pipeline_table_is_one_row(self):
        text = render(
            run_json("kind=pipeline\ntrials=0\npower_samples=2000\n"), "csv"
        )
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(_PIPELINE_COLUMNS)
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "weak"
        assert row[_PIPELINE_COLUMNS.index("scheme")] == ""

    def test_sweep_table_header_then_three_rows(self):
        text = render(
            run_json("kind=sweep\np_values=2\nn_max=2\ndraws=1\n"), "csv"
        )
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(_SWEEP_COLUMNS + ("provenance",))
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == [
            "p2_k1_n1_d0",
            "p2_k1_n2_d0",
            "p2_k2_n2_d0",
        ]

    def test_csv_is_byte_deterministic(self):
        doc = "kind=sweep\np_values=2\nn_max=2\ndraws=1\n"
        assert render(run_json(doc), "csv") == render(run_json(doc), "csv")


class TestKindTables:
    def test_every_kind_has_a_runner_subcommand_and_csv_schema(self):
        kinds = set(SCHEMAS)
        assert set(_RUNNERS) == kinds
        assert sorted(s[2] for s in _SUBCOMMANDS) == sorted(kinds)
        # pipeline and lattice have their own CSV branches in _csv_rows
        assert set(_ROW_TABLES) | {"pipeline", "lattice"} == kinds
        with pytest.raises(ValidationError, match="no CSV schema"):
            _csv_rows({"kind": "bogus", "results": {}})


    @pytest.mark.parametrize(
        "kind,report",
        [("lemmas", LemmaReport), ("theorem1", SecrecyReport),
         ("layered", LayeredReport), ("baseline", BaselineRow)],
    )
    def test_row_table_columns_are_the_report_fields(self, kind, report):
        columns, _ = _csv_rows({"kind": kind, "results": {_ROW_TABLES[kind][1]: []}})
        assert columns == tuple(f.name for f in fields(report)) + ("provenance",)

    def test_sweep_columns_extend_the_lemma_fields(self):
        columns, _ = _csv_rows({"kind": "sweep", "results": {"rows": []}})
        lemma = tuple(f.name for f in fields(LemmaReport))
        assert columns[: len(lemma)] == lemma
        assert columns[len(lemma):] == (
            "scale", "scale_float", "max_bin_leak_per_dim", "bins_onebit_pass",
            "identity_pass", "provenance",
        )


class TestEmit:
    def test_writes_rendered_text(self, tmp_path):
        envelope = run_json(SINGLE_LEMMA)
        path = tmp_path / "out.json"
        assert emit(envelope, "json", str(path)) == str(path)
        assert path.read_text(encoding="utf-8") == render(envelope, "json")

    def test_unwritable_path_raises_io_error(self, tmp_path):
        envelope = run_json(SINGLE_LEMMA)
        from latsec import IoError

        with pytest.raises(IoError):
            emit(envelope, "json", str(tmp_path / "missing-dir" / "out.json"))


class TestMainExitCodes:
    def write(self, tmp_path, text):
        path = tmp_path / "config.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_pass_is_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, SINGLE_LEMMA)
        assert main(["verify", "lemmas", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"

    def test_failing_verdict_is_one(self, tmp_path, capsys):
        path = self.write(tmp_path, "kind=baseline\ndim=8\nnum_seeds=3\n")
        assert main(["compare", "random", "--config", path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "fail"
        assert doc["results"]["fraction_random_above_one"] == 0.0

    def test_config_errors_are_two(self, tmp_path, capsys):
        bad_key = self.write(tmp_path, "kind=lemmas\nbogus=1\n")
        assert main(["verify", "lemmas", "--config", bad_key]) == 2
        assert "configuration error" in capsys.readouterr().err

        unity = self.write(tmp_path, "kind=pipeline\na=1.0\n")
        assert main(["simulate", "pipeline", "--config", unity]) == 2

        mismatch = self.write(tmp_path, SINGLE_LEMMA)
        assert main(["verify", "theorem1", "--config", mismatch]) == 2
        assert "does not match" in capsys.readouterr().err

        assert main(["verify", "lemmas", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_infinite_gain_or_power_is_two(self, tmp_path, capsys):
        for text in ("kind=pipeline\na=inf\n", "kind=pipeline\npower=inf\n"):
            path = self.write(tmp_path, text)
            assert main(["simulate", "pipeline", "--config", path]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_code_rank_above_dimension_is_two(self, tmp_path, capsys):
        for argv, text in (
            (["lattice", "build"], "kind=lattice\np=2\nk=3\nn=2\n"),
            (["verify", "lemmas"], "kind=lemmas\np=3\nk=4\nn=2\n"),
            (["simulate", "layered"], "kind=layered\nn=2\nk1=3\n"),
        ):
            path = self.write(tmp_path, text)
            assert main(argv + ["--config", path]) == 2
            assert "must not exceed n=2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,doc",
        [
            (["lattice", "build"], "kind=lattice\np=1\n"),
            (["lattice", "build"], "kind=lattice\np=4\nk=1\nn=2\n"),
            (["verify", "lemmas"], "kind=lemmas\np=1\nk=1\nn=1\n"),
            (["verify", "lemmas"], "kind=lemmas\np_values=1\n"),
            (["simulate", "pipeline"], "kind=pipeline\np=1\n"),
            (["simulate", "layered"], "kind=layered\np=1\n"),
        ],
    )
    def test_non_prime_modulus_is_two(self, tmp_path, capsys, argv, doc):
        # p=1 used to hang in the code sampler and p=4 to escape from rref
        path = self.write(tmp_path, doc)
        assert main(argv + ["--config", path]) == 2
        assert "must be a prime" in capsys.readouterr().err

    def test_infinite_noise_is_two(self, tmp_path, capsys):
        path = self.write(tmp_path, "kind=pipeline\nnoise_var=inf\n")
        assert main(["simulate", "pipeline", "--config", path]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_unmatched_baseline_size_is_two(self, tmp_path, capsys):
        path = self.write(tmp_path, "kind=baseline\nsize=12\n")
        assert main(["compare", "random", "--config", path]) == 2
        assert "no prime power matches" in capsys.readouterr().err

    def test_negative_override_is_two(self, tmp_path, capsys):
        path = self.write(tmp_path, SINGLE_LEMMA)
        assert main(["verify", "lemmas", "--config", path, "--budget", "-5"]) == 2
        capsys.readouterr()
        path = self.write(tmp_path, "kind=pipeline\ntrials=10\npower_samples=100\n")
        assert main(["simulate", "pipeline", "--config", path, "--seed", "-1"]) == 2
        assert "'seed' must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["simulate", "pipeline"], ["--seed", "-1"]),
            (["simulate", "pipeline"], ["--trials", "-1"]),
            (["verify", "lemmas"], ["--budget", "-1"]),
            (["simulate", "layered"], ["--trials", "-2"]),
            (["compare", "random"], ["--seed", "-3"]),
        ],
    )
    def test_negative_flags_are_two_naming_the_key(self, capsys, argv, flag):
        # the flag is checked by the config's own range check
        assert main(argv + flag) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"'{flag[0][2:]}' must be nonnegative" in err

    @pytest.mark.parametrize(
        "argv,doc",
        [
            (["simulate", "pipeline"], "kind=pipeline\nseed=-1\n"),
            (["simulate", "layered"], "kind=layered\nseed=-1\n"),
            (["compare", "random"], "kind=baseline\nseed=-1\n"),
            (["simulate", "pipeline"], "kind=pipeline\nbin_seed=-1\n"),
            (["sweep"], "kind=sweep\nbin_seed=-1\n"),
            (["lattice", "build"], "kind=lattice\ng_seed=-1\n"),
            (["lattice", "build"], "kind=lattice\ngprime_seed=-3\n"),
            (["simulate", "pipeline"], "kind=pipeline\npower_samples=0\n"),
        ],
    )
    def test_negative_seeds_and_no_power_samples_are_two(self, tmp_path, capsys, argv, doc):
        path = self.write(tmp_path, doc)
        assert main(argv + ["--config", path]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,doc,field",
        [
            # a 2x1 g used to run as k=1 while the echo said k=2
            (["simulate", "pipeline"], "kind=pipeline\np=3\nk=2\nn=2\ng=1;0\ntrials=0\n", "'g'"),
            (["verify", "lemmas"], "kind=lemmas\np=2\nk=2\nn=3\ng=1;1;0\n", "'g'"),
            # a grid run used to ignore an explicit matrix
            (["verify", "lemmas"], "kind=lemmas\np_values=2\nn_max=1\ng=1;0\n", "'g'"),
            (["verify", "theorem1"], "kind=theorem1\nn_max=1\ngprime=1\n", "'gprime'"),
            # and echoed these keys, ignored them and exited 0
            (["verify", "theorem1"], "kind=theorem1\np_values=2\nn_max=2\ndraws=1\nscale=5\n", "'scale'"),
            (["verify", "theorem1"], "kind=theorem1\np_values=2\nn_max=2\ndraws=1\ng_seed=9\n", "'g_seed'"),
            (["verify", "lemmas"], "kind=lemmas\nn_max=1\ngprime_seed=4\n", "'gprime_seed'"),
            (["lattice", "build"], "kind=lattice\nn=1\ng=1;0\n", "'g'"),
            (["lattice", "build"], "kind=lattice\nk=1\nn=2\ngprime=1,0\n", "'gprime'"),
            (["simulate", "layered"], "kind=layered\ng=1;0\ntrials=0\n", "'g'"),
            (["simulate", "layered"], "kind=layered\ngprime=1,0,0;0,1,0;0,0,1\ntrials=0\n", "'gprime'"),
        ],
        ids=["pipeline-g", "lemmas-g", "lemmas-grid-g", "theorem1-grid-gprime",
             "theorem1-grid-scale", "theorem1-grid-g_seed", "lemmas-grid-gprime_seed",
             "lattice-g", "lattice-gprime", "layered-g", "layered-gprime"],
    )
    def test_explicit_matrices_must_match_the_shape(self, tmp_path, capsys, argv, doc, field):
        path = self.write(tmp_path, doc)
        assert main(argv + ["--config", path]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and field in err

    @pytest.mark.parametrize(
        "argv,doc",
        [
            (["simulate", "pipeline"], "kind=pipeline\na=6e102\ntrials=0\n"),
            (["simulate", "layered"], "kind=layered\na=2e154\n"),
        ],
        ids=["pipeline-a-cubed", "layered-a-squared"],
    )
    def test_overflowing_cross_gain_is_two(self, tmp_path, capsys, argv, doc):
        # a**3 and a**2 used to raise a bare OverflowError, which exits 1
        path = self.write(tmp_path, doc)
        assert main(argv + ["--config", path]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "cross gain" in err and "overflows" in err

    def test_unreachable_power_is_two(self, tmp_path, capsys):
        # the scale ratio used to floor to 0 and fail as "scale must be positive"
        path = self.write(tmp_path, "kind=pipeline\npower=1e-30\n")
        assert main(["simulate", "pipeline", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "power 1e-30 is below" in err

    def test_rate_without_interference_or_noise_is_inf(self, tmp_path, capsys):
        # 1/2 log2(1 + P / 0) used to raise ZeroDivisionError, which exits 1
        path = self.write(tmp_path, "kind=pipeline\na=0\nnoise_var=0\ntrials=0\n")
        assert main(["simulate", "pipeline", "--config", path]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["results"]["references"]["achievable_rate_weak"] == "inf"
        assert '"nan"' not in out

    @pytest.mark.parametrize(
        "doc,field",
        [
            # (P + N) ** 2 used to raise a bare OverflowError, which exits 1
            ("kind=pipeline\npower=1e300\ntrials=3\n", "power"),
            ("kind=pipeline\nnoise_var=1e300\ntrials=3\n", "noise_var"),
            # these passed with a NaN, or an infinite, effective noise variance
            ("kind=pipeline\na=1e100\npower=1e150\ntrials=20\n", "power"),
            ("kind=pipeline\na=1e60\npower=1e150\ntrials=20\n", "power"),
            # a finite effective noise variance computed as inf
            ("kind=pipeline\na=1e60\npower=1e110\ntrials=20\n", "power"),
            # and an infinite eavesdropper bound at a finite eavesdropper gain
            ("kind=pipeline\nb=1e200\ntrials=0\n", "eve_gain"),
        ],
        ids=["power", "noise_var", "nan-variance", "inf-variance", "product", "eve-gain"],
    )
    def test_overflowing_closed_forms_are_two(self, tmp_path, capsys, doc, field):
        path = self.write(tmp_path, doc)
        assert main(["simulate", "pipeline", "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "configuration error" in err and "overflows a float" in err
        with pytest.raises(ValidationError) as exc:
            run_json(doc)
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "argv,name,doc",
        [
            (["lattice", "build"], "c.json", '{"kind": "lattice", "scale": Infinity}'),
            (["lattice", "build"], "c.cfg", "kind=lattice\nscale=1e200\n"),
            (["simulate", "pipeline"], "c.cfg", "kind=pipeline\nscale=1e300\ntrials=5\n"),
            (["simulate", "layered"], "c.cfg", "kind=layered\nscale=1e300\n"),
        ],
        ids=["json-infinity", "lattice-1e200", "pipeline-1e300", "layered-1e300"],
    )
    def test_infinite_or_huge_scale_is_two(self, tmp_path, capsys, argv, name, doc):
        # each used to raise a bare OverflowError, which exits 1
        path = tmp_path / name
        path.write_text(doc, encoding="utf-8")
        assert main(argv + ["--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "configuration error" in err and "'scale'" in err

    @pytest.mark.parametrize(
        "argv,doc,message",
        [
            (["lattice", "build"], '{"kind": "lattice", "p": true}', "'p' must be an integer"),
            (["lattice", "build"], '{"kind": "lattice", "p": [3]}', "'p' must be an integer"),
            (["simulate", "pipeline"], '{"kind": "pipeline", "a": true}', "'a' must be a number"),
            (["simulate", "pipeline"], '{"kind": "pipeline", "a": [4.0]}', "'a' must be a number"),
            (["lattice", "build"], '{"kind": "lattice", "scale": true}', "'scale' is not a rational"),
            (["lattice", "build"], '{"kind": "lattice", "scale": [1]}', "'scale' must be a rational"),
            (["sweep"], '{"kind": "sweep", "include_bins": [true]}', "'include_bins' must be a boolean"),
            (["sweep"], '{"kind": "sweep", "p_values": {"p": 2}}', "'p_values' must be a list of integers"),
        ],
        ids=["int-bool", "int-list", "float-bool", "float-list", "rational-bool", "rational-list",
             "bool-list", "intlist-object"],
    )
    def test_json_values_of_the_wrong_type_are_two(self, tmp_path, capsys, argv, doc, message):
        assert main(argv + ["--config", self.write(tmp_path, doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "configuration error" in err and message in err

    @pytest.mark.parametrize("doc", ["[1, 2]", '"kind=lattice"', "3", "null"])
    def test_json_documents_that_are_not_objects_are_two(self, tmp_path, capsys, doc):
        # only a document opening with "{" is read as JSON, so any other
        # JSON value is read as key=value lines, and none of these is one
        assert main(["lattice", "build", "--config", self.write(tmp_path, doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "configuration error" in err

    def test_codebooks_above_max_points_omit_their_points(self, tmp_path, capsys):
        path = self.write(tmp_path, "kind=lattice\np=3\nk=2\nn=2\nmax_points=8\n")
        assert main(["lattice", "build", "--config", path]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["codebook_size"] == 9 and results["points"] is None
        assert "points_float" not in results
        assert results["points_note"] == "codebook has 9 points, above max_points=8; points omitted"

    def test_budget_exhaustion_is_three(self, tmp_path, capsys):
        path = self.write(tmp_path, "kind=lattice\nk=2\nn=2\nbudget=1\n")
        assert main(["lattice", "build", "--config", path]) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_argparse_problems_exit_two(self):
        for argv in (["nonsense"], ["verify"], ["verify", "lemmas", "--format", "xml"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_out_file_replaces_stdout(self, tmp_path, capsys):
        config = self.write(tmp_path, SINGLE_LEMMA)
        out = tmp_path / "result.json"
        assert main(["verify", "lemmas", "--config", config, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text(encoding="utf-8"))["verdict"] == "pass"

    def test_budget_override_skips_but_passes(self, tmp_path, capsys):
        config = self.write(tmp_path, SINGLE_LEMMA)
        assert main(["verify", "lemmas", "--config", config, "--budget", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["summary"]["skipped"] == 1
        assert doc["verdict"] == "pass"

    def test_seed_override_moves_the_seed_window(self, tmp_path, capsys):
        config = self.write(tmp_path, "kind=baseline\nnum_seeds=3\n")
        assert main(["compare", "random", "--config", config, "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["seed"] for row in doc["results"]["rows"]] == [5, 6, 7]

    def test_trials_override_disables_reliability(self, tmp_path, capsys):
        config = self.write(
            tmp_path, "kind=pipeline\ntrials=50\npower_samples=2000\n"
        )
        assert main(
            ["simulate", "pipeline", "--config", config, "--trials", "0"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["reliability"] is None


    @pytest.mark.parametrize(
        "argv,kind,flag",
        [
            (["lattice", "build"], "lattice", "--seed"),
            (["lattice", "build"], "lattice", "--trials"),
            (["verify", "lemmas"], "lemmas", "--seed"),
            (["verify", "lemmas"], "lemmas", "--trials"),
            (["verify", "theorem1"], "theorem1", "--seed"),
            (["verify", "theorem1"], "theorem1", "--trials"),
            (["sweep"], "sweep", "--seed"),
            (["sweep"], "sweep", "--trials"),
            (["compare", "random"], "baseline", "--trials"),
        ],
    )
    def test_flags_a_kind_never_reads_are_two(self, tmp_path, capsys, argv, kind, flag):
        # the flag used to be echoed, ignored and the run to exit 0
        key = flag[2:]
        assert main(argv + [flag, "5"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"unknown key '{key}' for kind '{kind}'" in err
        path = self.write(tmp_path, f"kind={kind}\n{key}=5\n")
        assert main(argv + ["--config", path]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,doc,flags,key",
        [
            (["simulate", "layered"], "kind=layered\ntrials=50\nseed=3\nb=3\n", [], "b"),
            (["simulate", "layered"], "kind=layered\ntrials=50\nseed=3\nne=2\n", [], "ne"),
            (["simulate", "layered"], "kind=layered\n", ["--seed", "9"], "seed"),
            (["simulate", "pipeline"], "kind=pipeline\n", ["--trials", "0", "--seed", "9"], "seed"),
            (["simulate", "pipeline"], "kind=pipeline\ntrials=0\nbin_seed=7\n", [], "bin_seed"),
        ],
        ids=["layered-b", "layered-ne", "layered-seed", "pipeline-seed", "pipeline-bin_seed"],
    )
    def test_keys_that_change_nothing_are_two(self, tmp_path, capsys, argv, doc, flags, key):
        # each used to be echoed, leave the report unchanged and exit 0
        assert main(argv + ["--config", self.write(tmp_path, doc)] + flags) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"'{key}'" in err

    @pytest.mark.parametrize(
        "argv,doc,flags",
        [
            (["compare", "random"], "kind=baseline\nnum_seeds=2\n", ["--seed", "4"]),
            (["simulate", "pipeline"], "kind=pipeline\ntrials=40\n", ["--seed", "4"]),
            (["simulate", "pipeline"], "kind=pipeline\nseed=4\n", ["--trials", "30"]),
            (["simulate", "layered"], "kind=layered\ntrials=40\n", ["--seed", "4"]),
            (["simulate", "layered"], "kind=layered\nseed=4\n", ["--trials", "30"]),
        ],
    )
    def test_flags_equal_the_same_key_in_the_document(self, tmp_path, capsys, argv, doc, flags):
        key, value = flags[0][2:], flags[1]
        assert main(argv + ["--config", self.write(tmp_path, doc)] + flags) == 0
        by_flag = capsys.readouterr().out
        assert main(argv + ["--config", self.write(tmp_path, doc + f"{key}={value}\n")]) == 0
        by_doc = capsys.readouterr().out
        assert json.loads(by_flag)["config"][key] == int(value)
        assert by_flag == by_doc

    @pytest.mark.parametrize(
        "argv,doc,field",
        [
            (["verify", "lemmas"], "kind=lemmas\np_values=3\nn_max=2\ndraws=1\ncoset_limit=2\n", "'coset_limit'"),
            (["verify", "theorem1"], "kind=theorem1\np_values=3\nn_max=2\ndraws=1\ncoset_limit=2\n", "'coset_limit'"),
            (["sweep"], "kind=sweep\np_values=3\nn_max=2\ndraws=1\ncoset_limit=2\n", "'coset_limit'"),
            (["sweep"], "kind=sweep\np_values=2,2\nn_max=1\ndraws=1\n", "'p_values'"),
            (["sweep"], "kind=sweep\np_values=2\nn_max=1\ninclude_bins=false\nbin_seed=5\n", "'bin_seed'"),
        ],
        ids=["lemmas-empty", "theorem1-empty", "sweep-empty", "sweep-repeated", "sweep-no-bins"],
    )
    def test_empty_or_repeated_grids_are_two(self, tmp_path, capsys, argv, doc, field):
        # an empty grid used to pass over 0 configurations, a repeated prime
        # to repeat its rows, and a bin seed without bins to change nothing
        assert main(argv + ["--config", self.write(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and field in err


class TestEavesdropperInvariance:
    def test_secrecy_results_ignore_eavesdropper_parameters(self):
        base = "kind=pipeline\na=0.3\nnum_bins=2\ntrials=10\npower_samples=2000\n"
        serialized = set()
        for b in ("0.1", "1.0", "10"):
            for ne in ("0", "1"):
                envelope = run_json(base + f"b={b}\nne={ne}\n")
                doc = json.loads(render(envelope, "json"))
                serialized.add(json.dumps(doc["results"]["secrecy"], sort_keys=True))
        assert len(serialized) == 1


def test_module_entry_point_exits_with_main(tmp_path):
    # python -m latsec hands main's exit code to the shell: 2 for a JSON
    # document that is not an object, 0 for a lattice whose points are omitted
    package_root = str(pathlib.Path(latsec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    codes = []
    for doc in ("[1, 2]\n", "kind=lattice\np=3\nk=2\nn=2\nmax_points=8\n"):
        path = tmp_path / "config.cfg"
        path.write_text(doc, encoding="utf-8")
        argv = [sys.executable, "-m", "latsec", "lattice", "build", "--config", str(path)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        codes.append(done.returncode)
    assert codes == [2, 0]
    assert "points omitted" in done.stdout


@pytest.mark.parametrize(
    "group,action,kind", [s[:3] for s in _SUBCOMMANDS], ids=[s[2] for s in _SUBCOMMANDS]
)
def test_default_config_passes_end_to_end(group, action, kind, capsys):
    argv = [group] if action is None else [group, action]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == kind
    assert doc["verdict"] == "pass"
