"""Result envelopes, serialization, and the command line entry point."""

import json

import pytest

import latsec
from latsec import BudgetExceeded, ValidationError, parse_config, render, run
from latsec.cli import (
    _BASELINE_COLUMNS,
    _LATTICE_COLUMNS,
    _LEMMA_COLUMNS,
    _PIPELINE_COLUMNS,
    _SWEEP_COLUMNS,
    emit,
    main,
)

SINGLE_LEMMA = "kind=lemmas\np=2\nk=1\nn=1\n"


def run_json(text):
    return run(parse_config(text))


def envelope_without_clock(envelope):
    doc = json.loads(render(envelope, "json"))
    doc.pop("wall_clock_s")
    return doc


class TestRunEnvelope:
    def test_envelope_shape_and_single_lattice_lemma(self):
        envelope = run_json(SINGLE_LEMMA)
        assert envelope["schema_version"] == "1.0"
        assert envelope["package"] == {"name": "latsec", "version": latsec.__version__}
        assert envelope["kind"] == "lemmas"
        assert list(envelope["config"])[0] == "kind"
        assert envelope["verdict"] == "pass"
        assert isinstance(envelope["wall_clock_s"], float)
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
        a = run_json(SINGLE_LEMMA)
        b = run_json(SINGLE_LEMMA)
        assert envelope_without_clock(a) == envelope_without_clock(b)

    def test_power_samples_is_retired(self):
        # Power scaling uses the exact cell moment; the key is only echoed.
        base = "kind=pipeline\na=0.3\nscale=4\nnum_bins=2\ntrials=20\n"
        one = envelope_without_clock(run_json(base + "power_samples=1\n"))
        many = envelope_without_clock(run_json(base + "power_samples=20000\n"))
        assert one["config"].pop("power_samples") == 1
        assert many["config"].pop("power_samples") == 20000
        assert one == many

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
        assert "--seed must be nonnegative" in capsys.readouterr().err

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
