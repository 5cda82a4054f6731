"""Config parsing, defaults, validation, and echoing."""

import math
from fractions import Fraction

import pytest

from latsec import ExperimentConfig, ParseError, ValidationError, load_config, parse_config
from latsec.config import SCHEMAS, config_echo


class TestFlatFormat:
    def test_minimal_document_gets_defaults(self):
        config = parse_config("kind=lemmas")
        assert config.kind == "lemmas"
        assert config["p_values"] == (2, 3, 5, 7)
        assert config["n_max"] == 6
        assert config["coset_limit"] == 512
        assert config["draws"] == 5
        assert config["seed"] == 0
        assert config["trials"] == 0
        assert config["budget"] == 10**6
        assert config["p"] is None and config["k"] is None and config["n"] is None

    def test_comments_blanks_and_whitespace(self):
        config = parse_config(
            """
            # full-line comment
            kind = sweep

            draws = 2   # inline comment
            include_bins = false
            """
        )
        assert config.kind == "sweep"
        assert config["draws"] == 2
        assert config["include_bins"] is False

    def test_duplicate_key_reports_its_line(self):
        with pytest.raises(ParseError) as exc:
            parse_config("kind=lemmas\ndraws=2\ndraws=3")
        assert "duplicate" in str(exc.value)
        assert exc.value.line == 3

    def test_line_without_equals_sign(self):
        with pytest.raises(ParseError) as exc:
            parse_config("kind=lemmas\njust a line")
        assert exc.value.line == 2

    def test_empty_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("kind=lemmas\n=5")

    def test_empty_value_falls_back_to_default(self):
        config = parse_config("kind=lemmas\ndraws=")
        assert config["draws"] == 5


class TestJsonFormat:
    def test_json_and_flat_documents_agree(self):
        flat = parse_config(
            "kind=pipeline\na=0.5\nnum_bins=2\nscale=3/2\ng=1,0;0,1\ntrials=10"
        )
        j = parse_config(
            '{"kind": "pipeline", "a": 0.5, "num_bins": 2, "scale": "3/2",'
            ' "g": [[1, 0], [0, 1]], "trials": 10}'
        )
        assert flat == j
        assert j["scale"] == Fraction(3, 2)
        assert j["g"] == ((1, 0), (0, 1))

    def test_invalid_json_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_config('{"kind": "lemmas",\n  "draws": }')
        assert exc.value.line == 2

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ParseError):
            parse_config('["kind", "lemmas"]')

    def test_null_values_fall_back_to_defaults(self):
        config = parse_config('{"kind": "lemmas", "draws": null}')
        assert config["draws"] == 5

    def test_native_types_pass_through(self):
        config = parse_config(
            '{"kind": "sweep", "include_bins": true, "p_values": [2, 3]}'
        )
        assert config["include_bins"] is True
        assert config["p_values"] == (2, 3)


class TestKindHandling:
    def test_missing_kind(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("draws=2")
        assert exc.value.field == "kind"

    def test_unknown_kind_lists_the_options(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("kind=mystery")
        assert exc.value.field == "kind"
        assert "lemmas" in str(exc.value)

    def test_unknown_key_names_key_kind_and_line(self):
        with pytest.raises(ParseError) as exc:
            parse_config("kind=lemmas\nbogus=1")
        message = str(exc.value)
        assert "bogus" in message
        assert "lemmas" in message
        assert exc.value.line == 2

    def test_every_kind_parses_with_defaults(self):
        for kind in SCHEMAS:
            config = parse_config(f"kind={kind}")
            assert config.kind == kind
            assert set(config.values) == set(SCHEMAS[kind])


class TestCoercions:
    def test_integers(self):
        assert parse_config("kind=lemmas\ndraws= 7 ")["draws"] == 7
        with pytest.raises(ValidationError):
            parse_config("kind=lemmas\ndraws=seven")
        with pytest.raises(ValidationError):
            parse_config('{"kind": "lemmas", "draws": true}')

    def test_floats_accept_inf(self):
        assert parse_config("kind=layered\npower1=inf")["power1"] == math.inf
        assert parse_config("kind=pipeline\na=0.5")["a"] == 0.5
        assert parse_config('{"kind": "pipeline", "a": 2}')["a"] == 2.0
        with pytest.raises(ValidationError):
            parse_config("kind=pipeline\na=fast")

    def test_fractions_are_exact(self):
        assert parse_config("kind=lattice\nscale=3/2")["scale"] == Fraction(3, 2)
        assert parse_config('{"kind": "lattice", "scale": 1.5}')["scale"] == Fraction(3, 2)
        assert parse_config('{"kind": "lattice", "scale": 2}')["scale"] == Fraction(2)
        with pytest.raises(ValidationError):
            parse_config("kind=lattice\nscale=threehalves")
        with pytest.raises(ValidationError):
            parse_config("kind=lattice\nscale=1/0")

    def test_booleans(self):
        for text, expected in (
            ("true", True), ("1", True), ("yes", True),
            ("false", False), ("0", False), ("no", False),
        ):
            assert parse_config(f"kind=sweep\ninclude_bins={text}")["include_bins"] is expected
        with pytest.raises(ValidationError):
            parse_config("kind=sweep\ninclude_bins=maybe")

    def test_integer_lists(self):
        assert parse_config("kind=lemmas\np_values=2, 3, 5")["p_values"] == (2, 3, 5)
        with pytest.raises(ValidationError):
            parse_config("kind=lemmas\np_values=2,x")

    def test_matrices(self):
        assert parse_config("kind=lattice\ng=1,0;0,1")["g"] == ((1, 0), (0, 1))
        with pytest.raises(ValidationError):
            parse_config("kind=lattice\ng=1,0;1")
        with pytest.raises(ValidationError):
            parse_config('{"kind": "lattice", "g": [1, 0]}')


class TestValidation:
    def test_unit_cross_gain_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("kind=pipeline\na=1.0")
        assert exc.value.field == "a"

    def test_nan_gains_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("kind=pipeline\na=nan")
        with pytest.raises(ValidationError):
            parse_config("kind=pipeline\nb=nan")

    @pytest.mark.parametrize(
        "kind,field,value",
        [
            ("pipeline", "a", "inf"),
            ("pipeline", "a", "-inf"),
            ("layered", "a", "inf"),
            ("pipeline", "b", "-inf"),
            ("pipeline", "power", "inf"),
            ("baseline", "power", "inf"),
        ],
    )
    def test_infinite_gains_and_power_rejected(self, kind, field, value):
        with pytest.raises(ValidationError) as exc:
            parse_config(f"kind={kind}\n{field}={value}")
        assert exc.value.field == field

    def test_positive_count_fields(self):
        for doc in (
            "kind=lemmas\nn_max=0",
            "kind=theorem1\ndraws=0",
            "kind=baseline\nnum_seeds=0",
            "kind=pipeline\nnum_bins=0",
            "kind=lattice\nmax_points=0",
        ):
            with pytest.raises(ValidationError):
                parse_config(doc)

    def test_nonnegative_fields(self):
        with pytest.raises(ValidationError):
            parse_config("kind=lemmas\nbudget=-1")
        with pytest.raises(ValidationError):
            parse_config("kind=pipeline\ntrials=-1")
        assert parse_config("kind=pipeline\ntrials=0")["trials"] == 0

    @pytest.mark.parametrize(
        "kind,field",
        [
            ("pipeline", "seed"),
            ("layered", "seed"),
            ("baseline", "seed"),
            ("pipeline", "bin_seed"),
            ("sweep", "bin_seed"),
            ("lattice", "g_seed"),
            ("lattice", "gprime_seed"),
            ("layered", "gprime_seed"),
        ],
    )
    def test_negative_seeds_rejected(self, kind, field):
        with pytest.raises(ValidationError) as exc:
            parse_config(f"kind={kind}\n{field}=-1")
        assert exc.value.field == field
        assert parse_config(f"kind={kind}\n{field}=0")[field] == 0

    def test_power_samples_at_least_one(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("kind=pipeline\npower_samples=0")
        assert exc.value.field == "power_samples"
        assert parse_config("kind=pipeline\npower_samples=1")["power_samples"] == 1

    def test_power_fields_must_be_positive(self):
        for doc in (
            "kind=pipeline\npower=0",
            "kind=layered\npower1=0",
            "kind=layered\npower2=-2",
            "kind=layered\npower1=nan",
        ):
            with pytest.raises(ValidationError):
                parse_config(doc)

    def test_noise_fields_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            parse_config("kind=pipeline\nnoise_var=-1")
        with pytest.raises(ValidationError):
            parse_config("kind=layered\nne=-0.5")
        assert parse_config("kind=pipeline\nnoise_var=0")["noise_var"] == 0.0

    @pytest.mark.parametrize(
        "kind,field,value",
        [
            ("pipeline", "noise_var", "inf"),
            ("pipeline", "ne", "inf"),
            ("layered", "noise_var", "inf"),
            ("layered", "ne", "inf"),
        ],
    )
    def test_infinite_noise_rejected(self, kind, field, value):
        with pytest.raises(ValidationError) as exc:
            parse_config(f"kind={kind}\n{field}={value}")
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "doc,field",
        [
            ("kind=lattice\np=2\nk=3\nn=2", "k"),
            ("kind=pipeline\nk=2\nn=1", "k"),
            ("kind=lemmas\np=3\nk=4\nn=2", "k"),
            ("kind=layered\nn=2\nk1=3", "k1"),
            ("kind=layered\nn=2\nk1=2\nk2=3", "k2"),
        ],
    )
    def test_code_rank_above_dimension_rejected(self, doc, field):
        with pytest.raises(ValidationError) as exc:
            parse_config(doc)
        assert exc.value.field == field

    def test_scale_must_be_positive(self):
        with pytest.raises(ValidationError):
            parse_config("kind=lattice\nscale=0")
        with pytest.raises(ValidationError):
            parse_config("kind=lattice\nscale=-1/2")

    def test_p_values_must_be_nonempty(self):
        with pytest.raises(ValidationError):
            parse_config("kind=lemmas\np_values=,")

    def test_single_lattice_override_is_all_or_nothing(self):
        with pytest.raises(ValidationError):
            parse_config("kind=lemmas\np=2")
        with pytest.raises(ValidationError):
            parse_config("kind=theorem1\np=2\nk=1")
        config = parse_config("kind=theorem1\np=2\nk=1\nn=1")
        assert (config["p"], config["k"], config["n"]) == (2, 1, 1)


class TestEchoAndIo:
    def test_echo_puts_kind_first_and_sorts_the_rest(self):
        config = parse_config("kind=lattice\nscale=3/2\ng=1,0;0,1")
        echo = config_echo(config)
        keys = list(echo)
        assert keys[0] == "kind"
        assert keys[1:] == sorted(keys[1:])
        assert echo["scale"] == "3/2"
        assert echo["g"] == [[1, 0], [0, 1]]

    def test_echo_renders_nonfinite_floats_as_strings(self):
        echo = config_echo(
            ExperimentConfig(
                "layered",
                {"power1": math.inf, "power2": -math.inf, "a": float("nan")},
            )
        )
        assert echo["power1"] == "inf"
        assert echo["power2"] == "-inf"
        assert echo["a"] == "nan"

    def test_echo_keeps_finite_primitives(self):
        config = parse_config("kind=lemmas\np_values=2,3")
        echo = config_echo(config)
        assert echo["p_values"] == [2, 3]
        assert echo["budget"] == 10**6
        assert echo["p"] is None

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "doc.cfg"
        path.write_text("kind=baseline\nsize=16\ndim=2\n", encoding="utf-8")
        config = load_config(str(path))
        assert config.kind == "baseline"
        assert config["size"] == 16

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_config(str(tmp_path / "absent.cfg"))
        assert "absent.cfg" in str(exc.value)

    def test_config_mapping_helpers(self):
        config = parse_config("kind=baseline")
        assert config["dim"] == 2
        assert config.get("dim") == 2
        assert config.get("nope", 41) == 41
