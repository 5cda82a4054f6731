"""Config parsing, defaults, validation, and echoing."""

import json
import math
from fractions import Fraction

import pytest

from latsec import ParseError, ValidationError, load_config, parse_config, render, run
from latsec.cli import jsonable
from latsec.config import SCHEMAS


class TestFlatFormat:
    def test_minimal_document_gets_defaults(self):
        config = parse_config("kind=lemmas")
        assert config.kind == "lemmas"
        assert config["p_values"] == (2, 3, 5, 7)
        assert config["n_max"] == 6
        assert config["coset_limit"] == 512
        assert config["draws"] == 5
        assert "seed" not in config.values and "trials" not in config.values
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
        # a seed is read only with trials, a bin seed only with bins
        reads = {("layered", "seed"): "\ntrials=1", ("pipeline", "bin_seed"): "\nnum_bins=2"}
        assert parse_config(f"kind={kind}\n{field}=0" + reads.get((kind, field), ""))[field] == 0

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
            parse_config("kind=pipeline\nne=-0.5")
        with pytest.raises(ValidationError):
            parse_config("kind=layered\nnoise_var=-0.5")
        assert parse_config("kind=pipeline\nnoise_var=0")["noise_var"] == 0.0

    @pytest.mark.parametrize(
        "kind,field,value",
        [
            ("pipeline", "noise_var", "inf"),
            ("pipeline", "ne", "inf"),
            ("layered", "noise_var", "inf"),
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

    @pytest.mark.parametrize(
        "doc",
        [
            '{"kind": "lattice", "scale": Infinity}',
            '{"kind": "pipeline", "scale": -Infinity}',
            "kind=lattice\nscale=1e200",
            "kind=pipeline\nscale=1e300",
            "kind=layered\nscale=1e154",
            "kind=layered\np=7\nscale=2e153",
        ],
    )
    def test_infinite_or_huge_scale_rejected(self, doc):
        # each used to escape as a bare OverflowError
        with pytest.raises(ValidationError) as err:
            parse_config(doc)
        assert err.value.field == "scale"

    def test_scale_squared_up_to_the_largest_float_is_kept(self):
        # 2^511 squared is 2^1022, a float; the layered kind's second layer is at p * scale
        for doc in ("kind=lattice\nscale=1e154", "kind=pipeline\nscale=2**511",
                    "kind=layered\nscale=5e153", "kind=lemmas\np=2\nk=1\nn=1\nscale=1e300"):
            doc = doc.replace("2**511", str(2**511))
            assert parse_config(doc)["scale"] > 10**150

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

    @pytest.mark.parametrize("kind", ["lemmas", "theorem1"])
    @pytest.mark.parametrize("line", ["scale=5", "g_seed=9", "gprime_seed=4", "scale=1"])
    def test_grid_runs_reject_single_lattice_keys(self, kind, line):
        # a grid run used to echo these keys and ignore them; set to their
        # defaults they are still rejected, while left out they echo as before
        with pytest.raises(ValidationError) as exc:
            parse_config(f"kind={kind}\np_values=2\nn_max=2\n{line}")
        assert exc.value.field == line.partition("=")[0]
        assert parse_config(f"kind={kind}\np=2\nk=1\nn=2\n{line}")["p"] == 2
        echo = rendered_echo(f"kind={kind}\np_values=2\nn_max=1\ndraws=1")
        assert (echo["scale"], echo["g_seed"], echo["gprime_seed"]) == ("1/1", 0, 0)


# every (kind, key) pair the kind never reads, so its schema lacks the key
UNREAD = [
    (kind, key)
    for kind in ("lattice", "lemmas", "theorem1", "sweep")
    for key in ("seed", "trials")
] + [("baseline", "trials")] + [("layered", "b"), ("layered", "ne")]


class TestKeysAKindReads:
    @pytest.mark.parametrize("kind,key", UNREAD, ids=[f"{k}-{f}" for k, f in UNREAD])
    def test_unread_keys_are_rejected_when_given(self, kind, key):
        # these kinds used to echo the value and ignore it; the key is now
        # unknown to the kind, in the document, by override, and set to nothing
        docs = ((f"kind={kind}\n{key}=3", None), (f"kind={kind}", {key: 3}),
                (f"kind={kind}\n{key}=", None))
        for doc, overrides in docs:
            with pytest.raises(ParseError, match=f"unknown key {key!r} for kind {kind!r}"):
                parse_config(doc, overrides)
        # left out, it is not echoed either: the echo is the config's values
        assert key not in SCHEMAS[kind] and key not in parse_config(f"kind={kind}").values

    @pytest.mark.parametrize(
        "kind,key",
        [("pipeline", "seed"), ("pipeline", "trials"), ("layered", "seed"),
         ("layered", "trials"), ("baseline", "seed")],
    )
    def test_overrides_replace_the_document_and_are_validated(self, kind, key):
        # layered runs no trials by default, and a seed needs some
        trials = "\ntrials=1" if (kind, key) == ("layered", "seed") else ""
        config = parse_config(f"kind={kind}\n{key}=2{trials}", {key: 5})
        assert config[key] == 5
        with pytest.raises(ValidationError) as exc:
            parse_config(f"kind={kind}", {key: -1})
        assert exc.value.field == key

    @pytest.mark.parametrize("doc", ["b=3", "ne=2", "b=0.1\nne=0"])
    def test_layered_rejects_eavesdropper_keys(self, doc):
        # the layered run drops the eavesdropper's output, so b and ne
        # used to leave the report unchanged
        with pytest.raises(ParseError) as exc:
            parse_config(f"kind=layered\ntrials=50\nseed=3\n{doc}")
        assert f"unknown key {doc[: doc.index('=')]!r} for kind 'layered'" in str(exc.value)
        assert exc.value.line == 4
        config = parse_config("kind=layered\ntrials=50\nseed=3")
        assert "b" not in config.values and "ne" not in config.values

    @pytest.mark.parametrize(
        "doc,overrides,field",
        [
            ("kind=layered\nseed=9", None, "seed"),
            ("kind=layered\ntrials=0", {"seed": 9}, "seed"),
            ("kind=pipeline\ntrials=0\nseed=0", None, "seed"),
            ("kind=pipeline\nseed=4", {"trials": 0}, "seed"),
            ("kind=pipeline\nbin_seed=7", None, "bin_seed"),
            ("kind=pipeline\nnum_bins=1\nbin_seed=0", None, "bin_seed"),
        ],
    )
    def test_keys_unread_under_a_condition_are_rejected(self, doc, overrides, field):
        # no trials means no seed is drawn, one bin means nothing to shuffle
        with pytest.raises(ValidationError) as exc:
            parse_config(doc, overrides)
        assert exc.value.field == field

    def test_keys_read_under_their_condition_are_kept(self):
        assert parse_config("kind=layered\ntrials=1\nseed=9")["seed"] == 9
        assert parse_config("kind=pipeline\ntrials=0")["seed"] == 0
        assert parse_config("kind=pipeline\nnum_bins=2\nbin_seed=7")["bin_seed"] == 7
        assert parse_config("kind=pipeline\nnum_bins=1")["bin_seed"] == 0

    def test_overrides_count_as_given(self):
        # a grid run rejects an explicit g_seed even at its default
        with pytest.raises(ValidationError) as exc:
            parse_config("kind=lemmas\np_values=2\nn_max=1", {"g_seed": 0})
        assert exc.value.field == "g_seed"

    def test_load_config_takes_overrides(self, tmp_path):
        path = tmp_path / "doc.cfg"
        path.write_text("kind=baseline\nseed=1\n", encoding="utf-8")
        assert load_config(str(path), {"seed": 4})["seed"] == 4
        with pytest.raises(ParseError, match="unknown key 'trials' for kind 'baseline'"):
            load_config(str(path), {"trials": 4})

    def test_sweep_bin_seed_needs_bins(self):
        # without bins the seed changed nothing in the report
        with pytest.raises(ValidationError) as exc:
            parse_config("kind=sweep\ninclude_bins=false\nbin_seed=5")
        assert exc.value.field == "bin_seed"
        assert parse_config("kind=sweep\ninclude_bins=false")["bin_seed"] == 0
        assert parse_config("kind=sweep\nbin_seed=5")["bin_seed"] == 5

    @pytest.mark.parametrize("kind", ["lemmas", "theorem1", "sweep"])
    def test_repeated_primes_rejected(self, kind):
        # a repeated prime used to repeat its grid rows
        with pytest.raises(ValidationError) as exc:
            parse_config(f"kind={kind}\np_values=2,3,2")
        assert exc.value.field == "p_values"

    @pytest.mark.parametrize("kind", ["lemmas", "theorem1", "sweep"])
    def test_empty_grid_rejected(self, kind):
        # a grid with no configuration used to pass
        with pytest.raises(ValidationError) as exc:
            parse_config(f"kind={kind}\np_values=3,5\ncoset_limit=2")
        assert exc.value.field == "coset_limit"
        assert parse_config(f"kind={kind}\np_values=3,5\ncoset_limit=3")["coset_limit"] == 3
        if kind != "sweep":  # a single-lattice run has no grid
            assert parse_config(f"kind={kind}\np=3\nk=1\nn=1\ncoset_limit=2")["p"] == 3


def rendered_echo(text):
    """The config echo of a run, as the JSON report writes it."""
    return json.loads(render(run(parse_config(text)), "json"))["config"]


class TestEchoAndIo:
    def test_echo_sorts_keys_and_writes_rationals(self):
        echo = rendered_echo("kind=lattice\nk=2\nn=2\nscale=3/2\ng=1,0;0,1")
        assert list(echo) == sorted(echo)
        assert echo["kind"] == "lattice"
        assert echo["scale"] == "3/2"
        assert echo["g"] == [[1, 0], [0, 1]]

    def test_echo_renders_nonfinite_floats_as_strings(self):
        echo = rendered_echo("kind=layered\ntrials=0")
        assert echo["power1"] == "inf"
        assert echo["power2"] == "inf"
        # no valid config holds -inf or NaN; the echo writes them as any value
        assert jsonable({"power2": -math.inf, "a": float("nan")}) == {
            "power2": "-inf", "a": "nan",
        }

    def test_echo_keeps_finite_primitives(self):
        echo = rendered_echo("kind=lemmas\np_values=2,3\nn_max=1\ndraws=1")
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
