"""Grammar round-trips, parse errors with positions, CLI behaviour."""

import json
import subprocess
import sys

import pytest

from covercalc import cli, parser, rings
from covercalc.errors import (SpecSemanticError, SpecSyntaxError,
                              TooLargeError, UnknownIdealError)

ROUNDTRIP = [
    "Z: R/(12) + R/(18) + R^2",
    "Z: R/(4)^aleph0 + R/(9)",
    "Z: Q^3 + Pruefer(2)^2 + R/(6)",
    "Z: 0",
    "Z: primes(10, infinite)",
    "Z: R/(7) + primes(5, infinite)",
    "Zi: R/(5) + R/(1+i)^2",
    "Zi: R/(3-2i)",
    "Fp[t] p=3: R/(t^2+1) + R^1",
    "F q=4: R^3",
    "F q=aleph0: R^2",
    "local residue=5: R/(m^2) + Q",
    "local residue=aleph0 label=p: R/(p)^2",
    "dedekind {m1:3, m2:aleph0} min=3: R/(m1^2*m2) + R",
    "dedekind {m1:4} min=2 spectrum=finite: R/(m1)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUNDTRIP)
    def test_render_reparses_equal(self, text):
        ring, d = parser.parse_spec(text)
        rendered = parser.render_descriptor(d)
        ring2, d2 = parser.parse_spec(rendered)
        assert ring2 == ring
        assert d2 == d

    @pytest.mark.parametrize("text, rendered", [
        ("Z: R/(7)^2 + R/(4) + R/(9) + R/(6) + primes(5, infinite)",
         "Z: R/(6) + R/(4) + R/(9) + R/(7)^2 + primes(5, infinite)"),
        ("Z: R/(7)^aleph0 + R/(11) + primes(7, infinite)",
         "Z: R/(7)^aleph0 + R/(11) + primes(7, infinite)"),
        ("Zi: R/(1+i) + R/(3)^2 + primes(9, infinite)",
         "Zi: R/(1+i) + R/(3)^2 + primes(9, infinite)"),
        ("Fp[t] p=2: R/(t)^3 + R/(t^2) + R/(t^2+t+1) + primes(4, infinite)",
         "Fp[t] p=2: R/(t)^3 + R/(t^2) + R/(t^2+t+1) + primes(4, infinite)"),
        ("dedekind {m1:3, m2:aleph0, m3:5} min=3: R/(m1) + R/(m2) + "
         "R/(m3^2) + primes(4, infinite)",
         "dedekind {m1:3, m2:aleph0, m3:5} min=3: R/(m1) + R/(m3^2) + "
         "R/(m2) + primes(4, infinite)"),
        ("Z: primes(100000, infinite)", "Z: primes(100000, infinite)"),
    ])
    def test_a_prime_tail_renders_without_listing_primes(
            self, monkeypatch, text, rendered):
        # each torsion ideal is checked against the bound on its own: the
        # render lists no maximal ideals, through either entry point
        ring, d = parser.parse_spec(text)
        calls = []

        def counted(real):
            def wrapper(*args):
                calls.append(args)
                return real(*args)
            return wrapper

        monkeypatch.setattr(rings, "maximal_ideals_with_residue_at_most",
                            counted(rings.maximal_ideals_with_residue_at_most))
        monkeypatch.setattr(type(ring), "maximal_ideals_with_residue_at_most",
                            counted(type(ring).maximal_ideals_with_residue_at_most))
        assert parser.render_descriptor(d) == rendered
        assert calls == []
        monkeypatch.undo()
        assert parser.parse_spec(rendered) == (ring, d)

    def test_spec_example(self):
        ring, d = parser.parse_spec("Z: R/(12) + R/(18) + R^2")
        assert ring == rings.integers()
        assert d.free_rank.finite_value == 2
        assert len(d.torsion) == 2

    def test_gaussian_five(self):
        _, d = parser.parse_spec("Zi: R/(5)")
        gens = {m.generator_str() for m, _ in d.torsion[0][0].factors}
        assert gens == {"2+i", "2-i"}


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(SpecSyntaxError) as info:
            parser.parse_spec("Z: R/(12) & R/(3)")
        assert info.value.position == 10

    def test_unknown_ring(self):
        with pytest.raises(SpecSyntaxError):
            parser.parse_spec("Q8: R/(2)")

    def test_semantic_unit_annihilator(self):
        with pytest.raises(SpecSemanticError):
            parser.parse_spec("Z: R/(1)")

    def test_semantic_q_over_dedekind(self):
        with pytest.raises(SpecSemanticError):
            parser.parse_spec("dedekind {m1:3} min=3: Q")

    def test_pruefer_needs_prime(self):
        with pytest.raises(SpecSemanticError):
            parser.parse_spec("Z: Pruefer(6)")

    def test_undeclared_label(self):
        with pytest.raises(SpecSemanticError):
            parser.parse_spec("dedekind {m1:3} min=3: R/(m2)")

    def test_a_defect_while_factoring_is_not_a_parse_error(self, monkeypatch):
        def broken(ring, generator):
            raise AssertionError("defect")

        monkeypatch.setattr(rings, "factor_ideal", broken)
        with pytest.raises(AssertionError, match="defect"):
            parser.parse_spec("Z: R/(12)")
        with pytest.raises(AssertionError, match="defect"):
            parser.parse_spec("Z: Pruefer(3)")


class TestErrorBoundary:
    """parse_spec maps the library's errors once, around all the summands:
    TooLargeError keeps exit 1, other library errors exit 65, and any other
    exception is a defect that propagates."""

    @pytest.mark.parametrize("spec", ["Z: R/(12)", "Z: Pruefer(3)"])
    @pytest.mark.parametrize("error, code", [
        (TooLargeError("past the bound"), 1),
        (UnknownIdealError("not an ideal of Z"), 65)])
    def test_library_errors_while_factoring(self, capsys, monkeypatch, spec,
                                            error, code):
        def failing(ring, generator):
            raise error

        monkeypatch.setattr(rings, "factor_ideal", failing)
        assert cli.main(["sigma", spec, "--json"]) == code
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"cover-calc: {error}\n"

    def test_a_type_error_propagates(self, monkeypatch):
        def failing(ring, generator):
            raise TypeError("defect")

        monkeypatch.setattr(rings, "factor_ideal", failing)
        with pytest.raises(TypeError, match="defect"):
            cli.main(["sigma", "Z: R/(12)", "--json"])


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "covercalc.cli", *args],
                          capture_output=True, text=True)
    return proc


class TestCli:
    def test_sigma_inprocess(self, capsys):
        code = cli.main(["sigma", "Z: R/(5) + R/(9) + R^1", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["answer"] == "threshold(4)"
        assert out["q"] == "3"
        assert out["nc"] == ["(3)", "(5)"]

    def test_verify_match(self, capsys):
        code = cli.main(["verify", "Z: R/(2) + R/(2)", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["oracle"] == {"value": 3, "match": True}

    def test_phi(self, capsys):
        code = cli.main(["phi", "Z: R/(12)", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["answer"] == 4 and out["conjectural"] is False

    def test_cover_checked(self, capsys):
        code = cli.main(["cover", "Z: R/(12) + R/(18)", "--check", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["witness"]["lines"] == ["(1:0)", "(0:1)", "(1:1)"]
        assert out["witness_checked"] is True

    def test_coset_cover(self, capsys):
        code = cli.main(["coset-cover", "Z: R/(4)", "--puncture", "1",
                         "--check", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["answer"] == 2
        assert out["witness"]["cosets"] == [
            {"submodule_generators": ["2"], "representative": "0"},
            {"submodule_generators": ["0"], "representative": "3"}]
        assert out["witness_checked"] is True

    @pytest.mark.parametrize("spec", ["Z: R", "F q=4: R^2", "Z: Q + R/(4)",
                                      "Z: 0", "Z: R/(4) + R/(4)"])
    def test_coset_cover_needs_a_finite_cyclic_torsion_module(self, capsys,
                                                              spec):
        assert cli.main(["coset-cover", spec, "--json"]) == 65
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "cover-calc: coset-cover needs a cyclic torsion module "
            "(coprime annihilators)\n")

    def test_oracle_sigma(self, capsys):
        code = cli.main(["oracle", "sigma", "Z: R/(3)^2", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["answer"] == 4

    def test_oracle_phi(self, capsys):
        code = cli.main(["oracle", "phi", "Z: R/(6)", "--puncture", "0",
                         "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["answer"] == 3

    @pytest.mark.parametrize("command", [["oracle", "phi"], ["verify", "--phi"]])
    @pytest.mark.parametrize("index", ["-1", "4", "9"])
    def test_puncture_index_outside_m_exits_65(self, capsys, command, index):
        argv = command + ["Z: R/(2) + R/(2)", "--puncture", index, "--json"]
        assert cli.main(argv) == 65
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert out.err.startswith(f"cover-calc: puncture index {index} ")

    # argparse reads a value that starts with one dash as an option, unless
    # it reads as a negative number
    @pytest.mark.parametrize("command", [["verify", "--phi"], ["oracle", "phi"],
                                         ["coset-cover"]])
    @pytest.mark.parametrize("spec, puncture", [("Zi: R/(2+i)", "-2+i"),
                                                ("Zi: R/(3)", "-i"),
                                                ("Fp[t] p=3: R/(t^2+1)", "-t"),
                                                ("Fp[t] p=2: R/(t^3)", "-t^2")])
    def test_a_puncture_with_a_leading_dash_is_an_element(
            self, capsys, command, spec, puncture):
        assert cli.main(command + [spec, f"--puncture={puncture}",
                                   "--json"]) == 0
        joined = capsys.readouterr().out
        assert cli.main(command + [spec, "--puncture", puncture,
                                   "--json"]) == 0
        assert capsys.readouterr().out == joined

    # argparse takes any unambiguous prefix of an option, from --pu on here
    @pytest.mark.parametrize("command", [["verify", "--phi"], ["oracle", "phi"],
                                         ["coset-cover"]])
    @pytest.mark.parametrize("option", ["--pu", "--punct"])
    def test_an_abbreviated_puncture_takes_a_leading_dash(
            self, capsys, command, option):
        assert cli.main(command + ["Zi: R/(2)", "--puncture=-1-i",
                                   "--json"]) == 0
        joined = capsys.readouterr().out
        assert cli.main(command + ["Zi: R/(2)", option, "-1-i", "--json"]) == 0
        assert capsys.readouterr().out == joined

    def test_an_ambiguous_puncture_prefix_exits_64(self, capsys):
        argv = ["verify", "Zi: R/(2)", "--phi", "--p", "-1-i", "--json"]
        assert cli.main(argv) == 64
        assert capsys.readouterr().err == (
            "cover-calc: ambiguous option: --p could match --phi, --puncture\n")

    def test_a_puncture_with_a_leading_dash_on_a_sum_is_not_an_index(
            self, capsys):
        argv = ["oracle", "phi", "Zi: R/(1+i) + R/(1+i)", "--puncture", "-i",
                "--json"]
        assert cli.main(argv) == 65
        assert capsys.readouterr().err == (
            "cover-calc: puncture on a direct sum is an element index\n")

    @pytest.mark.parametrize("command", [["verify", "Z: R/(4)", "--phi"],
                                         ["oracle", "phi", "Z: R/(4)"],
                                         ["coset-cover", "Z: R/(4)"]])
    def test_a_puncture_without_its_value_exits_64(self, capsys, command):
        assert cli.main(command + ["--puncture", "--json"]) == 64
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "cover-calc: argument --puncture: expected one argument\n")

    def test_monoid(self, capsys):
        code = cli.main(["monoid", "N + C(0,4)", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["classification"] == "two-submonoids"
        assert out["partition_verified"] is True

    def test_snf(self, capsys):
        code = cli.main(["snf", "Z", "[[2,4],[6,8]]", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["diagonal"] == ["2", "4"]

    def test_s_set(self, capsys):
        code = cli.main(["s-set", "Z", "4", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["modules"] == ["Z: R/(2)^2", "Z: R/(3)^2"]

    def test_s_set_below_one_is_a_usage_error(self, capsys):
        assert cli.main(["s-set", "Z", "0", "--json"]) == 64
        err = capsys.readouterr()
        assert err.out == "" and err.err.startswith("cover-calc: argument n")

    def test_s_set_negative_is_a_usage_error(self, capsys):
        assert cli.main(["s-set", "Z", "-3", "--json"]) == 64
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [
        ["oracle", "sigma", "Z: R/(2)^2"], ["oracle", "phi", "Z: R/(6)"],
        ["verify", "Z: R/(2)^2"], ["cover", "Z: R/(2)^2", "--check"],
        ["coset-cover", "Z: R/(4)", "--check"]])
    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_max_size_below_one_is_a_usage_error(self, capsys, command, size):
        assert cli.main(command + ["--max-size", size, "--json"]) == 64
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(
            "cover-calc: argument --max-size: expected an integer >= 1")

    def test_s_set_one_is_empty(self, capsys):
        for ring in ("Z", "Zi", "Fp[t] p=2"):
            code = cli.main(["s-set", ring, "1", "--json"])
            out = json.loads(capsys.readouterr().out)
            assert code == 0 and out["modules"] == []

    def test_usage_exit(self, capsys):
        assert cli.main(["nonsense"]) == 64

    def test_parse_exit(self, capsys):
        assert cli.main(["sigma", "Z: R/("]) == 65

    def test_json_byte_identical(self):
        a = run_cli("cover", "Z: R/(12) + R/(18)", "--json")
        b = run_cli("cover", "Z: R/(12) + R/(18)", "--json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_verify_subprocess_exit_codes(self):
        ok = run_cli("verify", "Z: R/(2) + R/(2)")
        assert ok.returncode == 0

    def test_verify_phi_mode(self, capsys):
        code = cli.main(["verify", "Z: R/(12)", "--phi", "--puncture", "0",
                         "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["formula"] == 4 and out["oracle"]["match"] is True

    def test_verify_mismatch_exits_2(self, capsys, monkeypatch):
        def wrong_cover(mod, max_size=4096):
            return 17, []

        monkeypatch.setattr("covercalc.oracle.min_submodule_cover",
                            wrong_cover)
        code = cli.main(["verify", "Z: R/(2) + R/(2)", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["oracle"]["match"] is False

    def test_cover_parses_the_spec_once(self, capsys, monkeypatch):
        calls = []
        parse_spec = parser.parse_spec

        def counting(text):
            calls.append(text)
            return parse_spec(text)

        monkeypatch.setattr(parser, "parse_spec", counting)
        assert cli.main(["cover", "Z: R/(12) + R/(18)", "--json"]) == 0
        assert calls == ["Z: R/(12) + R/(18)"]


class TestExponents:
    """Exponents below 0 in t, or below 1 on a prime label, are parse
    errors: exit 65 with a message, never a traceback or another reading."""

    @pytest.mark.parametrize("argv", [
        ["sigma", "Fp[t] p=3: R/(t^-1 + t^2) + R/(t^2)", "--json"],
        ["sigma", "Fp[t] p=2: R/(t^-2 + 1)", "--json"],
        ["snf", "Fp[t] p=2", "[[t^-1]]", "--json"],
        ["sigma", "local residue=4: R/(m^0)", "--json"],
        ["sigma", "dedekind {a:2, b:9} min=2: R/(a^0*b)", "--json"],
        ["sigma", "dedekind {a:2, b:9} min=2: R/(b*a^-1)", "--json"],
        ["coset-cover", "Fp[t] p=2: R/(t^2)", "--puncture", "t^-1", "--json"],
    ])
    def test_exit_65(self, capsys, argv):
        assert cli.main(argv) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exponents" in captured.err

    def test_zero_exponent_in_t_is_one(self):
        assert parser.parse_spec("Fp[t] p=3: R/(t^0 + t)") == \
            parser.parse_spec("Fp[t] p=3: R/(t + 1)")

    def test_undeclared_label_is_named_first(self):
        with pytest.raises(SpecSemanticError, match="x is not a declared prime"):
            parser.parse_spec("local residue=4: R/(x^0)")
