"""Inputs with large primes answer quickly; impossible rings exit 65."""

import json
import signal
import time

import pytest

from covercalc import cli

BUDGET_S = 5


class _Budget(Exception):
    pass


def run_within_budget(argv, budget=BUDGET_S):
    """cli.main(argv), interrupted by an exception past budget seconds."""
    def expire(signum, frame):
        raise _Budget(f"{argv} ran past {budget} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, budget)
    started = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, time.perf_counter() - started


@pytest.mark.parametrize("argv, key, value", [
    (["phi", "Z: R/(1000000016000000063)"], "answer", 2000000014),
    # 3037000493 = 1 mod 4 splits into two primes of norm 3037000493
    (["phi", "Zi: R/(3037000493)"], "answer", 2 * 3037000492),
    (["sigma", "Z: R/(999999999999999989) + R/(999999999999999989)"],
     "answer", "threshold(999999999999999990)"),
    (["sigma", "Fp[t] p=1000000000000000003: R/(t) + R/(t)"],
     "answer", "threshold(1000000000000000004)"),
    # t^2+1 is irreducible since p = 3 mod 4: a cyclic module, no cover
    (["sigma", "Fp[t] p=1000000000000000003: R/(t^2+1)"], "answer", "no-cover"),
    # the oracle proves these at the root over M - {0}, and by symmetry
    (["oracle", "sigma", "Z: R/(2)^12"], "answer", 3),
    (["oracle", "sigma", "Z: R/(2) + R/(7)^3"], "answer", 8),
])
def test_large_primes_answer_within_budget(capsys, argv, key, value):
    code, elapsed = run_within_budget(argv + ["--json"])
    assert code == 0 and elapsed < BUDGET_S
    assert json.loads(capsys.readouterr().out)[key] == value


# the q+1 lines of F_64^2 and of F_61^2, each checked over all of M
@pytest.mark.parametrize("spec", ["Fp[t] p=2: R/(t^6+t+1)^2",
                                  "Z: R/(61) + R/(61)"])
def test_large_lines_witness_checks_within_budget(capsys, spec):
    code, elapsed = run_within_budget(["cover", spec, "--check", "--json"])
    assert code == 0 and elapsed < BUDGET_S
    assert json.loads(capsys.readouterr().out)["witness_checked"] is True


# 4,096 characters of one coordinate: the kernel table builds one kernel
# per divisor of 4096 and looks the others up
def test_oracle_phi_on_a_large_cyclic_module_answers_within_budget(capsys):
    code, elapsed = run_within_budget(
        ["oracle", "phi", "Z: R/(4096)", "--max-size", "4096", "--json"])
    assert code == 0 and elapsed < BUDGET_S
    assert json.loads(capsys.readouterr().out)["answer"] == 12


def test_integer_literal_guard_exits_65(capsys):
    assert cli.main(["phi", "Z: R/(9223372036854775808)"]) == 65
    assert "2^63" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sigma", "Fp[t] p=4: R/(t)"],
    ["snf", "Fp[t] p=6", "[[t]]"],
    ["sigma", "F q=1: R^2"],
    ["sigma", "local residue=1: R/(m)"],
    ["sigma", "dedekind {m1:1} min=1: R/(m1)"],
])
def test_invalid_ring_literal_exits_65(capsys, argv):
    assert cli.main(argv) == 65
    err = capsys.readouterr().err
    assert err.startswith("cover-calc: ") and "Traceback" not in err


@pytest.mark.parametrize("spec", [
    "F q=6: R^2",
    "F q=12: R",
    "local residue=10: R/(m)",
    "dedekind {m1:6, m2:3} min=3: R/(m1)",
    "dedekind {m1:4, m2:9} min=6: R/(m1)",
])
def test_sizes_that_are_not_prime_powers_exit_65(capsys, spec):
    assert cli.main(["sigma", spec]) == 65
    assert "prime power" in capsys.readouterr().err


def test_prime_power_sizes_still_parse(capsys):
    for spec in ("F q=8: R^2", "local residue=9: R/(m)",
                 "dedekind {m1:4, m2:aleph0} min=4: R/(m1)"):
        assert cli.main(["sigma", spec, "--json"]) == 0
    capsys.readouterr()


def test_snf_over_an_unsupported_ring_exits_65(capsys):
    assert cli.main(["snf", "Zi", "[[1]]"]) == 65
    assert "Smith normal form" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["s-set", "Z", "100000000"],
    ["s-set", "Zi", "100000000"],
    ["s-set", "Fp[t] p=2", "100000000"],
    ["sigma", "Z: primes(100000000)"],
])
def test_prime_enumeration_past_its_bound_exits_1(capsys, argv):
    code, elapsed = run_within_budget(argv + ["--json"])
    assert code == 1 and elapsed < BUDGET_S
    err = capsys.readouterr().err
    assert "the bound is" in err and "Traceback" not in err


def test_oracle_sigma_past_its_work_bound_exits_1(capsys):
    # (Z/2)^14: 16383 functionals times 16384 elements
    code, elapsed = run_within_budget(
        ["oracle", "sigma", "Z: R/(2)^14", "--max-size", "100000", "--json"])
    assert code == 1 and elapsed < BUDGET_S
    err = capsys.readouterr().err
    assert "the bound is" in err and "Traceback" not in err


# the work estimate counts the maximal submodules: (q^n - 1)/(q - 1) at
# each maximal ideal, n summands with residue field F_q, times |M|
@pytest.mark.parametrize("spec, max_size", [
    ("Z: R/(2)^13", 8192),
    # R/(1+i)^7 is seven summands Z[i]/(1+i) = F_2: this is (F_2)^14
    ("Zi: R/(1+i)^7 + R/(1+i)^7", 16384)])
def test_oracle_sigma_over_many_maximal_submodules_exits_1(capsys, spec,
                                                            max_size):
    code, elapsed = run_within_budget(
        ["oracle", "sigma", spec, "--max-size", str(max_size), "--json"])
    assert code == 1 and elapsed < BUDGET_S
    err = capsys.readouterr().err
    assert "the bound is" in err and "Traceback" not in err


# 16,384 elements with F_2-rank 14 but 3 and 127 maximal submodules: two
# summands F_2[t]/(t^7), seven Z[i]/(2) = Z[i]/(1+i)^2
@pytest.mark.parametrize("spec", ["Fp[t] p=2: R/(t^7) + R/(t^7)",
                                  "Zi: R/(2)^7"])
def test_oracle_sigma_over_few_maximal_submodules_answers(capsys, spec):
    code, elapsed = run_within_budget(
        ["oracle", "sigma", spec, "--max-size", "16384", "--json"])
    assert code == 0 and elapsed < BUDGET_S
    assert json.loads(capsys.readouterr().out)["answer"] == 3


# planes F_8^2 and F_9^2 minus a point: the punctured search passes its
# node budget in 4-5 s on a shared 2-vCPU host, where it used to run
# for minutes
@pytest.mark.parametrize("spec, max_size, budget", [
    ("Fp[t] p=2: R/(t^3+t+1)^2", 64, 15),
    ("Zi: R/(3)^2", 81, 20),
])
def test_oracle_phi_past_its_node_budget_exits_1(capsys, spec, max_size,
                                                 budget):
    code, elapsed = run_within_budget(
        ["oracle", "phi", spec, "--max-size", str(max_size), "--json"], budget)
    assert code == 1 and elapsed < budget
    err = capsys.readouterr().err
    assert "the bound is 300000" in err and "Traceback" not in err


# degree 63 and up is refused, as Z and Z[i] refuse literals of size
# 2^63: t^20001 used to factor for minutes, t^10000000000 to raise
# MemoryError
@pytest.mark.parametrize("argv", [
    ["sigma", "Fp[t] p=2: R/(t^20001)"],
    ["sigma", "Fp[t] p=2: R/(t^10000000000)"],
    ["sigma", "Fp[t] p=2: R/(t^63+1)"],
    ["phi", "Fp[t] p=3: R/(t^64 + 1)"],
    ["snf", "Fp[t] p=2", "[[t^64]]"],
    ["coset-cover", "Fp[t] p=2: R/(t^2)", "--puncture", "t^100000000000"],
])
def test_polynomial_literal_guard_exits_65(capsys, argv):
    code, elapsed = run_within_budget(argv + ["--json"])
    assert code == 65 and elapsed < BUDGET_S
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cover-calc: ")
    assert "degree at most 62" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("spec, answer", [
    ("Fp[t] p=2: R/(t^62+t+1)", "no-cover"),
    ("Fp[t] p=3: R/(t^40) + R/(t)", "threshold(4)"),
])
def test_polynomial_literals_below_the_guard_answer(capsys, spec, answer):
    code, elapsed = run_within_budget(["sigma", spec, "--json"])
    assert code == 0 and elapsed < BUDGET_S
    assert json.loads(capsys.readouterr().out)["answer"] == answer


def test_poly_ring_factor_refuses_the_same_degrees():
    from covercalc import rings
    from covercalc.errors import UnsupportedLiteralError
    for p in (2, 3):
        with pytest.raises(UnsupportedLiteralError, match="degree at most 62"):
            rings.factor_ideal(rings.poly_over_prime_field(p),
                               (1,) + (0,) * 62 + (1,))


# --maximal-only false once searched every submodule: (Z/2)^6 has 2,825,
# and their lex-least minimum cover ran for minutes.  The flag is still
# accepted and answers as the default does, from the maximal submodules
@pytest.mark.parametrize("argv", [["Z: R/(4) + R/(4)"], ["Z: R/(2)^6"],
                                  ["Z: R/(2)^6", "--max-size", "64"]],
                         ids=["Z4^2", "Z2^6", "Z2^6-max-size-64"])
def test_oracle_sigma_maximal_only_false_prints_the_default_bytes(capsys,
                                                                  argv):
    code, _ = run_within_budget(["oracle", "sigma"] + argv + ["--json"])
    assert code == 0
    default = capsys.readouterr().out
    code, elapsed = run_within_budget(
        ["oracle", "sigma"] + argv + ["--maximal-only", "false", "--json"])
    assert code == 0 and elapsed < BUDGET_S
    assert capsys.readouterr().out == default


# the lex-least witness pass has a node budget as the search has: (Z/2)^5
# over all its submodules closes at the root of the optimality proof, then
# takes about 22,000 lex nodes
def test_lex_pass_past_its_node_budget_exits_1(monkeypatch):
    from covercalc import _kernels, oracle
    from covercalc.errors import TooLargeError
    from reference import submodule_lattice
    mod = oracle.FiniteModule((2,) * 5)
    proper = [m for m in submodule_lattice(mod) if m != mod.full_mask]
    assert _kernels.min_cover(mod.full_mask & ~1, proper)[0] == 3
    monkeypatch.setattr(_kernels, "_NODE_BUDGET", 1000)
    with pytest.raises(TooLargeError, match="lex-least witness pass ran out "
                       "of nodes: the bound is 1000"):
        _kernels.min_cover(mod.full_mask & ~1, proper)


# verify --phi runs the phi oracle, so without --max-size it refuses what
# `oracle phi` refuses: past 32 elements.  It used to take the sigma bound
# of 4,096, under which (Z/2)^10 searched for about 40 s before it ran out
# of nodes
@pytest.mark.parametrize("spec", ["Z: R/(2)^12", "Z: R/(2)^10", "Z: R/(3)^5"])
def test_verify_phi_refuses_what_oracle_phi_refuses(capsys, spec):
    for argv in (["verify", spec, "--phi", "--json"],
                 ["oracle", "phi", spec, "--json"]):
        code, elapsed = run_within_budget(argv, 2)
        assert code == 1 and elapsed < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "materialized size exceeds 32" in captured.err
        assert "Traceback" not in captured.err
    # the sigma half of verify keeps its own bound
    code, _ = run_within_budget(["verify", "Z: R/(2)^10", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["oracle"]["match"] is True


# a --max-size past the fixed cap of 65,536 elements is refused at the cap,
# and the message names the bound that applied
@pytest.mark.parametrize("argv, bound", [
    (["oracle", "sigma", "Z: R/(3)^11", "--max-size", "200000"], 65536),
    (["cover", "Z: R/(3)^11", "--check", "--max-size", "200000"], 65536),
    (["oracle", "sigma", "Z: R/(3)^11", "--max-size", "1000"], 1000),
    (["oracle", "sigma", "Z: R/(3)^11"], 4096)])
def test_the_size_bound_message_names_the_bound_that_applied(capsys, argv,
                                                             bound):
    code, elapsed = run_within_budget(argv + ["--json"])
    assert code == 1 and elapsed < BUDGET_S
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cover-calc: materialized size exceeds {bound}\n"
