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
