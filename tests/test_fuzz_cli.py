"""Grammar fuzzer: random ring literals and descriptors through cli.main.

Every run of sigma, phi and cover (without --check) must exit 0, 1, 64 or
65 without an exception escaping main, print a --json document that
parses when it exits 0, and print the same bytes when run again.  An
exponent below 0 in t, or below 1 on a prime label, must exit 65.  s-set
over the enumerable rings must answer every bound n >= 1 and refuse every
n < 1 with exit 64.
"""

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from covercalc import cli

CARDS = ["2", "3", "4", "5", "6", "9", "aleph0"]
LABELS = ["m", "a", "b", "p"]


@st.composite
def ring_literals(draw):
    """(ring text, its labels or its kind, for the literal grammar)."""
    kind = draw(st.sampled_from(["Z", "Zi", "poly", "F", "local", "dedekind"]))
    if kind == "poly":
        return f"Fp[t] p={draw(st.sampled_from([2, 3, 4, 5]))}", "poly"
    if kind == "F":
        return f"F q={draw(st.sampled_from(CARDS))}", "F"
    if kind == "local":
        label = draw(st.sampled_from(LABELS))
        tail = "" if label == "m" else f" label={label}"
        return f"local residue={draw(st.sampled_from(CARDS))}{tail}", [label]
    if kind == "dedekind":
        labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3))
        decl = ", ".join(f"{lab}:{draw(st.sampled_from(CARDS))}"
                         for lab in labels)
        spectrum = draw(st.sampled_from(["", " spectrum=finite",
                                         " spectrum=infinite"]))
        return (f"dedekind {{{decl}}} min={draw(st.sampled_from(CARDS))}"
                f"{spectrum}", labels)
    return kind, kind


@st.composite
def element_literals(draw, grammar):
    """(literal text, whether it holds an exponent the grammar refuses)."""
    if grammar in ("Z", "F"):
        return str(draw(st.integers(-60, 60))), False
    if grammar == "Zi":
        a, b = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        imag = {0: "", 1: "+i", -1: "-i"}.get(b, f"{b:+d}i")
        return (f"{a}{imag}" if a or not imag else imag.lstrip("+")), False
    if grammar == "poly":
        terms = draw(st.lists(st.tuples(st.integers(-3, 6), st.integers(-2, 4)),
                              min_size=1, max_size=4))
        parts = []
        for c, e in terms:
            coeff = "" if c == 1 and e != 0 else str(c)
            power = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
            parts.append(coeff + power)
        return " + ".join(parts), any(e < 0 for _, e in terms)
    factors = draw(st.lists(st.tuples(st.sampled_from(grammar + ["x"]),
                                      st.integers(-1, 3)),
                            min_size=1, max_size=3))
    text = "*".join(lab if e == 1 else f"{lab}^{e}" for lab, e in factors)
    return text, any(e < 1 for _, e in factors)


@st.composite
def specs(draw):
    """(descriptor text, whether it holds a refused exponent)."""
    ring, grammar = draw(ring_literals())
    if draw(st.integers(0, 9)) == 0:
        return f"{ring}: 0", False
    parts, bad = [], False
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["R/", "R/", "R/", "R", "Q", "Pruefer",
                                      "primes"]))
        if shape in ("R/", "Pruefer"):
            lit, refused = draw(element_literals(grammar))
            bad = bad or refused
            text = f"R/({lit})" if shape == "R/" else f"Pruefer({lit})"
        elif shape == "primes":
            tail = draw(st.sampled_from(["", ", infinite"]))
            text = f"primes({draw(st.integers(1, 12))}{tail})"
        else:
            text = shape
        if shape != "primes" and draw(st.booleans()):
            text += f"^{draw(st.sampled_from(['1', '2', '3', 'aleph0']))}"
        parts.append(text)
    return f"{ring}: " + " + ".join(parts), bad


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# load what every command needs before the first timed example
run(["cover", "Z: R/(2) + R/(2)", "--json"])
run(["phi", "Zi: R/(1+i)", "--json"])


@given(spec=specs(), command=st.sampled_from(["sigma", "phi", "cover"]))
@settings(max_examples=300, deadline=timedelta(seconds=2))
def test_cli_exits_cleanly_and_repeats_its_bytes(spec, command):
    text, refused = spec
    argv = [command, text, "--json"]
    code, out, err = run(argv)
    assert code in (0, 1, 64, 65), (argv, code, err)
    if code == 0:
        json.loads(out)
    else:
        assert out == "" and err.startswith("cover-calc: ")
    if refused:
        assert code == 65, (argv, out)
    assert run(argv) == (code, out, err)


@given(ring=st.sampled_from(["Z", "Zi", "Fp[t] p=2"]), n=st.integers(-3, 60))
@settings(max_examples=200, deadline=timedelta(seconds=2))
def test_s_set_answers_or_refuses_its_bound(ring, n):
    argv = ["s-set", ring, str(n), "--json"]
    code, out, err = run(argv)
    if n < 1:
        assert (code, out) == (64, ""), (argv, code, err)
        assert err.startswith("cover-calc: "), argv
    else:
        assert code == 0, (argv, code, err)
        assert len(json.loads(out)["modules"]) <= n
    assert run(argv) == (code, out, err)
