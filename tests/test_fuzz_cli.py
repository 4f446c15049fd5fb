"""Grammar fuzzer: random ring literals, descriptors, flags and argv
through cli.main.

Every run must exit 0, 1, 2, 64 or 65 without an exception escaping main,
print a --json document that parses when it exits 0 or 2 (and nothing on
stdout otherwise), print the same bytes when run again, and finish within
its deadline.  That holds for sigma, phi and cover, for the oracle and
verify commands, cover --check and coset-cover with random punctures,
monoid and snf.  Some oracle runs take no --max-size, so each command's
default bound is exercised too.  An exponent below 0 in t, or below 1 on a
prime label, must exit 65; malformed argv must exit 64.  s-set over the
enumerable rings must answer every bound n >= 1 and refuse every n < 1
with exit 64.
"""

import contextlib
import io
import json
import signal
from datetime import timedelta

from hypothesis import example, given, settings
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


@st.composite
def small_literals(draw, grammar):
    """A literal of a small nonzero element over Z, Z[i] or F_p[t]."""
    if grammar == "Z":
        return str(draw(st.integers(2, 12)))
    if grammar == "Zi":
        a, b = draw(st.integers(-3, 3)), draw(st.integers(0, 3))
        return f"{a}+{b}i" if b else str(a or 3)
    terms = [f"t^{e}" if e > 1 else "t" for e in sorted(draw(st.sets(
        st.integers(1, 3), min_size=1)), reverse=True)]
    return " + ".join(terms + [str(draw(st.integers(0, 2)))])


@st.composite
def finite_specs(draw):
    """(descriptor text over Z, Z[i] or F_p[t], its element grammar): one to
    three cyclic summands, mostly finite and small enough to materialize."""
    ring, grammar = draw(st.sampled_from([
        ("Z", "Z"), ("Zi", "Zi"), ("Fp[t] p=2", "poly"),
        ("Fp[t] p=3", "poly"), ("Fp[t] p=5", "poly")]))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 5)):
            lit = draw(small_literals(grammar))
        else:
            lit = draw(element_literals(grammar))[0]
        power = draw(st.sampled_from(["", "", "^2", "^3"]))
        parts.append(f"R/({lit}){power}")
    return f"{ring}: " + " + ".join(parts), grammar


@st.composite
def punctures(draw, grammar):
    """A --puncture value: an element literal of the ring, an element
    index (some out of range) or text that is neither."""
    kind = draw(st.integers(0, 4))
    if kind <= 1:
        return draw(element_literals(grammar))[0]
    if kind <= 3:
        return str(draw(st.integers(-2, 70)))
    return draw(st.sampled_from(["", "x", "1/2", "i^2", "t^-1", "9" * 25]))


# seconds per run: hypothesis's deadline is checked once an example ends,
# the alarm stops a run that hangs
RUN_BUDGET_S = 10


class _Budget(Exception):
    pass


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), interrupted by an
    exception past RUN_BUDGET_S seconds."""
    def expire(signum, frame):
        raise _Budget(f"{argv} ran past {RUN_BUDGET_S} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, RUN_BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def check_clean_exit(argv):
    """Run argv with --json, check the exit contract and the rerun bytes;
    returns the exit code and the report (None unless 0 or 2)."""
    argv = argv + ["--json"]
    code, out, err = run(argv)
    assert code in (0, 1, 2, 64, 65), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    report = None
    if code in (0, 2):
        report = json.loads(out)
    else:
        assert out == "" and err.startswith("cover-calc: "), (argv, out, err)
    assert run(argv) == (code, out, err), argv
    return code, report


# load what every command needs before the first timed example
run(["cover", "Z: R/(2) + R/(2)", "--json"])
run(["phi", "Zi: R/(1+i)", "--json"])


@given(spec=specs(), command=st.sampled_from(["sigma", "phi", "cover"]))
@settings(max_examples=300, deadline=timedelta(seconds=2))
def test_cli_exits_cleanly_and_repeats_its_bytes(spec, command):
    text, refused = spec
    code, _ = check_clean_exit([command, text])
    assert code != 2
    if refused:
        assert code == 65, (command, text)


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


# the oracle commands at a random --max-size, or at their default bound;
# phi is refused past 32 elements either way
MAX_SIZES = [None, None, "4", "8", "16", "32"]
# (command words before the spec, flags after it, takes a puncture)
ORACLE_COMMANDS = [
    (["oracle", "sigma"], [], False), (["oracle", "phi"], [], True),
    (["verify"], [], False), (["verify"], ["--phi"], True),
    (["cover"], ["--check"], False), (["coset-cover"], [], True),
    (["coset-cover"], ["--check"], True)]


@st.composite
def oracle_argv(draw):
    spec, grammar = draw(st.one_of(finite_specs(), finite_specs(),
                                   specs().map(lambda t: (t[0], "Z"))))
    head, flags, punctured = draw(st.sampled_from(ORACLE_COMMANDS))
    argv = head + [spec] + flags
    if head == ["oracle", "sigma"] and draw(st.booleans()):
        argv += ["--maximal-only", draw(st.sampled_from(["true", "false"]))]
    if punctured and draw(st.integers(0, 3)):
        # the option written out or cut to a prefix argparse takes
        argv += [draw(st.sampled_from(["--puncture", "--puncture", "--punct",
                                       "--pu"])), draw(punctures(grammar))]
    max_size = draw(st.sampled_from(MAX_SIZES))
    if max_size is not None:
        argv += ["--max-size", max_size]
    return argv


@given(argv=oracle_argv())
# phi searches past 32 elements that used to run at the default bound:
# (Z/2)^10 for about 40 s, F_9^2 for about 3 s
@example(argv=["verify", "Z: R/(2)^10", "--phi"])
@example(argv=["verify", "Zi: R/(3)^2", "--phi", "--puncture", "1+i"])
@settings(max_examples=300, deadline=timedelta(seconds=2))
def test_oracle_commands_exit_cleanly_and_repeat_their_bytes(argv):
    code, report = check_clean_exit(argv)
    if code == 2:
        assert argv[0] == "verify" and report["oracle"]["match"] is False


@st.composite
def monoid_specs(draw):
    """Sums of N and C(r,n), some with r < 0 or n < 1, some malformed."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        parts.append(draw(st.one_of(
            st.just("N"),
            st.builds("C({},{})".format, st.integers(-1, 4),
                      st.integers(-1, 4)),
            st.sampled_from(["C(1)", "C(a,2)", "M", "", "N N", "C(1,2"]))))
    return draw(st.sampled_from([" + ", "+", " - "])).join(parts)


@given(spec=monoid_specs())
@settings(max_examples=150, deadline=timedelta(seconds=2))
def test_monoid_exits_cleanly_and_repeats_its_bytes(spec):
    code, report = check_clean_exit(["monoid", spec])
    assert code in (0, 65), (spec, code)
    if code == 0 and report["classification"] == "two-submonoids":
        assert report["partition_verified"] is True


@st.composite
def snf_argv(draw):
    """A ring and a matrix over it: ragged rows and broken brackets too."""
    ring, grammar = draw(st.sampled_from([
        ("Z", "Z"), ("Fp[t] p=2", "poly"), ("Fp[t] p=3", "poly"),
        ("Zi", "Zi"), ("Fp[t] p=4", "poly"), ("F q=2", "F")]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    body = []
    for _ in range(rows):
        width = cols if draw(st.integers(0, 5)) else draw(st.integers(1, 3))
        body.append("[" + ", ".join(draw(element_literals(grammar))[0]
                                    for _ in range(width)) + "]")
    text = "[" + ", ".join(body) + "]"
    cut = draw(st.integers(0, 9))
    if cut == 0:
        text = text[:-1]
    elif cut == 1:
        text = text.replace(",", "", 1)
    return ["snf", ring, text]


@given(argv=snf_argv())
@settings(max_examples=150, deadline=timedelta(seconds=2))
def test_snf_exits_cleanly_and_repeats_its_bytes(argv):
    code, report = check_clean_exit(argv)
    assert code in (0, 65), (argv, code)
    if code == 0:
        # U is rows by rows, V columns by columns
        assert len(report["diagonal"]) == min(len(report["U"]),
                                              len(report["V"]))


VALID_ARGV = [
    ["sigma", "Z: R/(2)^2"], ["cover", "Z: R/(2)^2", "--check"],
    ["phi", "Z: R/(4)"], ["coset-cover", "Z: R/(4)", "--puncture", "1"],
    ["monoid", "N + C(1,2)"], ["oracle", "phi", "Z: R/(2)^2"],
    ["verify", "Z: R/(2)^2", "--phi"], ["snf", "Z", "[[2, 4]]"],
    ["s-set", "Z", "5"]]


@st.composite
def malformed_argv(draw):
    """A valid command line broken in one way argparse must refuse."""
    argv = list(draw(st.sampled_from(VALID_ARGV)))
    how = draw(st.sampled_from(["drop", "extra", "flag", "command", "size",
                                "choice", "prefix", "empty"]))
    if how == "drop":
        positional = [i for i, w in enumerate(argv[1:], 1) if not
                      w.startswith("--") and argv[i - 1] != "--puncture"]
        del argv[draw(st.sampled_from(positional)):]
    elif how == "extra":
        argv.append(draw(st.sampled_from(["surplus", "1", "R/(2)"])))
    elif how == "flag":
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(["--bogus", "--phi=1", "-x",
                                          "--checks"])))
    elif how == "command":
        argv[0] = draw(st.sampled_from(["sigmas", "Sigma", "", "coset",
                                        "--json"]))
    elif how == "size":
        argv = ["oracle", "sigma", "Z: R/(2)", "--max-size",
                draw(st.sampled_from(["0", "-1", "x", "1.5", ""]))]
    elif how == "choice":
        argv = draw(st.sampled_from([
            ["oracle", "tau", "Z: R/(2)"],
            ["oracle", "sigma", "Z: R/(2)", "--maximal-only", "yes"]]))
    elif how == "prefix":
        # --p may be --phi or --puncture
        argv = ["verify", "Zi: R/(2)", "--phi", "--p",
                draw(st.sampled_from(["1", "-1", "-1-i", "i"]))]
    else:
        argv = []
    return argv


@given(argv=malformed_argv())
@settings(max_examples=150, deadline=timedelta(seconds=2))
def test_malformed_argv_exits_64(argv):
    code, out, err = run(argv)
    assert (code, out) == (64, ""), (argv, code, out, err)
    assert err.startswith("cover-calc: ") and "Traceback" not in err, argv
    assert run(argv) == (code, out, err)
