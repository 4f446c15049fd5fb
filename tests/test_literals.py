"""Element literals of Z[i] and F_p[t]: one term reader against the two
readers it replaced.

parser._terms reads the signed sums of terms that both rings write.  The
two readers below are the earlier, separate loops, kept as the reference:
on any string over the literal alphabet parse_element must give the same
value, or the same error type, text and position.
"""

from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from covercalc import fppoly, parser, rings
from covercalc.parser import _INT, _Cursor

ALPHABET = "0123456789it+-^ "


def reference_gauss(cur):
    a, b = 0, 0
    first = True
    while True:
        cur.skip_ws()
        sign = 1
        if cur.try_lit("+"):
            sign = 1
        elif cur.try_lit("-"):
            sign = -1
        elif not first:
            break
        cur.skip_ws()
        m = _INT.match(cur.text, cur.pos)
        if m:
            cur.pos = m.end()
            coeff = sign * int(m.group(0))
            if cur.try_lit("i"):
                b += coeff
            else:
                a += coeff
        elif cur.try_lit("i"):
            b += sign
        elif first:
            raise cur.error("expected a Gaussian integer")
        else:
            raise cur.error("expected a term after sign")
        first = False
    return (a, b)


def reference_poly(cur, p):
    coeffs = {}
    first = True
    while True:
        cur.skip_ws()
        sign = 1
        if cur.try_lit("+"):
            sign = 1
        elif cur.try_lit("-"):
            sign = -1
        elif not first:
            break
        cur.skip_ws()
        coeff = 1
        m = _INT.match(cur.text, cur.pos)
        if m:
            cur.pos = m.end()
            coeff = int(m.group(0))
            if not cur.try_lit("t"):
                coeffs[0] = coeffs.get(0, 0) + sign * coeff
                first = False
                continue
        elif cur.try_lit("t"):
            pass
        elif first:
            raise cur.error("expected a polynomial in t")
        else:
            raise cur.error("expected a term after sign")
        e = 1
        if cur.try_lit("^"):
            e = cur.int_()
            if e < 0:
                raise cur.error("exponents in t must be nonnegative")
            if e > rings.MAX_POLY_DEGREE:
                raise cur.error("polynomial literals must have degree at most "
                                f"{rings.MAX_POLY_DEGREE}")
        coeffs[e] = coeffs.get(e, 0) + sign * coeff
        first = False
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for e, c in coeffs.items():
        out[e] = c
    return fppoly.trim(out, p)


def reference_element(text, ring):
    """parse_element as it read with the reference readers."""
    cur = _Cursor(text)
    if ring.kind == rings.GAUSSIAN:
        v = reference_gauss(cur)
    else:
        v = reference_poly(cur, ring.p)
    if not cur.done():
        raise cur.error("trailing input after element")
    return v


def outcome(read, *args):
    """The value read, or the error's type, text and position."""
    try:
        return "value", read(*args)
    except Exception as exc:  # the comparison covers any error type
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


RINGS = [rings.gaussian_integers()] + [rings.poly_over_prime_field(p)
                                       for p in (2, 3, 1000003)]


@given(text=st.text(ALPHABET, max_size=16),
       ring=st.sampled_from(RINGS))
@settings(max_examples=2000, deadline=timedelta(seconds=2))
@example(text="i^1", ring=RINGS[0])
@example(text="1+i^2", ring=RINGS[0])
@example(text="t^63", ring=RINGS[1])
@example(text=" - 3 t ^ -1", ring=RINGS[2])
@example(text="+-2i - -i", ring=RINGS[0])
def test_one_term_reader_matches_the_two_it_replaced(text, ring):
    assert outcome(parser.parse_element, text, ring) == \
        outcome(reference_element, text, ring)

