"""The sigma oracle against the closed form and the q+1 rule on every
abelian group of order <= 1024 and every Z[i] block module of size <= 1024.

Deselect with `-m "not slow"` for a quick loop.
"""

import math

import pytest
from test_oracle import block_modules

from covercalc import covering, oracle, parser, rings

BOUND = 1024


def q_plus_one(mod):
    """q+1 for the least residue size q of a maximal ideal that two or more
    blocks share, or math.inf when the blocks have distinct ideals."""
    seen, shared = set(), []
    for info in mod.summands:
        (m, _), = info.annihilator.factors
        if m in seen:
            shared.append(m.residue_card.finite_value)
        seen.add(m)
    return min(shared) + 1 if shared else math.inf


@pytest.mark.slow
@pytest.mark.parametrize("ring, count", [(rings.integers(), 2171),
                                         (rings.gaussian_integers(), 1528)],
                         ids=["Z", "Zi"])
def test_sigma_oracle_matches_the_closed_form_up_to_1024(ring, count):
    sweep = block_modules(BOUND, over=(ring,))
    assert len(sweep) == count
    for spec, mod in sweep:
        size, witness = oracle.min_submodule_cover(mod)
        got = math.inf if size is None else size
        formula = covering.sigma_integer(parser.parse_spec(spec)[1])
        assert got == formula == q_plus_one(mod), spec
        union = 0
        for part in witness:
            assert part.mask != mod.full_mask, spec
            union |= part.mask
        assert len(witness) == (size or 0)
        assert union == (0 if size is None else mod.full_mask), spec
