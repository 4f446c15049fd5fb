"""@record against @dataclass(frozen=True): same construction, equality,
hash, repr, immutability and replace."""

import copy
import dataclasses

import pytest

from covercalc.records import FrozenInstanceError, record
from reference import replace


@record
class Point:
    x: int
    y: int = 3
    tags: tuple = ()

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("negative x")


@dataclasses.dataclass(frozen=True)
class Reference:
    x: int
    y: int = 3
    tags: tuple = ()

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("negative x")


# every way to bind: all positional, positional then defaults, keywords
# (complete, in or out of field order, or with defaults), and positional
# then keywords
CALLS = [((1,), {}), ((1, 2), {}), ((1, 2, ("a",)), {}), ((), {"x": 5}),
         ((1,), {"tags": (1,)}), ((), {"tags": (), "x": 2}),
         ((), {"x": 1, "y": 2, "tags": ("a",)}),
         ((), {"tags": ("a",), "y": 2, "x": 1}), ((1, 2), {"tags": ("b",)}),
         ((1,), {"y": 4, "tags": ()}), ((), {"x": 1, "y": 2})]
BAD_CALLS = [((), {}), ((1, 2, 3, 4), {}), ((1,), {"x": 2}), ((1,), {"w": 2}),
             ((), {"y": 1}), ((1, 2, ()), {"x": 1}), ((1, 2, ()), {"w": 1}),
             ((1, 2, (), 4), {"x": 1}), ((), {"x": 1, "y": 2, "tags": (),
                                              "w": 0}),
             ((1,), {"y": 2, "w": 3}), ((), {"y": 1, "tags": ()})]


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_matches_a_frozen_dataclass(args, kwargs):
    ours, theirs = Point(*args, **kwargs), Reference(*args, **kwargs)
    assert (ours.x, ours.y, ours.tags) == (theirs.x, theirs.y, theirs.tags)
    assert hash(ours) == hash(theirs)
    assert repr(ours) == repr(theirs).replace("Reference", "Point")
    assert ours == Point(ours.x, ours.y, ours.tags) == copy.deepcopy(ours)
    assert ours != theirs


@pytest.mark.parametrize("args, kwargs", BAD_CALLS)
def test_rejects_what_a_dataclass_rejects(args, kwargs):
    for cls in (Point, Reference):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    with pytest.raises(TypeError, match=r"^Point\(\) takes the fields x, y, "
                       r"tags: missing, unknown or repeated arguments$"):
        Point(*args, **kwargs)


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_post_init_runs_on_every_path(args, kwargs):
    if args:
        args = (-1, *args[1:])
    else:
        kwargs = {**kwargs, "x": -1}
    with pytest.raises(ValueError):
        Point(*args, **kwargs)


def test_post_init_frozen_and_replace():
    with pytest.raises(ValueError):
        Point(-1)
    p = Point(1)
    with pytest.raises(FrozenInstanceError):
        p.x = 2
    with pytest.raises(AttributeError):
        del p.y
    assert replace(p, y=7) == Point(1, 7)
    with pytest.raises(ValueError):
        replace(p, x=-1)


def test_finite_cardinals_are_shared_and_checked():
    from covercalc import cardinal
    assert cardinal.finite(7) is cardinal.finite(7)
    assert cardinal.finite(0) == cardinal.ZERO
    assert cardinal.parse_cardinal("12") is cardinal.finite(12)
    assert cardinal.finite(3).successor() is cardinal.finite(4)
    for _ in range(2):      # a failed call is not cached
        with pytest.raises(ValueError, match="nonnegative"):
            cardinal.finite(-1)
