"""Value-class semantics: the five frozen record classes behave as frozen
dataclasses with the same fields would, and pickle across a process pool.
Record.__init__ is the one constructor: it takes one value per __slots__
field, in order, with no defaults, so Verdict and CheckOutcome are built
with every field and a wrong count raises TypeError.

The oracle is a frozen dataclass twin of each class, built from its
__slots__; only the tests import dataclasses.
"""

import dataclasses
import itertools
import pickle

import pytest

from qcongruence.bigpoly import IntPoly, LaurentInt
from qcongruence.cycmodfield import CheckOutcome
from qcongruence.qseries import FactoredQ
from qcongruence.record import Record
from qcongruence.verifier import Verdict

SAMPLES = {
    IntPoly: [IntPoly(), IntPoly(5), IntPoly(1, 2, 3), IntPoly([1, 2, 3, 0])],
    LaurentInt: [LaurentInt(IntPoly(1, 1), -3), LaurentInt(IntPoly(0, 1, 1)),
                 LaurentInt(IntPoly(1, 1), 1), LaurentInt(IntPoly())],
    FactoredQ: [FactoredQ(-1, -2, {2: -1, 5: 1}), FactoredQ(),
                FactoredQ(1, 3), FactoredQ(-1, -2, [(5, 1), (2, -1)])],
    CheckOutcome: [CheckOutcome(True, "x", "1", "1", ""),
                   CheckOutcome(True, "x", "1", "1", ""),
                   CheckOutcome(False, "x", "1", "2", "differ")],
    Verdict: [Verdict("x", {"n": 1}, True, "l", "r", None),
              Verdict("x", {"n": 1}, True, "l", "r", None),
              Verdict("x", {}, False, "l", "r", {"w": 1}),
              Verdict("x", {"n": 1}, False, "", "", None)],
}

CLASSES = list(SAMPLES)
TWINS = {cls: dataclasses.make_dataclass(cls.__name__, cls.__slots__,
                                         frozen=True) for cls in CLASSES}


def _fields(obj):
    return tuple(getattr(obj, f) for f in type(obj).__slots__)


def _as_twin(obj):
    return TWINS[type(obj)](*_fields(obj))


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    for obj in SAMPLES[cls]:
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, proto))
            assert type(back) is cls
            assert back == obj
            assert _fields(back) == _fields(obj)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise(cls):
    obj = SAMPLES[cls][0]
    for name in cls.__slots__:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_match_frozen_dataclass(cls):
    objs = SAMPLES[cls]
    for a, b in itertools.product(objs, repeat=2):
        ta, tb = _as_twin(a), _as_twin(b)
        assert (a == b) == (ta == tb), (a, b)
        assert (a != b) == (ta != tb), (a, b)
    for obj in objs:
        assert _hash_or_error(obj) == _hash_or_error(_as_twin(obj))
        # no equality across classes, not even with a subclass or the
        # field tuple
        sub = type("Sub", (cls,), {"__slots__": ()})
        assert obj != sub(*obj._key())
        assert obj != _fields(obj)
        assert obj != _as_twin(obj)
    assert any(a == b for a, b in itertools.combinations(objs, 2))
    assert any(a != b for a, b in itertools.combinations(objs, 2))


def test_verdict_with_dict_params_is_unhashable():
    with pytest.raises(TypeError):
        hash(Verdict("x", {"n": 1}, True, "l", "r", None))


@pytest.mark.parametrize("cls", [CheckOutcome, Verdict],
                         ids=lambda c: c.__name__)
def test_repr_matches_frozen_dataclass(cls):
    for obj in SAMPLES[cls]:
        assert repr(obj) == repr(_as_twin(obj))


def test_truth_of_verdict_and_check_outcome():
    assert Verdict("x", {}, True, "", "", None)
    assert not Verdict("x", {}, False, "l", "r", {"w": 1})
    assert CheckOutcome(True, "x", "1", "1", "")
    assert not CheckOutcome(False, "x", "1", "2", "differ")


@pytest.mark.parametrize("cls, count", [(Verdict, 5), (Verdict, 7),
                                        (CheckOutcome, 4), (CheckOutcome, 6)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_wrong_number_of_values_raises(cls, count):
    # no field has a default, and no value is dropped or left over
    with pytest.raises(TypeError, match=rf"{cls.__name__} takes "
                       rf"{len(cls.__slots__)} values, got {count}"):
        cls(*range(count))


@pytest.mark.parametrize("cls", [Verdict, CheckOutcome],
                         ids=lambda c: c.__name__)
def test_results_are_not_tuples(cls):
    # benchmark and report code treat any tuple as a raw record
    assert not issubclass(cls, tuple)
    assert not isinstance(SAMPLES[cls][0], tuple)


class _Pair(Record):
    """A Record that names its fields in __slots__ and nowhere else."""

    __slots__ = ("a", "b")


def test_fields_come_from_slots_alone():
    p = _Pair(1, [2])
    assert (p.a, p.b) == (1, [2])
    assert p == _Pair(1, [2])
    assert p != _Pair(1, [3])
    assert p != _Pair(2, [2])
    assert hash(_Pair(1, 2)) == hash(_Pair(1, 2)) != hash(_Pair(2, 1))
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(p, proto))
        assert type(back) is _Pair
        assert (back.a, back.b) == (1, [2])
    assert repr(p) == "_Pair(a=1, b=[2])"
    # a subclass keeps its bases' fields
    sub = type("Sub", (_Pair,), {"__slots__": ()})
    assert sub(1, 2) == sub(1, 2) != sub(1, 3)
