"""The value classes keep the behaviour of frozen dataclasses: their fields
cannot be assigned or deleted, == and hash read the fields and nothing
else, and repr reads Name(field=value, ...)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_ctx, make_registry, random_class_data, random_nonzero_scalar
from padicgl.bzclass import Atom, CentralCharData, ClassData, InertialLabel, Segment
from padicgl.common import Value
from padicgl.cyclicalg import CyclicAlgebraElement, DieudonneModule, UnramifiedContext
from padicgl.factors import EpsValue, wd_l_factor
from padicgl.langlands import rec_forward
from padicgl.qexact import ExactScalar, GaussianRational, LFactor, LocalFieldContext
from padicgl.weildeligne import UnramMatrixRep, WDBlock, WDRep
from padicgl.wittring import IntegerRing, ModRing, WittContext, WittVector

ONE, MINUS_ONE, I = ExactScalar.of(1), ExactScalar.of(-1), ExactScalar.of(0, 1)
CTX = LocalFieldContext(3, 1)
LABEL = InertialLabel("a", "symbolic", 2, 1, 1, "a", ONE, "u")
OTHER_LABEL = InertialLabel("b", "symbolic", 2, 1, 1, "b", ONE, "u")
ATOM = Atom(LABEL, Fraction(1, 2))
BLOCK = WDBlock(ATOM, 2)
SEGMENT = Segment(ATOM, 2)
WITT = WittContext(IntegerRing(), 2, 3)
UNRAM = UnramifiedContext(2, 1, 2, 3)

# (class, fields in order with the value each case is built from, and for
# each field a second value that is valid with the others unchanged)
CASES = [
    (LocalFieldContext, {"p": 3, "f": 1, "d": 0, "n_psi": 0}, {"p": 5, "f": 2, "d": 1, "n_psi": 1}),
    (ExactScalar, {"c": GaussianRational.of(1, 2), "k": 1}, {"c": GaussianRational.of(1), "k": 0}),
    (LFactor, {"factors": ((ONE, 1), (I, 2))}, {"factors": ((ONE, 1),)}),
    (InertialLabel,
     {"name": "a", "kind": "symbolic", "degree": 2, "torsion": 1, "conductor": 1, "dual_name": "a",
      "omega": ONE, "unit_class": "u"},
     {"name": "b", "degree": 4, "torsion": 2, "conductor": 0, "dual_name": "b", "omega": MINUS_ONE,
      "unit_class": "v"}),
    (InertialLabel,
     {"name": "xi", "kind": "ramified-char", "degree": 1, "torsion": 1, "conductor": 2,
      "dual_name": "xi", "omega": I, "unit_class": "u"},
     {"kind": "symbolic"}),
    (Atom, {"label": LABEL, "x": Fraction(1, 2)}, {"label": OTHER_LABEL, "x": Fraction(-1)}),
    (Segment, {"start": ATOM, "m": 2}, {"start": Atom(LABEL), "m": 3}),
    (ClassData, {"form": "Q", "segments": (SEGMENT,)}, {"form": "Z", "segments": (SEGMENT, SEGMENT)}),
    (CentralCharData, {"unit_classes": ("u",), "value_at_uniformizer": ONE},
     {"unit_classes": ("v",), "value_at_uniformizer": I}),
    (WDBlock, {"atom": ATOM, "m": 2}, {"atom": Atom(OTHER_LABEL), "m": 1}),
    (WDRep, {"blocks": (BLOCK,)}, {"blocks": (BLOCK, BLOCK)}),
    (UnramMatrixRep, {"ctx": CTX, "frobenius": (ONE, ExactScalar.of(3)), "nilpotent": ((0, 1), (0, 0))},
     {"ctx": LocalFieldContext(3, 1, 1), "frobenius": (ExactScalar.of(3), ExactScalar.of(9)),
      "nilpotent": ((0, 0), (0, 0))}),
    (EpsValue, {"units": (), "mono": ONE, "s_slope": Fraction(0), "num": LFactor.one(), "den": LFactor.one()},
     {"units": (("g(a)", 1),), "mono": I, "s_slope": Fraction(1), "num": LFactor(((ONE, 1),)),
      "den": LFactor(((I, 1),))}),
    (WittContext, {"ring": IntegerRing(), "p": 2, "n": 3}, {"ring": ModRing(4), "p": 3, "n": 2}),
    (WittVector, {"ctx": WITT, "coords": (1, 2, 3)},
     {"ctx": WittContext(IntegerRing(), 3, 3), "coords": (1, 2, 4)}),
    (UnramifiedContext, {"p": 2, "f": 1, "s": 2, "precision": 3}, {"p": 3, "f": 2, "s": 3, "precision": 4}),
    (CyclicAlgebraElement, {"r": 1, "s": 2, "coeffs": ((1, 0), (0, 1))},
     {"r": 3, "s": 3, "coeffs": ((1, 0), (0, 0))}),
    (DieudonneModule, {"ctx": UNRAM, "n": 1, "v_matrix": (((1, 0),),), "f_matrix": (((2, 0),),)},
     {"ctx": UnramifiedContext(2, 1, 3, 3), "n": 2, "v_matrix": (((0, 1),),), "f_matrix": (((1, 0),),)}),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]


def test_every_value_class_has_a_case():
    assert {cls for cls, _, _ in CASES} == set(Value.__subclasses__())
    assert len(Value.__subclasses__()) == 17


@pytest.mark.parametrize("cls,fields,others", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, others):
    x = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 0
    assert all(getattr(x, name) == value for name, value in fields.items())


@pytest.mark.parametrize("cls,fields,others", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, fields, others):
    x, y = cls(**fields), cls(*fields.values())
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    assert x != object() and x != tuple(fields.values())


@pytest.mark.parametrize("cls,fields,others", CASES, ids=IDS)
def test_each_field_is_compared(cls, fields, others):
    x = cls(**fields)
    for name, value in others.items():
        assert value != fields[name]
        y = cls(**{**fields, name: value})
        assert x != y and not x == y, name


@pytest.mark.parametrize("cls,fields,others", CASES, ids=IDS)
def test_repr_names_the_fields(cls, fields, others):
    x = cls(**fields)
    shown = ", ".join(f"{name}={getattr(x, name)!r}" for name in fields)
    assert repr(x) == f"{cls.__name__}({shown})"


def test_inertial_label_ignores_its_dual():
    fields = CASES[3][1]
    x, y = InertialLabel(**fields), InertialLabel(**fields, _dual=OTHER_LABEL)
    assert x._dual is None and y.dual is OTHER_LABEL
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert "_dual" not in repr(y) and "OTHER" not in repr(y)
    with pytest.raises(AttributeError):
        y._dual = None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_values_built_twice_from_the_same_draws_agree(seed):
    ctx = make_ctx()
    registry = make_registry(ctx)
    built = []
    for _ in range(2):
        rng = random.Random(seed)
        data = random_class_data(rng, registry, ctx)
        rho = rec_forward(data)
        seg = data.segments[0]
        built.append([random_nonzero_scalar(rng), seg.start, seg, data, rho, wd_l_factor(rho, ctx)])
    for x, y in zip(*built):
        assert x is not y and x == y and hash(x) == hash(y)
        table = {x: "first"}
        assert table[y] == "first" and y in table
        table[y] = "second"
        assert len(table) == 1 and table[x] == "second"
