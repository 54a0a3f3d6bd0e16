"""Round trips through the JSON schemas: decoding what was encoded gives
back an equal value (the same key(), or the same canonical scalar)."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from padicgl.bzclass import load_registry
from padicgl.jsonio import (
    DEFAULT_REGISTRY_DOC,
    class_data_from_json,
    class_data_to_json,
    scalar_from_json,
    scalar_to_json,
    wdrep_from_json,
    wdrep_to_json,
)
from padicgl.qexact import ExactScalar, GaussianRational, LocalFieldContext, canonical_scalar_key

# q = 2, 3, 9 (a square, whose root the canonical form absorbs), 25
CONTEXTS = [LocalFieldContext(2, 1, 0, 0), LocalFieldContext(3, 1, 1, 1),
            LocalFieldContext(3, 2, 0, 0), LocalFieldContext(5, 2, 0, 1)]
REGISTRIES = [load_registry(DEFAULT_REGISTRY_DOC, ctx) for ctx in CONTEXTS]

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
contexts = st.integers(0, len(CONTEXTS) - 1)


def _through_text(doc):
    return json.loads(json.dumps(doc))


@st.composite
def nonzero_scalars(draw):
    re, im = draw(rationals), draw(rationals)
    if re == 0 and im == 0:
        re = Fraction(1)
    return ExactScalar(GaussianRational(re, im), draw(st.integers(-6, 6)))


@st.composite
def atom_docs(draw):
    """An atom record on the label "1" of the default registry or on a drawn
    ur(re,im,k) label; the label need not be written canonically."""
    value = draw(nonzero_scalars())
    label = draw(st.sampled_from(["1", f"ur({value.c.re},{value.c.im},{value.k})"]))
    return {"label": label, "x": [draw(st.integers(-8, 8)), 2], "m": draw(st.integers(1, 4))}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(contexts, nonzero_scalars() | st.builds(ExactScalar, st.just(GaussianRational()), st.integers(-6, 6)))
def test_scalar_round_trip(index, x):
    ctx = CONTEXTS[index]
    back = scalar_from_json(_through_text(scalar_to_json(x, ctx)))
    assert canonical_scalar_key(back, ctx) == canonical_scalar_key(x, ctx)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(contexts, st.sampled_from(["Q", "Z"]), st.lists(atom_docs(), min_size=1, max_size=4))
def test_class_data_round_trip(index, form, segments):
    ctx, registry = CONTEXTS[index], REGISTRIES[index]
    c = class_data_from_json({"form": form, "segments": segments}, registry, ctx)
    doc = _through_text(class_data_to_json(c))
    back = class_data_from_json(doc, registry, ctx)
    assert back.key() == c.key()
    assert class_data_to_json(back) == doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(contexts, st.lists(atom_docs(), min_size=1, max_size=4))
def test_wdrep_round_trip(index, blocks):
    ctx, registry = CONTEXTS[index], REGISTRIES[index]
    rho = wdrep_from_json({"blocks": blocks}, registry, ctx)
    doc = _through_text(wdrep_to_json(rho))
    back = wdrep_from_json(doc, registry, ctx)
    assert back.key() == rho.key()
    assert wdrep_to_json(back) == doc
