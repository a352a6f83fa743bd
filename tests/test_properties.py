"""Property tests: the export/import round trip and the word text syntax."""

import json
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cactuskit import Word, affine, ball, cactus, export, generators, import_ball, parse_word

FAMILIES = {"affine": affine, "cactus": cactus}


@lru_cache(maxsize=None)
def _ball(family: str, n: int, radius: int):
    return ball(FAMILIES[family](n), radius)


def _graph(b) -> dict:
    """Each vertex key with its depth and its set of (label, neighbour key)."""
    return {
        key: (b.depth(key), {(g.text(), nb) for g, nb in b.neighbors(key)})
        for key in b.vertices()
    }


@settings(max_examples=40, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(2, 5),
    radius=st.integers(0, 3),
)
def test_import_of_export_is_the_identity(family, n, radius):
    b = _ball(family, n, radius)
    b2 = import_ball(json.loads(export(b)))
    assert (b2.spec, b2.radius, len(b2)) == (b.spec, b.radius, len(b))
    assert _graph(b2) == _graph(b)


@st.composite
def words(draw):
    spec = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))](draw(st.integers(2, 9)))
    letters = draw(st.lists(st.sampled_from(generators(spec)), max_size=16))
    return Word(spec, tuple(letters))


@settings(max_examples=200, deadline=None, database=None)
@given(w=words())
def test_parse_word_inverts_text(w):
    assert parse_word(w.spec, w.text()) == w
