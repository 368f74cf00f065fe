"""Property-based checks of the algebraic laws on randomly drawn covers, and of the label tables."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cover_lattice import (
    Cover,
    Stipulation,
    complies,
    make_universe,
    meet,
    parse_document,
    serialize_document,
    star_closure,
    subsumes,
)

UNIVERSES = {n: make_universe([str(i + 1) for i in range(n)]) for n in range(1, 5)}
WIDE_UNIVERSES = {n: make_universe([f"f{i}" for i in range(n)]) for n in range(1, 41)}


@st.composite
def cover_masks(draw, n):
    full = (1 << n) - 1
    masks = set(draw(st.lists(st.integers(1, full), max_size=6)))
    union = 0
    for m in masks:
        union |= m
    if union != full:
        masks.add(full & ~union)
    return masks


@st.composite
def covers(draw):
    n = draw(st.integers(1, 4))
    u = UNIVERSES[n]
    return Cover(u, draw(cover_masks(n)))


@st.composite
def cover_pairs(draw):
    n = draw(st.integers(1, 4))
    u = UNIVERSES[n]
    return (
        Cover(u, draw(cover_masks(n))),
        Cover(u, draw(cover_masks(n))),
    )


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_label_tables_match_bit_walk(case):
    n, mask = case
    u = WIDE_UNIVERSES[n]
    want = tuple(label for i, label in enumerate(u.labels) if mask >> i & 1)
    assert u.labels_of(mask) == want
    assert u.belief_of(mask) == frozenset(want)


@given(covers())
def test_canonicalization_idempotent(c):
    again = Cover(c.universe, c.masks)
    assert again == c
    assert (again.masks, dict(again.labels)) == (c.masks, {})


@given(covers())
def test_star_closure_idempotent_and_extensive(c):
    closed = star_closure(c)
    assert c.mask_set <= closed.mask_set
    assert star_closure(closed) == closed


@given(cover_pairs())
def test_star_closure_monotone(pair):
    a, b = pair
    joined = meet(a, b)  # b's pre-images plus a's, so a subsumes it
    assert subsumes(a, joined)
    assert star_closure(a).mask_set <= star_closure(joined).mask_set


@given(cover_pairs())
def test_meet_is_lower_bound(pair):
    a, b = pair
    m = meet(a, b)
    assert subsumes(a, m) and subsumes(b, m)
    assert meet(a, a) == a
    assert meet(a, b) == meet(b, a)


@given(cover_pairs())
def test_subsumption_is_a_partial_order(pair):
    a, b = pair
    assert subsumes(a, a)
    if subsumes(a, b) and subsumes(b, a):
        assert a == b


@settings(max_examples=60)
@given(covers())
def test_serialize_parse_round_trip(c):
    text = serialize_document(c)
    again = parse_document(text)
    assert again == c
    assert serialize_document(again) == text


@settings(max_examples=60)
@given(covers(), st.randoms(use_true_random=False))
def test_complies_ignores_construction_order_and_labels(c, rng):
    s = Stipulation(frozenset({"1"}), 1)
    masks = list(c.masks)
    rng.shuffle(masks)
    relabeled = Cover(c.universe, masks, {m: f"r{i}" for i, m in enumerate(masks)})
    assert relabeled == c
    assert complies(relabeled, s) == complies(c, s)
