import random

import pytest

from oracles import (
    bell_by_binomial,
    brute_contains_induced,
    brute_weakly_contains,
    components_are_flat,
    extension_unlabeled_masks,
    fixpoint_closure,
    is_flat,
    matrix_weak_pattern_poset,
    pairs_disjoint_union,
    pairs_induced_subposet,
    pairs_linear_sum,
    pairwise_embedding,
    pairwise_is_below,
    pairwise_is_weakly_below,
    search_upset_avoided,
    two_plus_two,
    upset_in_Xn,
    wedge,
)
from schroeder.errors import LimitError
from schroeder.posets import (
    FinitePoset,
    _bits,
    _embedding,
    _induced_form_mask,
    _unlabeled_masks,
    antichain,
    build_weak_pattern_poset,
    chain,
    connected_components,
    disjoint_union,
    enumerate_posets,
    height,
    induced_subposet,
    is_below,
    is_disjoint_union_of_flats,
    is_weakly_below,
    linear_sum,
    poset_from_json,
    poset_to_json,
    sav_count,
    single_cover,
    strongly_avoids,
    vee,
    weakly_contains,
)


def test_construction_and_closure():
    p = FinitePoset(3, [(1, 2), (2, 3)])
    assert p.less(1, 3)  # transitive closure applied on load
    assert p.strict_pairs() == ((1, 2), (1, 3), (2, 3))
    with pytest.raises(ValueError):
        FinitePoset(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        FinitePoset(2, [(1, 1)])
    with pytest.raises(ValueError):
        FinitePoset(2, [(1, 3)])


def test_closure_matches_fixpoint_loop():
    """Warshall's pass gives the fixpoint loop's closure on seeded random
    relations of size <= 7, and both refuse the cyclic ones."""
    rng = random.Random(23)
    cyclic = 0
    for _ in range(3000):
        n = rng.randint(0, 7)
        pairs = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and rng.random() < 0.15
        ]
        try:
            expected = fixpoint_closure(n, pairs)
        except ValueError:
            cyclic += 1
            with pytest.raises(ValueError):
                FinitePoset(n, pairs)
            continue
        assert FinitePoset(n, pairs).up == expected, (n, pairs)
    assert cyclic == 479


def test_json_round_trip():
    p = wedge()
    data = poset_to_json(p)
    assert data == {"size": 3, "relations": [[1, 3], [2, 3]]}
    assert poset_from_json(data) == p
    with pytest.raises(ValueError):
        poset_from_json({"relations": [[1, 2]]})


def test_enumeration_counts():
    assert [len(enumerate_posets(n, labeled=True)) for n in range(5)] == [
        1,
        1,
        3,
        19,
        219,
    ]
    assert [len(enumerate_posets(n, labeled=False)) for n in range(7)] == [
        1,
        1,
        2,
        5,
        16,
        63,
        318,
    ]
    with pytest.raises(LimitError):
        enumerate_posets(7)


@pytest.mark.parametrize("n", range(7))
def test_unlabeled_generation_matches_full_extensions(n):
    """Growing by one maximal element gives the same sorted classes as
    every one-point extension."""
    assert _unlabeled_masks(n) == extension_unlabeled_masks(n)


def test_upset_masks_match_embedding_search():
    """The sav up-set law's mask test agrees with one induced search per
    up-set member: all 24 patterns of size <= 4 on all 405 hosts of size
    <= 6."""
    patterns = [p for n in range(1, 5) for p in enumerate_posets(n, labeled=False)]
    hosts = [q for n in range(1, 7) for q in enumerate_posets(n, labeled=False)]
    assert (len(patterns), len(hosts)) == (24, 405)
    pattern_bit = {(p.n, p.up): 1 << i for i, p in enumerate(patterns)}
    memo = {}
    host_masks = [_induced_form_mask(q, pattern_bit, 4, memo) for q in hosts]
    for pat in patterns:
        upset = upset_in_Xn(pat)
        upset_mask = sum(pattern_bit[r.n, r.up] for r in upset)
        for q, host_mask in zip(hosts, host_masks):
            assert (not upset_mask & host_mask) == search_upset_avoided(q, upset), (
                pat.strict_pairs(),
                q.strict_pairs(),
            )


def test_enumeration_deterministic_and_closed():
    first = enumerate_posets(4, labeled=True)
    second = enumerate_posets(4, labeled=True)
    assert [p.up for p in first] == [p.up for p in second]
    for p in first:
        for i, j in p.strict_pairs():
            for k in range(1, p.n + 1):
                if p.less(j, k):
                    assert p.less(i, k)


def test_canonical_form_complete_at_small_sizes():
    for n in range(5):
        posets_n = enumerate_posets(n, labeled=True)
        classes = {}
        for p in posets_n:
            classes.setdefault(p.canonical_form(), []).append(p)
        # canonical classes partition the labeled posets into isomorphism classes
        reps = enumerate_posets(n, labeled=False)
        assert len(classes) == len(reps)
        for form, members in classes.items():
            base = members[0]
            for other in members[1:]:
                assert brute_contains_induced(base, other) and base.n == other.n


def test_containment_examples():
    assert pairwise_embedding(chain(3), chain(2), True) is not None
    assert pairwise_embedding(chain(3), antichain(2), True) is None
    assert pairwise_embedding(two_plus_two(), antichain(2), True) is not None
    assert weakly_contains(chain(3), vee())
    assert weakly_contains(vee(), vee())
    assert not weakly_contains(wedge(), vee())
    assert strongly_avoids(wedge(), vee())


def test_containment_against_bruteforce():
    hosts = [q for n in range(5) for q in enumerate_posets(n, labeled=False)]
    pats = [p for n in range(1, 4) for p in enumerate_posets(n, labeled=False)]
    for q in hosts:
        for p in pats:
            assert weakly_contains(q, p) == brute_weakly_contains(q, p)
            induced = pairwise_embedding(q, p, True) is not None
            assert induced == brute_contains_induced(q, p)


def test_embedding_matches_pairwise_search():
    """Same first image as the pair-by-pair search: unlabeled hosts of size
    0..5 and labeled hosts of size 4, unlabeled patterns of size 0..4, in the
    default order and in vertex order."""
    hosts = [q for n in range(6) for q in enumerate_posets(n, labeled=False)]
    hosts += enumerate_posets(4, labeled=True)
    pats = [p for n in range(5) for p in enumerate_posets(n, labeled=False)]
    calls = 0
    for q in hosts:
        for p in pats:
            for order in (None, range(p.n)):
                assert _embedding(q, p, order) == pairwise_embedding(
                    q, p, False, order
                ), (q, p, order)
                calls += 1
    assert calls == 15350


def test_default_search_order_is_kept_per_pattern():
    """The default order, sorted once and kept on the pattern, gives the same
    first image as passing the most-relations-first order, on the first call
    and on later calls with the same pattern object."""
    posets = [q for n in range(6) for q in enumerate_posets(n, labeled=False)]
    for p in posets:
        most_first = sorted(
            range(p.n), key=lambda v: -(p.up[v].bit_count() + p.down[v].bit_count())
        )
        for q in posets:
            expected = _embedding(q, p, order=most_first)
            assert _embedding(q, p) == expected, (q, p)
            assert _embedding(q, p) == expected, (q, p)


def test_mask_constructors_match_pairs_construction():
    def same(a, b):
        return (a.n, a.up, a.down) == (b.n, b.up, b.down)

    for n in range(5):
        for p in enumerate_posets(n, labeled=True):
            for mask in range(1 << n):
                elements = [e for e in range(1, n + 1) if mask >> (e - 1) & 1]
                assert same(induced_subposet(p, elements), pairs_induced_subposet(p, elements))
    small = [p for n in range(4) for p in enumerate_posets(n, labeled=True)]
    for p in small:
        for q in small:
            assert same(disjoint_union(p, q), pairs_disjoint_union(p, q))
            assert same(linear_sum(p, q), pairs_linear_sum(p, q))


def test_upset_example():
    up = upset_in_Xn(vee())
    forms = {q.canonical_form() for q in up}
    assert forms == {vee().canonical_form(), chain(3).canonical_form()}
    assert [q.canonical_form() for q in upset_in_Xn(chain(4))] == [
        chain(4).canonical_form()
    ]
    assert len(upset_in_Xn(antichain(3))) == 5


def test_structural_ops():
    assert disjoint_union(chain(1), chain(1)) == antichain(2)
    f = linear_sum(antichain(2), chain(1))
    assert is_flat(f) and f.n == 3
    assert height(two_plus_two()) == 2
    assert height(chain(4)) == 4
    assert height(antichain(3)) == 1
    assert connected_components(two_plus_two()) == [[1, 2], [3, 4]]
    assert is_flat(chain(1)) and is_flat(chain(2)) and is_flat(wedge())
    assert not is_flat(vee()) and not is_flat(chain(3))
    assert is_disjoint_union_of_flats(disjoint_union(wedge(), chain(2)))
    assert not is_disjoint_union_of_flats(vee())


def test_flat_unions_match_per_component_test():
    """The mask test equals "every component is flat" on all labeled posets
    of size <= 5 and all unlabeled posets of size 6.  The flat unions are
    the 1 + 1 + 3 + 10 + 41 + 196 labeled vee avoiders and one unlabeled
    poset per partition of 6."""
    hosts = [p for n in range(6) for p in enumerate_posets(n, labeled=True)]
    hosts += enumerate_posets(6, labeled=False)
    flat_unions = 0
    for p in hosts:
        expected = components_are_flat(p)
        assert is_disjoint_union_of_flats(p) == expected, p
        flat_unions += expected
    assert (len(hosts), flat_unions) == (4792, 252 + 11)


def test_below_predicates():
    c = chain(3)
    assert is_below(c, [1], [2, 3])
    assert not is_below(two_plus_two(), [1, 3], [2, 4])
    assert is_weakly_below(two_plus_two(), [1, 3], [2, 4])
    assert not is_weakly_below(chain(2), [2], [1])
    # both are strict: a shared element is not below itself
    assert not is_below(chain(2), [1], [1, 2])
    assert not is_weakly_below(chain(2), [1], [1])
    assert is_below(chain(2), [], [1]) and is_below(chain(2), [1], [])


def test_below_predicates_match_pairwise_test():
    """For every subset b of every labeled poset of size <= 5, against its
    complement, itself and the whole ground set."""
    for n in range(6):
        ground = list(range(1, n + 1))
        for p in enumerate_posets(n, labeled=True):
            for mask in range(1 << n):
                b = [e for e in ground if mask >> (e - 1) & 1]
                rest = [e for e in ground if not mask >> (e - 1) & 1]
                for other in (rest, b, ground):
                    assert is_below(p, b, other) == pairwise_is_below(p, b, other)
                    assert is_weakly_below(p, b, other) == pairwise_is_weakly_below(
                        p, b, other
                    )


def test_flat_does_not_weakly_contain_vee():
    assert not weakly_contains(wedge(), vee())
    assert weakly_contains(chain(3), vee())


def test_sav_characterizations_small():
    # chains: height filter
    for k in range(1, 4):
        for n in range(1, 5):
            for q in enumerate_posets(n, labeled=False):
                assert strongly_avoids(q, chain(k)) == (height(q) <= k - 1)
    # discrete patterns: size filter
    for k in range(1, 4):
        for n in range(1, 5):
            for q in enumerate_posets(n, labeled=False):
                assert strongly_avoids(q, antichain(k)) == (q.n <= k - 1)
    # single cover: discrete hosts once size reached
    for k in range(2, 4):
        for n in range(1, 5):
            for q in enumerate_posets(n, labeled=False):
                expected = q.n <= k - 1 or q.pair_count() == 0
                assert strongly_avoids(q, single_cover(k)) == expected


def test_sav_vee_structure_and_counts():
    # avoiding the vee is the same as being a disjoint union of flats; the
    # labeled counts are 1, 3, 10, 41 (not the Bell numbers the upstream
    # enumeration claims; see the verification suite)
    counts = []
    for n in range(1, 5):
        avoiders = [
            q for q in enumerate_posets(n, labeled=True) if strongly_avoids(q, vee())
        ]
        assert all(is_disjoint_union_of_flats(q) for q in avoiders)
        assert all(
            strongly_avoids(q, vee())
            for q in enumerate_posets(n, labeled=True)
            if is_disjoint_union_of_flats(q)
        )
        counts.append(len(avoiders))
    assert counts == [1, 3, 10, 41]
    assert bell_by_binomial(4) == [1, 2, 5, 15]
    assert sav_count(3, vee(), labeled=True) == 10
    assert sav_count(3, vee(), labeled=False) == 3


def test_weak_pattern_poset_structure():
    xp = build_weak_pattern_poset(3)
    assert len(xp.elements) == 5
    assert len(xp.hasse_edges) == 5
    bottom, top = xp.minimum(), xp.maximum()
    assert xp.elements[bottom].pair_count() == 0
    assert xp.elements[top].pair_count() == 3
    assert len(xp.atoms()) == 1
    atom = xp.elements[xp.atoms()[0]]
    assert atom.pair_count() == 1
    xp4 = build_weak_pattern_poset(4)
    assert len(xp4.elements) == 16
    assert len(xp4.hasse_edges) == 27
    for i, j in xp4.hasse_edges:
        assert xp4.elements[j].pair_count() - xp4.elements[i].pair_count() == 1


@pytest.mark.parametrize(
    "n, size, edges", [(0, 1, 0), (1, 1, 0), (2, 2, 1), (3, 5, 5), (4, 16, 27), (5, 63, 166)]
)
def test_weak_pattern_poset_counts(n, size, edges):
    xp = build_weak_pattern_poset(n)
    assert (len(xp.elements), len(xp.hasse_edges)) == (size, edges)
    if n <= 1:
        assert xp.atoms() == []


@pytest.mark.parametrize("n", range(6))
def test_weak_pattern_poset_matches_matrix(n):
    """``above`` and the bitset reduction equal the k x k matrix and its
    O(k^3) reduction."""
    xp = build_weak_pattern_poset(n)
    leq, edges = matrix_weak_pattern_poset(n)
    k = len(xp.elements)
    assert [[bool(xp.above[i] >> j & 1) for j in range(k)] for i in range(k)] == leq
    assert list(xp.hasse_edges) == edges


@pytest.mark.parametrize("n", range(5))
def test_weak_pattern_poset_rows_are_upsets(n):
    xp = build_weak_pattern_poset(n)
    for p, mask in zip(xp.elements, xp.above):
        assert [xp.elements[j] for j in _bits(mask)] == upset_in_Xn(p)


def test_induced_subposet():
    c = chain(4)
    sub = induced_subposet(c, [1, 3, 4])
    assert sub == chain(3)
    assert induced_subposet(two_plus_two(), [1, 3]) == antichain(2)
