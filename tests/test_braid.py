"""Burau representation, Artin action, Milnor invariants, series identity."""

import hashlib
import os
import random
import re
import subprocess
import sys
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import braid
from coxkit.algebra import (Frame, Laurent, Poly, RatFunc, TruncSeries,
                            mat_eq, mat_mul)
from coxkit.braid import (BraidWord, _ending_in_1, artin_action, burau,
                          conway_torus2, det_one_minus, det_ratio,
                          free_reduce, laurent_to_t_poly, levin_check,
                          linking_matrix, longitudes, magnus, milnor,
                          t_poly_to_laurent, unit_match)
from coxkit.errors import (DomainError, IndexOutOfRange, NotPure, SizeMismatch,
                           ZeroDenominator)
from oracles import (artin_by_substitution, conway_from_seifert,
                     magnus_by_letters, magnus_product)


def rand_word(rng, n, length):
    return BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                              for _ in range(length)))


# -- braid words ---------------------------------------------------------------

def test_parse_word_syntax():
    b = BraidWord.parse("s1 s1 -s2", 3)
    assert b.word == (1, 1, -2) and b.strands == 3
    assert BraidWord.parse("s1 s1").strands == 2


def test_parse_names_the_bad_token():
    for tok in ("sx", "s", "-s", "s-1", "s+1", "t1"):
        with pytest.raises(DomainError, match=re.escape(repr(tok))):
            BraidWord.parse(f"s1 {tok}")


def test_generator_range_checked():
    with pytest.raises(DomainError):
        BraidWord(2, (2,))


def test_permutation_and_purity():
    assert BraidWord(3, (1, 2)).permutation() == (1, 2, 0)
    assert BraidWord(2, (1, 1)).is_pure
    assert not BraidWord(2, (1,)).is_pure


def test_linking_matrix_hopf():
    assert linking_matrix(BraidWord(2, (1, 1))) == {(1, 2): 1}
    assert linking_matrix(BraidWord(2, (-1, -1))) == {(1, 2): -1}


def test_linking_matrix_refuses_a_braid_that_is_not_pure():
    # odd crossing counts were halved and rounded down: s1 gave 0 and
    # s1^-1 gave -1, and on 3 strands s1^3 gave 1 and s1^-3 gave -2
    for b in (BraidWord(2, (1,)), BraidWord(2, (-1,)), BraidWord(3, (1,) * 3),
              BraidWord(3, (-1,) * 3), BraidWord(3, (1, 2))):
        with pytest.raises(NotPure):
            linking_matrix(b)


# -- Burau ----------------------------------------------------------------------

def test_identity_braid_maps_to_identity():
    img = burau(BraidWord(3, ()))
    assert all(img.entries[i][j] ==
               (Laurent.one() if i == j else Laurent.zero())
               for i in range(3) for j in range(3))


def test_unreduced_s1_block():
    img = burau(BraidWord(2, (1,)))
    t, one = Laurent.q(1), Laurent.one()
    assert img.entries == ((one - t, t), (one, Laurent.zero()))


def test_reduced_s1_in_b2():
    img = burau(BraidWord(2, (1,)), reduced=True)
    assert img.entries == ((Laurent({1: -1}),),)


def test_braid_relation_both_kinds():
    s1, s2 = BraidWord(3, (1,)), BraidWord(3, (2,))
    for reduced in (False, True):
        assert mat_eq(burau(s1 * s2 * s1, reduced).entries,
                      burau(s2 * s1 * s2, reduced).entries)


def test_commuting_generators():
    s1, s3 = BraidWord(4, (1,)), BraidWord(4, (3,))
    for reduced in (False, True):
        assert mat_eq(burau(s1 * s3, reduced).entries,
                      burau(s3 * s1, reduced).entries)


def test_multiplicativity_seeded_pairs():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 4)
        w1 = rand_word(rng, n, rng.randint(0, 6))
        w2 = rand_word(rng, n, rng.randint(0, 6))
        for reduced in (False, True):
            lhs = burau(w1 * w2, reduced).entries
            rhs = mat_mul(burau(w1, reduced).entries,
                          burau(w2, reduced).entries)
            assert mat_eq(lhs, rhs)


def _textbook_gen(n, g, reduced):
    """Dense image of s_k^(+-1), written out entry by entry."""
    t, tinv = Laurent.q(1), Laurent.q(-1)
    one, zero = Laurent.one(), Laurent.zero()
    size = n - 1 if reduced else n
    m = [[one if i == j else zero for j in range(size)] for i in range(size)]
    k = abs(g) - 1
    if not reduced and g > 0:
        m[k][k], m[k][k + 1], m[k + 1][k], m[k + 1][k + 1] = one - t, t, one, zero
    elif not reduced:
        m[k][k], m[k][k + 1], m[k + 1][k], m[k + 1][k + 1] = (
            zero, one, tinv, one - tinv)
    else:
        m[k][k] = -t if g > 0 else -tinv
        if k > 0:
            m[k][k - 1] = t if g > 0 else one
        if k + 1 < size:
            m[k][k + 1] = one if g > 0 else tinv
    return m


def test_burau_matches_dense_generator_product():
    rng = random.Random(61)
    words = [(n, ()) for n in range(1, 8)]
    words += [(n, (-k,) * 3 + (k,) + (-(n - 1),) * 2)
              for n in range(2, 8) for k in range(1, n)]
    for _ in range(120):
        n = rng.randint(2, 7)
        words.append((n, rand_word(rng, n, rng.randint(1, 10)).word))
    # around 39 letters, past which the digits are wider than 64 bits
    for length in (38, 39, 40, 41, 78, 79, 130):
        for n in (2, 3, 5, 7):
            words.append((n, rand_word(rng, n, length).word))
    # (s1 s2^-1)^65 grows like the golden ratio to the power of the
    # length, so its image has coefficients past 2^63 (near 10^27)
    words += [(3, (1, -2) * 65), (4, (1, -2, 3) * 44)]
    # all-inverse and all-positive runs: the most shifts one way; on 2
    # strands the reduced image is 1 x 1, and on 1 strand it is empty
    for length in (38, 39, 40, 41, 130):
        for n in (2, 4):
            for sign in (1, -1):
                words.append((n, (sign,) * length))
                words.append((n, tuple(sign * rng.randint(1, n - 1)
                                       for _ in range(length))))
    for n, word in words:
        for reduced in (False, True):
            size = n - 1 if reduced else n
            want = [[Laurent.one() if i == j else Laurent.zero()
                     for j in range(size)] for i in range(size)]
            for g in word:
                want = mat_mul(want, _textbook_gen(n, g, reduced))
            img = burau(BraidWord(n, word), reduced)
            assert img.size == size and all(len(r) == size
                                            for r in img.entries)
            assert mat_eq(img.entries, want), (n, word, reduced)
            assert all(type(e) is Laurent for r in img.entries for e in r)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.lists(st.integers(1, 5), max_size=60),
       st.lists(st.booleans(), max_size=60), st.booleans())
def test_burau_coefficients_stay_below_three_to_the_length(n, ks, signs,
                                                         reduced):
    # a letter at most triples a row's sum of absolute coefficients
    word = tuple((-1 if neg else 1) * ((k - 1) % (n - 1) + 1)
                 for k, neg in zip(ks, signs + [False] * len(ks)))
    img = burau(BraidWord(n, word), reduced)
    bound = 3 ** len(word)
    for row in img.entries:
        assert sum(abs(c) for e in row for _, c in e.items()) <= bound


def test_inverse_word_gives_inverse_matrix():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 4)
        w = rand_word(rng, n, rng.randint(1, 6))
        for reduced in (False, True):
            prod = burau(w * w.inverse(), reduced)
            ident = burau(BraidWord(n, ()), reduced)
            assert mat_eq(prod.entries, ident.entries)


def test_unreduced_at_one_is_permutation_matrix():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(2, 4)
        w = rand_word(rng, n, rng.randint(0, 6))
        img = burau(w)
        at1 = [[sum(v for _, v in e.items()) for e in row]
               for row in img.entries]
        pos = w.permutation()
        # strand i ends at the position p with pos[p] = i
        where = {strand: p for p, strand in enumerate(pos)}
        want = [[1 if where[i] == j else 0 for j in range(n)]
                for i in range(n)]
        assert at1 == want


# -- det ratios -------------------------------------------------------------------

def test_det_ratio_strand_mismatch():
    with pytest.raises(SizeMismatch):
        det_ratio(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_det_ratio_refuses_a_vanishing_denominator():
    # B L is s1^-1 s1, whose image is the identity: det(E - E) = 0
    with pytest.raises(ZeroDenominator,
                       match="^denominator determinant vanishes$"):
        det_ratio(BraidWord(2, (1,)), BraidWord(2, (-1,)))


def test_milnor_order_starts_at_1():
    with pytest.raises(IndexOutOfRange, match="order must be >= 1"):
        milnor(BraidWord(2, (1, 1)), 0)


def test_det_ratio_identity_degenerate():
    # reduced image of the trivial 2-braid is (1): det(E - 1) = 0
    ratio = det_ratio(BraidWord(2, ()), BraidWord(2, (1, 1)))
    assert ratio.is_zero


def test_det_ratio_s1_against_s1():
    # (1+t)/(1-t^2) = 1/(1-t)
    ratio = det_ratio(BraidWord(2, (1,)), BraidWord(2, (1,)))
    assert ratio == RatFunc(Laurent.one(),
                            Laurent.one() - Laurent.q(1))


def test_det_ratio_trefoil_vs_unknot():
    # det(E - beta(s1^3)) / det(E - beta(s1)) = (1+t^3)/(1+t) = 1 - t + t^2
    lhs = det_one_minus(burau(BraidWord(2, (1, 1, 1)), reduced=True))
    rhs = det_one_minus(burau(BraidWord(2, (1,)), reduced=True))
    ratio = RatFunc(lhs, rhs)
    assert ratio == RatFunc(Laurent({0: 1, 1: -1, 2: 1}), Laurent.one())


def test_formula_one_spot_check_with_units():
    # unknot closure (s1) vs trefoil closure (s1^3): the Burau-determinant
    # ratio with t = q^2 matches the catalogued Alexander-Conway ratio up
    # to a unit +-q^k
    ratio = det_ratio(BraidWord(2, (1,)), BraidWord(2, (1, 1)))
    sub = RatFunc(Laurent({2 * k: v for k, v in ratio.num.items()}),
                  Laurent({2 * k: v for k, v in ratio.den.items()}))
    catalog = RatFunc(t_poly_to_laurent(conway_torus2(1)),
                      t_poly_to_laurent(conway_torus2(3)))
    match = unit_match(sub, catalog)
    assert match is not None
    sign, power = match
    assert sign in (1, -1)


# -- Artin action -------------------------------------------------------------------

def test_artin_identity():
    assert artin_action(BraidWord(3, ())) == ((1,), (2,), (3,))


def test_artin_s1():
    assert artin_action(BraidWord(2, (1,))) == ((1, 2, -1), (1,))


def test_artin_s1_squared():
    got = artin_action(BraidWord(2, (1, 1)))
    assert got == ((1, 2, 1, -2, -1), (1, 2, -1))


def test_artin_action_matches_the_substitution_oracle():
    # the bottom meridians of the inverse word are the images that
    # substituting each letter into every image gives
    rng = random.Random(29)
    for _ in range(600):
        n = rng.randint(1, 6)
        w = rand_word(rng, n, rng.randint(0, 14) if n > 1 else 0)
        assert artin_action(w) == artin_by_substitution(w), w


def test_artin_inverse_composes_to_identity():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(2, 4)
        w = rand_word(rng, n, rng.randint(0, 5))
        back = artin_action(w * w.inverse())
        assert back == tuple((i + 1,) for i in range(n))


# -- longitudes ----------------------------------------------------------------------

def test_longitudes_identity_braid():
    assert longitudes(BraidWord(3, ())) == ((), (), ())


def test_longitudes_hopf():
    lon = longitudes(BraidWord(2, (1, 1)))
    assert lon[0] == (-1, 2)


def test_longitudes_double_twist_structure():
    lon = longitudes(BraidWord(2, (1, 1, 1, 1)))
    assert lon[0] == (-1, -1, 2, 1, 2, -1)
    # exponent sums: total linking with everything is zero
    for word, gen in zip(lon, (1, 2)):
        assert sum(1 if g > 0 else -1 for g in word) == 0


def test_longitudes_need_pure():
    with pytest.raises(NotPure):
        longitudes(BraidWord(2, (1,)))


# -- Magnus expansion -----------------------------------------------------------------

def test_magnus_generator():
    m = dict(magnus((1,), 2, 4).items())
    assert m.get((), 0) == 1 and m.get((1,), 0) == 1
    assert m.get((1, 1), 0) == 0


def test_magnus_inverse_cancels():
    m = magnus((1, -1), 2, 6)
    assert dict(m.items()).get((), 0) == 1
    assert all(c == 0 for w, c in m.items() if w)


def test_magnus_commutator():
    m = dict(magnus((1, 2, -1, -2), 2, 3).items())
    assert m.get((1, 2), 0) == 1
    assert m.get((2, 1), 0) == -1
    assert m.get((1,), 0) == 0 and m.get((2,), 0) == 0


def test_magnus_is_multiplicative():
    rng = random.Random(43)
    for _ in range(20):
        w1 = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 5)))
        w2 = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 5)))
        lhs = dict(magnus(w1 + w2, 2, 4).items())
        rhs = magnus_product(dict(magnus(w1, 2, 4).items()),
                             dict(magnus(w2, 2, 4).items()), 4)
        assert lhs == rhs


def test_magnus_matches_generator_product():
    rng = random.Random(67)
    letters = [1, 2, 3, 4, -1, -2, -3, -4]
    words = [(-2, -2, -2), (1, -2, -2, -2, 2), (-4, -4, 3, -4, -4, -4)]
    words += [tuple(rng.choice(letters) for _ in range(rng.randint(0, 9)))
              for _ in range(200)]
    for k, word in enumerate(words):
        order = k % 9
        assert dict(magnus(word, 4, order).items()) == magnus_by_letters(
            word, order)


def _log_packed(monkeypatch) -> list:
    """The words braid._packed is called on, in order."""
    built = []
    real = braid._packed

    def logged(word, *args):
        built.append(word)
        return real(word, *args)

    monkeypatch.setattr(braid, "_packed", logged)
    return built


@pytest.mark.parametrize("cap", [0, braid.MAX_MAGNUS_WORDS - 1],
                         ids=["dict", "packed"])
def test_each_magnus_route_matches_the_letter_oracle(monkeypatch, cap):
    # the packed route takes every word longer than the order whose words
    # up to the order number at most the cap; the dict route the others
    monkeypatch.setattr(braid, "MAX_PACKED_DIGITS", cap)
    packed = _log_packed(monkeypatch)
    rng = random.Random(36)
    for k in range(270):
        order = k % 9
        gens = rng.sample(range(1, 6), 1 + k // 9 % 5)
        # shorter words where the oracle's products grow large
        most = sum(len(gens) ** m for m in range(order + 1))
        length = rng.randint(0, order + 8 if most < 2000 else order + 2)
        word = tuple(rng.choice((1, -1)) * rng.choice(gens)
                     for _ in range(length))
        # the words up to the order over the generators the word uses
        size = sum(len({abs(g) for g in word}) ** m
                   for m in range(order + 1))
        before = len(packed)
        want = magnus_by_letters(word, order)
        assert dict(magnus(word, 5, order).items()) == want, (word, order)
        took = len(packed) > before
        assert took == (length > order and size <= cap), (word, order)
    assert len(packed) > 100 if cap else not packed


@pytest.mark.parametrize("cap", [0, braid.MAX_MAGNUS_WORDS - 1],
                         ids=["dict", "packed"])
def test_magnus_of_a_long_inverse_power_is_binomial(monkeypatch, cap):
    # (1 + u)^-2000 has the coefficients (-1)^m C(1999 + m, m), 88 bits
    # at m = 10, so the packed route reads digits wider than 64 bits
    monkeypatch.setattr(braid, "MAX_PACKED_DIGITS", cap)
    packed = _log_packed(monkeypatch)
    got = magnus((-1,) * 2000, 1, 10)
    assert got == {(1,) * m: (-1) ** m * comb(1999 + m, m)
                   for m in range(11)}
    assert len(packed) == (1 if cap else 0)


def _held(word, order: int) -> list[int]:
    """The words the dict route holds before each letter of word and
    after the last: the sizes of the expansions of the word's prefixes."""
    return [len(magnus_by_letters(word[:k], order))
            for k in range(len(word) + 1)]


def _visits(word, order: int) -> int:
    """The words the letters of word visit in its Magnus expansion on the
    dict route: the sum over the letters of the words held when each is
    read."""
    return sum(_held(word, order)[:-1])


def test_dict_route_matches_the_letter_oracle_and_counts_its_work(
        monkeypatch):
    # every letter of the dict route visits the words held before it,
    # which are the expansion of the prefix read so far
    monkeypatch.setattr(braid, "MAX_PACKED_DIGITS", 0)
    rng = random.Random(38)
    words = [(), (-1,) * 9, (-2,) * 4 + (1,), (1, -2) * 3, (-1, -2) * 3]
    for _ in range(120):
        gens = rng.sample(range(1, 5), rng.randint(1, 3))
        words.append(tuple(rng.choice((1, -1)) * rng.choice(gens)
                           for _ in range(rng.randint(0, 8))))
    for k, word in enumerate(words):
        for order in (k % 9, 8 - k % 9):
            got, work = braid._magnus(word, order, 5)
            assert got == magnus_by_letters(word, order), (word, order)
            assert work == 5 + _visits(word, order), (word, order)


def test_magnus_stops_one_word_past_the_word_cap(monkeypatch):
    lon = longitudes(BraidWord.parse("-s1 -s1 -s1 -s1 -s1 -s1", 2))[0]
    order = 12
    want = magnus(lon, 2, order)
    top = max(_held(lon, order))
    assert top == len(want) == 4407
    # on this longitude the words held while a letter is read never pass
    # the larger of the expansions before and after it, so the largest
    # prefix expansion is the least cap that admits the word
    monkeypatch.setattr(braid, "MAX_MAGNUS_WORDS", top)
    assert magnus(lon, 2, order) == want
    held = []

    def too_many():
        series = sys._getframe(1).f_locals["series"]
        held.append(sum(map(len, series)))
        raise DomainError("too many")

    monkeypatch.setattr(braid, "_too_many", too_many)
    for cap in (top - 1, top // 2, 100):
        monkeypatch.setattr(braid, "MAX_MAGNUS_WORDS", cap)
        with pytest.raises(DomainError):
            magnus(lon, 2, order)
        assert cap <= held[-1] <= cap + 1, cap


def test_magnus_refuses_one_word_past_the_work_bound(monkeypatch):
    lon = longitudes(BraidWord.parse("-s1 -s1 -s1 -s1 -s1 -s1", 2))[0]
    order = 12
    want = magnus(lon, 2, order)
    work = _visits(lon, order)
    monkeypatch.setattr(braid, "MAX_MAGNUS_WORK", work)
    assert magnus(lon, 2, order) == want
    monkeypatch.setattr(braid, "MAX_MAGNUS_WORK", work - 1)
    with pytest.raises(DomainError, match=f"more than {work - 1} words"):
        magnus(lon, 2, order)


def test_milnor_shares_the_work_bound_between_its_longitudes(monkeypatch):
    b = BraidWord.parse("s1 s1 s2 s2 -s1 -s1 -s2 -s2", 3)
    order = 5
    want = milnor(b, order)
    # longer than the order, the longitudes take the packed route unless
    # the dict route is forced
    monkeypatch.setattr(braid, "MAX_PACKED_DIGITS", 0)
    visits = [_visits(lon, order - 1) for lon in longitudes(b)]
    work = sum(visits)
    assert max(visits) < work - 1  # no longitude alone passes work - 1
    monkeypatch.setattr(braid, "MAX_MAGNUS_WORK", work)
    assert milnor(b, order) == want
    monkeypatch.setattr(braid, "MAX_MAGNUS_WORK", work - 1)
    with pytest.raises(DomainError, match="lower the order"):
        milnor(b, order)


def test_milnor_shares_the_packed_work_bound_between_its_longitudes(
        monkeypatch):
    b = BraidWord.parse("s1 s1 s2 s2 -s1 -s1 -s2 -s2", 3)
    order = 5
    lons = longitudes(b)
    assert [len(lon) for lon in lons] == [12, 34, 22]
    want = milnor(b, order)
    # each letter rebuilds degrees 1 .. order - 1 over the longitude's 3
    # generators, 3^m digits of 64 bits each
    per_letter = sum(-(-3 ** m * 64 // braid.PACKED_BITS_PER_VISIT)
                     for m in range(1, order))
    work = sum(len(lon) for lon in lons) * per_letter
    built = _log_packed(monkeypatch)
    monkeypatch.setattr(braid, "MAX_MAGNUS_WORK", work)
    assert milnor(b, order) == want
    assert built == list(lons)
    built.clear()
    monkeypatch.setattr(braid, "MAX_MAGNUS_WORK", work - 1)
    with pytest.raises(DomainError, match=f"visits more than {work - 1} "):
        milnor(b, order)
    # the last longitude is refused before its integers are built
    assert built == list(lons[:2])


@pytest.mark.parametrize("nvars", [1000, 32767])
def test_magnus_charges_the_packed_route_the_digits_it_rebuilds(
        monkeypatch, nvars):
    # about 10^6 letters over every generator at order 1: each letter
    # rebuilds degree 1, nvars digits, and the word is refused before
    # _packed runs (counted one digit a letter, the first once ran 2.3 s)
    word = tuple(range(1, nvars + 1)) * (10 ** 6 // nvars)
    built = _log_packed(monkeypatch)
    with pytest.raises(DomainError, match="lower the order"):
        magnus(word, nvars, 1)
    assert not built


def test_magnus_refuses_a_letter_that_is_no_generator():
    # letter 3 of two variables once gave the word (1, 0), and a word of
    # no variables once recursed without end
    for word, nvars in (((3,), 2), ((-3, 1), 2), ((1,), 0), ((-1,), 0)):
        with pytest.raises(DomainError, match="not a generator"):
            magnus(word, nvars, 2)


def test_magnus_refuses_a_negative_order():
    # truncated below degree 0 every series is empty: the empty word once
    # gave {(): 1} and every other word {}
    for word in ((), (1,), (-2, 1)):
        with pytest.raises(IndexOutOfRange, match="order must be >= 0"):
            magnus(word, 2, -1)


def test_magnus_refuses_letter_0_at_once():
    # letter 0 once stripped trailing 0-digits from the empty word forever,
    # so it runs in a child process that the timeout ends
    src = str(Path(braid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("from coxkit.braid import magnus\n"
            "from coxkit.errors import DomainError\n"
            "try:\n"
            "    magnus((0,), 2, 2)\n"
            "except DomainError:\n"
            "    raise SystemExit(3)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=30)
    assert proc.returncode == 3, proc.stderr.decode()


def test_magnus_respects_free_reduction():
    word = (1, 2, -2, -1, 1)
    assert magnus(word, 2, 5) == magnus(free_reduce(word), 2, 5)


# -- Milnor invariants -----------------------------------------------------------------

def test_milnor_trivial_link():
    table = milnor(BraidWord(3, ()), 5)
    assert not table.entries


def test_milnor_hopf_pattern_order_6():
    table = milnor(BraidWord(2, (1, 1)), 6)
    for r in range(1, 6):
        for seq in product((1, 2), repeat=r):
            if seq[-1] != 1:
                continue
            want = (-1) ** r if all(i == 1 for i in seq) else 0
            assert table.mu(*seq, 1) == want, (seq,)


def test_milnor_linking_number():
    assert milnor(BraidWord(2, (1, 1)), 2).mu(2, 1) == 1


def test_milnor_linking_exhaustive_b3():
    total = 0
    for length in range(0, 7):
        for word in product((1, -1, 2, -2), repeat=length):
            b = BraidWord(3, word)
            if not b.is_pure:
                continue
            total += 1
            lk = linking_matrix(b)
            table = milnor(b, 2)
            for i in range(1, 4):
                for j in range(1, 4):
                    if i == j:
                        continue
                    key = (min(i, j), max(i, j))
                    assert table.mu(j, i) == lk.get(key, 0), (word, i, j)
    assert total > 300


def test_milnor_borromean():
    borr = BraidWord(3, (1, -2, 1, -2, 1, -2))
    table = milnor(borr, 3)
    assert all(v == 0 for v in linking_matrix(borr).values())
    assert min(map(len, table.entries)) == 3
    triple = table.mu(2, 3, 1)
    assert abs(triple) == 1
    assert triple == table.mu(3, 1, 2) == table.mu(1, 2, 3)
    assert triple == -table.mu(3, 2, 1)


def test_milnor_depends_only_on_the_braid_element():
    # padded words, the braid relation, and far commutation all leave the
    # full table unchanged
    base = milnor(BraidWord(2, (1, 1)), 6).entries
    assert milnor(BraidWord(2, (1, -1, 1, 1)), 6).entries == base
    assert milnor(BraidWord(2, (-1, 1, 1, 1)), 6).entries == base
    w1 = BraidWord(3, (1, 2, 1, 1, 2, 1))
    w2 = BraidWord(3, (2, 1, 2, 2, 1, 2))
    assert milnor(w1, 4).entries == milnor(w2, 4).entries
    u1 = BraidWord(4, (1, 3, 1, 3))
    u2 = BraidWord(4, (3, 1, 3, 1))
    assert milnor(u1, 4).entries == milnor(u2, 4).entries


def test_milnor_nonpure_conjugation_relabels_components():
    borr = BraidWord(3, (1, -2, 1, -2, 1, -2))
    rot = BraidWord(3, (-2, 1, -2, 1, -2, 1))  # conjugate by s1
    tb, tr = milnor(borr, 3), milnor(rot, 3)
    perm = {1: 2, 2: 1, 3: 3}
    relabeled = {tuple(perm[i] for i in k): v
                 for k, v in tb.entries.items() if len(k) == 3}
    assert relabeled == {k: v for k, v in tr.entries.items() if len(k) == 3}


def test_milnor_first_order_conjugation_invariance():
    rng = random.Random(51)
    base_words = [BraidWord(3, (1, -2, 1, -2, 1, -2)),
                  BraidWord(3, (1, 1)), BraidWord(3, (2, 2, 1, 1))]
    pure_gens = [BraidWord(3, (1, 1)), BraidWord(3, (2, 2)),
                 BraidWord(3, (2, 1, 1, -2))]
    for base in base_words:
        t0 = milnor(base, 3)
        k0 = min(map(len, t0.entries), default=None)
        for _ in range(4):
            g = pure_gens[rng.randrange(len(pure_gens))]
            conj = g * base * g.inverse()
            t1 = milnor(conj, 3)
            assert min(map(len, t1.entries), default=None) == k0
            assert ({k: v for k, v in t1.entries.items() if len(k) == k0}
                    == {k: v for k, v in t0.entries.items() if len(k) == k0})


# -- catalog and series identity ----------------------------------------------------------

def test_conway_catalog_values():
    assert conway_torus2(0).is_zero
    assert conway_torus2(1) == Poly.one()
    assert conway_torus2(2) == Poly((0, -1))          # Hopf: -t
    assert conway_torus2(3) == Poly((1, 0, 1))        # trefoil: 1 + t^2
    assert conway_torus2(4) == Poly((0, -2, 0, -1))   # -(2t + t^3)
    assert conway_torus2(-2) == Poly((0, 1))


def test_conway_catalog_matches_the_seifert_determinant():
    # the bidiagonal Seifert matrix of the |k|-banded annulus, mirrored by
    # t -> -t for negative k
    for k in range(41):
        size = max(k - 1, 0)
        v = [[-1 if i == j else (1 if j == i + 1 else 0)
              for j in range(size)] for i in range(size)]
        want = conway_from_seifert(v) if k else Poly.zero()
        assert conway_torus2(k) == want, k
        assert conway_torus2(-k) == Poly(c if i % 2 == 0 else -c
                                         for i, c in enumerate(want.coeffs))


def test_conway_from_seifert_matrix_input():
    # figure-eight knot: Conway 1 - t^2
    v = [[1, 1], [0, -1]]
    assert conway_from_seifert(v) == Poly((1, 0, -1))
    # empty matrix: unknot
    assert conway_from_seifert([]) == Poly.one()


def test_catalog_hopf_matches_stated_value():
    # q^-1 - q as a Laurent polynomial
    assert t_poly_to_laurent(conway_torus2(2)) == Laurent({-1: 1, 1: -1})


def test_laurent_to_t_roundtrip():
    p = Poly((3, -1, 0, 2))
    assert laurent_to_t_poly(t_poly_to_laurent(p)) == p
    with pytest.raises(DomainError):
        laurent_to_t_poly(Laurent.q(1))


def test_levin_hopf_order_16():
    rep = levin_check(BraidWord(2, (1, 1)), 16)
    assert rep.holds and not rep.degenerate
    # lhs is exactly -u (1+u)^(-1/2)
    from coxkit.algebra import series_sqrt1p
    want = TruncSeries.u(16) * series_sqrt1p(16).inverse() * (-1)
    assert rep.lhs == want


def test_levin_t24_order_12():
    assert levin_check(BraidWord(2, (1, 1, 1, 1)), 12).holds


def test_levin_negative_and_higher():
    assert levin_check(BraidWord(2, (-1, -1)), 12).holds
    assert levin_check(BraidWord(2, (1,) * 6), 10).holds


def test_levin_identity_braid_degenerate():
    rep = levin_check(BraidWord(2, ()), 8)
    assert rep.holds and rep.degenerate


def test_levin_requires_two_pure_strands():
    with pytest.raises(NotPure):
        levin_check(BraidWord(2, (1,)), 8)
    with pytest.raises(DomainError):
        levin_check(BraidWord(3, (1, 1)), 8)


# -- levin_check without the Magnus expansion -----------------------------------

def _magnus_sums(word, nvars, order):
    """The oracle: expand the series and sum the coefficients of the words
    ending in u_1 by length."""
    sums = [0] * (order + 1)
    for w, c in magnus(word, nvars, order).items():
        if w and w[-1] == 1:
            sums[len(w)] += c
    return sums


def test_ending_in_1_matches_magnus_sums():
    rng = random.Random(83)
    checked = set()
    for nvars in (2, 3, 4):
        letters = [g for i in range(1, nvars + 1) for g in (i, -i)]
        for last in letters:
            for _ in range(4):
                body = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
                word = tuple(body) + (last,)
                order = rng.randint(0, 12)
                assert _ending_in_1(word, order) == \
                    _magnus_sums(word, nvars, order), (word, order)
                checked.add(last)
    assert checked == {g for i in range(1, 5) for g in (i, -i)}
    for order in range(13):
        assert _ending_in_1((), order) == [0] * (order + 1)
        assert _ending_in_1((-1,) * 3, order) == _magnus_sums((-1,) * 3, 2,
                                                              order)
    for b in (BraidWord(2, (1, 1)), BraidWord(2, (-1,) * 4),
              BraidWord(2, (1,) * 6)):
        lon = longitudes(b)[0]
        assert _ending_in_1(lon, 12) == _magnus_sums(lon, 2, 12)


def _digest(series):
    return hashlib.sha256(",".join(str(c) for c in series.coeffs)
                          .encode()).hexdigest()[:16]


# sha256 prefixes of ",".join(str(c) for c in lhs.coeffs) at the commit
# before levin_check dropped the Magnus expansion, where the rhs gave the
# same text.  At order 40 that commit ran out of memory (2 GB) on the rhs
# of s1^-6, s1^-8 and s1^-10; those three digests are of its lhs alone.
LEVIN_DIGESTS = {
    2: ("5feceb66ffc86f38", "c381e5db8b5efc47", "f0ae027c1d6fdb85",
        "f8980f4b52e16ed1"),
    4: ("5feceb66ffc86f38", "b3ea2fe7b8ed03c1", "4d6cd9046273c666",
        "4f902260084ecbcb"),
    6: ("5feceb66ffc86f38", "6139a1214e01d500", "46d0b90fc761b0a3",
        "1489dc9dbe9613c2"),
    8: ("5feceb66ffc86f38", "a3c43f4e5489b4c2", "98bbf6c5658efde8",
        "f64a6a5b4531e10a"),
    10: ("5feceb66ffc86f38", "b77c90bce240d5e7", "bf6b4f1f9ce7d621",
         "b72d9b1e4e06b31a"),
    -2: ("5feceb66ffc86f38", "83b97b859aa5f81b", "b9d43d090d37de68",
         "33e49a058ab7d725"),
    -4: ("5feceb66ffc86f38", "a7841ea775e1dff3", "99671fc4ea8949e7",
         "5c1952187334f679"),
    -6: ("5feceb66ffc86f38", "f338800d71eae1d6", "09d804a638694efe",
         "55a43f8ff9afd648"),
    -8: ("5feceb66ffc86f38", "d20465aa92ad20bd", "343d62b8a93fa8bf",
         "0a892183a1e6e60d"),
    -10: ("5feceb66ffc86f38", "f6f0bae4d13cc5d8", "acb58bbec9760aae",
          "65fc19791ca86651"),
}


@pytest.mark.parametrize("twists", sorted(LEVIN_DIGESTS))
def test_levin_series_match_the_magnus_values(twists):
    sign = 1 if twists > 0 else -1
    b = BraidWord(2, (sign,) * abs(twists))
    for order, want in zip((0, 1, 12, 40), LEVIN_DIGESTS[twists]):
        rep = levin_check(b, order)
        assert rep.holds and not rep.degenerate
        assert _digest(rep.lhs) == _digest(rep.rhs) == want, order


# -- size caps ------------------------------------------------------------------

def test_braid_word_rejects_more_strands_than_the_cap():
    assert BraidWord(braid.MAX_STRANDS).strands == braid.MAX_STRANDS
    for strands in (0, braid.MAX_STRANDS + 1, 10 ** 6):
        with pytest.raises(DomainError, match=str(braid.MAX_STRANDS)):
            BraidWord(strands)
    with pytest.raises(DomainError):
        BraidWord.parse("s999999")


class _PastTheCap(Exception):
    pass


@pytest.mark.parametrize("strands,letters", [(2, 2000), (7, 400), (12, 130)])
def test_burau_cap_admits_the_long_words_in_use(monkeypatch, strands,
                                                letters):
    # the frame is built right after the size check, so stopping there
    # shows the check passed without building the image
    def stop(bound):
        raise _PastTheCap

    monkeypatch.setattr(braid, "Frame", stop)
    word = BraidWord(strands,
                     tuple(1 + k % (strands - 1) for k in range(letters)))
    for reduced in (False, True):
        with pytest.raises(_PastTheCap):
            burau(word, reduced)


def test_burau_differences_pack_a_product_in_three_to_its_letters(
        monkeypatch):
    # every coefficient of B(w1) B(w2) is at most 3^L1 3^L2, so the images
    # of a product pack in Frame(3^(L1 + L2)): 104 bits for two words of 30
    # letters, where either alone takes 64; a relation of two 3-letter
    # words packs in Frame(3^3)
    bounds = []

    class LoggedFrame(Frame):
        __slots__ = ()

        def __init__(self, bound):
            super().__init__(bound)
            bounds.append(bound)

    monkeypatch.setattr(braid, "Frame", LoggedFrame)
    for n, l1, l2 in [(3, 30, 30), (4, 5, 41), (2, 0, 42), (3, 17, 0)]:
        w1, w2 = (BraidWord(n, tuple((-1) ** k * (1 + k % (n - 1))
                                     for k in range(length)))
                  for length in (l1, l2))
        for red in (False, True):
            for factors in ((w1, w2), (w2, w1)):
                bounds.clear()
                holds = not braid.burau_differences(w1 * w2, factors, red)
                assert bounds == [3 ** (l1 + l2)]
                assert holds or factors == (w2, w1)
    assert Frame(3 ** 60).width == 104 and Frame(3 ** 30).width == 64
    s1, s2 = BraidWord(3, (1,)), BraidWord(3, (2,))
    bounds.clear()
    assert not braid.burau_differences(s1 * s2 * s1, (s2 * s1 * s2,), True)
    assert bounds == [27]
    # the pinned CI image of (s1 s2^-1)^21 packs in 72 bits
    assert Frame(3 ** 42).width == 72
    # each word of 1500 letters on 2 strands is admitted alone, but not a
    # product of the two, of 3000
    word = BraidWord(2, (1,) * 1500)
    assert braid._burau_frame(word, False, 1500).width > 64
    with pytest.raises(DomainError, match=str(braid.MAX_BURAU_BITS)):
        braid.burau_differences(word, (word, word), False)


def test_burau_rejects_an_image_above_the_bit_cap():
    # each a little past the cap of about 1.6 size^2 L^2 bits
    for strands, letters, reduced in [(2, 2300, False), (12, 400, False),
                                      (40, 130, True), (1000, 5, False)]:
        word = BraidWord(strands, (1,) * letters)
        with pytest.raises(DomainError, match=str(braid.MAX_BURAU_BITS)):
            burau(word, reduced)
