"""Exact-arithmetic kernel tests."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd
from operator import add, mul, sub
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import algebra
from coxkit.algebra import (BiLaurent, Frame, Laurent, Poly, RatFunc,
                            TruncSeries, _bareiss, _det_laplace, _list_add,
                            _list_sub, _pseudo_rem, _unsubstitute, bezoutian,
                            det_exact, det_poly, mat_mul, q_to_z,
                            series_sqrt1p, wronskian, z_substitute)
from coxkit.braid import (BraidWord, burau, det_one_minus, laurent_to_t_poly,
                          t_poly_to_laurent)
from coxkit.coxeter import coxeter_matrix
from coxkit.diagram import Diagram
from coxkit.errors import (DomainError, ExactDivisionError, IndexOutOfRange,
                           NotSymmetric, SizeMismatch, ZeroDenominator)
from oracles import (det_poly_by_bareiss, pack_by_horner,
                     unsubstitute_by_pascal, wronskian_by_derivatives)

laurents = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9),
                           max_size=5).map(Laurent)
polys = st.lists(st.integers(-9, 9), max_size=6).map(Poly)


def _by_powers(a, b, sign: int) -> tuple[int, ...]:
    """a + sign*b through a map power -> coefficient, trimmed."""
    acc: dict[int, int] = {}
    for k, c in [*enumerate(a), *((k, sign * c) for k, c in enumerate(b))]:
        acc[k] = acc.get(k, 0) + c
    top = max((k for k, c in acc.items() if c), default=-1)
    return tuple(acc[k] for k in range(top + 1))


coeff_tuples = st.lists(st.integers(-3, 3), max_size=7).map(tuple)


@given(coeff_tuples, coeff_tuples)
def test_list_sums_match_a_map_of_powers(a, b):
    assert _list_add(a, b) == _by_powers(a, b, 1) == _list_add(b, a)
    assert _list_sub(a, b) == _by_powers(a, b, -1)


def test_list_sums_at_the_edges():
    assert _list_add((), ()) == _list_sub((), ()) == ()
    assert _list_add((), (1, -2)) == (1, -2)
    assert _list_sub((), (1, -2)) == (-1, 2)
    assert _list_sub((5,), (1, 0, 4)) == (4, 0, -4)
    assert _list_sub((1, 0, 4), (5,)) == (-4, 0, 4)
    assert _list_add((1, 2, 3), (-1, -2, -3)) == ()
    assert _list_sub((1, 2, 3), (0, 2, 3)) == (1,)
    assert _list_add((1, 0, 3), (2, 0, -3)) == (3,)


@given(polys, polys)
def test_poly_difference_is_the_sum_with_the_negation(a, b):
    assert a - b == a + (-b)
    assert a * 1 is a and 1 * a is a
    assert -(-a) == a and (a - a).is_zero


# -- conversions ------------------------------------------------------------

def test_z_substitute_degree_one():
    assert z_substitute(Poly.x()) == Laurent.z()


def test_z_substitute_quadratic():
    # (q + 1/q)^2 - 1 expanded by hand: q^2 + 1 + q^-2
    assert z_substitute(Poly((-1, 0, 1))) == Laurent({2: 1, 0: 1, -2: 1})


def test_z_substitute_constant():
    assert z_substitute(Poly.one()) == Laurent.one()


def test_q_to_z_simple():
    assert q_to_z(Laurent.z()) == Poly.x()


def test_q_to_z_roundtrip_example():
    assert q_to_z(Laurent({2: 1, 0: 1, -2: 1})) == Poly((-1, 0, 1))


def test_q_to_z_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        q_to_z(Laurent.q(1))


@settings(max_examples=80, deadline=None)
@given(polys)
def test_q_to_z_roundtrip(p):
    assert q_to_z(z_substitute(p)) == p


def _substitution_cases() -> list[Poly]:
    rng = random.Random(71)
    fixed = [Poly.zero(), Poly.one(), Poly.const(-7), Poly.x(),
             Poly([(-1) ** k * (k + 1) for k in range(49)]),
             Poly([0] * 48 + [1])]
    return fixed + [Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 20))])
                    for _ in range(12)]


def test_substitutions_match_sympy():
    sympy = pytest.importorskip("sympy")
    q, z = sympy.symbols("q z")
    for p in _substitution_cases():
        for sign, forward, back in ((1, z_substitute, q_to_z),
                                    (-1, t_poly_to_laurent,
                                     laurent_to_t_poly)):
            expr = sympy.Poly(list(reversed(p.coeffs)) or [0], z).as_expr()
            terms = sympy.Add.make_args(sympy.expand(expr.subs(z, q + sign / q)))
            want = Laurent((int(e), int(c)) for c, e in
                           (t.as_coeff_exponent(q) for t in terms))
            assert forward(p) == want, (p, sign)
            assert back(want) == p, (p, sign)


def test_unsubstitution_keeps_its_errors():
    with pytest.raises(NotSymmetric, match="not invariant under q -> 1/q"):
        q_to_z(Laurent({2: 1, -2: 2}))
    for bad in (Laurent.q(2), Laurent.q(-1), Laurent({1: 1, -1: 1}),
                Laurent({3: 1, 1: -3, -1: 3, -3: 1})):
        with pytest.raises(DomainError, match="not a polynomial in q - 1/q"):
            laurent_to_t_poly(bad)
    assert laurent_to_t_poly(Laurent({3: 1, 1: -3, -1: 3, -3: -1})) == \
        Poly.x() ** 3


def test_negative_powers_are_refused():
    for base in (Laurent.q(), Laurent({1: 2, -1: 1}), Poly.x(), Poly.one()):
        with pytest.raises(IndexOutOfRange, match="exponent must be >= 0"):
            base ** -1
        with pytest.raises(IndexOutOfRange):
            base ** -2
    assert Laurent.q() ** 0 == Laurent.one() and Poly.x() ** 0 == Poly.one()
    assert Laurent.q(-1) ** 3 == Laurent.q(-3)


def test_negative_shifts_and_monomials_are_refused():
    # x.shift(-1) once gave 1 and monomial(3, -1) gave 3
    for make in (lambda: Poly.x().shift(-1), lambda: Poly.one().shift(-2),
                 lambda: Poly.zero().shift(-1), lambda: Poly.monomial(3, -1),
                 lambda: Poly.monomial(0, -1)):
        with pytest.raises(IndexOutOfRange, match="exponent must be >= 0"):
            make()
    assert Poly.x().shift(0) == Poly.x() and Poly.x().shift(2) == Poly.x() ** 3
    assert Poly.monomial(3, 0) == Poly.const(3)
    assert Poly.monomial(-2, 3) == Poly((0, 0, 0, -2))
    assert Poly.monomial(0, 4) == Poly.zero()


def test_unsubstitution_matches_the_pascal_oracle():
    """q_to_z and laurent_to_t_poly against the backward Pascal walk, on
    seeded images of both signs of degree up to 60.  Each image with one
    coefficient changed is no image: the public routine, the oracle and
    _unsubstitute itself all raise DomainError (q_to_z as NotSymmetric)."""
    rng = random.Random(31)
    degrees = set()
    for _ in range(400):
        sign = rng.choice((1, -1))
        f = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 61))])
        degrees.add(f.degree)
        forward, back = ((z_substitute, q_to_z) if sign > 0
                         else (t_poly_to_laurent, laurent_to_t_poly))
        image = forward(f)
        assert back(image) == unsubstitute_by_pascal(image, sign) == f
        e = rng.choice([k for k in range(-f.degree - 2, f.degree + 3) if k])
        bad = image + Laurent({e: rng.choice((-2, -1, 1, 3))})
        for unsub in (back, lambda p: unsubstitute_by_pascal(p, sign),
                      lambda p: _unsubstitute(p, sign)):
            with pytest.raises(DomainError):
                unsub(bad)
    assert max(degrees) == 60 and -1 in degrees


# -- ring axioms ------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == Laurent.zero()


def test_laurent_derivative_negative_exponent():
    # d/dq q^-2 = -2 q^-3, read off the Wronskian W(q^-2, 1) = (q^-2)'
    for w in (wronskian_by_derivatives, wronskian):
        assert w(Laurent.q(-2), Laurent.one()) == Laurent({-3: -2})


# -- determinants -----------------------------------------------------------

def test_det_1x1():
    assert det_exact([[Laurent.z()]]) == Laurent.z()


def test_det_2x2_cofactor_oracle():
    # [[z, -q], [-1/q, z]]: cofactor expansion z^2 - 1 = q^2 + 1 + q^-2
    m = [[Laurent.z(), Laurent.term(-1, 1)],
         [Laurent.term(-1, -1), Laurent.z()]]
    assert det_exact(m) == Laurent({2: 1, 0: 1, -2: 1})


def test_det_empty():
    assert det_exact([]) == Laurent.one()


def test_det_refuses_a_matrix_that_is_not_square():
    for m in ([[Laurent.one(), Laurent.z()]], [[Laurent.one()], []]):
        with pytest.raises(SizeMismatch, match="matrix is not square"):
            det_exact(m)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(laurents, min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_det_matches_laplace_4x4(rows):
    assert det_exact(rows) == _det_laplace(rows)


def test_det_matches_laplace_7x7():
    n = 7
    m = [[Laurent.term((i * j) % 3 - 1, (i - j) % 3 - 1) if i != j
          else Laurent.z() for j in range(n)] for i in range(n)]
    assert det_exact(m) == _det_laplace(m)


def test_det_packs_exponent_strides():
    # rows in q^2, q^3 and a mix of both, constant matrices, zero rows and
    # the empty matrix: each against the cofactor expansion
    rng = random.Random(71)

    def entry(strides):
        if rng.random() < 0.3:
            return Laurent()
        return Laurent({rng.choice(strides) * rng.randint(-2, 2):
                        rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})

    for strides in ((2,), (3,), (2, 3), (0,)):
        for n in range(6):
            for _ in range(4):
                m = [[entry(strides) for _ in range(n)] for _ in range(n)]
                assert det_exact(m) == _det_laplace(m), m
                if n:
                    m[rng.randrange(n)] = [Laurent()] * n
                    assert det_exact(m) == Laurent.zero()
    # lifted exponents all even: det(q^2 E) in dimension 3 is q^6
    assert det_exact([[Laurent.q(2) if i == j else Laurent()
                       for j in range(3)] for i in range(3)]) == Laurent.q(6)
    assert det_exact([]) == _det_laplace([]) == Laurent.one()


def _det_cases(rng):
    """Seeded Poly matrices with their kind: n = 0 and 1, dense entries of
    mixed degrees and negative leading coefficients, a zero row, a zero
    determinant with no zero row, and a row permutation of an upper
    triangular U whose adjacent swaps force Bareiss to swap rows at those
    pivots (given with det U and the swap count)."""
    def entry(top=4):
        if rng.random() < 0.2:
            return Poly.zero()
        return Poly(rng.randint(-9, 9) for _ in range(rng.randint(1, top)))

    yield "empty", [], None
    for _ in range(5):
        yield "1x1", [[entry()]], None
    for n in range(2, 8):
        for _ in range(6):
            m = [[entry() for _ in range(n)] for _ in range(n)]
            yield "dense", m, None
            m = [row[:] for row in m]
            m[rng.randrange(n)] = [Poly.zero()] * n
            yield "zero row", m, None
            m = [[entry() or Poly.one() for _ in range(n)] for _ in range(n - 1)]
            a, b = rng.sample(range(n - 1), 2) if n > 2 else (0, 0)
            c = rng.choice((-2, 1, 3))
            m.insert(rng.randrange(n), [x * c + y for x, y in zip(m[a], m[b])])
            yield "dependent rows", m, None
            diag = [Poly((rng.choice((-3, -1, 1, 2)),)) * (entry(3) or Poly.x())
                    for _ in range(n)]
            u = [[diag[i] if i == j else entry() if j > i else Poly.zero()
                  for j in range(n)] for i in range(n)]
            # disjoint adjacent swaps, so each one is met at its own pivot
            swaps, k = 0, 0
            while k < n - 1:
                if rng.random() < 0.6:
                    u[k], u[k + 1] = u[k + 1], u[k]
                    swaps += 1
                    k += 1
                k += 1
            total = Poly.one()
            for x in diag:
                total = total * x
            yield "swaps", u, (total, swaps)


def test_det_poly_matches_the_polynomial_bareiss():
    seen = Counter()
    swapped_at = set()
    for kind, m, known in _det_cases(random.Random(53)):
        got = det_poly(m)
        assert got == det_poly_by_bareiss(m), (kind, m)
        seen[kind] += 1
        if kind == "dependent rows":
            assert got.is_zero
            assert all(any(row) for row in m)
        if known:
            total, count = known
            assert got == (-total if count % 2 else total), m
            swapped_at.add(count)
        if got:
            seen["negative lead"] += got.lead < 0
            seen["mixed degrees"] += len({e.degree for row in m for e in row
                                          if e}) > 1
    assert det_poly([]) == Poly.one() and seen.pop("empty") == 1
    assert min(seen.values()) >= 5, seen
    assert {1, 2, 3} <= swapped_at


def test_det_exact_matches_laplace_on_the_poly_cases():
    # the same cases as Laurent rows, each shifted by its own power of q
    # and written in q^g for g in 1..3, n <= 6 for the cofactor expansion
    rng = random.Random(59)
    count = 0
    for kind, m, _ in _det_cases(rng):
        if len(m) > 6:
            continue
        g = rng.randint(1, 3)
        rows = []
        for row in m:
            shift = rng.randint(-4, 4)
            rows.append([Laurent({g * k + shift: c
                                  for k, c in enumerate(e.coeffs) if c})
                         for e in row])
        assert det_exact(rows) == _det_laplace(rows), (kind, rows)
        count += 1
    assert count > 100


def _e_minus(img) -> list[list[Laurent]]:
    """E - beta of a Burau image, the matrix of det_one_minus."""
    return [[(Laurent.one() if i == j else Laurent.zero()) - e
             for j, e in enumerate(row)] for i, row in enumerate(img.entries)]


def _row_stride(m) -> int:
    """The gcd of the exponents of each row less the row's lowest."""
    lows = [min((k for e in row for k in e._c), default=0) for row in m]
    return gcd(*[k - low for row, low in zip(m, lows) for e in row
                 for k in e._c])


def test_det_exact_matches_laplace_on_burau_and_coxeter_matrices():
    # E - beta of reduced Burau images: Laurent rows of stride 1 with
    # negative exponents; Coxeter matrices qS + q^-1 S^t and their minors:
    # rows in q^-1 and q, stride 2
    rng = random.Random(97)
    strides = Counter()
    for _ in range(40):
        strands = rng.randint(2, 6)
        word = BraidWord(strands, [rng.choice((1, -1)) * rng.randint(
            1, strands - 1) for _ in range(rng.randint(1, 12))])
        img = burau(word, True)
        m = _e_minus(img)
        assert det_exact(m) == _det_laplace(m) == det_one_minus(img), word
        strides["burau", _row_stride(m)] += 1
        strides["negative"] += any(k < 0 for row in m for e in row
                                   for k in e._c)
    for _ in range(40):
        n = rng.randint(1, 6)
        d = Diagram(n, {(i, j): rng.choice((-1, 1, 2, 3))
                        for i in range(n) for j in range(i + 1, n)
                        if rng.random() < 0.6})
        m = coxeter_matrix(d.with_order(rng.sample(range(n), n)))
        r, c = rng.randrange(n), rng.randrange(n)
        minor = [[x for t, x in enumerate(row) if t != c]
                 for p, row in enumerate(m) if p != r]
        for a in (m, minor):
            assert det_exact(a) == _det_laplace(a), d
            strides["coxeter", _row_stride(a)] += 1
    assert strides["burau", 1] >= 30 and strides["negative"] >= 20, strides
    assert strides["coxeter", 2] >= 60, strides


def test_det_exact_builds_no_poly(monkeypatch):
    # det_exact packs each Laurent row's terms straight into the frame: it
    # enters neither det_poly nor Poly.__init__
    d = Diagram(5, {(i, j): 1 + (i + j) % 2
                    for i in range(5) for j in range(i + 1, 5)})
    mats = [coxeter_matrix(d),
            _e_minus(burau(BraidWord(4, (1, -2, 3, 1, -2)), True)), []]
    wants = [_det_laplace(m) for m in mats]
    calls = []
    real_init = Poly.__init__

    def logged_init(self, coeffs=()):
        calls.append("Poly")
        real_init(self, coeffs)

    monkeypatch.setattr(Poly, "__init__", logged_init)
    monkeypatch.setattr(algebra, "det_poly",
                        lambda mat: calls.append("det_poly"))
    assert Poly.x() and calls == ["Poly"]
    calls.clear()
    assert [det_exact(m) for m in mats] == wants
    assert calls == []


def test_det_poly_frame_holds_a_coefficient_equal_to_the_bound():
    # det diag(2^44 x, 2^43 + 1) = (2^87 + 2^44) x: its coefficient equals
    # the product of the rows' l1 norms and has 88 bits, so it needs the
    # 96-bit frame that bound gives; half the bound gives an 88-bit frame,
    # which reads the digit as negative
    a, b = 2 ** 44, 2 ** 43 + 1
    m = [[Poly((0, a)), Poly.zero()], [Poly.zero(), Poly((b,))]]
    want = Poly((0, a * b))
    assert a * b == 2 ** 87 + 2 ** 44 and (a * b).bit_length() == 88
    assert det_poly(m) == det_poly_by_bareiss(m) == want
    assert det_poly([[Poly((b,))]]) == Poly((b,))
    assert Frame(a * b).width == 96
    narrow = Frame(a * b >> 1)
    assert narrow.width == 88
    x = narrow.pack(enumerate(want.coeffs))
    assert Poly(narrow.digits(x, 3)) != want


def test_det_poly_refuses_a_matrix_that_is_not_square():
    one, z = Poly.one(), Poly.x()
    for m in ([[one, z, one], [z, one, z]], [[one, z]], [[one, z], [one]],
              [[one], []]):
        with pytest.raises(SizeMismatch, match="matrix is not square"):
            det_poly(m)
        with pytest.raises(SizeMismatch, match="matrix is not square"):
            _bareiss([[e.eval_int(2) for e in row] for row in m])


def test_integer_bareiss_matches_laplace():
    rng = random.Random(61)
    for n in range(7):
        for _ in range(10):
            m = [[rng.choice((0, 0, rng.randint(-10 ** 12, 10 ** 12)))
                  for _ in range(n)] for _ in range(n)]
            want = dict(_det_laplace([[Laurent.const(x) for x in row]
                                      for row in m]).items()).get(0, 0)
            assert _bareiss(m) == want, m
    assert _bareiss([]) == 1 and _bareiss([[0, 1], [1, 0]]) == -1


def _triple_loop(a, b, zero):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


def test_mat_mul_over_every_ring():
    rng = random.Random(11)

    def small():  # mostly zero, so the zero skips run
        return rng.choice([0, 0, rng.randint(-5, 5)])

    def poly():
        return Poly([small() for _ in range(rng.randint(0, 3))])

    def laurent():
        return Laurent({rng.randint(-3, 3): small()
                        for _ in range(rng.randint(0, 3))})

    for make_a, make_b, zero in [(small, small, 0),
                                 (poly, poly, Poly.zero()),
                                 (laurent, laurent, Laurent.zero()),
                                 (small, poly, Poly.zero())]:
        for _ in range(20):
            n, m, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = [[make_a() for _ in range(m)] for _ in range(n)]
            b = [[make_b() for _ in range(p)] for _ in range(m)]
            assert mat_mul(a, b) == _triple_loop(a, b, zero)


def test_mat_mul_refuses_shapes_that_do_not_match():
    q = Laurent.q
    for a, b in (([[1, 2, 3]], [[1], [2]]), ([[1]], [[1], [2]]),
                 ([[1, 1]], [[1, 5], [2]]), ([[1, 1], [1]], [[1], [2]]),
                 ([[1]], []),
                 ([[q(1), q(2), q(3)]], [[q(1)], [q(2)]]),
                 ([[q(1)]], [[q(1)], [q(2)]]),
                 ([[q(1), q(1)]], [[q(1), q(5)], [q(2)]]),
                 ([[Poly((1,)), 2]], [[Poly((1,))]])):
        with pytest.raises(SizeMismatch, match="matrix shapes do not match"):
            mat_mul(a, b)
    # an empty b leaves the column count unknown
    assert mat_mul([[]], []) == [[]]
    assert mat_mul([[], []], []) == [[], []]
    assert mat_mul([], []) == []


def test_laurent_product_stores_no_zero_coefficient():
    # q q^-1 + 1 (-1) cancels to the zero entry, and (q + 1) q - q q to q
    one, q = Laurent.one(), Laurent.q
    [[zero]] = mat_mul([[q(1), one]], [[q(-1)], [-one]])
    assert zero._c == {} and zero == Laurent.zero()
    assert hash(zero) == hash(Laurent.zero())
    [[rest]] = mat_mul([[Laurent({0: 1, 1: 1}), q(1)]], [[q(1)], [-q(1)]])
    assert rest._c == {1: 1}


def test_laurent_product_matches_the_triple_loop():
    # zero rows and columns, shapes that are not square, negative
    # exponents, and terms chosen so that entries often cancel
    rng = random.Random(53)

    def laurent():
        if rng.random() < 0.4:
            return Laurent()
        return Laurent({rng.randint(-3, 2): rng.choice([-1, 1, 2])
                        for _ in range(rng.randint(1, 3))})

    zeros = 0
    for _ in range(300):
        n, m, p = rng.randint(0, 4), rng.randint(1, 4), rng.randint(0, 4)
        a = [[laurent() for _ in range(m)] for _ in range(n)]
        b = [[laurent() for _ in range(p)] for _ in range(m)]
        if n and rng.random() < 0.3:
            a[rng.randrange(n)] = [Laurent()] * m
        if p and rng.random() < 0.3:
            j = rng.randrange(p)
            for row in b:
                row[j] = Laurent()
        got = mat_mul(a, b)
        assert got == _triple_loop(a, b, Laurent.zero())
        for row in got:
            for x in row:
                assert type(x) is Laurent and all(x._c.values())
                zeros += x.is_zero
    assert zeros > 100


def test_mat_mul_without_two_laurent_matrices_is_unchanged():
    # int times Laurent, Laurent times int, a Laurent matrix holding an int
    # zero, and int and Poly matrices: each against the triple loop, in
    # value and in the type of every entry
    q, one = Laurent.q, Laurent.one()
    cases = [([[2, 0], [1, -1]], [[q(1), one], [Laurent(), q(-2)]],
              Laurent.zero()),
             ([[q(1), one], [Laurent(), q(-2)]], [[2, 0], [1, -1]],
              Laurent.zero()),
             ([[q(1), 0]], [[one], [q(3)]], Laurent.zero()),
             ([[1, 2], [3, 4]], [[0, 1], [1, 0]], 0),
             ([[Poly((1, 1)), Poly()]], [[Poly((0, 2))], [Poly((5,))]],
              Poly.zero()),
             ([[3, 0]], [[Poly((1, 1))], [Poly((2,))]], Poly.zero())]
    for a, b, zero in cases:
        got, want = mat_mul(a, b), _triple_loop(a, b, zero)
        assert got == want
        assert [list(map(type, row)) for row in got] == \
            [list(map(type, row)) for row in want]


def test_exact_division_raises_on_remainder():
    with pytest.raises(ExactDivisionError):
        Poly((1, 1)).exact_div(Poly((0, 1)))
    # a zero dividend gives zero, and a zero divisor still raises
    assert Laurent.zero().exact_div(Laurent.z()) == Laurent.zero()
    for zero, one in ((Poly.zero(), Poly.one()),
                      (Laurent.zero(), Laurent.one())):
        for dividend in (zero, one):
            with pytest.raises(ExactDivisionError):
                dividend.exact_div(zero)


def test_shift_multiplies_by_a_power_of_x():
    for k in range(4):
        assert Poly.zero().shift(k) == Poly.zero()
        assert Poly((2, -1)).shift(k) == Poly.monomial(1, k) * Poly((2, -1))


# -- bezoutian and wronskian ------------------------------------------------

def test_bezoutian_z_one():
    # (f(x) - f(y)) / (x - y) for f = q + 1/q: 1 - 1/(xy)
    assert bezoutian(Laurent.z(), Laurent.one()) == \
        BiLaurent({(0, 0): 1, (-1, -1): -1})


def test_bezoutian_diagonal_zero():
    f = Laurent({3: 2, -1: 5})
    assert bezoutian(f, f).is_zero
    assert bezoutian(Laurent.one(), Laurent.one()).is_zero


def test_wronskian_z_one():
    assert wronskian(Laurent.z(), Laurent.one()) == Laurent({0: 1, -2: -1})


def test_wronskian_examples():
    f = Laurent({1: 7, -2: 3})
    assert wronskian(f, f).is_zero
    assert wronskian(Laurent.one(), Laurent.q(1)) == Laurent({0: -1})


def test_wronskian_matches_the_oracle():
    # negative exponents, terms of one exponent in f and g (whose pair adds
    # nothing), zero operands and f = g (the empty map)
    rng = random.Random(29)

    def laurent():
        if rng.random() < 0.1:
            return Laurent()
        return Laurent({rng.randint(-4, 4): rng.randint(-5, 5)
                        for _ in range(rng.randint(1, 5))})

    seen = Counter()
    for _ in range(600):
        f = laurent()
        g = f if rng.random() < 0.1 else laurent()
        got = wronskian(f, g)
        assert got == wronskian_by_derivatives(f, g), (f, g)
        assert all(got._c.values())
        seen["zero"] += f.is_zero or g.is_zero
        seen["same"] += f is g
        seen["shared"] += bool(set(f._c) & set(g._c)) and f is not g
        seen["negative"] += any(k < 0 for k in (*f._c, *g._c))
        if f is g:
            assert got._c == {}
    assert min(seen.values()) >= 30, seen


@settings(max_examples=100, deadline=None)
@given(laurents, laurents)
def test_antisymmetry(f, g):
    assert bezoutian(f, g) == -bezoutian(g, f)
    assert wronskian(f, g) == -wronskian(g, f)


@settings(max_examples=100, deadline=None)
@given(laurents, laurents)
def test_bezoutian_diagonal_is_wronskian(f, g):
    assert bezoutian(f, g).subs_y_eq_x() == wronskian(f, g)


@settings(max_examples=50, deadline=None)
@given(laurents, laurents)
def test_bezoutian_defining_property(f, g):
    # (x - y) * B, term by term through the pair constructor
    b = bezoutian(f, g).items()
    lhs = BiLaurent([((i + 1, j), v) for (i, j), v in b] +
                    [((i, j + 1), -v) for (i, j), v in b])
    rhs = BiLaurent.outer(f, g) - BiLaurent.outer(g, f)
    assert lhs == rhs


def test_bezoutian_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def expr(d, var):
        return sum((v * var ** k for k, v in d.items()), sympy.Integer(0))

    # zero, constants, f = g and negative exponents, then seeded pairs
    pairs = [({}, {}), ({}, {2: 3, -1: 1}), ({0: 5}, {0: -2}),
             ({0: 1}, {-3: 2, 1: 1}), ({-2: 1, 3: -4}, {-2: 1, 3: -4})]
    rng = random.Random(6)
    for _ in range(20):
        pairs.append(tuple({rng.randint(-5, 5): rng.randint(-9, 9)
                            for _ in range(rng.randint(0, 5))}
                           for _ in range(2)))
    for f, g in pairs:
        want = sympy.cancel((expr(f, x) * expr(g, y) - expr(f, y) * expr(g, x))
                            / (x - y))
        got = sum((v * x ** i * y ** j
                   for (i, j), v in bezoutian(Laurent(f), Laurent(g)).items()),
                  sympy.Integer(0))
        assert sympy.cancel(got - want) == 0, (f, g)


def test_bilaurent_shifted_multiplies_by_xy_power():
    b = BiLaurent({(0, 0): 1, (2, -1): -3})
    assert b.shifted(-1) == BiLaurent({(-1, -1): 1, (1, -2): -3})
    assert b.shifted(2).shifted(-2) == b
    assert b.shifted(1).subs_y_eq_x() == b.subs_y_eq_x().shifted(2)
    assert BiLaurent().shifted(5).is_zero


def test_laurent_and_bilaurent_never_compare_equal():
    assert Laurent() != BiLaurent()
    assert BiLaurent() != Laurent()
    assert Laurent({0: 1}) != BiLaurent({(0, 0): 1})
    assert Laurent() == Laurent.zero() and BiLaurent() == BiLaurent.zero()


def test_sparse_sums_refuse_the_other_kind():
    one, bi = Laurent({0: 1}), BiLaurent({(0, 0): 1})
    for left, right in ((one, bi), (bi, one)):
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right
    with pytest.raises(TypeError):
        one + 1
    assert one + one == Laurent({0: 2}) and (bi - bi).is_zero


def test_poly_refuses_the_other_ring():
    p = Poly((1, 2))
    for left, right in ((p, Laurent({0: 1})), (Laurent({0: 1}), p),
                        (p, Laurent({1: 1})), (Laurent({1: 1}), p)):
        for op in (add, sub, mul):
            with pytest.raises(TypeError):
                op(left, right)
    for op in (add, sub):
        with pytest.raises(TypeError):
            op(p, 3)
        with pytest.raises(TypeError):
            op(3, p)
    for method in (Poly.gcd, Poly.exact_div):
        with pytest.raises(TypeError):
            method(Poly((2, 4)), Laurent({0: 2}))
    assert p * 3 == 3 * p == Poly((3, 6)) and (p * 0).is_zero
    assert Poly((2, 4)).gcd(Poly((2,))) == Poly((2,))


def test_ratfunc_refuses_the_other_ring():
    # a fraction takes its numerator and denominator from one ring: once
    # z was read as q, so the first gave q^2 / (1 + q^2), the second 2q
    for make in (lambda: RatFunc(Poly.x(), Laurent.z()),
                 lambda: RatFunc(Laurent.z(), Poly.x()),
                 lambda: RatFunc(Laurent.q(1), Laurent.one()) + Poly.x(),
                 lambda: RatFunc(Poly.x(), Poly.one()) * Laurent.z()):
        with pytest.raises(TypeError):
            make()
    assert (1 + RatFunc(Poly.x(), Poly.one())).render() == "1 + z"
    assert (RatFunc(Laurent.q(1), Laurent.one()) - 1).render() == "-1 + q"


def test_sparse_takes_every_mapping_and_every_iterable_of_pairs():
    want = Laurent({-1: 2, 3: -1})
    for coeffs in (MappingProxyType({-1: 2, 3: -1, 5: 0}),
                   Counter({-1: 2, 3: -1}),
                   [(-1, 1), (3, -1), (-1, 1), (4, 2), (4, -2)],
                   ((k, v) for k, v in ((-1, 2), (3, -1)))):
        assert Laurent(coeffs) == want
    assert BiLaurent(MappingProxyType({(0, 1): 3})) == BiLaurent({(0, 1): 3})
    assert Laurent(MappingProxyType({})).is_zero and Laurent([]).is_zero


def test_total_sums_into_one_map():
    rng = random.Random(83)
    for _ in range(200):
        terms = [Laurent({rng.randint(-3, 3): rng.randint(-2, 2)
                          for _ in range(rng.randint(0, 4))})
                 for _ in range(rng.randint(0, 6))]
        want = Laurent.zero()
        for t in terms:
            want = want + t
        got = Laurent.total(iter(terms))
        assert got == want and 0 not in got._c.values()
    pair = [BiLaurent({(1, 0): 2}), BiLaurent({(1, 0): -2, (0, 1): 1})]
    assert BiLaurent.total(pair) == BiLaurent({(0, 1): 1})
    assert BiLaurent.total([]) == BiLaurent.zero()
    with pytest.raises(TypeError):
        Laurent.total([Laurent.one(), BiLaurent({(0, 0): 1})])


def test_bilaurent_scales_by_int_only():
    b = BiLaurent({(1, 0): 2})
    assert 3 * b == b * 3 == BiLaurent({(1, 0): 6})
    assert (0 * b).is_zero
    with pytest.raises(TypeError):
        b * b


# -- truncated series -------------------------------------------------------

def test_sqrt1p_order2():
    s = series_sqrt1p(2)
    assert s.coeffs == (Fraction(1), Fraction(1, 2), Fraction(-1, 8))


def test_sqrt1p_order0():
    assert series_sqrt1p(0) == TruncSeries(0, (1,))


def test_sqrt1p_square_is_one_plus_u():
    s = series_sqrt1p(8)
    assert s * s == TruncSeries(8, (1, 1))


def test_series_inverse():
    s = series_sqrt1p(10)
    assert s * s.inverse() == TruncSeries(10, (1,))


def test_series_inverse_needs_unit():
    with pytest.raises(ZeroDenominator):
        TruncSeries.u(4).inverse()


def test_series_compose_poly():
    t = TruncSeries(5, (0, 1, 1))  # u + u^2
    val = t.compose_poly((1, 0, 1))  # 1 + t^2
    assert val == TruncSeries(5, (1, 0, 1, 2, 1))


# -- rational functions -----------------------------------------------------

def test_ratfunc_reduction_and_sign():
    r = RatFunc(Poly((0, -2, -2)), Poly((0, 0, -2)))  # (-2x-2x^2)/(-2x^2)
    assert r.num == Poly((1, 1))
    assert r.den == Poly((0, 1))


def test_ratfunc_keeps_needed_content():
    half_z = RatFunc(Poly.x(), Poly.const(2))
    assert half_z.num == Poly.x() and half_z.den == Poly.const(2)


def test_ratfunc_laurent_unit_normalization():
    r = RatFunc(Laurent.q(-1), Laurent.one())
    assert r.num == Laurent.q(-1)
    r2 = RatFunc(Laurent({3: 2}), Laurent({1: 4}))
    assert r2 == RatFunc(Laurent({2: 1}), Laurent({0: 2}))


def test_ratfunc_arithmetic():
    z = RatFunc(Poly.x(), Poly.one())
    one = RatFunc(Poly.one(), Poly.one())
    v = one / (z - one / z)
    assert v == RatFunc(Poly.x(), Poly((-1, 0, 1)))


def test_ratfunc_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFunc(Poly.one(), Poly.zero())


def test_ratfunc_renders_in_its_own_variable():
    assert repr(RatFunc(Poly.x(), Poly.const(2))) == "RatFunc((z) / (2))"
    assert repr(RatFunc(Laurent.z(), Laurent.const(2))) == (
        "RatFunc((q^-1 + q) / (2))")
    assert RatFunc(Poly.x(), Poly.const(2)).render("t") == "(t) / (2)"


# -- Z[x] gcd and reduction against sympy ------------------------------------
# pairs a*h*c, b*h*d with a planted common factor h and contents c, d of
# either sign, so the gcd, the content and the sign step all have work

nonzero_polys = st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(
    any).map(Poly)
contents = st.integers(-6, 6).filter(bool)
planted_pairs = st.tuples(nonzero_polys, polys, nonzero_polys, contents,
                          contents).map(
    lambda t: (t[1] * t[0] * t[3], t[2] * t[0] * t[4]))


def _to_sympy(sympy, p: Poly):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], sympy.Symbol("x"),
                      domain="ZZ")


def _from_sympy(sympy, expr) -> Poly:
    coeffs = sympy.Poly(expr, sympy.Symbol("x"), domain="ZZ").all_coeffs()
    return Poly(tuple(int(c) for c in reversed(coeffs)))


@settings(max_examples=150, deadline=None)
@given(planted_pairs)
def test_pseudo_rem_and_gcd_match_sympy(pair):
    sympy = pytest.importorskip("sympy")
    a, b = pair
    sa, sb = _to_sympy(sympy, a), _to_sympy(sympy, b)
    rem = _pseudo_rem(a.coeffs, b.coeffs)
    got = Poly(rem)
    assert got.coeffs == rem  # trimmed
    # sympy's dense prem multiplies by lc(b)^(da - db + 1); the sparse one
    # takes one factor per step, and a step may drop several degrees
    want = _from_sympy(sympy, sympy.prem(sa, sb))
    assert any(got * b.lead ** e == want
               for e in range(max(a.degree - b.degree + 1, 0) + 1)), pair
    assert a.gcd(b) == _from_sympy(sympy, sympy.gcd(sa, sb)), pair


@settings(max_examples=150, deadline=None)
@given(planted_pairs)
def test_ratfunc_is_the_normal_form_of_sympy_cancel(pair):
    sympy = pytest.importorskip("sympy")
    a, b = pair
    top, bottom = _to_sympy(sympy, a).cancel(_to_sympy(sympy, b),
                                             include=True)
    num, den = _from_sympy(sympy, top), _from_sympy(sympy, bottom)
    if den.lead < 0:
        num, den = -num, -den
    r = RatFunc(a, b)
    assert (r.num, r.den) == (num, den), pair


def test_unit_multiple_detection():
    a = Laurent({2: 3, 4: -1})
    assert a.is_unit_multiple_of(a.shifted(-3) * -1) == (-1, 3)
    assert a.is_unit_multiple_of(Laurent({0: 3, 2: 1})) is None


# -- canonical rendering ----------------------------------------------------

def test_render_ascending_with_caret_exponents():
    p = Laurent({-2: 1, 0: -3, 2: 1})
    assert p.render() == "q^-2 - 3 + q^2"
    assert Poly((-1, 0, 1)).render() == "-1 + z^2"
    assert Laurent.zero().render() == "0"


# -- TruncSeries on integer numerators against plain Fraction lists --------------

def _frac_mul(a, b, n):
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(n + 1)]


def _frac_inverse(a, n):
    inv = [1 / a[0]]
    for k in range(1, n + 1):
        inv.append(-sum((a[i] * inv[k - i] for i in range(1, k + 1)),
                        Fraction(0)) / a[0])
    return inv


def _frac_compose(t, coeffs, n):
    acc = [Fraction(0)] * (n + 1)
    for c in reversed(coeffs):
        acc = _frac_mul(acc, t, n)
        acc[0] += c
    return acc


def _rand_fractions(rng, n, unit=False):
    out = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
           for _ in range(n + 1)]
    if rng.random() < 0.3:
        out[rng.randrange(n + 1)] = Fraction(0)
    if unit and out[0] == 0:
        out[0] = Fraction(-3, 4)
    return out


def test_series_arithmetic_matches_fraction_lists():
    rng = random.Random(71)
    for _ in range(150):
        n = rng.randint(0, 10)
        a, b = _rand_fractions(rng, n), _rand_fractions(rng, n, unit=True)
        sa, sb = TruncSeries(n, a), TruncSeries(n, b)
        assert sa.coeffs == tuple(a)
        assert (sa * sb).coeffs == tuple(_frac_mul(a, b, n))
        assert (sa + sb).coeffs == tuple(x + y for x, y in zip(a, b))
        assert (sa - sb).coeffs == tuple(x - y for x, y in zip(a, b))
        assert (-sa).coeffs == tuple(-x for x in a)
        f = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        assert (sa * f).coeffs == (f * sa).coeffs == tuple(x * f for x in a)
        assert sb.inverse().coeffs == tuple(_frac_inverse(b, n))
        poly = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(0, 5))]
        assert sa.compose_poly(poly).coeffs == tuple(_frac_compose(a, poly, n))


def test_series_inverse_and_compose_match_sympy():
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols("u")
    rng = random.Random(73)

    def truncated(expr, n):
        poly = sympy.Poly(sympy.series(expr, u, 0, n + 1).removeO(), u)
        return tuple(Fraction(int(c.p), int(c.q))
                     for c in (poly.coeff_monomial(u ** k)
                               for k in range(n + 1)))

    def as_expr(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * u ** k
                   for k, c in enumerate(coeffs))

    for n in (0, 1, 5, 12):
        s = series_sqrt1p(n)
        assert s.coeffs == truncated(sympy.sqrt(1 + u), n)
        assert s.inverse().coeffs == truncated(1 / sympy.sqrt(1 + u), n)
        t = TruncSeries.u(n) * s.inverse()
        assert t.compose_poly((0, -1, 0, 1)).coeffs == truncated(
            -u / sympy.sqrt(1 + u) + (u / sympy.sqrt(1 + u)) ** 3, n)
    for _ in range(5):
        n = rng.randint(0, 6)
        a, b = _rand_fractions(rng, n), _rand_fractions(rng, n, unit=True)
        sa, sb = TruncSeries(n, a), TruncSeries(n, b)
        assert sb.inverse().coeffs == truncated(1 / as_expr(b), n)
        assert (sa * sb.inverse()).coeffs == truncated(
            as_expr(a) / as_expr(b), n)
        poly = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))]
        want = sum((sympy.Rational(c.numerator, c.denominator)
                    * as_expr(a) ** k for k, c in enumerate(poly)),
                   sympy.Integer(0))
        assert sa.compose_poly(poly).coeffs == truncated(want, n)


def test_series_equality_and_hash_ignore_the_spelling():
    a = TruncSeries(4, (Fraction(2, 4), 1, Fraction(-6, 3)))
    b = TruncSeries(4, [Fraction(1, 2), Fraction(3, 3), -2, 0, 0])
    c = TruncSeries(4, (Fraction(1, 2), 1, -2, Fraction(0, 7)))
    d = (a * Fraction(6, 7) + TruncSeries(4, (Fraction(1, 3),))) * \
        Fraction(7, 6) - TruncSeries(4, (Fraction(7, 18),))
    assert a == b == c == d
    assert len({hash(a), hash(b), hash(c), hash(d)}) == 1
    assert len({a, b, c, d}) == 1
    assert a.coeffs == (Fraction(1, 2), 1, -2, 0, 0)
    ints = TruncSeries(3, (2, -4, 6))
    assert ints == TruncSeries(3, (Fraction(4, 2), Fraction(-8, 2), 6, 0))
    assert ints == TruncSeries(3, (1, -2, 3)) * 2
    assert hash(ints) == hash(TruncSeries(3, (1, -2, 3)) * 2)
    zero = a - b
    assert zero.is_zero and zero == TruncSeries.zero(4)
    assert hash(zero) == hash(TruncSeries.zero(4))
    assert a != TruncSeries(3, (Fraction(1, 2), 1, -2))
    assert a != a.coeffs
    for n in (3, 4):  # odd and even powers of a negative constant term
        inv = TruncSeries(n, (-3, 1, Fraction(2, 5))).inverse()
        assert inv == TruncSeries(n, inv.coeffs)
        assert hash(inv) == hash(TruncSeries(n, inv.coeffs))


def test_series_keeps_its_surface():
    s = TruncSeries(3, (Fraction(1, 2), 0, -1, Fraction(3, 4), 5))
    assert s.render() == "1/2 - u^2 + 3/4*u^3"
    assert repr(s) == "TruncSeries(1/2 - u^2 + 3/4*u^3 + O(u^4))"
    assert s.coeffs[3] == Fraction(3, 4)
    assert all(isinstance(c, Fraction) for c in s.coeffs)
    with pytest.raises(IndexOutOfRange):
        TruncSeries(-1)
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(SizeMismatch):
            getattr(s, op)(TruncSeries(4, (1,)))
    with pytest.raises(ZeroDenominator):
        TruncSeries(3, (0, Fraction(1, 2))).inverse()


# -- Kronecker frames --------------------------------------------------------------

def test_frame_width_is_the_least_that_holds_the_bound():
    for bound in [0, 1, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 3 ** 39, 3 ** 40,
                  10 ** 36, 3 ** 400]:
        w = Frame(bound).width
        assert w >= 64 and w % 8 == 0 and bound < 2 ** (w - 1)
        assert w == 64 or bound >= 2 ** (w - 9)
    assert Frame(3 ** 39).width == 64 and Frame(3 ** 40).width == 72


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=12),
       st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=12),
       st.integers(-5, 5), st.sampled_from([1, 2 ** 40, 2 ** 70, 2 ** 150]))
def test_frame_packs_and_decodes_sums_of_products(a, b, start, scale):
    a = [c // scale for c in a]
    b = [c // scale for c in b]
    la = Laurent({k: c for k, c in enumerate(a)})
    lb = Laurent({k: c for k, c in enumerate(b)})
    size = max(len(a), len(b), 1)
    s = size + 1
    bound = (sum(map(abs, a)) + 1) * (sum(map(abs, b)) + 1)
    frame = Frame(bound)
    pa, pb = frame.pack(enumerate(a)), frame.pack(enumerate(b))
    assert frame.laurents([pa, 0, pa * pb - pb]) == [
        la, Laurent.zero(), la * lb - lb]
    assert frame.laurents([pa], start) == [la.shifted(start)]
    outer = frame.pack(enumerate(a), s) * pb - frame.pack(enumerate(b), s)
    assert frame.bilaurents([outer, 0], s) == [
        BiLaurent.outer(la, lb) - BiLaurent.outer(lb, Laurent.one()),
        BiLaurent.zero()]


def test_frame_pack_matches_horner():
    # the term packer against Horner's rule on the dense list, in frames of
    # 64, 72 and 136 bits at strides 1-3: dense terms with their zeros,
    # sparse terms in any order, digits of either sign up to the largest,
    # and no terms at all
    rng = random.Random(101)
    frames = [Frame(2 ** 40), Frame(2 ** 70), Frame(2 ** 134)]
    assert [f.width for f in frames] == [64, 72, 136]
    seen = Counter()
    for frame in frames:
        top = 2 ** (frame.width - 1) - 1
        for stride in (1, 2, 3):
            assert frame.pack([], stride) == 0 == pack_by_horner(
                frame, [], stride)
            for _ in range(50):
                coeffs = [rng.choice((0, 1, -1, top, -top, rng.randint(
                    -top, top))) for _ in range(rng.randint(1, 9))]
                want = pack_by_horner(frame, coeffs, stride)
                assert frame.pack(enumerate(coeffs), stride) == want
                terms = [(k, c) for k, c in enumerate(coeffs) if c]
                rng.shuffle(terms)
                assert frame.pack(terms, stride) == want
                if stride == 1:
                    got = frame.digits(want, len(coeffs))
                    assert list(got[:len(coeffs)]) == coeffs
                seen["zero"] += 0 in coeffs
                seen["negative"] += any(c < 0 for c in coeffs)
    assert min(seen.values()) >= 200, seen
