"""Independent oracles and input builders that only the tests use.

Each computes what it checks the straight way, sharing no code with the
library routine under test: a cofactor as a signed minor determinant,
a determinant over Z[x] by Bareiss on the polynomial entries themselves,
a Kronecker packing by Horner's rule over the dense coefficient list,
det(zE - A) by the Faddeev-LeVerrier pass (which the graph expansion
never takes), the Faddeev-LeVerrier layers on full rows, the rooted forest step as products
running from the unit, the inverse substitution by Pascal's rule walked
down from the top row, the Wronskian as f' g - f g' with each derivative
formed first, a Magnus expansion as the product
of its letters' images, the Artin action by substituting into every image
letter by letter, a Conway polynomial as the determinant of a Seifert
form, and a union of diagrams or a diagram file by writing the edges out.
"""

from operator import add, sub

from coxkit.algebra import Laurent, Poly, det_exact, det_poly
from coxkit.braid import free_reduce, laurent_to_t_poly, word_inverse
from coxkit.coxeter import _check_vertices, _faddeev_leverrier
from coxkit.diagram import Diagram
from coxkit.errors import DomainError


# -- determinants ---------------------------------------------------------------

def det_poly_by_bareiss(mat) -> Poly:
    """Fraction-free Bareiss over Z[x], each step a Poly product and an
    exact division, where algebra.det_poly runs Bareiss on the entries
    packed into integers."""
    n = len(mat)
    if n == 0:
        return Poly.one()
    m = [list(row) for row in mat]
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = pivot * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = t.exact_div(prev)
        prev = pivot
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def pack_by_horner(frame, coeffs, stride: int = 1) -> int:
    """The sum of c_k 2^(w stride k) by Horner's rule over the dense list,
    where Frame.pack sums the shifted terms (k, c)."""
    shift = frame.width * stride
    x = 0
    for c in reversed(coeffs):
        x = (x << shift) + c
    return x


# -- cofactors ------------------------------------------------------------------

def _z_matrix(d: Diagram) -> list[list[Poly]]:
    """(z-2)E + C = zE - A with A the weighted adjacency matrix."""
    n = d.n
    return [[Poly((0, 1)) if i == j else Poly((-d.weight(i, j),))
             for j in range(n)] for i in range(n)]


def fl_char(d: Diagram) -> Poly:
    """det(zE - A) by the Faddeev-LeVerrier pass, whatever the graph: the
    forest recursion and Schwenk's edge step never run in it."""
    return Poly(_faddeev_leverrier(d)[0])


def cofactor_entry(d: Diagram, i: int, j: int) -> Poly:
    """Single cofactor by a direct signed minor determinant."""
    _check_vertices(d, "cofactor indices", i, j)
    n = d.n
    m = _z_matrix(d)
    minor = [[m[r][c] for c in range(n) if c != j]
             for r in range(n) if r != i]
    det = det_poly(minor)
    return det if (i + j) % 2 == 0 else -det


def _full_row_times(row, m: list[list[int]], n: int) -> list[int]:
    """One full row of M m, for the row of M given by its nonzero
    entries."""
    if not row:
        return [0] * n
    (t, w), *rest = row
    acc = m[t][:] if w == 1 else list(map(w.__mul__, m[t]))
    for t, w in rest:
        if w == 1:
            acc = list(map(add, acc, m[t]))
        elif w == -1:
            acc = list(map(sub, acc, m[t]))
        else:
            acc = list(map(add, acc, map(w.__mul__, m[t])))
    return acc


def faddeev_leverrier_full_rows(rows, table=False):
    """det(xE - M), and with table adj(xE - M), in the two shapes of the
    library's _faddeev_leverrier, for a diagram's weighted adjacency M
    given by the nonzero entries of each row: every layer
    M_k = M M_(k-1) + c_k E held on full rows, and a trace taken at every
    k, whatever the pattern of M."""
    n = len(rows)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    layers = [m] if table else None
    coeffs = [1]

    def coeff(tr: int, k: int) -> int:
        assert tr % k == 0
        return -(tr // k)

    for k in range(1, n):
        m = [_full_row_times(row, m, n) for row in rows]
        c = coeff(sum(m[i][i] for i in range(n)), k)
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
        if table:
            layers.append(m)
    if n:
        coeffs.append(coeff(
            sum(w * m[t][i] for i, row in enumerate(rows) for t, w in row), n))
    coeffs.reverse()
    if not table:
        return coeffs, None
    # in layer order an entry's coefficients come highest power first
    return coeffs, [[Poly(reversed([layer[i][j] for layer in layers]))
                     for j in range(n)] for i in range(n)]


# -- the rooted forest step -----------------------------------------------------------

def rooted_step_by_products(children, z=None):
    """coxeter._rooted_step as it ran before it skipped the unit: the
    running product starts at 1 and the running sum at 0, so every child
    pays both products.  Returns (A(x), B(x))."""
    ring = Poly if z is None else Laurent
    prod, rest = ring.one(), ring.zero()
    for wsq, a, b in children:
        rest = rest * a + wsq * b * prod
        prod = prod * a
    return (prod.shift(1) if z is None else z * prod) - rest, prod


# -- the Wronskian ------------------------------------------------------------------

def _derivative(f: Laurent) -> Laurent:
    """Formal derivative: d/dq q^k = k q^(k-1), including negative k."""
    return Laurent({k - 1: k * v for k, v in f._c.items() if k})


def wronskian_by_derivatives(f: Laurent, g: Laurent) -> Laurent:
    """f' g - f g', each derivative formed first and the two products
    subtracted."""
    return _derivative(f) * g - f * _derivative(g)


# -- the inverse substitution ------------------------------------------------------

def unsubstitute_by_pascal(p: Laurent, sign: int) -> Poly:
    """The polynomial f with f(q + sign/q) = p, for sign = +-1: peel the
    coefficient c of q^k off with c times the binomial row of power k, for
    k from the top exponent down to 0.  The row of power k lists
    sign^t C(k, t), the coefficient of q^(k-2t); the top row is built up by
    Pascal's rule and the rows are walked back down by it read backwards."""
    rem = dict(p._c)
    top = max(rem, default=-1)
    out = [0] * (top + 1)
    row = [1]
    for _ in range(top):
        row = [1, *[a + sign * b for a, b in zip(row[1:], row)], sign * row[-1]]
    for k in range(top, -1, -1):
        c = rem.pop(k, 0)
        if c:
            out[k] = c
            for t in range(1, k + 1):
                e = k - 2 * t
                rem[e] = rem.get(e, 0) - c * row[t]
        prev = [1]
        for t in range(1, k):
            prev.append(row[t] - sign * prev[-1])
        row = prev
    if any(rem.values()):
        raise DomainError("not a polynomial in q + sign/q")
    return Poly(out)


# -- Magnus expansion ---------------------------------------------------------------

def magnus_product(a: dict, b: dict, order: int) -> dict:
    """The product of two series in noncommuting variables, {word:
    coefficient} with words as tuples of variable indices, truncated at
    total degree order; no zero coefficient is kept."""
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= order:
                out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def magnus_by_letters(word, order: int) -> dict:
    """The Magnus expansion of a free-group word, letter by letter: x_i
    maps to 1 + u_i and x_i^-1 to sum_k (-u_i)^k."""
    out = {(): 1}
    for letter in word:
        i = abs(letter)
        image = ({(): 1, (i,): 1} if letter > 0
                 else {(i,) * k: (-1) ** k for k in range(order + 1)})
        out = magnus_product(out, image, order)
    return out


# -- Artin action and Conway polynomials ---------------------------------------------

def artin_by_substitution(b) -> tuple:
    """Images of the free generators under the braid word b: s_i sends x_i
    to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i, and each letter of the word
    is substituted into every image, left to right."""
    images = [(i + 1,) for i in range(b.strands)]

    def gen_image(g: int, x: int) -> tuple:
        i = abs(g)
        if g > 0:
            if x == i:
                return (i, i + 1, -i)
            if x == i + 1:
                return (i,)
        else:
            if x == i:
                return (i + 1,)
            if x == i + 1:
                return (-(i + 1), i, i + 1)
        return (x,)

    for g in b.word:
        new_images = []
        for img in images:
            word: list = []
            for letter in img:
                piece = gen_image(g, abs(letter))
                word.extend(piece if letter > 0 else word_inverse(piece))
            new_images.append(free_reduce(word))
        images = new_images
    return tuple(images)


def conway_from_seifert(v_mat) -> Poly:
    """Conway polynomial det(qV - q^-1 V^t) of a Seifert matrix, written
    in the variable t = q - 1/q."""
    size = len(v_mat)
    q, qinv = Laurent.q(1), Laurent.q(-1)
    m = [[q * Laurent.const(v_mat[i][j]) - qinv * Laurent.const(v_mat[j][i])
          for j in range(size)] for i in range(size)]
    return laurent_to_t_poly(det_exact(m))


# -- diagram builders ---------------------------------------------------------------

def disjoint_union(a: Diagram, b: Diagram) -> Diagram:
    edges = [((i, j), w) for (i, j, w) in a.edges()]
    edges += [((i + a.n, j + a.n), w) for (i, j, w) in b.edges()]
    order = list(a.order) + [p + a.n for p in b.order]
    return Diagram(a.n + b.n, edges, order=order)


def to_text(d: Diagram) -> str:
    """The diagram file that diagram.from_text reads back as d."""
    lines = [f"n {d.n}"]
    lines += [f"{i} {j} {w}" for (i, j, w) in d.edges()]
    if d.order != tuple(range(d.n)):
        lines.append("order " + " ".join(str(v) for v in d.order))
    return "\n".join(lines) + "\n"
