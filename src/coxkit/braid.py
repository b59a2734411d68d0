"""Braid words, Burau matrices, Artin action, longitudes, Magnus expansion
and Milnor invariants of pure braids.

Free-group words are tuples of signed 1-based generator indices.  Positive
generator s_k crosses the strand at position k+1 over the strand at
position k; the meridian bookkeeping below and the zero-framing convention
of the longitudes are pinned jointly by the Hopf string link, whose Milnor
invariants ending in (1, 1) are (-1)^(k+1) on all-ones index strings and 0
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product, zip_longest
from math import comb
from operator import mul
from typing import Iterable, Sequence

from .algebra import (Frame, Laurent, Poly, RatFunc, TruncSeries, _substitute,
                      _unsubstitute, det_exact, series_sqrt1p)
from .errors import (DomainError, IndexOutOfRange, NotPure, SizeMismatch,
                     ZeroDenominator)

Word = tuple[int, ...]

# The largest series order the command line accepts.  Series work grows
# with a power of the order (levin_check roughly with its cube), and every
# order in the suites and the benchmark is at most 40.
MAX_ORDER = 64

# The most words a Magnus expansion may hold.  Their number grows like a
# power of the order set by the longitude: the longitude of s1^-6 has
# 26475 words at order 16 and 104119 at order 20, while the largest
# expansion in the suites and the benchmark has 1101 (140 by dict).
MAX_MAGNUS_WORDS = 100_000

# The most words the Magnus expansions of one command may visit, summed
# over their letters (milnor's longitudes share the count): on the dict
# route each letter passes over every word held, so the work is letters
# times words, which MAX_MAGNUS_WORDS alone leaves unbounded; the packed
# route charges each letter the time of the digits it rebuilds, in
# visits (see PACKED_BITS_PER_VISIT).  On (s1 s2^-1)^9, whose walk
# MAX_WALK_LETTERS admits, the longitudes of 4180, 10946 and 6766
# letters visit 0.9, 2.5 and 1.6 M words at order 5 by dict and about 3
# times as many at each order above, and `braid milnor --order 10` ran
# for 61 s; at 10^6 it is refused in 0.01 s, before any packed integer
# is built, and `braid magnus --order 10`, whose 88573 words up to the
# order take the dict route, in 0.13 s (Python 3.11, 2 cores).  The
# largest count in the suites and the benchmark is 63612 (a milnor op of
# the benchmark at seed 42: 186 letters over 4 generators at order 6).
MAX_MAGNUS_WORK = 1_000_000

# The most words up to the order, b^0 + .. + b^order over the b
# generators of the word, that a packed Magnus expansion may hold as
# digits (see _packed); it stays below MAX_MAGNUS_WORDS.  The packed
# route takes only words longer than the order: on 127 seeded words no
# longer than the order it lost to the dict route on 113, down to 0.088
# times its speed.  The dict route's time over the packed route's on
# seeded words of L letters over b = 2-8 generators, the median of three
# words, each the best of five (Python 3.11, 2 cores):
#
#     words up to the order    L = order + 1    2 order      4 order
#     63-1023                  0.48-2.2         0.66-5.8     0.85-10
#     1093-32767               0.14-2.1         0.18-5.8     0.71-13
#     37449-97656              0.05-0.74        0.11-7.0     0.49-15
#
# Up to 2^15 a loss costs at most 1.1 ms (b = 3, order 9, 10 letters);
# above it the packed route loses up to 3.7 ms on order + 1 letters, and
# at 2 order letters it loses for every b >= 4.
MAX_PACKED_DIGITS = 1 << 15

# The bits a packed shift-add writes in the time the dict route visits
# one word.  Each letter of the packed route rebuilds degrees 1 .. order,
# b^m digits of width w each, and is charged, in visits, the sum over m
# of ceil(b^m w / PACKED_BITS_PER_VISIT): at least one a shift-add, whose
# fixed cost is about that of a visit.  A dict visit took 72-521 ns
# (median 144) on the words of the MAX_PACKED_DIGITS table with at least
# 10^4 visits, a shift-add 2.3-4.9 ns per 64 bits from 2^12 to 2^24
# bits, and a charged unit of _packed 32-115 ns on seeded words over
# 1-32767 generators at orders 1-64 (Python 3.11, 2 cores), so
# MAX_MAGNUS_WORK bounds both routes to about the same time.
PACKED_BITS_PER_VISIT = 1024

# The most strands a braid word may have, as diagram.MAX_VERTICES bounds a
# diagram; no word in the suites or the benchmark has more than 6.
MAX_STRANDS = 1024

# The most bits a Burau image may take while it is built (see _burau_frame).
# 2^25 bits (4 MB) admits 2 strands with 2000 letters, 7 with 400 and 12
# with 130; the unreduced image of 2 strands and 2000 letters took 1.8 s
# on a Xeon core under Python 3.11.
MAX_BURAU_BITS = 1 << 25

# The most letters a meridian walk (artin_action, longitudes) may build,
# counting each conjugate before it is reduced and each picked word, so
# that the work is bounded as well as what is held.  Meridians grow about
# 2.6 times per letter pair on (s1 s2^-1)^k: the walk builds 120k letters
# at k = 9 and 2.1 M at k = 12, and s1^500 builds 1.0 M; the largest walk
# in the suites and the benchmark builds 802.
MAX_WALK_LETTERS = 1_000_000


# ---------------------------------------------------------------------------
# braid words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraidWord:
    """Word in the standard generators of the braid group on n strands."""

    strands: int
    word: Word = ()

    def __post_init__(self):
        if not 1 <= self.strands <= MAX_STRANDS:
            raise DomainError(f"strand count must be in 1..{MAX_STRANDS}, "
                              f"got {self.strands}")
        for g in self.word:
            if g == 0 or abs(g) >= self.strands:
                raise DomainError(f"generator {g} out of range")
        object.__setattr__(self, "word", tuple(self.word))

    @staticmethod
    def parse(text: str, strands: int | None = None) -> "BraidWord":
        """Parse whitespace-separated tokens sK / -sK (1-based K)."""
        letters = []
        for tok in text.split():
            neg = tok.startswith("-")
            body = tok[1:] if neg else tok
            index = body[1:]
            if not (body.startswith("s") and index.isascii()
                    and index.isdigit()):
                raise DomainError(f"bad braid token {tok!r}")
            k = int(index)
            letters.append(-k if neg else k)
        if strands is None:
            strands = max((abs(g) for g in letters), default=1) + 1
        return BraidWord(strands, tuple(letters))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise SizeMismatch("cannot concatenate different strand counts")
        return BraidWord(self.strands, self.word + other.word)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, word_inverse(self.word))

    def permutation(self) -> tuple[int, ...]:
        """pi with pi[p] = strand ending at position p (0-based strands)."""
        pos = list(range(self.strands))
        for g in self.word:
            k = abs(g) - 1
            pos[k], pos[k + 1] = pos[k + 1], pos[k]
        return tuple(pos)

    @property
    def is_pure(self) -> bool:
        return self.permutation() == tuple(range(self.strands))

    def exponent_sum(self) -> int:
        return sum(1 if g > 0 else -1 for g in self.word)


def linking_matrix(b: BraidWord) -> dict[tuple[int, int], int]:
    """Half the signed crossing count between each strand pair (1-based)
    of a pure braid."""
    pos = list(range(b.strands))
    counts: dict[tuple[int, int], int] = {}
    for g in b.word:
        k = abs(g) - 1
        s, t = pos[k], pos[k + 1]
        key = (min(s, t) + 1, max(s, t) + 1)
        counts[key] = counts.get(key, 0) + (1 if g > 0 else -1)
        pos[k], pos[k + 1] = pos[k + 1], pos[k]
    if pos != list(range(b.strands)):
        raise NotPure("the linking matrix needs a pure braid")
    return {k: v // 2 for k, v in counts.items()}


# ---------------------------------------------------------------------------
# Burau representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BurauImage:
    kind: str
    strands: int
    entries: tuple[tuple[Laurent, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)


# Each entry of an image being built is one integer in an algebra.Frame,
# the sum of c_e 2^(w (e + m)) over its terms c_e t^e, where m counts the
# inverse letters of the word.  Multiplying by t is a shift left by one
# w-bit digit and multiplying by 1/t a shift right, which is exact:
# before the i-th inverse letter every exponent is at least 1 - i >= 1 - m,
# so the digit shifted out is zero.  A letter at most triples the sum of
# the absolute coefficients of a row, so after L letters every coefficient
# is at most 3^L, and the frame takes w with 3^L < 2^(w - 1): 64 bits up
# to 39 letters.  Every entry then spans at most L + 1 digits of w, about
# 1.6 L bits each, so the image of size^2 entries takes about
# 1.6 size^2 L^2 bits, which MAX_BURAU_BITS bounds.

def _burau_frame(b: BraidWord, reduced: bool, letters: int) -> Frame:
    """The frame of Burau images of b's strands whose coefficients are at
    most 3^letters, as those of a word of that many letters are, refused
    when such an image would exceed MAX_BURAU_BITS."""
    size = b.strands - 1 if reduced else b.strands
    if 8 * size * size * letters ** 2 > 5 * MAX_BURAU_BITS:
        raise DomainError(f"the Burau image of {letters} letters on "
                          f"{b.strands} strands would exceed "
                          f"{MAX_BURAU_BITS} bits")
    return Frame(3 ** letters)


def _burau_rows(b: BraidWord, reduced: bool,
                frame: Frame) -> tuple[list[list[int]], int]:
    """The rows of the Burau image of b packed in frame, each entry the
    sum of c_e 2^(w (e + m)) over its terms, and m, the count of inverse
    letters of b.  frame must hold every coefficient (_burau_frame).

    Each letter right-multiplies every row; column j of the image is at
    place j + 1 of a row, and places 0 and size + 1 take what a reduced
    letter at either end would add outside the matrix."""
    size = b.strands - 1 if reduced else b.strands
    w = frame.width
    m = sum(1 for g in b.word if g < 0)
    rows = [[0] * (size + 2) for _ in range(size)]
    for i, row in enumerate(rows):
        row[i + 1] = 1 << (w * m)
    for g in b.word:
        k = abs(g)
        if reduced and g > 0:
            # x at place k becomes -t x, and adds t x to place k - 1 and
            # x to place k + 1
            for row in rows:
                x = row[k]
                if x:
                    tx = x << w
                    row[k] = -tx
                    row[k - 1] += tx
                    row[k + 1] += x
        elif reduced:
            for row in rows:
                x = row[k]
                if x:
                    tx = x >> w
                    row[k] = -tx
                    row[k - 1] += x
                    row[k + 1] += tx
        elif g > 0:
            # (x, y) at places k, k + 1 becomes (x - t x + y, t x)
            for row in rows:
                x = row[k]
                tx = x << w
                row[k] = x - tx + row[k + 1]
                row[k + 1] = tx
        else:
            # (x, y) becomes (y / t, x + y - y / t)
            for row in rows:
                y = row[k + 1]
                ty = y >> w
                row[k + 1] = row[k] + y - ty
                row[k] = ty
    return [row[1:-1] for row in rows], m


def burau(b: BraidWord, reduced: bool = False) -> BurauImage:
    """Image of the braid word; multiplicative over concatenation."""
    frame = _burau_frame(b, reduced, len(b.word))
    rows, m = _burau_rows(b, reduced, frame)
    size = len(rows)
    flat = frame.laurents([x for row in rows for x in row], -m)
    return BurauImage("reduced" if reduced else "unreduced", b.strands,
                      tuple(tuple(flat[r * size:(r + 1) * size])
                            for r in range(size)))


def burau_differences(b: BraidWord, factors: Sequence[BraidWord],
                      reduced: bool) -> list[Laurent]:
    """The nonzero entrywise differences of B(b) and the product of the
    B(f) over the factors, in order: none exactly when the two are equal.

    Every image packs in one frame of 3^L, L the larger of the letters of
    b and of all the factors: a row of a product of images of L1, L2, ..
    letters has l1 norm at most 3^(L1 + L2 + ..), since a row of the first
    has at most 3^L1 and every entry of the next at most 3^L2.  The
    product is the integer matrix product of the packed rows, whose
    inverse-letter offsets m add, and an entry t^m e(t) at t = 2^w whose
    coefficients the frame holds is one packed integer, so the two sides
    are equal iff their rows and offsets are.  Only sides that differ are
    decoded."""
    frame = _burau_frame(b, reduced, max(
        len(b.word), sum(len(f.word) for f in factors)))
    lhs = _burau_rows(b, reduced, frame)
    rows, m = _burau_rows(factors[0], reduced, frame)
    for f in factors[1:]:
        image, mf = _burau_rows(f, reduced, frame)
        cols = list(zip(*image))
        rows = [[sum(map(mul, row, col)) for col in cols] for row in rows]
        m += mf
    if lhs == (rows, m):
        return []
    left, right = ([frame.laurents(row, -k) for row in side]
                   for side, k in (lhs, (rows, m)))
    # only the nonzero ones: the ~6400 zeros of the verify suite's 400
    # products, kept, took its traced peak memory from 0.3 to 0.9 MB
    return [r for ra, rb in zip(left, right)
            for x, y in zip(ra, rb) if (r := x - y)]


def det_one_minus(img: BurauImage) -> Laurent:
    """det(E - beta)."""
    m = [[(Laurent.one() if i == j else Laurent.zero()) - img.entries[i][j]
          for j in range(img.size)] for i in range(img.size)]
    return det_exact(m)


def det_ratio(l_word: BraidWord, b_word: BraidWord) -> RatFunc:
    """det(E - beta(L)) / det(E - beta(B L)) of the reduced image, as a
    reduced rational function.

    The unreduced image fixes the all-ones vector, making both determinants
    vanish identically, so only the reduced representation gives a ratio;
    a zero numerator or denominator marks the degenerate cases.
    """
    if l_word.strands != b_word.strands:
        raise SizeMismatch("strand counts differ")
    top = det_one_minus(burau(l_word, True))
    bot = det_one_minus(burau(b_word * l_word, True))
    if bot.is_zero:
        raise ZeroDenominator("denominator determinant vanishes")
    return RatFunc(top, bot)


def unit_match(a: RatFunc, b: RatFunc) -> tuple[int, int] | None:
    """If a = sign * q^k * b, return (sign, k); otherwise None."""
    return (a.num * b.den).is_unit_multiple_of(b.num * a.den)


# ---------------------------------------------------------------------------
# free-group words, the meridian walk, the Artin action and longitudes
# ---------------------------------------------------------------------------

def free_reduce(word: Iterable[int]) -> Word:
    out: list[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def word_inverse(word: Sequence[int]) -> Word:
    return tuple(-g for g in reversed(word))


def _meridians(b: BraidWord) -> tuple[list[Word], list[tuple[int, Word]]]:
    """Walk the word with the meridian of every strand position.

    The Wirtinger update keeps the left-to-right meridian product
    constant.  Returns the meridians at the bottom and, for each letter,
    the 0-based strand that passes under with the over-strand's meridian
    read with the crossing sign.  Every letter the walk builds (a
    conjugate before it is reduced, and a picked word) is counted, and
    past MAX_WALK_LETTERS the walk is refused before it reduces.
    """
    merid: list[Word] = [(p + 1,) for p in range(b.strands)]
    strand_at = list(range(b.strands))
    picks: list[tuple[int, Word]] = []
    built = 0
    for g in b.word:
        k = abs(g) - 1
        x, y = merid[k], merid[k + 1]
        if g > 0:
            # the strand at position k + 1 passes over the one at k
            under, picked, conj = k, y, word_inverse(y) + x + y
        else:
            under, picked = k + 1, word_inverse(x)
            conj = x + y + picked
        built += len(conj) + len(picked)
        if built > MAX_WALK_LETTERS:
            raise DomainError(f"the meridian walk of {len(b.word)} letters "
                              f"on {b.strands} strands builds more than "
                              f"{MAX_WALK_LETTERS} letters")
        picks.append((strand_at[under], picked))
        merid[k], merid[k + 1] = ((y, free_reduce(conj)) if g > 0
                                  else (free_reduce(conj), x))
        strand_at[k], strand_at[k + 1] = strand_at[k + 1], strand_at[k]
    return merid, picks


def artin_action(b: BraidWord) -> tuple[Word, ...]:
    """Images of the free generators: s_i sends x_i to x_i x_{i+1} x_i^-1
    and x_{i+1} to x_i; composition follows the word left to right.  They
    are the bottom meridians of the inverse word."""
    return tuple(_meridians(b.inverse())[0])


def longitudes(b: BraidWord) -> tuple[Word, ...]:
    """Zero-linking longitudes read at the bottom of the cylinder.

    Each strand collects the words the meridian walk picks where it
    passes under.  The raw word L is then framed as x_i^-1 L x_i^(1-e)
    with e the exponent sum of L, which makes the linking number with the
    union of all strands zero.
    """
    if not b.is_pure:
        raise NotPure("longitudes need a pure braid")
    raw: list[list[int]] = [[] for _ in range(b.strands)]
    for strand, picked in _meridians(b)[1]:
        raw[strand].extend(picked)
    out = []
    for gen, letters in enumerate(raw, start=1):
        body = free_reduce(letters)
        e = sum(1 if g > 0 else -1 for g in body)
        framed = (-gen,) + body + ((gen,) * (1 - e) if e <= 1
                                   else (-gen,) * (e - 1))
        out.append(free_reduce(framed))
    return tuple(out)


# ---------------------------------------------------------------------------
# Magnus expansion
# ---------------------------------------------------------------------------

def _too_many():
    raise DomainError(f"the Magnus expansion holds more than "
                      f"{MAX_MAGNUS_WORDS} words; lower the order")


def _too_much_work():
    raise DomainError(f"the Magnus expansion visits more than "
                      f"{MAX_MAGNUS_WORK} words; lower the order")


def magnus(word: Sequence[int], nvars: int, order: int) -> dict[Word, int]:
    """Magnus embedding x_i -> 1 + u_i, truncated at total degree order:
    the coefficient of each word, a tuple of 1-based variable indices.

    A word longer than the order whose words up to the order over its
    generators number at most MAX_PACKED_DIGITS is expanded packed (see
    _packed); any other word over one dict per degree (see _magnus).
    """
    if order < 0:
        raise IndexOutOfRange("order must be >= 0")
    for g in word:
        if not 0 < abs(g) <= nvars:
            raise DomainError(f"letter {g} is not a generator of 1..{nvars}")
    return _magnus(word, order, 0)[0]


def _magnus(word: Sequence[int], order: int,
            work: int) -> tuple[dict[Word, int], int]:
    """magnus, and work plus the work of its letters, refused past
    MAX_MAGNUS_WORK.  On the dict route each letter passes over every word
    held, and the count is taken once per letter; on the packed route
    each letter is charged the digits it rebuilds, and the count is taken
    before anything is built.  milnor passes the count on from one
    longitude to the next, so that the bound holds for all of them.

    The dict route holds degree m as a dict of the words of length m and
    runs the recurrence of _packed, but reads the word left to right and
    appends each letter: x_i multiplies the series on the right by
    1 + u_i, which adds degree m - 1 followed by i to degree m (m
    descending, so that each reads the old degree below it), and x_i^-1
    by its inverse, whose product P' with P solves P' = P - P' u_i (m
    ascending).  The words are counted as they are added, so a refused
    expansion holds at most MAX_MAGNUS_WORDS + 1 of them.
    """
    letters = sorted({abs(g) for g in word})
    b = len(letters)
    if (len(word) > order
            and sum(b ** m for m in range(order + 1)) <= MAX_PACKED_DIGITS):
        frame = Frame(comb(len(word) + order, order))
        # each letter rebuilds degrees 1 .. order (see PACKED_BITS_PER_VISIT)
        work += len(word) * sum(-(-b ** m * frame.width
                                  // PACKED_BITS_PER_VISIT)
                                for m in range(1, order + 1))
        if work > MAX_MAGNUS_WORK:
            _too_much_work()
        return _packed(word, letters, order, frame), work
    series: list[dict[Word, int]] = [{(): 1}] + [{} for _ in range(order)]
    held = 1
    up = range(1, order + 1)
    down = up[::-1]
    for g in word:
        work += held
        if work > MAX_MAGNUS_WORK:
            _too_much_work()
        pos = g > 0
        tail = (abs(g),)
        for m in down if pos else up:
            deg = series[m]
            get = deg.get
            for w, c in series[m - 1].items():
                key = w + tail
                v = get(key)
                if v is None:
                    held += 1
                    if held > MAX_MAGNUS_WORDS:
                        _too_many()
                    deg[key] = c if pos else -c
                else:
                    v = v + c if pos else v - c
                    if v:
                        deg[key] = v
                    else:
                        del deg[key]
                        held -= 1
    return {w: c for deg in series for w, c in deg.items()}, work


def _packed(word: Sequence[int], letters: list[int], order: int,
            frame: Frame) -> dict[Word, int]:
    """The Magnus expansion of word, whose generators are letters
    (ascending), with degree m held as one integer of b^m digits.

    The word of degree m with the letter places p_1 .. p_m is digit
    p_1 b^(m-1) + .. + p_m, so prepending the letter at place p to a word
    of degree m - 1 moves its digit up by p b^(m-1).  The word is read
    right to left: x_p multiplies the series on the left by 1 + u_p,
    which adds degree m - 1 shifted so to degree m (m descending, so that
    each reads the old degree below it), and x_p^-1 by its inverse, whose
    product P' with P solves P' = P - u_p P' (m ascending).  A word of
    degree m splits among the L letters in C(L + m - 1, m) ways, one sign
    each, so that binomial bounds every coefficient, and frame, of
    C(L + order, order), makes every one a digit.
    """
    b = len(letters)
    w = frame.width
    shifts = {}
    for p, g in enumerate(letters):
        shifts[g] = shifts[-g] = [p * b ** m * w for m in range(order)]
    packed = [1] + [0] * order
    up = range(1, order + 1)
    down = up[::-1]
    for g in reversed(word):
        s = shifts[g]
        if g > 0:
            for m in down:
                packed[m] += packed[m - 1] << s[m - 1]
        else:
            for m in up:
                packed[m] -= packed[m - 1] << s[m - 1]
    out = {(): 1}
    for m in up:
        digits = frame.digits(packed[m], b ** m)
        out.update(zip(compress(product(letters, repeat=m), digits),
                       filter(None, digits)))
    return out


def _ending_in_1(word: Sequence[int], order: int) -> list[int]:
    """For m = 0..order, the sum of the Magnus coefficients of the words of
    length m that end in u_1, without expanding the series.

    T is the image of the series under u_i -> t, a truncated integer
    polynomial, and E the part of T that comes from words ending in u_1.
    A letter x_i multiplies on the right by 1 + u_i: T becomes T (1 + t),
    and for i = 1 the new words w u_1 add t T to E.  A letter x_i^-1
    multiplies by the geometric series in -u_i: T becomes T' = T / (1 + t),
    an alternating running sum, and for i = 1 the terms that grew a tail
    of u_1's add T' - T to E.
    """
    tot = [1] + [0] * order
    end = [0] * (order + 1)
    for letter in word:
        if letter > 0:
            new = tot[:1] + [a + b for a, b in zip(tot[1:], tot)]
            if letter == 1:
                end = [0] + [a + b for a, b in zip(end[1:], tot)]
        else:
            new, run = [], 0
            for c in tot:
                run = c - run
                new.append(run)
            if letter == -1:
                end = [e + a - b for e, a, b in zip(end, new, tot)]
        tot = new
    return end


# ---------------------------------------------------------------------------
# Milnor invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MilnorTable:
    """mu indexed by (i_1, ..., i_r, i): the coefficient of u_{i_1}..u_{i_r}
    in the expanded longitude of strand i, for r + 1 <= order."""

    strands: int
    order: int
    entries: dict[Word, int]

    def mu(self, *index: int) -> int:
        return self.entries.get(tuple(index), 0)


def milnor(b: BraidWord, order: int) -> MilnorTable:
    if order < 1:
        raise IndexOutOfRange("order must be >= 1")
    if not b.is_pure:
        raise NotPure("Milnor invariants need a pure braid")
    entries: dict[Word, int] = {}
    work = 0
    for i, lon in enumerate(longitudes(b), start=1):
        series, work = _magnus(lon, order - 1, work)
        for word, coeff in series.items():
            if word and coeff:
                entries[word + (i,)] = coeff
    return MilnorTable(b.strands, order, entries)


# ---------------------------------------------------------------------------
# Alexander-Conway catalog for 2-braid closures
# ---------------------------------------------------------------------------

def conway_torus2(k: int) -> Poly:
    """Conway polynomial (variable t = q - 1/q) of the closure of s1^k.

    By the skein relation C_k = C_(k-2) - t C_(k-1) from C_0 = 0 (the
    split unlink) and C_1 = 1 (the unknot), so the k = 2 Hopf value is -t;
    negative k mirrors by t -> -t.
    """
    prev, cur = [1], []             # C_-1 and C_0
    sign = -1 if k > 0 else 1       # t -> -t for the mirror
    for _ in range(abs(k)):
        prev, cur = cur, [a + sign * c for a, c in
                          zip_longest(prev, [0] + cur, fillvalue=0)]
    return Poly(cur)


def laurent_to_t_poly(p: Laurent) -> Poly:
    """Rewrite a Laurent polynomial lying in Z[q - 1/q] as a dense
    polynomial in t."""
    return _unsubstitute(p, -1)


def t_poly_to_laurent(p: Poly) -> Laurent:
    return _substitute(p, -1)


# ---------------------------------------------------------------------------
# the surgery series identity for two-strand string links
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevinReport:
    lhs: TruncSeries
    rhs: TruncSeries
    holds: bool
    degenerate: bool


def levin_check(b: BraidWord, order: int) -> LevinReport:
    """Compare the Alexander-Conway ratio of the two closures of a pure
    2-strand braid with its Milnor-invariant series.

    Vertical closure over horizontal closure, expanded in u through the
    substitution q - 1/q = u (1+u)^(-1/2), must equal
    (1+u)^(1/2) * sum_k (sum over index words mu_{i_1..i_k,1,1}) u^(k+1).
    The inner sums come from the longitude of strand 1 by _ending_in_1,
    with no Magnus expansion.  The vertical closure's polynomial comes
    from the torus catalog; the horizontal closure of any pure 2-braid is
    an unknot, whose polynomial is 1.
    """
    if b.strands != 2:
        raise DomainError("the series identity is implemented for 2 strands")
    if not b.is_pure:
        raise NotPure("need a pure braid")
    # the walk's bound refuses a long word before the catalog is built
    lon = longitudes(b)[0]
    conway_v = conway_torus2(b.exponent_sum())
    sqrt = series_sqrt1p(order)
    t_series = TruncSeries.u(order) * sqrt.inverse()
    lhs = t_series.compose_poly(conway_v.coeffs)
    rhs = sqrt * TruncSeries(order, _ending_in_1(lon, order))
    residual = lhs - rhs
    degenerate = conway_v.is_zero
    return LevinReport(lhs, rhs, residual.is_zero, degenerate)
