"""Christoffel-Darboux suite."""

import dataclasses
import hashlib
import random

import pytest

from coxkit import identities
from coxkit.algebra import (BiLaurent, Laurent, Poly, RatFunc, bezoutian,
                            wronskian)
from coxkit.diagram import build, random_tree
from coxkit.errors import BadType, ShapeViolation, SizeMismatch, UnknownVertex
from coxkit.identities import (binet_cauchy, cd_char, cd_coxeter,
                               cd_wronskian, chain_identities, poincare_cd,
                               poincare_cd_antipodal_choices)
from coxkit.kostant import klein_data, klein_types
from coxkit.report import IdentityReport, nonzero_terms


# -- Coxeter-polynomial forms -------------------------------------------------

def test_cd_coxeter_a2_end():
    assert cd_coxeter(build("A", 2), 0).holds


def test_cd_coxeter_single_vertex():
    rep = cd_coxeter(build("A", 1), 0)
    assert rep.holds
    assert rep.lhs == BiLaurent({(0, 0): 1, (-1, -1): -1})


def test_cd_coxeter_random_trees():
    rng = random.Random(29)
    for _ in range(40):
        d = random_tree(rng, rng.randint(1, 8), (1, 2))
        pivot = rng.randrange(d.n)
        assert cd_coxeter(d, pivot).holds


def test_cd_coxeter_on_cycles_with_cross_terms():
    for n in (2, 3, 4, 5):
        d = build("affA", n)
        for pivot in range(d.n):
            assert cd_coxeter(d, pivot).holds


def test_cd_wronskian_single_vertex():
    rep = cd_wronskian(build("A", 1), 0)
    assert rep.holds
    assert rep.lhs == Laurent({0: 1, -2: -1})


def test_cd_wronskian_a3_middle():
    assert cd_wronskian(build("A", 3), 1).holds


def test_cd_wronskian_is_diagonal_limit():
    rng = random.Random(31)
    for _ in range(20):
        d = random_tree(rng, rng.randint(1, 7), (1, 2))
        pivot = rng.randrange(d.n)
        bez = cd_coxeter(d, pivot)
        wr = cd_wronskian(d, pivot)
        assert bez.residual.subs_y_eq_x() == wr.residual
        assert wr.holds


# -- chain bundle --------------------------------------------------------------

def test_chain_full_path():
    reps = chain_identities(build("A", 7), list(range(7)))
    assert reps and all(r.holds for r in reps)


def test_chain_single_vertex_tail_is_vacuous():
    reps = chain_identities(build("A", 4), [0])
    assert all(r.holds for r in reps)


def test_chain_affine_e8_arm():
    reps = chain_identities(build("affE", 8), [0, 1, 2, 3, 4, 5])
    assert all(r.holds for r in reps)


def test_chain_shape_violation():
    with pytest.raises(ShapeViolation):
        chain_identities(build("D", 5), [0, 2, 3])  # fork mid-tail
    with pytest.raises(ShapeViolation):
        chain_identities(build("affA", 1), [0, 1])  # weight-2 edge


def test_chain_transfer_matrix_and_ratio_content():
    reps = chain_identities(build("A", 5), [0, 1, 2, 3, 4])
    names = {r.name for r in reps}
    assert "chain-recurrence-1" in names
    assert "chain-transfer-3" in names
    assert "chain-ratio-2" in names
    assert "chain-bez-4" in names and "chain-wr-4" in names


def test_chain_transfer_counts_the_residual_of_a_wrong_input(monkeypatch):
    # C_0 off by q^7: the transfer matrix carries the error into its
    # second row at step 2, then into both rows, times z below, at step 3
    d = build("A", 5)
    real = identities.coxeter_poly
    monkeypatch.setattr(identities, "coxeter_poly", lambda g: real(g) + (
        Laurent.q(7) if g.n == d.n else Laurent.zero()))
    reps = {r.name: r for r in chain_identities(d, range(5))}
    assert reps["chain-transfer-1"].holds
    for i, parts in ((2, [0, 0, 1, 0]), (3, [1, 0, 2, 0])):
        rep = reps[f"chain-transfer-{i}"]
        assert [nonzero_terms(x) for x in rep.residual] == parts
        assert not rep.holds and rep.residual_terms == sum(parts)


def test_compare_of_equal_sides_gives_the_residual_of_their_difference():
    # equal sides that are distinct objects: the residual is lhs - rhs in
    # value, type and repr, without a subtraction
    for lhs, rhs in ((Laurent({-2: 3, 1: -1}), Laurent({1: -1, -2: 3})),
                     (Laurent(), Laurent()),
                     (BiLaurent({(0, -1): 2, (3, 1): 1}),
                      BiLaurent({(3, 1): 1, (0, -1): 2})),
                     (BiLaurent(), BiLaurent()),
                     (Poly((1, -2, 5)), Poly((1, -2, 5))),
                     (Poly(), Poly())):
        assert lhs is not rhs
        rep = IdentityReport.compare("same", lhs, rhs)
        want = lhs - rhs
        assert rep == IdentityReport("same", lhs, rhs, want, True)
        assert type(rep.residual) is type(want)
        assert repr(rep.residual) == repr(want)
        assert rep.holds and rep.residual_terms == 0


def test_compare_of_sides_that_differ_subtracts_them():
    for lhs, rhs in ((Laurent.z(), Laurent.q(1)), (Laurent.z(), Laurent()),
                     (BiLaurent({(0, -1): 2}), BiLaurent({(0, -1): 3})),
                     (Poly((1, 2)), Poly((1, 3)))):
        rep = IdentityReport.compare("differ", lhs, rhs)
        want = lhs - rhs
        assert rep == IdentityReport("differ", lhs, rhs, want, False)
        assert repr(rep.residual) == repr(want)
        assert rep.residual_terms == nonzero_terms(want) > 0
    # sides of two rings neither compare equal nor subtract
    with pytest.raises(TypeError):
        IdentityReport.compare("rings", Laurent.one(), BiLaurent({(0, 0): 1}))


def _count_pairings(monkeypatch) -> dict:
    """Count the bezoutian and wronskian calls of identities, and the
    decodes of a packed side (Frame.laurents, which bilaurents reads)."""
    from coxkit.algebra import Frame

    calls = {"bezoutian": 0, "wronskian": 0, "decode": 0}
    for name in ("bezoutian", "wronskian"):
        def counted(f, g, real=getattr(identities, name), name=name):
            calls[name] += 1
            return real(f, g)

        monkeypatch.setattr(identities, name, counted)

    def decode(frame, xs, *args, real=Frame.laurents):
        calls["decode"] += 1
        return real(frame, xs, *args)

    monkeypatch.setattr(Frame, "laurents", decode)
    return calls


def _taken(calls) -> dict:
    out = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    return out


def test_the_forms_call_the_pairings_bound_in_the_module(monkeypatch):
    # a form that holds is decided packed and makes no pairing until a side
    # is read; the pairing is looked up when it runs, so a patched (or
    # traced) bezoutian or wronskian sees the calls of every form
    calls = _count_pairings(monkeypatch)
    pivot = [cd_coxeter(build("D", 5), 2), cd_wronskian(build("D", 5), 2)]
    chain = chain_identities(build("A", 5), range(5))
    assert all(r.holds for r in pivot + chain)
    assert _taken(calls) == {"bezoutian": 0, "wronskian": 0, "decode": 0}
    # the first read of a side makes both sums, each pairing its boundary
    assert pivot[0].lhs == pivot[0].rhs and pivot[1].rhs == pivot[1].lhs
    assert _taken(calls) == {"bezoutian": 2, "wronskian": 2, "decode": 0}
    assert all(r.lhs == r.rhs for r in chain)
    assert _taken(calls) == {"bezoutian": 8, "wronskian": 8, "decode": 0}
    # a fresh data object, so the type's table is built here
    assert all(r.holds for r in poincare_cd(klein_data("affE", 6), 0))
    assert _taken(calls) == {"bezoutian": 7, "wronskian": 7, "decode": 0}


def test_holding_reports_make_their_sides_once_and_only_when_read(
        monkeypatch):
    calls = _count_pairings(monkeypatch)
    rng = random.Random(41)
    graphs = [build("E", 6), build("affA", 5), build("affD", 6),
              random_tree(rng, 9, (1, 2))]
    reports = []
    for d in graphs:
        for p in range(d.n):
            reports += [cd_coxeter(d, p), cd_wronskian(d, p)]
        reports += cd_char(d, rng.randrange(d.n), rng.randrange(d.n))
        reports += cd_char(d, 0, 0)
    d, tail = _tree_with_path_tail(rng, 4, 4)
    reports += [r for r in chain_identities(d, tail)
                if r.name.startswith(("chain-bez", "chain-wr"))]
    assert all(r.holds for r in reports) and len(reports) == 78
    assert not any(_taken(calls).values())
    for k, rep in enumerate(reports):
        first = rep.rhs if k % 2 else rep.lhs
        taken = _taken(calls)
        # one pairing for each side of a sum, one decode of a packed form
        want = ({"decode": 1} if rep.name.startswith("cd-char") else
                {"bezoutian" if "bez" in rep.name else "wronskian": 2})
        assert taken == {**dict.fromkeys(calls, 0), **want}, rep.name
        assert (rep.rhs if k % 2 else rep.lhs) is first
        assert rep.lhs == rep.rhs and hash(rep)
        assert not any(_taken(calls).values())


def test_sides_read_after_other_diagrams_are_the_reports_own():
    # every report is made before any side is read, so the packed table
    # memo, which keeps one diagram, holds the last one when the first
    # report is read
    from coxkit.coxeter import char_poly, cofactors, schur_step

    rng = random.Random(43)
    graphs = _cd_graphs(29)[2:9]
    made = []
    for d in graphs:
        i, j = rng.randrange(d.n), rng.randrange(d.n)
        p = rng.randrange(d.n)
        made.append((d, i, j, p, cd_char(d, i, j), cd_coxeter(d, p),
                     cd_wronskian(d, p)))
    for d, i, j, p, packed, bez, wr in made:
        _same_reports(packed, _dict_cd_char(char_poly(d), cofactors(d), i, j))
        step = schur_step(d, p)
        for rep, form in ((bez, True), (wr, False)):
            assert _sides(rep) == _cd_oracle(
                rep.name, [(step.total, step.base)],
                [(step.base, step.terms)], [step.base], form)


def test_a_report_made_on_demand_equals_the_one_built_with_its_sides():
    import copy

    lhs, zero = Laurent({-1: 2, 3: 1}), Laurent.zero()
    made = []
    late = IdentityReport.on_demand(
        "late", zero, lambda: made.append(1) or (lhs, lhs))
    built = IdentityReport("late", lhs, lhs, zero, True)
    assert late.holds and late.residual_terms == 0 and not made
    assert late == built and hash(late) == hash(built)
    assert repr(late) == repr(built) and made == [1]
    assert dataclasses.replace(late, holds=False) == IdentityReport(
        "late", lhs, lhs, zero, False)
    assert copy.copy(late) == built and made == [1]
    # a second late report is read through ==, from either side
    other = IdentityReport.on_demand("late", zero, lambda: (lhs, lhs))
    assert built == other
    with pytest.raises(AttributeError):
        late.missing
    with pytest.raises(dataclasses.FrozenInstanceError):
        late.lhs = zero
    # a sides() that raises is run again on the next read
    tries = []

    def failing():
        tries.append(1)
        raise ZeroDivisionError

    broken = IdentityReport.on_demand("broken", Laurent.one(), failing)
    assert not broken.holds and broken.residual_terms == 1
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            broken.rhs
    assert tries == [1, 1]


# -- characteristic-polynomial forms --------------------------------------------

def test_cd_char_a1():
    r8, r9 = cd_char(build("A", 1), 0, 0)
    assert r8.holds and r9.holds


def test_cd_char_a2_all_pairs():
    d = build("A", 2)
    for i in range(2):
        for j in range(2):
            r8, r9 = cd_char(d, i, j)
            assert r8.holds and r9.holds


def test_cd_char_affine_e6():
    d = build("affE", 6)
    rng = random.Random(2)
    for _ in range(6):
        i, j = rng.randrange(d.n), rng.randrange(d.n)
        r8, r9 = cd_char(d, i, j)
        assert r8.holds and r9.holds


def test_cd_char_frozen_a2_bezoutian():
    # Bez(z^2-1, z) = xy + 1 by direct expansion
    d = build("A", 2)
    r8, _ = cd_char(d, 0, 0)
    assert r8.lhs == BiLaurent({(1, 1): 1, (0, 0): 1})


# -- Binet-Cauchy ----------------------------------------------------------------

def test_binet_cauchy_m1_reduces_to_cofactor_form():
    assert binet_cauchy(build("A", 5), 0, 1, [2], [3]).holds


def test_binet_cauchy_m2_a3():
    assert binet_cauchy(build("A", 3), 0, 2, [2, 5], [3, 7]).holds


def test_binet_cauchy_full_size_a2():
    assert binet_cauchy(build("A", 2), 0, 1, [2, 3], [5, 7]).holds


def test_binet_cauchy_m3_a5():
    assert binet_cauchy(build("A", 5), 1, 3, [1, 2, 3], [4, 5, 6]).holds


def test_binet_cauchy_counts_each_part_that_disagrees(monkeypatch):
    d = build("A", 5)
    real_det = identities._bareiss
    with monkeypatch.context() as m:
        m.setattr(identities, "_bareiss", lambda mat: real_det(mat) + 1000)
        rep = binet_cauchy(d, 0, 1, [2, 3], [5, 7])
    # only the determinant sum disagrees, and the residual keeps by how much
    assert not rep.holds and rep.residual_terms == 1
    assert rep.residual[-1] == rep.lhs - rep.rhs == 42557000
    real_cd = identities.cd_char

    def bezoutian_plus_one(d, i, j):
        r8, r9 = real_cd(d, i, j)
        return IdentityReport.compare(
            r8.name, r8.lhs + BiLaurent({(0, 0): 1}), r8.rhs), r9

    monkeypatch.setattr(identities, "cd_char", bezoutian_plus_one)
    rep = binet_cauchy(d, 0, 1, [2, 3], [5, 7])
    # the cofactor form, all four sampled entries and the determinant sum
    assert not rep.holds and rep.residual_terms == 1 + 4 + 1
    assert rep.residual[1:-1] == (-1, -1, -1, -1)
    assert rep.residual[-1] == rep.lhs - rep.rhs != 0


def test_binet_cauchy_size_checks():
    with pytest.raises(SizeMismatch):
        binet_cauchy(build("A", 3), 0, 1, [1, 2], [3])
    with pytest.raises(SizeMismatch):
        binet_cauchy(build("A", 2), 0, 1, [1, 2, 3], [4, 5, 6])


# -- Poincare-series forms ---------------------------------------------------------

def test_poincare_cd_leaf_of_d4():
    data = klein_data("affD", 4)
    for leaf in (3, 4):
        rb, rw = poincare_cd(data, leaf)
        assert rb.holds and rw.holds


def test_poincare_cd_full_diagram_e6():
    data = klein_data("affE", 6)
    rb, rw = poincare_cd(data, 0)
    assert rb.holds and rw.holds


def test_poincare_cd_every_vertex_tree_families():
    for fam, n in [("affD", 4), ("affD", 6), ("affE", 6), ("affE", 7)]:
        data = klein_data(fam, n)
        for i in range(data.vertex_count):
            rb, rw = poincare_cd(data, i)
            assert rb.holds and rw.holds, (fam, n, i)


def test_poincare_cd_cycle_pairs():
    data = klein_data("affA", 3)
    rb, rw = poincare_cd(data, 1, 2)
    assert rb.holds and rw.holds
    for n in range(1, 7):
        data = klein_data("affA", n)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                rb, rw = poincare_cd(data, i, j)
                assert rb.holds and rw.holds, (n, i, j)


def test_poincare_cd_cycle_full_diagram():
    for n in range(1, 7):
        rb, rw = poincare_cd(klein_data("affA", n), 0)
        assert rb.holds and rw.holds


def test_poincare_cd_antipodal_both_choices():
    for n in (3, 5, 7):
        reps = poincare_cd_antipodal_choices(klein_data("affA", n))
        mid = (n + 1) // 2
        assert [r.name for r in reps] == [
            "antipodal-parents-agree",
            f"poincare-cd-antipodal-parent{mid - 1}",
            f"poincare-cd-antipodal-parent{mid + 1}",
            f"poincare-cd-affA{n}-{mid}-{mid}-bez",
            f"poincare-cd-affA{n}-{mid}-{mid}-wr"]
        assert all(r.holds for r in reps)
    with pytest.raises(BadType):
        poincare_cd_antipodal_choices(klein_data("affA", 4))


def test_poincare_cd_rejects_bad_usage():
    with pytest.raises(BadType):
        poincare_cd(klein_data("affD", 4), 1, 2)
    with pytest.raises(BadType):
        poincare_cd(klein_data("affA", 4), 2)


def _poincare_cd_args(data):
    """Every argument of poincare_cd: vertex 0 and each pair on a cycle,
    each vertex on a tree."""
    if data.family == "affA":
        return [(0, None)] + [(i, j) for i in range(1, data.n + 1)
                              for j in range(i, data.n + 1)]
    return [(i, None) for i in range(data.vertex_count)]


# sha256 of every poincare_cd report (name, holds, lhs, rhs, residual) of a
# Klein type over _poincare_cd_args, computed while poincare_cd still built
# the diagram on every call
POINCARE_CD_SHA256 = {
    "affA1":
        "19228e8cad7b5f6816a457d09aeb8b3b97e5237d25b0c9e412883206c3e54e18",
    "affA2":
        "4dbd9495a1856b6ad0fe97e78feac4c9d79d86161b57c12cc0e4ca5d6883c324",
    "affA3":
        "82020e8dfd9a07efe461a069e8fa3506facb00906f6d72399616991b4c4ee5ff",
    "affA4":
        "10209e7d995a81dfba9274728ecbe54249a895a24963c2521e30cac508bb92dc",
    "affA5":
        "ca46836d92e4ea29bda75747b8e0d7a5726cd9b9a53af766810264cef2177c97",
    "affA6":
        "786328d4715b267367e6b5ee56cd6a69ba61a8f1e2be7faf22b0e5bb931fc21c",
    "affA7":
        "5e3a9f31a868e7425c1c5d14c64740db3c84e3062a20dc36ab985cd758047666",
    "affA8":
        "619b67481647bfb912a0a4a3f272c13230f4360daaa249e088f98d7a55b25975",
    "affA9":
        "dee7ccc7486e3a6c964f4ea710fe7eb9c2008cc68b1983c818b60e39ca260981",
    "affA10":
        "fc859ee3ed282b50e5d98cabcf47a1fc0f9e58fe56b04930c1d37a9032a4b4ef",
    "affA11":
        "ce18dfb3b47b962b7f35f98676aeabfe3a41cd222654e99ecde04db4bf22904c",
    "affA12":
        "3e4cfd9f9e06b1f7f5d4669dae30b0a00fcf069e1245d3c2ec1ac3ee8149e256",
    "affA13":
        "11615e02862f6490a0bd66d1e8a95f230ab3dc95e8f202a6c6b9cd5a611b536c",
    "affA14":
        "f2d4bc24aa1528d2359995d1dbf310f9a317e0b1a8191aecbb49111024f5a3e9",
    "affA15":
        "06a8f5afba0df0efc64a8f0dbd495d5938afa5f2e09baf0144fe19773c76f08f",
    "affA16":
        "ab671e621a1a8f15f2cb4a5916013a13f4bcc9c2b6ae9b148a117f1fc608c8eb",
    "affD4":
        "3d6487c44c7f5e4f62bd2dd12a95a1e1a468ca51da94b9b129b6172ed91a3f6b",
    "affD5":
        "80b7413fea798653a1b5e579eb123f6fd1289d882e7b7a01dcc959fb88478876",
    "affD6":
        "369e7f5272594dd1886a689c04929694d1849983b80be0e94e6e79bb2aacbd4a",
    "affD7":
        "1f645cca4a2ba56a68505b21edf79abc9103a70579996bd255e84c075b1c8dc8",
    "affD8":
        "ecbd023c9df4b0e756b916f2b380d5ee8bad79e01f94dc17278e2c1dd2dcc6c0",
    "affD9":
        "904192f46457056fc5d4197cc10406a830078a381292d853cb767b57e8a7b8a8",
    "affD10":
        "c84f2f17c523f10c12bf0ed18748c3f80547ba1754b133446e3d7633e1281f56",
    "affD11":
        "453cc7f2e5012237c0fd04888880b370e4eca08bcf67a50f4caf9ddb30c4f286",
    "affD12":
        "ba8b206baf7acd70f9c4bb8281dff790e47c5f8796762d6fd612c51ffb032535",
    "affD13":
        "b2788c479ac251fd0ecbf618d798e5f0f4a1616246842af69b7d66764391de72",
    "affD14":
        "86056e37e94c4b494f78325f2b5426bb2eabef00015ca036d185560f86197f81",
    "affD15":
        "7325991cc6851fdb1213e829198a5743ba320051672ca108e7507e632a8dd496",
    "affD16":
        "e95072a8ad7bc29744107f5e3f3a5c26ea166d3bb410d866046d3ae90a6331b9",
    "affE6":
        "4ed027ce8f1e626f348a6f77b1562da6d6f9772b0389153360cc75bc5f4cd0a3",
    "affE7":
        "44f16ec9f555cd4bcd41ef9ab47d8b2a09df61e0495fe3a345b0b5d1eb112659",
    "affE8":
        "a5ab6fbe74138b1248cad30c12d38d0a2ad29deaeac7e89192dda930427283bf",
}


@pytest.mark.parametrize("fam,n", klein_types(16))
def test_poincare_cd_reports_are_pinned(fam, n):
    data = klein_data(fam, n)
    digest = hashlib.sha256()
    for i, j in _poincare_cd_args(data):
        for r in poincare_cd(data, i, j):
            digest.update(f"{r.name} {r.holds} {r.lhs.items()} "
                          f"{r.rhs.items()} {r.residual.items()}\n".encode())
    assert digest.hexdigest() == POINCARE_CD_SHA256[f"{fam}{n}"]


@pytest.mark.parametrize("fam,n,i,j,error,message", [
    ("affA", 3, 1, None, BadType, "cycle family needs a vertex pair for i > 0"),
    ("affA", 3, 0, 0, BadType, "cycle form needs 1 <= i <= j <= n"),
    ("affA", 3, 2, 1, BadType, "cycle form needs 1 <= i <= j <= n"),
    ("affA", 3, 1, 4, BadType, "cycle form needs 1 <= i <= j <= n"),
    ("affA", 3, 4, None, UnknownVertex, "no vertex 4"),
    ("affA", 1, -1, None, UnknownVertex, "no vertex -1"),
    ("affD", 4, 0, 1, BadType, "vertex pairs only apply to the cycle family"),
    ("affD", 4, 5, None, UnknownVertex, "no vertex 5"),
    ("affD", 4, -1, None, UnknownVertex, "no vertex -1"),
    ("affE", 6, 7, None, UnknownVertex, "no vertex 7"),
    ("affE", 8, 9, 9, BadType, "vertex pairs only apply to the cycle family"),
])
def test_poincare_cd_error_paths(fam, n, i, j, error, message):
    with pytest.raises(error) as info:
        poincare_cd(klein_data(fam, n), i, j)
    assert str(info.value) == message


def _poincare_cd_oracle(data, i, j):
    """The reports of poincare_cd summed afresh, one _cd call per form over
    the explicit boundary and inside: the cycle arc i..j, or the branch
    below i.  On a tree, searches from the neighbors of i that do not
    cross i find its parent (the one whose search reaches the affine
    vertex 0) and its branch (i and what the other searches reach)."""
    zt = data.z_table
    if j is not None:
        wrap = [*zt, zt[0]]
        left = [(wrap[i - 1], wrap[i]), (wrap[j + 1], wrap[j])]
        inside = range(i, j + 1)
    elif i == 0:
        left, inside = [(data.numerator(-1), zt[0])], range(len(zt))
    else:
        d = data.diagram()

        def reach(start):
            seen, todo = {start}, [start]
            while todo:
                for u in d.neighbors(todo.pop()):
                    if u != i and u not in seen:
                        seen.add(u)
                        todo.append(u)
            return seen

        sides = {u: reach(u) for u in d.neighbors(i)}
        (parent,) = [u for u, side in sides.items() if 0 in side]
        branch = {i}.union(*(side for u, side in sides.items()
                             if u != parent))
        left, inside = [(zt[parent], zt[i])], sorted(branch)
    name = f"poincare-cd-{data.family}{data.n}-{i}" + (f"-{j}" if j else "")
    return tuple(identities._cd(form, name + tag, left, [],
                                [zt[k] for k in inside])
                 for tag, form in (("-bez", identities._BEZ),
                                   ("-wr", identities._WR)))


def _fields(rep):
    return rep.name, rep.holds, rep.lhs, rep.rhs, rep.residual


def test_poincare_cd_table_matches_the_per_term_sums():
    # every Klein type of rank <= 24, two types at a time taking turns of
    # three calls each, so the one-slot table is rebuilt at every turn and
    # reused within one
    types = [klein_data(fam, n) for fam, n in klein_types(24)]
    half = len(types) // 2
    checked = 0
    for pair in zip(types[:half], types[half:]):
        calls = [[(data, *arg) for arg in _poincare_cd_args(data)]
                 for data in pair]
        longest = max(map(len, calls))
        for start in range(0, longest, 3):
            for data, i, j in (*calls[0][start:start + 3],
                               *calls[1][start:start + 3]):
                got = poincare_cd(data, i, j)
                want = _poincare_cd_oracle(data, i, j)
                assert list(map(_fields, got)) == list(map(_fields, want))
                assert all(r.holds for r in got), (data.family, data.n, i, j)
                checked += 1
    assert half == 24 and checked == sum(
        len(_poincare_cd_args(data)) for data in types)


def test_a_hand_built_numerator_table_gets_its_own_table():
    for fam, n, k, args in (("affA", 5, 3, [(0, None), (3, 3), (2, 4)]),
                            ("affD", 6, 2, [(0, None), (1, None), (2, None)])):
        data = klein_data(fam, n)
        for arg in args:
            assert all(r.holds for r in poincare_cd(data, *arg))
        zt = list(data.z_table)
        zt[k] = zt[k] + Laurent.q(1)
        bad = dataclasses.replace(data, z_table=tuple(zt))
        for arg in args:
            for r in poincare_cd(bad, *arg):
                assert not r.holds and r.residual_terms > 0, (fam, arg)
        for arg in args:
            assert all(r.holds for r in poincare_cd(data, *arg))


def test_cycle_pairs_make_each_boundary_pairing_once(monkeypatch):
    # Z_{i-1}, Z_i for i = 0..n and Z_{j+1}, Z_j for j = 1..n: 2n + 1
    # pairings of each form for all n(n + 1)/2 pairs, not one or two a pair
    log = []
    for form in ("_BEZ", "_WR"):
        pair, *rest = getattr(identities, form)

        def logged(f, g, pair=pair, form=form):
            log.append(form)
            return pair(f, g)

        monkeypatch.setattr(identities, form, (logged, *rest))
    n = 12
    data = klein_data("affA", n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    assert len(pairs) == n * (n + 1) // 2
    for i, j in pairs:
        assert all(r.holds for r in poincare_cd(data, i, j))
    assert 0 < log.count("_BEZ") <= 2 * n + 1
    assert 0 < log.count("_WR") <= 2 * n + 1


def test_structural_term_comes_from_algebra_module():
    # the (1 - 1/(xy)) factor is exactly Bez(z, 1)
    assert bezoutian(Laurent.z(), Laurent.one()) == \
        BiLaurent({(0, 0): 1, (-1, -1): -1})


def test_reports_on_small_diagrams_have_zero_residual():
    rng = random.Random(41)
    for _ in range(10):
        d = random_tree(rng, rng.randint(1, 8), (1, 2))
        pivot = rng.randrange(d.n)
        for rep in (cd_coxeter(d, pivot), cd_wronskian(d, pivot)):
            assert rep.holds and rep.residual_terms == 0


def _random_cyclic_graph(rng, n, extra_edges):
    from coxkit.diagram import Diagram

    d = random_tree(rng, n, (1, 2))
    edges = {(i, j): w for (i, j, w) in d.edges()}
    for _ in range(extra_edges):
        i, j = rng.randrange(n), rng.randrange(n)
        key = (min(i, j), max(i, j))
        if i != j and key not in edges:
            edges[key] = rng.choice((1, 2))
    return Diagram(n, edges)


def test_identities_on_random_cyclic_graphs():
    # cycles force nonzero cross cofactors, exercising the sign conventions
    from coxkit.coxeter import (cofactors, identity7_check, path_sum_H,
                                schur_step)

    rng = random.Random(77)
    for _ in range(40):
        d = _random_cyclic_graph(rng, rng.randint(2, 7), rng.randint(1, 3))
        pivot = rng.randrange(d.n)
        assert schur_step(d, pivot).residual.is_zero
        assert cd_coxeter(d, pivot).holds
        assert cd_wronskian(d, pivot).holds
        i, j = rng.randrange(d.n), rng.randrange(d.n)
        r8, r9 = cd_char(d, i, j)
        assert r8.holds and r9.holds
        assert path_sum_H(d, i, j) == cofactors(d)[i, j]
        if i != j:
            assert identity7_check(d, i, j).is_zero


# -- packed cofactor sums against the dict sums ---------------------------------

_CD_WEIGHTS = (-2, -1, 1, 2, 3)


def _cd_graphs(seed: int = 19) -> list:
    """Seeded graphs of 1-13 vertices: a random tree with weights -2, -1,
    1, 2, 3, plus 0-3 chords and 0-2 isolated vertices, relabelled."""
    from coxkit.diagram import Diagram

    rng = random.Random(seed)
    out = []
    for n in range(1, 14):
        loose = rng.randint(0, min(2, n - 1))
        t = random_tree(rng, n - loose, _CD_WEIGHTS)
        edges = {(i, j): w for i, j, w in t.edges()}
        target = len(edges) + rng.randint(0, 3)
        while n - loose > 2 and len(edges) < min(
                target, (n - loose) * (n - loose - 1) // 2):
            i, j = sorted(rng.sample(range(n - loose), 2))
            edges.setdefault((i, j), rng.choice(_CD_WEIGHTS))
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(Diagram(n, {(perm[i], perm[j]): w
                               for (i, j), w in edges.items()}))
    return out


def _dict_cd_char(g, table, i, j):
    """The cofactor forms as sums of BiLaurent outer products and Laurent
    products (test oracle)."""
    from coxkit.report import IdentityReport, nonzero_terms

    n = table.n
    gl = Laurent.from_poly(g)
    h_ij = Laurent.from_poly(table[i, j])
    h_i = [Laurent.from_poly(table[i, k]) for k in range(n)]
    h_j = [Laurent.from_poly(table[j, k]) for k in range(n)]
    rhs8 = BiLaurent.total(map(BiLaurent.outer, h_i, h_j))
    rhs9 = Laurent.total(map(Laurent.__mul__, h_i, h_j))
    return (IdentityReport.compare(f"cd-char-bez-{i}-{j}",
                                   bezoutian(gl, h_ij), rhs8),
            IdentityReport.compare(f"cd-char-wr-{i}-{j}",
                                   wronskian(gl, h_ij), rhs9))


def _same_reports(got, want):
    for g, w in zip(got, want):
        assert (g.name, g.holds, g.residual_terms) == \
            (w.name, w.holds, w.residual_terms)
        assert type(g.lhs) is type(w.lhs) and g.lhs == w.lhs
        assert type(g.rhs) is type(w.rhs) and g.rhs == w.rhs
        assert type(g.residual) is type(w.residual)
        assert g.residual == w.residual


def _pairs(n, rng, most=40):
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return pairs if len(pairs) <= most else rng.sample(pairs, most)


def test_packed_cd_char_matches_dict_sums():
    from coxkit.coxeter import char_poly, cofactors

    rng = random.Random(3)
    graphs = _cd_graphs()
    assert any(len(d.edges()) >= d.n for d in graphs)  # chords
    assert any(not d.neighbors(v) for d in graphs for v in range(d.n))
    for d in graphs:
        g, table = char_poly(d), cofactors(d)
        for i, j in _pairs(d.n, rng):
            got = cd_char(d, i, j)
            assert got[0].holds and got[1].holds
            _same_reports(got, _dict_cd_char(g, table, i, j))


def test_packed_cd_char_widens_its_digits_past_64_bits():
    from coxkit.coxeter import char_poly, cofactors
    from coxkit.diagram import Diagram
    from coxkit.identities import _packed_table

    d = Diagram(4, {(0, 1): 10 ** 6, (1, 2): 3, (2, 3): 10 ** 6})
    g, table = char_poly(d), cofactors(d)
    widest = 0
    for i in range(4):
        for j in range(4):
            got = cd_char(d, i, j)
            _same_reports(got, _dict_cd_char(g, table, i, j))
            widest = max(widest, *(abs(c) for r in got
                                   for _, c in r.lhs.items()))
    assert widest.bit_length() == 120  # past a 64-bit digit
    assert _packed_table(4, d.edges())[0].width > 121


def test_packed_cd_char_failures_match_dict_sums(monkeypatch):
    # a perturbed table makes the identities fail: the Bezoutian then comes
    # from the exact division, and the residuals are decoded.  A huge bump
    # on a diagonal entry makes the cofactor sums far larger than the
    # Bezoutian side, so the width must come from their bound as well.
    from coxkit import identities
    from coxkit.algebra import Poly
    from coxkit.coxeter import CofactorTable, char_poly, cofactors

    rng = random.Random(5)
    for d in _cd_graphs(23)[1:]:
        g = char_poly(d)
        a, b = rng.sample(range(d.n), 2)
        for (r, c), size in [((a, b), 3), ((a, a), 10 ** 10)]:
            rows = [list(row) for row in cofactors(d).entries]
            bump = Poly([rng.randint(-size, size) for _ in range(d.n)])
            rows[r][c] = rows[c][r] = rows[r][c] + bump
            bad = CofactorTable(tuple(map(tuple, rows)))
            monkeypatch.setattr(identities, "cofactors", lambda _d: bad)
            identities._packed_table.cache_clear()
            identities._packed_row.cache_clear()
            for i, j in [(r, c), (c, r), (a, a)] + _pairs(d.n, rng, 6):
                got = cd_char(d, i, j)
                _same_reports(got, _dict_cd_char(g, bad, i, j))
            got = cd_char(d, r, c)
            assert not got[0].holds and got[0].residual_terms > 0
            assert not got[1].holds and got[1].residual_terms > 0
    identities._packed_table.cache_clear()
    identities._packed_row.cache_clear()


def test_folded_right_hand_sides_match_the_per_term_sums():
    from coxkit.coxeter import schur_step

    rng = random.Random(11)
    graphs = [build("affA", n) for n in (2, 3, 5)] + [
        _random_cyclic_graph(rng, rng.randint(3, 8), rng.randint(1, 4))
        for _ in range(12)]
    crossed = 0
    for d in graphs:
        for pivot in range(d.n):
            step = schur_step(d, pivot)
            crossed += bool(step.crosses)
            base = step.base
            bez = BiLaurent.total([
                BiLaurent.outer(base, base) - BiLaurent.outer(
                    base, base).shifted(-1),
                *(wsq * bezoutian(base, g) for _, wsq, g in step.branches),
                *(c * bezoutian(base, p) for _, c, p in step.crosses)])
            wr = Laurent.total([
                Laurent({0: 1, -2: -1}) * base * base,
                *(wsq * wronskian(base, g) for _, wsq, g in step.branches),
                *(c * wronskian(base, p) for _, c, p in step.crosses)])
            rb, rw = cd_coxeter(d, pivot), cd_wronskian(d, pivot)
            assert rb.rhs == bez and rw.rhs == wr
            assert rb.holds and rw.holds
    assert crossed >= 10


def _cd_oracle(name, left, right, inside, bez: bool):
    """(name, lhs, rhs, residual) of a Christoffel-Darboux sum, term by
    term: sum_left F = (1 - u) sum_inside S + sum_right F, with 1 - u
    written out as a product, not as a shift."""
    if bez:
        terms = [BiLaurent.outer(h, h) - BiLaurent.outer(h.shifted(-1),
                                                         h.shifted(-1))
                 for h in inside]
        lhs = BiLaurent.total(bezoutian(f, g) for f, g in left)
        rhs = BiLaurent.total([*terms, *(bezoutian(f, g) for f, g in right)])
    else:
        terms = [Laurent({0: 1, -2: -1}) * h * h for h in inside]
        lhs = Laurent.total(wronskian(f, g) for f, g in left)
        rhs = Laurent.total([*terms, *(wronskian(f, g) for f, g in right)])
    return name, lhs, rhs, lhs - rhs


def _sides(rep):
    return rep.name, rep.lhs, rep.rhs, rep.residual


def _tree_with_path_tail(rng, size, k):
    """A seeded weighted tree on size vertices with a path v_1 .. v_k of
    weight-1 edges hanging off a random vertex, in a shuffled order."""
    from coxkit.diagram import Diagram

    tree = random_tree(rng, size, (1, 2))
    tail = list(range(size, size + k))
    edges = [((i, j), w) for i, j, w in tree.edges()]
    edges += [((v, v + 1), 1) for v in tail[:-1]]
    edges.append(((tail[-1], rng.randrange(size)), 1))
    order = list(range(size + k))
    rng.shuffle(order)
    return Diagram(size + k, edges, order), tail


def _chain_ratio_oracle(c, i):
    """(name, lhs, rhs, residual) of chain-ratio-i as a running sum of
    reduced quotients, each + reducing by a GCD, as it was first written."""
    k = len(c) - 1
    det2 = c[0] * c[2] - c[1] * c[1]
    lhs = RatFunc(c[i - 1], c[i])
    rhs = RatFunc(c[k - 1], c[k])
    for j in range(i + 1, k + 1):
        rhs = rhs + RatFunc(det2, c[j - 1] * c[j])
    return f"chain-ratio-{i}", lhs, rhs, (lhs - rhs).num


def test_chain_ratio_matches_the_running_sum(monkeypatch):
    # each ratio is taken over C_i ... C_k and reduced once; the running
    # sum must give the same sides and residual, on the true C's and with
    # C_0 off by a seeded monomial, which fails the ratios
    real = identities.coxeter_poly
    bump = {}  # vertex count -> the monomial added to its C
    monkeypatch.setattr(identities, "coxeter_poly",
                        lambda g: real(g) + bump.get(g.n, Laurent.zero()))
    rng = random.Random(26)
    failing = 0
    for _ in range(40):
        d, tail = _tree_with_path_tail(rng, rng.randint(1, 6),
                                       rng.randint(2, 6))
        k = len(tail)
        for wrong in (False, True):
            bump.clear()
            if wrong:
                bump[d.n] = rng.choice((-1, 1)) * Laurent.q(rng.randint(-8, 8))
            c = [identities.coxeter_poly(d.delete(tail[:i]))
                 for i in range(k + 1)]
            got = [r for r in chain_identities(d, tail)
                   if r.name.startswith("chain-ratio-")]
            assert [_sides(r) for r in got] == [
                _chain_ratio_oracle(c, i) for i in range(1, k)]
            assert all(r.holds for r in got) or wrong
            failing += sum(not r.holds for r in got)
    assert failing >= 40


def test_chain_and_antipodal_reports_match_the_per_term_sums():
    from coxkit.coxeter import coxeter_poly

    rng = random.Random(22)
    checked = 0
    for _ in range(12):
        d, tail = _tree_with_path_tail(rng, rng.randint(1, 6),
                                       rng.randint(1, 6))
        k = len(tail)
        c = [coxeter_poly(d.delete(tail[:i])) for i in range(k + 1)]
        reps = chain_identities(d, tail)
        got = {r.name: r for r in reps}
        assert [r.name for r in reps if r.name.startswith(
            ("chain-bez", "chain-wr"))] == [
                f"chain-{t}-{i}" for i in range(1, k) for t in ("bez", "wr")]
        for i in range(1, k):
            for tag in ("bez", "wr"):
                name = f"chain-{tag}-{i}"
                assert _sides(got[name]) == _cd_oracle(
                    name, [(c[i - 1], c[i])], [(c[k - 1], c[k])], c[i:k],
                    tag == "bez")
                assert got[name].holds
                checked += 1
    assert checked >= 40
    for n in (3, 5, 7):
        zt = klein_data("affA", n).z_table
        mid = (n + 1) // 2
        reps = poincare_cd_antipodal_choices(klein_data("affA", n))
        assert _sides(reps[0]) == ("antipodal-parents-agree", zt[mid - 1],
                                   zt[mid + 1], zt[mid - 1] - zt[mid + 1])
        for rep, parent in zip(reps[1:3], (mid - 1, mid + 1)):
            name, lhs, rhs, _ = _cd_oracle(
                f"poincare-cd-antipodal-parent{parent}",
                [(zt[parent], zt[mid])], [], [zt[mid]], True)
            # the other neighbor's term, in reversed order and subtracted
            lhs = lhs - bezoutian(zt[mid], zt[2 * mid - parent])
            assert _sides(rep) == (name, lhs, rhs, lhs - rhs)
        for rep, bez in zip(reps[3:], (True, False)):
            assert _sides(rep) == _cd_oracle(
                f"poincare-cd-affA{n}-{mid}-{mid}-{'bez' if bez else 'wr'}",
                [(zt[mid - 1], zt[mid]), (zt[mid + 1], zt[mid])], [],
                [zt[mid]], bez)
        assert all(r.holds for r in reps)


# -- the packed verdict of a Christoffel-Darboux sum against the dense sums ------

def _laurent(rng, size):
    """Up to 6 seeded terms, exponents -6..6, coefficients in -size..size."""
    return Laurent({rng.randint(-6, 6): rng.randint(-size, size)
                    for _ in range(rng.randint(0, 6))})


def _holding_sums(rng, size):
    """(left, right, inside) of the three shapes _cd is called with, each
    built to hold in both forms: a pivot, total = z base - terms; a chain,
    C_(j-1) = z C_j - C_(j+1); and two parents a + b = z m."""
    z = Laurent.z()
    h, t = _laurent(rng, size), _laurent(rng, size)
    c = [_laurent(rng, size), _laurent(rng, size)]
    while len(c) < rng.randint(2, 6):
        c.insert(0, z * c[0] - c[1])
    m, a = _laurent(rng, size), _laurent(rng, size)
    return [([(z * h - t, h)], [(h, t)], [h]),
            ([(c[0], c[1])], [(c[-2], c[-1])], c[1:-1]),
            ([(a, m), (z * m - a, m)], [], [m])]


def _planted(rng, sums, size):
    """The sums with one seeded monomial added to one of their inputs."""
    left, right, inside = ([list(p) for p in part] if part is not sums[2]
                           else list(part) for part in sums)
    spots = ([(left, k, s) for k in range(len(left)) for s in (0, 1)]
             + [(right, k, s) for k in range(len(right)) for s in (0, 1)]
             + [(inside, k, None) for k in range(len(inside))])
    where, k, s = rng.choice(spots)
    bump = rng.choice((-1, 1)) * rng.randint(1, size) * Laurent.q(
        rng.randint(-7, 7))
    if s is None:
        where[k] = where[k] + bump
    else:
        where[k][s] = where[k][s] + bump
    return ([tuple(p) for p in left], [tuple(p) for p in right], inside)


def _check_against_dense(form, sums) -> bool:
    """Assert that _cd's report of sums is the dense one: its name, sides
    and residual, and its residual_terms; return its verdict."""
    left, right, inside = sums
    bez = form is identities._BEZ
    rep = identities._cd(form, "sum", left, right, inside)
    want = _cd_oracle("sum", left, right, inside, bez)
    assert rep.holds == (nonzero_terms(want[3]) == 0), sums
    assert rep.residual_terms == nonzero_terms(want[3])
    assert _sides(rep) == want, sums
    assert type(rep.residual) is (BiLaurent if bez else Laurent)
    return rep.holds


def test_packed_verdict_matches_the_dense_sums_on_seeded_inputs(monkeypatch):
    from coxkit.algebra import Frame

    widths = []

    class Recorded(Frame):
        def __init__(self, bound):
            super().__init__(bound)
            widths.append(self.width)

    monkeypatch.setattr(identities, "Frame", Recorded)
    rng = random.Random(47)
    planted, loose = [], []
    for size in (1, 3, 10 ** 6, 10 ** 30):
        for _ in range(40):
            for sums in _holding_sums(rng, size):
                for form in (identities._BEZ, identities._WR):
                    assert _check_against_dense(form, sums)
                    # a planted term that pairs with zero, or with a
                    # multiple of its partner, may leave the sum holding
                    planted.append(_check_against_dense(
                        form, _planted(rng, sums, size)))
                    # seeded inputs that were not built to hold
                    loose.append(_check_against_dense(form, (
                        [(_laurent(rng, size), _laurent(rng, size))],
                        [(_laurent(rng, size), _laurent(rng, size))],
                        [_laurent(rng, size)])))
    assert planted.count(False) > 850 and loose.count(False) > 850
    assert min(widths) == 64
    assert max(widths) > 200  # coefficients of 10^30 need wide digits


def test_a_digit_past_64_bits_is_not_read_as_a_carry(monkeypatch):
    # Wr(q^2, q - 2^63) times q^2 is q^4 - 2^64 q^3: it vanishes at
    # q = 2^64, so in 64-bit digits the two terms would cancel.  The bound
    # of _packed, 2 * 3 * (2^63 + 2), takes the frame to 72 bits, where
    # the sum fails
    from coxkit.algebra import Frame

    q2, g = Laurent.q(2), Laurent({1: 1, 0: -2 ** 63})
    assert not _check_against_dense(identities._WR, ([(q2, g)], [], []))
    assert not _check_against_dense(identities._BEZ, ([(q2, g)], [], []))

    class Narrow(Frame):
        def __init__(self, bound):
            super().__init__(0)

    monkeypatch.setattr(identities, "Frame", Narrow)
    assert identities._wr_holds([(q2, g)], [], [])


def test_packed_verdict_at_every_pivot_of_the_ade_sweep():
    from coxkit.coxeter import schur_step
    from coxkit.diagram import ade_types

    rng = random.Random(53)
    checked = 0
    for fam, n in ade_types(8):
        d = build(fam, n)
        for pivot in range(d.n):
            step = schur_step(d, pivot)
            sums = ([(step.total, step.base)], [(step.base, step.terms)],
                    [step.base])
            for form in (identities._BEZ, identities._WR):
                # a planted term fails the sum, with the dense residual
                assert _check_against_dense(form, sums)
                assert not _check_against_dense(form, _planted(rng, sums, 5))
                checked += 1
    assert checked == 380


def test_every_christoffel_darboux_sum_of_verify_all_is_decided_packed(
        monkeypatch):
    import contextlib
    import io

    from coxkit import cli

    verdicts = []
    for name in ("_bez_holds", "_wr_holds"):
        def logged(*sums, real=getattr(identities, name)):
            verdicts.append(real(*sums))
            return verdicts[-1]

        monkeypatch.setattr(identities, name, logged)
    for seed in ("42", "7"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "all", "--seed", seed]) == 0
    assert len(verdicts) == 1372 and all(verdicts)
