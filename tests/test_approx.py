import ast
import math
from fractions import Fraction

import mpmath
import pytest

from reebmin import (
    ConeApprox,
    Enclosure,
    SearchExhausted,
    SignedApprox,
    cone_rational_approx,
    dirichlet_signed,
    verify_cone,
    verify_signed,
)
from reebmin import _exact as ex
from reebmin.approx import _affine_relations

mpmath.mp.dps = 45


def enc(value, digits=30, radius=Fraction(1, 10**25)):
    return Enclosure.from_decimal(mpmath.nstr(value, digits), radius=radius)


SQRT2 = enc(mpmath.sqrt(2))
SQRT3M1 = enc(mpmath.sqrt(3) - 1)
TAIL = [enc(mpmath.sqrt(3) - 1), enc(4 - 2 * mpmath.sqrt(3))]


class TestEnclosure:
    def test_default_radius_is_half_ulp(self):
        e = Enclosure.from_decimal("1.41")
        assert e.hi - e.lo == Fraction(1, 100)
        assert e.mid == Fraction(141, 100)

    def test_exact(self):
        e = Enclosure.exact("3/7")
        assert e.is_exact() and e.lo == Fraction(3, 7)

    @pytest.mark.parametrize("text, radius", [
        ("1.5e3", Fraction(50)),
        ("1.5E3", Fraction(50)),
        ("2.5e-10", Fraction(1, 2 * 10**11)),
        ("1e-5", Fraction(1, 2 * 10**5)),
        ("1.41", Fraction(1, 200)),
    ])
    def test_default_radius_counts_the_exponent(self, text, radius):
        e = Enclosure.from_decimal(text)
        assert e.mid == Fraction(text)
        assert e.hi - e.lo == 2 * radius

    def test_exponent_enclosure_holds_what_rounds_to_it(self):
        e = Enclosure.from_decimal("1.5e3")
        assert e.lo <= 1520 <= e.hi


class TestDirichletSigned:
    def test_sqrt2_plus_certificate(self):
        sa = dirichlet_signed([SQRT2], [1], Fraction(1, 2), 1000)
        assert (sa.q, sa.p) == (2, (3,))
        assert verify_signed(sa)

    def test_sqrt3_minus_certificate(self):
        sa = dirichlet_signed([SQRT3M1], [-1], Fraction(1, 2), 10000)
        assert verify_signed(sa)
        # below the target from above? sign -1 means p/q < alpha
        assert Fraction(sa.p[0], sa.q) < SQRT3M1.lo

    def test_two_dimensional_certificate(self):
        targets = [enc(mpmath.sqrt(2)), enc(mpmath.sqrt(5))]
        for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            sa = dirichlet_signed(targets, signs, Fraction(2, 5), 10**6)
            assert verify_signed(sa)

    def test_monotone_q_in_epsilon(self):
        qs = []
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
            qs.append(dirichlet_signed([SQRT2], [1], eps, 10**6).q)
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_search_exhausted(self):
        # a rational target cannot satisfy the strict two-sided box forever
        with pytest.raises(SearchExhausted):
            dirichlet_signed([Enclosure.exact(Fraction(1, 2))], [1], Fraction(1, 100), 50)

    def test_invariant_inequalities_exact(self):
        sa = dirichlet_signed([SQRT2], [1], Fraction(1, 2), 1000)
        p, q = sa.p[0], sa.q
        assert Fraction(p, q) > SQRT2.hi
        assert Fraction(p, q) - SQRT2.lo <= Fraction(sa.epsilon, q)


class TestConeApprox:
    def test_dependent_weight_tail(self):
        ca = cone_rational_approx(TAIL, Fraction(1, 10), 10**6)
        assert len(ca.vectors) == 2
        assert verify_cone(ca)
        for vec, q in ca.vectors:
            assert all((x * q).denominator == 1 for x in vec)

    def test_rational_fast_path(self):
        ca = cone_rational_approx([Fraction(1, 3), Fraction(1, 2)], Fraction(1, 100))
        assert ca.vectors == (((Fraction(1, 3), Fraction(1, 2)), 6),)
        assert ca.hull_coefficients == (Fraction(1),)
        assert verify_cone(ca)

    def test_independent_pair(self):
        targets = [enc(mpmath.sqrt(2)), enc(mpmath.sqrt(3))]
        ca = cone_rational_approx(targets, Fraction(1, 10), 10**6)
        assert len(ca.vectors) == 2
        assert verify_cone(ca)

    def test_combination_recovers_target_midpoint(self):
        ca = cone_rational_approx(TAIL, Fraction(1, 10), 10**6)
        for j in range(2):
            combo = sum(a * vec[j] for a, (vec, _) in zip(ca.hull_coefficients, ca.vectors))
            assert TAIL[j].lo <= combo <= TAIL[j].hi

    def test_dependent_and_negative_subsets_are_skipped(self, monkeypatch):
        # of the five subsets tried, the first has dependent columns (rank 2,
        # no solution) and the next three a negative hull coefficient
        ranks = []
        solve = ex.solve
        monkeypatch.setattr(ex, "solve", lambda m, b: ranks.append(ex.rank(m)) or solve(m, b))
        v = [Enclosure.from_decimal(s) for s in ("3.0809048171880", "1.5562473897636", "2.3507946681839")]
        ca = cone_rational_approx(v, Fraction(1, 2), 10**4)
        assert ranks == [2, 3, 3, 3, 3]
        assert ca.vectors == (
            ((Fraction(105, 34), Fraction(53, 34), Fraction(40, 17)), 34),
            ((Fraction(71, 23), Fraction(36, 23), Fraction(54, 23)), 23),
            ((Fraction(499, 162), Fraction(14, 9), Fraction(127, 54)), 162),
        )
        assert verify_cone(ca)


class TestVerifierLengths:
    def test_signed_certificate_shorter_than_target(self):
        sa = SignedApprox(
            p=(3,), q=2, target=(SQRT2, enc(mpmath.sqrt(3))), signs=(1, 1), epsilon=Fraction(1, 2)
        )
        assert not verify_signed(sa)

    def test_signed_signs_shorter_than_target(self):
        good = dirichlet_signed([SQRT2], [1], Fraction(1, 2), 1000)
        assert not verify_signed(SignedApprox(good.p, good.q, good.target, (), good.epsilon))

    def test_cone_vector_longer_than_target(self):
        ca = cone_rational_approx(TAIL, Fraction(1, 10), 10**6)
        assert verify_cone(ca)
        longer = tuple((vec + (Fraction(0),), q) for vec, q in ca.vectors)
        assert not verify_cone(ConeApprox(longer, ca.target, ca.epsilon, ca.hull_coefficients))


def enc35(value):
    return Enclosure.from_decimal(mpmath.nstr(value, 35), radius=Fraction(1, 10**30))


ROOTS = [enc35(mpmath.sqrt(k)) for k in (2, 3, 5, 7)]


def holds(relation, targets):
    """The relation k0 + sum k_i alpha_i is zero within the enclosure widths."""
    k0, *ks = relation
    total = k0 + sum(k * e.mid for k, e in zip(ks, targets))
    slack = sum(abs(k) * e.width for k, e in zip(ks, targets)) + Fraction(1, 10**9)
    return any(ks) and abs(total) <= slack


class TestRelationSearch:
    def test_fifth_coordinate_is_checked(self):
        targets = ROOTS + [enc35(mpmath.sqrt(2) + 1)]
        block, relations = _affine_relations(targets)
        assert block == [0, 1, 2, 3]
        assert relations == {4: (Fraction(1), {0: Fraction(1)})}

    def test_constant_far_above_the_height(self):
        targets = ROOTS[:2] + [enc35(mpmath.sqrt(3) + 100)]
        assert _affine_relations(targets) == ([0, 1], {2: (Fraction(100), {1: Fraction(1)})})

    def test_large_rational_constant(self):
        targets = ROOTS[:2] + [enc35(2 * mpmath.sqrt(2) + mpmath.mpf(3770) / 3)]
        assert _affine_relations(targets) == ([0, 1], {2: (Fraction(3770, 3), {0: Fraction(2)})})

    def test_inexact_integer_midpoint_is_rational(self):
        targets = [ROOTS[0], Enclosure(Fraction(29, 10), Fraction(31, 10))]
        assert _affine_relations(targets) == ([0], {1: (Fraction(3), {})})

    def test_height_thirteen_is_not_found(self):
        targets = [ROOTS[0], enc35(13 * mpmath.sqrt(2) + 1)]
        assert _affine_relations(targets) == ([0, 1], {})
        twelve = [ROOTS[0], enc35(12 * mpmath.sqrt(2) + 1)]
        assert _affine_relations(twelve) == ([0], {1: (Fraction(1), {0: Fraction(12)})})

    @pytest.mark.parametrize("base, ks, kn, k0", [
        (((7, 1, -28), (11, 3, 1), (2, 1, -27), (3, 1, 23)), (10, 8, 5, 12), 2, -145),
        (((2, 1, 0), (3, 1, 0), (5, 1, 0), (7, 1, 0), (11, 1, 0)), (7, -9, 8, 11, -5), 6, 1),
    ])
    def test_height_twelve_relation_among_many(self, base, ks, kn, k0):
        # a single pslq call at the 1e-9 slack stops on a chance near-relation
        # of larger height here and misses the true one
        xs = [a * mpmath.sqrt(p) + b for p, a, b in base]
        targets = [enc35(x) for x in xs] + [enc35((k0 + sum(k * x for k, x in zip(ks, xs))) / kn)]
        block, relations = _affine_relations(targets)
        assert block == list(range(len(base)))
        cs = {j: Fraction(k, kn) for j, k in enumerate(ks)}
        assert relations == {len(base): (Fraction(k0, kn), cs)}

    def test_exhausted_signed_search_names_a_relation(self):
        targets = ROOTS + [enc35(mpmath.sqrt(2) + 1)]
        with pytest.raises(SearchExhausted, match="possible rational dependence") as info:
            dirichlet_signed(targets, [1] * 5, Fraction(1, 10**6), 50)
        relation = ast.literal_eval(str(info.value).rsplit("dependence ", 1)[1])
        assert len(relation) == 6 and holds(relation, targets)


# the spp minimizer ((3+sqrt 3)/2, (3+sqrt 3)/2, sqrt 3), correctly rounded to 33 digits
SPP_XI = ("2.36602540378443864676372317075294", "2.36602540378443864676372317075294",
          "1.73205080756887729352744634150587")


class TestHullPoint:
    def test_order_of_coordinates_does_not_matter(self):
        # x2 = 2 x0 - 3 carries x0's midpoint 1e-32 off x2's, outside its
        # half-ulp radius 5e-33; the hull point must respect both enclosures
        for targets in (SPP_XI, SPP_XI[::-1]):
            ca = cone_rational_approx(targets, Fraction(1, 2))
            assert verify_cone(ca)

    def test_midpoint_is_kept_when_it_qualifies(self):
        alpha = enc35((-3 + mpmath.sqrt(33)) / 4)
        ca = cone_rational_approx([1, 1, alpha], Fraction(1, 2))
        assert verify_cone(ca)
        assert sum(a * vec[2] for a, (vec, _) in zip(ca.hull_coefficients, ca.vectors)) == alpha.mid

    def test_relation_that_contradicts_the_enclosures(self):
        # x1 = 2 x0 + 1 holds to 1e-12, inside the relation slack but far
        # outside the 20-digit enclosures
        targets = ["0.41421356237309504880", "1.82842712474819009760"]
        assert _affine_relations([Enclosure.from_decimal(t) for t in targets])[1] == {
            1: (Fraction(1), {0: Fraction(2)})
        }
        with pytest.raises(SearchExhausted, match="contradict the enclosures"):
            cone_rational_approx(targets, Fraction(1, 2))
