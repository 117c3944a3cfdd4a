"""Free-product word arithmetic and radial convolution combinatorics."""

import functools
import itertools
import random
import sys
import threading
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, settings, strategies as st

from sphmult import tree as tr
from sphmult.errors import CapacityError, DomainError

SPEC30 = tr.FreeProductSpec(3, 0)
SPEC40 = tr.FreeProductSpec(4, 0)
SPEC02 = tr.FreeProductSpec(0, 2)
SPEC11 = tr.FreeProductSpec(1, 1)
SPEC21 = tr.FreeProductSpec(2, 1)
ALL_SPECS = (SPEC30, SPEC40, SPEC02, SPEC11, SPEC21)


# Enumeration oracles: the word-by-word constructions the closed forms in
# sphmult.tree replace.


@functools.lru_cache(maxsize=None)
def bfs_spheres(spec, radius):
    """E_0 .. E_radius by breadth-first search, each sorted by letters."""
    out = [[tr.IDENTITY]]
    gens = tr.generators(spec)
    for n in range(radius):
        nxt = set()
        for w in out[-1]:
            for g in gens:
                wg = tr.multiply(spec, w, g)
                if len(wg) == n + 1:
                    nxt.add(wg)
        out.append(sorted(nxt, key=lambda w: w.letters))
    return out


def enumerated_shell_distribution(spec, i, z):
    """{j: #{x in E_i with |x^-1 z| = j}} by enumerating E_i."""
    dist = {}
    for x in bfs_spheres(spec, i)[i]:
        j = len(tr.multiply(spec, tr.inverse(spec, x), z))
        dist[j] = dist.get(j, 0) + 1
    return dist


def enumerated_convolve(f, g, spec):
    """radial_convolve by enumerating the spheres in the support of f."""
    out = {}
    for k in range(f.max_shell + g.max_shell + 1):
        z = tr.representative(spec, k)
        total = 0
        for i, fv in f.shells:
            for j, count in enumerated_shell_distribution(spec, i, z).items():
                gv = g(j)
                if gv != 0:
                    total = total + fv * gv * count
        if total != 0:
            out[k] = total
    return tr.RadialFn.from_dict(out)


def enumerated_bz_counts(spec, x, y, shells):
    """bz_counts by enumerating every pair of E_|y| x E_|x|."""
    target = len(tr.multiply(spec, tr.inverse(spec, y), x))
    counts = {}
    for t in shells[len(y)]:
        t_inv = tr.inverse(spec, t)
        for s_w in shells[len(x)]:
            z = tr.multiply(spec, t_inv, s_w)
            if len(z) == target:
                counts[z] = counts.get(z, 0) + 1
    return counts


def forced_shell_function(spec, alpha, max_shell):
    """multiplicative_shell_function forced shell by shell from the
    enumerated convolution table of the first-shell indicator."""
    values = {0: Fraction(1) if isinstance(alpha, Rational) else 1.0, 1: alpha}
    for n in range(1, max_shell):
        conv = enumerated_convolve(tr.shell_indicator(1), tr.shell_indicator(n), spec)
        u1 = tr.sphere_size(spec, 1) * values[1]
        un = tr.sphere_size(spec, n) * values[n]
        known = 0
        lead = None
        for k, cv in conv.shells:
            if k <= n:
                known = known + cv * tr.sphere_size(spec, k) * values[k]
            elif k == n + 1:
                lead = cv * tr.sphere_size(spec, n + 1)
        values[n + 1] = (u1 * un - known) / lead
    return tr.RadialFn.from_dict(values)


def letters_strategy(spec, max_len=8):
    total = spec.involutive + spec.free

    def make_letter(idx_exp):
        idx, exp = idx_exp
        fid = idx % total
        if fid < spec.involutive:
            return (fid, 1)
        return (fid, 1 if exp else -1)

    return st.lists(
        st.tuples(st.integers(0, total - 1), st.booleans()).map(make_letter),
        max_size=max_len,
    )


class TestSpec:
    def test_degree(self):
        assert SPEC30.q == 2 and SPEC30.degree == 3
        assert SPEC02.q == 3 and SPEC02.degree == 4

    def test_rejects_small_products(self):
        with pytest.raises(DomainError):
            tr.FreeProductSpec(1, 0)
        with pytest.raises(DomainError):
            tr.FreeProductSpec(2, 0)
        with pytest.raises(DomainError):
            tr.FreeProductSpec(-1, 2)


class TestWords:
    def test_identity_neutral(self):
        w = tr.word(SPEC30, [(0, 1), (1, 1)])
        assert tr.multiply(SPEC30, w, tr.IDENTITY) == w
        assert tr.multiply(SPEC30, tr.IDENTITY, w) == w

    def test_inverse_cancels(self):
        w = tr.word(SPEC11, [(0, 1), (1, 1), (1, 1), (0, 1)])
        assert tr.multiply(SPEC11, w, tr.inverse(SPEC11, w)) == tr.IDENTITY
        assert tr.multiply(SPEC11, tr.inverse(SPEC11, w), w) == tr.IDENTITY

    def test_hand_reduction(self):
        a12 = tr.word(SPEC30, [(0, 1), (1, 1)])
        a23 = tr.word(SPEC30, [(1, 1), (2, 1)])
        prod = tr.multiply(SPEC30, a12, a23)
        assert prod.letters == ((0, 1), (2, 1))
        assert len(prod) == 2

    def test_free_letters_do_not_merge(self):
        # two equal free letters stay two edges apart on the tree
        sq = tr.word(SPEC02, [(0, 1), (0, 1)])
        assert len(sq) == 2

    def test_letter_validation(self):
        with pytest.raises(DomainError):
            tr.word(SPEC30, [(5, 1)])
        with pytest.raises(DomainError):
            tr.word(SPEC30, [(0, -1)])  # involutive letters are +1

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_word_properties(self, data):
        spec = data.draw(st.sampled_from(ALL_SPECS))
        a = tr.word(spec, data.draw(letters_strategy(spec)))
        b = tr.word(spec, data.draw(letters_strategy(spec)))
        c = tr.word(spec, data.draw(letters_strategy(spec)))
        ab = tr.multiply(spec, a, b)
        # triangle bounds for the length
        assert abs(len(a) - len(b)) <= len(ab) <= len(a) + len(b)
        # associativity
        assert tr.multiply(spec, ab, c) == tr.multiply(
            spec, a, tr.multiply(spec, b, c)
        )
        # inverse is an anti-homomorphism
        assert tr.inverse(spec, ab) == tr.multiply(
            spec, tr.inverse(spec, b), tr.inverse(spec, a)
        )
        # double inverse
        assert tr.inverse(spec, tr.inverse(spec, a)) == a


class TestSpheres:
    def test_shell_zero(self):
        for spec in ALL_SPECS:
            assert tr.sphere_size(spec, 0) == 1

    def test_bfs_matches_formula(self):
        for spec in ALL_SPECS:
            shells = tr.spheres(spec, 8)
            for n in range(9):
                assert len(shells[n]) == tr.sphere_size(spec, n)

    def test_examples(self):
        assert len(tr.spheres(SPEC30, 2)[2]) == 6
        assert len(tr.spheres(SPEC02, 3)[3]) == 36
        assert tr.sphere_size(SPEC02, 3) == 36

    def test_capacity(self):
        with pytest.raises(CapacityError):
            tr.spheres(SPEC02, 9, cap=100)

    def test_matches_breadth_first_search(self):
        # cold and grown caches give the BFS lists, order included
        for spec in ALL_SPECS:
            tr._SPHERE_CACHE.pop(spec, None)
            assert tr.spheres(spec, 6) == bfs_spheres(spec, 6)
            tr._SPHERE_CACHE.pop(spec, None)
            tr.spheres(spec, 2)
            assert tr.spheres(spec, 6) == bfs_spheres(spec, 6)

    def test_concurrent_growth_of_a_cold_cache(self):
        # four threads growing one cold entry must each append a shell once
        spec = tr.FreeProductSpec(3, 1)
        sizes = [tr.sphere_size(spec, n) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                tr._SPHERE_CACHE.pop(spec, None)
                results = []
                threads = [threading.Thread(target=lambda: results.append(tr.spheres(spec, 7)))
                           for _ in range(4)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
                assert [len(e) for e in tr._SPHERE_CACHE[spec][0]] == sizes
                assert len(results) == 4
                assert all([len(e) for e in shells] == sizes for shells in results)
        finally:
            sys.setswitchinterval(interval)
            tr._SPHERE_CACHE.pop(spec, None)

    def test_representative_lengths(self):
        for spec in ALL_SPECS:
            for n in range(7):
                assert len(tr.representative(spec, n)) == n


class TestRadialize:
    def test_single_word_indicator(self):
        x = tr.representative(SPEC30, 2)
        rf = tr.radialize(SPEC30, {x: 1})
        assert rf.as_dict() == {2: Fraction(1, 6)}

    def test_idempotent(self):
        rng = random.Random(5)
        ball = [w for sh in tr.spheres(SPEC11, 3) for w in sh]
        f = {w: Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for w in ball[:10]}
        rf = tr.radialize(SPEC11, f)
        assert tr.radialize(SPEC11, tr.expand(SPEC11, rf)) == rf

    def test_contraction_random(self):
        rng = random.Random(6)
        for spec in (SPEC30, SPEC02):
            ball = [w for sh in tr.spheres(spec, 3) for w in sh]
            for _ in range(50):
                support = rng.sample(ball, rng.randint(1, min(12, len(ball))))
                f = {w: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for w in support}
                lhs = tr.l1_norm(spec, tr.radialize(spec, f))
                rhs = sum(abs(v) for v in f.values())
                assert lhs <= rhs

    def test_float_values_supported(self):
        x = tr.representative(SPEC30, 1)
        rf = tr.radialize(SPEC30, {x: 0.5 + 0.25j})
        assert rf(1) == pytest.approx((0.5 + 0.25j) / 3)

    def test_negative_shell_rejected(self):
        with pytest.raises(DomainError):
            tr.RadialFn.from_dict({-1: 1})


class TestRadialConvolve:
    def test_identity_element(self):
        f = tr.RadialFn.from_dict({0: Fraction(2), 1: Fraction(1, 3), 3: Fraction(-2, 7)})
        assert tr.radial_convolve(tr.shell_indicator(0), f, SPEC30) == f

    def test_first_shell_square(self):
        for spec in ALL_SPECS:
            conv = tr.radial_convolve(tr.shell_indicator(1), tr.shell_indicator(1), spec)
            assert conv.as_dict() == {0: spec.q + 1, 2: 1}

    def test_commutativity_bit_exact(self):
        for spec in ALL_SPECS:
            for i in range(5):
                for j in range(i, 5):
                    ab = tr.radial_convolve(
                        tr.shell_indicator(i), tr.shell_indicator(j), spec
                    )
                    ba = tr.radial_convolve(
                        tr.shell_indicator(j), tr.shell_indicator(i), spec
                    )
                    assert ab == ba

    def test_commutativity_rational(self):
        rng = random.Random(7)
        for _ in range(10):
            f = tr.RadialFn.from_dict(
                {n: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for n in range(4)}
            )
            g = tr.RadialFn.from_dict(
                {n: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for n in range(4)}
            )
            assert tr.radial_convolve(f, g, SPEC21) == tr.radial_convolve(g, f, SPEC21)

    def test_matches_enumeration(self):
        for spec in ALL_SPECS:
            for i in range(6):
                for j in range(6):
                    f, g = tr.shell_indicator(i), tr.shell_indicator(j)
                    conv = tr.radial_convolve(f, g, spec)
                    assert conv == enumerated_convolve(f, g, spec)
                    assert all(type(v) is int for _, v in conv.shells)

    def test_matches_enumeration_rational(self):
        rng = random.Random(11)
        for spec in (SPEC30, SPEC21):
            for _ in range(3):
                f = tr.RadialFn.from_dict(
                    {n: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for n in range(4)}
                )
                g = tr.RadialFn.from_dict({n: rng.randint(-6, 6) for n in range(4)})
                conv = tr.radial_convolve(f, g, spec)
                assert conv == enumerated_convolve(f, g, spec)
                assert all(type(v) is Fraction for _, v in conv.shells)

    def test_enumeration_oracle_shell_values(self):
        # brute force over the full ball reproduces the per-shell values
        spec = SPEC30
        f, g = tr.shell_indicator(1), tr.shell_indicator(2)
        conv = tr.radial_convolve(f, g, spec)
        shells = tr.spheres(spec, 3)
        f_map = {w: 1 for w in shells[1]}
        g_map = {w: 1 for w in shells[2]}
        for k in range(4):
            z = tr.representative(spec, k)
            brute = sum(
                fv * g_map.get(tr.multiply(spec, tr.inverse(spec, x), z), 0)
                for x, fv in f_map.items()
            )
            assert conv(k) == brute


class TestPairCounts:
    def test_concentrates_on_diagonal(self):
        x = tr.representative(SPEC30, 2)
        counts = tr.bz_counts(SPEC30, x, x, 4)
        assert counts == {tr.IDENTITY: tr.sphere_size(SPEC30, 2)}

    def test_constancy_examples(self):
        counts = tr.bz_counts(
            SPEC30, tr.representative(SPEC30, 2), tr.representative(SPEC30, 1), 3
        )
        assert len(set(counts.values())) == 1
        counts = tr.bz_counts(
            SPEC11, tr.representative(SPEC11, 2), tr.representative(SPEC11, 2), 4
        )
        assert len(set(counts.values())) == 1

    def test_counts_match_indicator_convolution(self):
        spec = SPEC02
        x, y = tr.representative(spec, 2), tr.representative(spec, 1)
        counts = tr.bz_counts(spec, x, y, 3)
        conv = tr.radial_convolve(
            tr.shell_indicator(len(y)), tr.shell_indicator(len(x)), spec
        )
        target = len(tr.multiply(spec, tr.inverse(spec, y), x))
        for z, c in counts.items():
            assert len(z) == target
            assert c == conv(target)
        assert len(counts) == tr.sphere_size(spec, target)

    def test_radius_precondition(self):
        with pytest.raises(DomainError):
            tr.bz_counts(SPEC30, tr.representative(SPEC30, 3), tr.IDENTITY, 2)

    def test_matches_enumeration_on_ball(self):
        for spec in (SPEC30, SPEC11):
            shells = bfs_spheres(spec, 3)
            ball = [w for sh in shells for w in sh]
            for x, y in itertools.product(ball, ball):
                assert tr.bz_counts(spec, x, y, 6) == enumerated_bz_counts(spec, x, y, shells)

    def test_matches_enumeration_sample(self):
        rng = random.Random(12)
        for spec in (SPEC40, SPEC02, SPEC21):
            shells = bfs_spheres(spec, 3)
            ball = [w for sh in shells for w in sh]
            for _ in range(200):
                x, y = rng.choice(ball), rng.choice(ball)
                assert tr.bz_counts(spec, x, y, 6) == enumerated_bz_counts(spec, x, y, shells)

    def test_cap_bounds_the_factor_spheres_not_the_target(self):
        spec = SPEC30
        x = tr.word(spec, [(0, 1), (1, 1)])
        y = tr.word(spec, [(1, 1), (0, 1)])
        shells = bfs_spheres(spec, 2)
        # |E_2| = 6 fits the cap, the target sphere |E_4| = 24 does not
        counts = tr.bz_counts(spec, x, y, 4, cap=6)
        assert counts == enumerated_bz_counts(spec, x, y, shells)
        assert len(counts) == tr.sphere_size(spec, 4)
        with pytest.raises(CapacityError):
            tr.bz_counts(spec, x, y, 4, cap=5)


class TestTwoPointRadialization:
    def test_radial_functions_unchanged(self):
        spec = SPEC21
        rf = tr.RadialFn.from_dict({0: Fraction(1), 2: Fraction(3, 4)})
        h = tr.expand(spec, rf)
        x, y = tr.representative(spec, 2), tr.representative(spec, 2)
        target = len(tr.multiply(spec, tr.inverse(spec, y), x))
        assert tr.radialize_two_point(spec, h, x, y) == rf(target)

    def test_single_word_indicator(self):
        spec = SPEC30
        x, y = tr.representative(spec, 2), tr.representative(spec, 1)
        target = len(tr.multiply(spec, tr.inverse(spec, y), x))
        z0 = tr.spheres(spec, target)[target][0]
        value = tr.radialize_two_point(spec, {z0: 1}, x, y)
        assert value == Fraction(1, tr.sphere_size(spec, target))

    def test_equals_one_point_radialization(self):
        rng = random.Random(8)
        for spec in (SPEC30, SPEC11):
            ball = [w for sh in tr.spheres(spec, 3) for w in sh]
            h = {w: Fraction(rng.randint(-4, 4)) for w in rng.sample(ball, 10)}
            one_point = tr.radialize(spec, h)
            for x, y in itertools.product(ball[:8], ball[:8]):
                target = len(tr.multiply(spec, tr.inverse(spec, y), x))
                two = tr.radialize_two_point(spec, h, x, y, ball_radius=6)
                assert two == one_point(target)


    def test_dict_support_matches_shell_walk(self):
        # a dict h is summed over its support, a callable over the shell;
        # both see the same values, so even float sums agree bit for bit
        rng = random.Random(12)
        spec = SPEC11
        shells = tr.spheres(spec, 5)
        words = [w for sh in shells for w in sh]
        for exact in (True, False):
            h = {w: (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if exact
                     else rng.uniform(-1.0, 1.0)) for w in rng.sample(words, 60)}
            h[tr.Word(((0, 1), (0, 1), (1, 1)))] = 5  # not reduced: on no shell
            for x, y in itertools.product(shells[2][:4], shells[3][:4]):
                two = tr.radialize_two_point(spec, h, x, y)
                assert repr(two) == repr(tr.radialize_two_point(
                    spec, lambda z: h.get(z, 0), x, y))

    def test_cap_still_applies(self):
        x, y = tr.representative(SPEC30, 3), tr.representative(SPEC30, 1)
        with pytest.raises(CapacityError):
            tr.radialize_two_point(SPEC30, {x: 1}, x, y, cap=5)


class TestPairing:
    def test_delta_at_identity(self):
        phi = {tr.IDENTITY: 7, tr.representative(SPEC30, 1): 2}
        assert tr.pairing({tr.IDENTITY: 1}, phi) == 7

    def test_radialization_is_self_adjoint(self):
        rng = random.Random(9)
        spec = SPEC11
        ball = [w for sh in tr.spheres(spec, 4) for w in sh]
        for _ in range(5):
            f = {w: Fraction(rng.randint(-5, 5)) for w in rng.sample(ball, 12)}
            phi = {w: Fraction(rng.randint(-5, 5)) for w in ball}
            f_rad = tr.expand(spec, tr.radialize(spec, f))
            phi_rad = tr.expand(spec, tr.radialize(spec, phi))
            lhs = tr.pairing(f_rad, phi)
            mid = tr.pairing(f_rad, phi_rad)
            rhs = tr.pairing(f, phi_rad)
            assert lhs == mid == rhs

    def test_shell_function_matches_forced_construction(self):
        alphas = (Fraction(1, 4), Fraction(-3, 7), Fraction(5, 2), 0.3, -0.7, 1 / 3, 2.5)
        for spec in ALL_SPECS:
            for alpha in alphas:
                got = tr.multiplicative_shell_function(spec, alpha, 8)
                want = forced_shell_function(spec, alpha, 8)
                assert [n for n, _ in got.shells] == [n for n, _ in want.shells]
                for (_, a), (_, b) in zip(got.shells, want.shells):
                    assert type(a) is type(b)
                    if isinstance(a, float):
                        assert a.hex() == b.hex()
                    else:
                        assert a == b

    def test_character_property(self):
        rng = random.Random(10)
        for spec, alpha in ((SPEC30, Fraction(1, 4)), (SPEC02, Fraction(-1, 5))):
            phi = tr.multiplicative_shell_function(spec, alpha, 6)
            for _ in range(5):
                f = tr.RadialFn.from_dict(
                    {n: Fraction(rng.randint(-3, 3)) for n in range(3)}
                )
                g = tr.RadialFn.from_dict(
                    {n: Fraction(rng.randint(-3, 3)) for n in range(3)}
                )
                lhs = tr.pairing_radial(spec, tr.radial_convolve(f, g, spec), phi)
                rhs = tr.pairing_radial(spec, f, phi) * tr.pairing_radial(spec, g, phi)
                assert lhs == rhs
