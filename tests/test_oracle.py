import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ball_count, random_sparse_poly
from igusa.cli import parse_polynomial as P
from igusa.mpoly import MAX_LIFTS, Polynomial, direct_sum, from_terms
from igusa.newton import build_polyhedron
from igusa.oracle import BudgetExceeded, _ball_counter, _blocks, ball_counts, measure_series, verify_theorem
from reference import count_mod, face_cone, product, proper_faces, zero_cone
from reference import value_balls as exact_value_balls



@st.composite
def blocks(draw):
    """(p, f, precision): a block of 1 or 2 variables whose coefficients
    and exponents p may divide, at times of content divisible by p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.sampled_from([1, 2]))
    exponent = st.sampled_from([0, 1, 2, 3, 4, p])
    terms = draw(st.dictionaries(st.tuples(*[exponent] * n), st.tuples(
        st.integers(min_value=-6, max_value=6).filter(bool), st.integers(min_value=0, max_value=2)),
        min_size=1, max_size=3))
    content = p ** draw(st.integers(min_value=0, max_value=1))
    f = Polynomial(("x", "y")[:n], {e: content * c * p**a for e, (c, a) in terms.items()})
    precision = draw(st.integers(min_value=1, max_value={2: 8, 3: 5, 5: 4, 7: 3}[p] // n + 1))
    return p, f, precision


class TestCountMod:
    def test_double_zero_counts(self):
        c = count_mod(P("x^2"), 5, 4)
        assert c.counts == (1, 5, 5, 25)
        assert c.n0 == 1
        assert [c.N(m) for m in range(5)] == [1, 1, 5, 5, 25]

    def test_N_bounds_checked(self):
        c = count_mod(P("x^2"), 5, 4)
        with pytest.raises(IndexError):
            c.N(5)
        with pytest.raises(IndexError):
            c.N(-1)

    def test_cusp_counts(self):
        c = count_mod(P("x^2 + y^3"), 3, 6)
        assert c.counts == (3, 15, 45, 135, 405, 2673)
        assert c.nodes_expanded == 604

    def test_unit_scaling_invariance(self):
        f = P("x^2 + y^3")
        g = from_terms(f.variables, [(e, 7 * co) for e, co in f.terms.items()])
        assert count_mod(f, 3, 5).counts == count_mod(g, 3, 5).counts

    def test_exact_deep_linear(self):
        # one solution class at every level; residues here exceed 2^63
        c = count_mod(P("x"), 3, 22)
        assert c.counts == (1,) * 22

    def test_exact_deep_square(self):
        # closed form 3^floor(m/2); intermediate squares overflow int64
        c = count_mod(P("x^2"), 3, 21)
        assert all(c.N(m) == 3 ** (m // 2) for m in range(1, 22))

    def test_level_one_convolution(self):
        # independent route: level-1 count of f(+)g by convolving residue
        # histograms of the two summands
        f, g = P("x^2 + x"), P("y^3 + 2y")
        p = 5
        hist_f = [0] * p
        hist_g = [0] * p
        for a in range(p):
            hist_f[f.evaluate((a,)) % p] += 1
            hist_g[g.evaluate((a,)) % p] += 1
        expected = sum(hist_f[c] * hist_g[(-c) % p] for c in range(p))
        assert count_mod(direct_sum(f, g), 5, 1).N(1) == expected

    @settings(max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=10**6), p=st.sampled_from([2, 3, 5]))
    def test_nesting_and_nonnegative_measure(self, seed, p):
        rng = random.Random(seed)
        f = random_sparse_poly(rng, rng.choice([1, 2]))
        if f.is_zero():
            return
        c = count_mod(f, p, 4)
        n = f.nvars
        for m in range(4):
            assert c.N(m + 1) <= p**n * c.N(m)
        series = measure_series(c)
        assert all(co >= 0 for co in series)


class TestBallCounts:
    @pytest.mark.parametrize("seed", range(100))
    def test_matches_lifting(self, seed):
        rng = random.Random(seed)
        p = rng.choice([2, 3, 5])
        n = rng.choice([1, 2, 3])
        f = random_sparse_poly(rng, n, max_exp=4, origin_vanishing=rng.random() < 0.5)
        # the lifting reference holds up to p^(n depth) candidates at the last level
        deepest = max(d for d in range(1, 18) if d == 1 or p ** (n * d) <= 10**5)
        depth = rng.randint(1, deepest)
        fast = ball_counts(f, p, depth)
        lifted = count_mod(f, p, depth)
        assert fast.counts == lifted.counts
        assert measure_series(fast) == measure_series(lifted)
        assert (fast.dim, fast.n0, fast.depth) == (n, 1, depth)

    @pytest.mark.parametrize("seed", range(200))
    def test_blocks_match_lifting(self, seed):
        # 2-3 blocks of disjoint variables: linear ones (a lone c*v), random
        # ones in 1 or 2 variables, and at times a constant term and a
        # variable that f does not use
        rng = random.Random(seed)
        p = rng.choice([2, 3, 5])
        f = Polynomial((), {})
        for _ in range(rng.randint(2, 3)):
            if rng.random() < 0.4:
                block = Polynomial(("v",), {(1,): rng.choice([-9, -3, -2, -1, 1, 2, 5, 6])})
            else:
                block = random_sparse_poly(rng, rng.choice([1, 1, 2]), max_exp=4)
            names = [f"v{f.nvars + i}" for i in range(block.nvars)]
            f = direct_sum(f, Polynomial(names, block.terms))
        if rng.random() < 0.3:
            f = direct_sum(f, Polynomial(("u",), {}))
        if rng.random() < 0.5:
            f = from_terms(f.variables, [*f.terms.items(), ((0,) * f.nvars, rng.randint(-9, 9))])
        n = f.nvars
        depth = max(d for d in range(1, 18) if d == 1 or p ** (n * d) <= 10**5)
        assert ball_counts(f, p, depth).counts == count_mod(f, p, depth).counts

    @pytest.mark.parametrize("seed", range(24))
    def test_last_block_sums_that_hit_zero(self, seed):
        # 3-4 one-variable blocks: c*v^a and -c*w^a, whose centres cancel
        # to 0 mod p^k where v = w, one or two more, and at times a
        # constant term that p divides; the last block's sums go straight
        # to the valuation tally, and the counts must still be the lifted ones
        rng = random.Random(1000 + seed)
        p = rng.choice([2, 3, 5])
        c, a = rng.choice([1, -2, 3, p, p + 1]), rng.randint(1, 3)
        pairs = [(a, c), (a, -c)]
        pairs += [(rng.randint(1, 4), rng.choice([1, -1, 2, p, p * p])) for _ in range(rng.randint(1, 2))]
        n = len(pairs)
        terms = [((0,) * n, p ** rng.randint(0, 3) * rng.choice([0, 1, -1]))]
        for i, (e, coeff) in enumerate(pairs):
            terms.append((tuple(e if j == i else 0 for j in range(n)), coeff))
        f = from_terms([f"v{i}" for i in range(n)], terms)
        assert len(_blocks(f)) == n
        depth = max(d for d in range(1, 18) if d == 1 or p ** (n * d) <= 10**5)
        assert ball_counts(f, p, depth).counts == count_mod(f, p, depth).counts

    def test_blocks_are_the_components_of_the_variables(self):
        f = Polynomial(("u", "w", "x", "y", "z"), {(0, 0, 2, 1, 0): 1, (0, 0, 0, 0, 3): 2, (0, 0, 0, 0, 0): 7,
                                                    (0, 5, 0, 0, 0): -1, (0, 1, 0, 1, 0): 3})
        assert [str(b) for b in _blocks(f)] == ["0", "-w^5 + x^2*y + 3*w*y", "2*z^3"]
        assert [b.variables for b in _blocks(f)] == [("u",), ("w", "x", "y"), ("z",)]

    def test_four_blocks_pinned(self):
        # counts taken from the single-block counter; the four blocks cost
        # 24 nodes in normal form (46 as exact polynomials) where the whole
        # cost 1,711
        c = ball_counts(P("x^2*y + z^3 + w^5 + 7"), 3, 8)
        assert c.counts == (
            27, 648, 17496, 472392, 12754584, 344373768, 9298091736, 251048476872
        )
        assert c.nodes_expanded == 24

    def test_nodes_are_residue_scans(self):
        # the deep row of the README's count: its counts, one node per
        # polynomial and precision of each block, y^3 pushed to the finest
        # ball of x^2
        c = ball_counts(P("x^2 + y^3"), 5, 9)
        nodes = sum(ball_count(P(block), 5, 9)[1] for block in ("x^2", "y^3"))
        assert c.nodes_expanded == nodes == 8
        assert c.counts == (5, 45, 225, 1125, 5625, 90625, 453125, 3828125, 19140625)

    def test_budget_raises(self):
        with pytest.raises(
            BudgetExceeded,
            match=r"^value balls of x\^2 stopped at class \(0,\) -> \(0,\) -> \(0,\) "
            r"with precision 3/9 after 3 nodes \(budget 3\)$",
        ):
            ball_counts(P("x^2 + y^3"), 5, 9, budget=3)

    def test_negative_budget_is_refused(self):
        # budget 0 stops at the root; a negative budget is no budget at all
        with pytest.raises(BudgetExceeded, match=r"class \(root\) .* after 0 nodes \(budget 0\)$"):
            ball_counts(P("x"), 5, 3, budget=0)
        with pytest.raises(ValueError, match=r"^budget must be >= 0, got -1$"):
            ball_counts(P("x"), 5, 3, budget=-1)
        with pytest.raises(ValueError, match=r"^budget must be >= 0, got -1$"):
            _ball_counter(5, budget=-1)

    def test_lifts_stop_in_band_at_the_cap(self):
        # x^2 at p = 2 lifts at the class (0,) once per two levels: depth
        # 2 * MAX_LIFTS + 2 nests MAX_LIFTS lifts, two levels more one too many
        depth = 2 * MAX_LIFTS + 2
        counts = ball_counts(P("x^2"), 2, depth).counts
        assert counts == tuple(2 ** (m // 2) for m in range(1, depth + 1))
        chain = r"(\(0,\) -> ){%d}\(0,\)" % MAX_LIFTS
        with pytest.raises(
            BudgetExceeded,
            match=rf"^value balls of x\^2 stopped at class {chain} with precision "
            rf"2/{depth + 2} after {MAX_LIFTS} nested lifts, the most one count takes$",
        ):
            ball_counts(P("x^2"), 2, depth + 2)

    def test_lifts_read_only_the_digits_they_keep(self):
        # (1 + 2x)^100000 is cut to its terms with 2^j, j < 8: the others are
        # 0 mod 2^8, and the 100001-term expansion is never built
        c = ball_counts(P("x^100000"), 2, 8)
        assert c.counts == (1, 2, 4, 8, 16, 32, 64, 128)
        assert c.nodes_expanded == 2

    def test_residue_limit_raises_before_the_scan(self):
        with pytest.raises(BudgetExceeded, match=r"53\^4 = 7890481 residues mod 53"):
            ball_counts(P("x*y*z*w"), 53, 1)

    def test_residue_limit_holds_per_block(self):
        # 53^4 residues in all, 53 in each block; the counts are those of
        # verify -f x^2+y^2 -g z^2+w^2 -p 53 --depth 4 when only verify split
        c = ball_counts(P("x^2 + y^2 + z^2 + w^2"), 53, 4)
        assert c.counts == (151633, 22582407745, 3362022864018001, 500527939011387206401)

    def test_rejects_bad_depth_and_constants(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            ball_counts(P("x"), 5, 0)
        with pytest.raises(ValueError, match="^precision must be >= 1$"):
            ball_count(P("x"), 5, 0)
        with pytest.raises(ValueError, match="need at least one variable"):
            ball_counts(P("3"), 5, 2)


class TestValueBalls:
    @settings(max_examples=60)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        p=st.sampled_from([2, 3, 5]),
        depth=st.integers(min_value=1, max_value=6),
    )
    def test_direct_sum_counts_match_lifting(self, seed, p, depth):
        rng = random.Random(seed)
        f = random_sparse_poly(rng, rng.choice([1, 2]), origin_vanishing=rng.random() < 0.5)
        g1 = random_sparse_poly(rng, 1, origin_vanishing=rng.random() < 0.5)
        g = Polynomial(("u",), g1.terms)
        n = f.nvars + g.nvars
        # keep the lifting reference small: about p^((n-1) m) survivors at level m
        while p ** ((n - 1) * depth) > 20000:
            depth -= 1
        for poly in (f, g):
            balls, _ = ball_count(poly, p, depth)
            assert sum(balls.values()) == p ** (poly.nvars * depth)
            assert all(w % p ** (depth - k) == 0 for (k, _), w in balls.items())
        fast = ball_counts(direct_sum(f, g), p, depth)
        assert fast.counts == count_mod(direct_sum(f, g), p, depth).counts

    def test_nodes_with_one_reduction_share_a_scan(self, monkeypatch):
        from igusa import oracle

        scanned = []
        classify = oracle._classify
        evaluate = oracle.eval_mod

        def counting_classify(terms, coords, p):
            scanned.append(("classify", terms))
            return classify(terms, coords, p)

        def counting_eval(terms, coords, p):
            scanned.append(("values", terms))
            return evaluate(terms, coords, p)

        monkeypatch.setattr(oracle, "_classify", counting_classify)
        monkeypatch.setattr(oracle, "eval_mod", counting_eval)
        # x^2 + 5^7 y at precision 9 recurses at (0, r) to x^2 + 5^6 y at
        # precision 7, and then to x^2 at precisions 5, 3 and 1 (5^5 y is 0
        # mod 5^5): every reduction is x^2, scanned once with its partials,
        # and the node at precision 1 is read off its values
        balls, nodes = ball_count(P("x^2 + 5^7*y"), 5, 9)
        assert nodes == 5
        assert scanned == [("classify", (((2, 0), 1),)), ("values", (((2, 0), 1),))]
        assert sum(balls.values()) == 5 ** 18

    def test_precision_one_reads_the_values(self, monkeypatch):
        from igusa import oracle

        f = P("x^2 + y^2 + x*y*z")  # singular at (0, 0, z) for every z
        monkeypatch.setattr(oracle, "_classify", None)
        balls, nodes = ball_count(f, 3, 1)
        assert nodes == 1
        want = {}
        for r in itertools.product(range(3), repeat=3):
            ball = (1, f.evaluate(r) % 3)
            want[ball] = want.get(ball, 0) + 1
        assert balls == want == {(1, 0): 7, (1, 1): 16, (1, 2): 4}

    def test_budget_names_where_it_stopped(self):
        # x^2 needs one node at each of the precisions 16, 14, ..., 2
        with pytest.raises(
            BudgetExceeded,
            match=r"value balls of x\^2 stopped at class \(0,\) -> \(0,\) -> \(0,\) "
            r"with precision 10/16 after 3 nodes \(budget 3\)",
        ):
            ball_counts(direct_sum(P("x^2"), P("y^3")), 5, 16, budget=3)


class TestNormalForm:
    """Nodes taken mod p^m up to a unit against the value balls on exact
    polynomials (``reference.value_balls``) and plain lifting."""

    @settings(max_examples=150, deadline=None)
    @given(block=blocks())
    def test_balls_match_the_exact_route(self, block):
        p, f, precision = block
        assert ball_count(f, p, precision)[0] == exact_value_balls(f, p, precision)

    @settings(max_examples=60, deadline=None)
    @given(block=blocks(), unit=st.integers(min_value=-20, max_value=20))
    def test_blocks_equal_up_to_names_and_a_unit_share_their_nodes(self, block, unit):
        p, f, precision = block
        if unit % p == 0:
            unit += 1
        g = Polynomial(("u", "v")[: f.nvars], {e: unit * c for e, c in f.terms.items()})
        count = _ball_counter(p, budget=10**6)
        f_balls, f_nodes = count(f, precision)
        g_balls, g_nodes = count(g, precision)
        # g meets no node that f had not, unless f has no unit coefficient
        # (3*x at p = 3): then u = 1, and g's nodes are its own
        assert g_nodes == f_nodes or not any(c % p for c in f.terms.values())
        moved = {(k, unit * c % p**k): w for (k, c), w in f_balls.items()}
        assert g_balls == moved == exact_value_balls(g, p, precision)
        depth = 3
        while depth > 1 and p ** ((2 * f.nvars - 1) * depth) > 20000:
            depth -= 1
        both = direct_sum(f, g)
        assert ball_counts(both, p, depth).counts == count_mod(both, p, depth).counts

    def test_block_without_a_unit_coefficient(self):
        # x^2 - 2y^2 splits into x^2 and -2y^2, which has no unit
        # coefficient at p = 2 and is normalised by u = 1
        assert ball_count(P("-2*y^2"), 2, 8)[0] == exact_value_balls(P("-2*y^2"), 2, 8)
        f = P("x^2 - 2*y^2")
        assert ball_counts(f, 2, 8).counts == count_mod(f, 2, 8).counts

    def test_node_counts_pinned(self):
        # 50,238, 19,264 and 34,311 nodes when every node was an exact polynomial
        assert ball_count(P("3*x^3*y^4 + 5*x^4"), 2, 48)[1] == 5380
        assert ball_count(P("w*z^2"), 7, 12)[1] == 404
        assert ball_count(P("x^4*y^4"), 7, 24)[1] == 4925


class TestMeasureSeries:
    def test_double_zero_measure(self):
        series = measure_series(count_mod(P("x^2"), 5, 4))
        assert series == (
            Fraction(4, 5),
            Fraction(0),
            Fraction(4, 25),
            Fraction(0),
        )

    def test_coefficients_sum_below_total_mass(self):
        series = measure_series(count_mod(P("x^2 + y^3"), 3, 6))
        assert sum(series) < 1


# Per-domain counts of count_mod on direct sums f(x, y) + g(u, v), recorded
# while it still dropped branches that could not re-enter the domain:
# lifting every zero must count the same.  Each row is (f, g, p, depth,
# counts of every product domain), the factors of each product being the
# zero cone and then the face cones of the summand's proper faces, in
# ``proper_faces`` order, with f's factor varying slowest.  The summands
# are ``random_sparse_poly`` draws of 1 and 2 variables (seeds 0-9,
# max_exp=4), and depth is the largest with p^(n depth) <= 10^5.
PINNED_PRODUCT_COUNTS = [
    ("6*x^2*y^4", "9*u^3*v^2 - 5*u*v^4 - 6*u^2*v", 3, 2, [
        (0, 0), (0, 0), (4, 0), (8, 216), (0, 0), (8, 0), (0, 0), (0, 0), (1, 81), (2, 54),
        (0, 0), (2, 162), (0, 0), (0, 0), (2, 162), (4, 108), (0, 0), (4, 324), (0, 0),
        (0, 0), (2, 162), (4, 108), (0, 0), (4, 324),
    ]),
    ("-9*x^4 + 5*x^3 - 6*x", "-6*u*v^4 - 9*v^4 - 9*u^2", 2, 5, [
        (1, 4, 16, 64, 256), (0, 0, 2, 8, 36), (1, 3, 12, 46, 184), (0, 0, 0, 0, 0),
        (0, 1, 2, 10, 36), (0, 0, 0, 0, 0), (1, 8, 32, 128, 512), (0, 0, 4, 16, 72),
        (1, 6, 24, 92, 368), (0, 0, 0, 0, 0), (0, 2, 4, 20, 72), (0, 0, 0, 0, 0),
    ]),
    ("-4*x^2", "7*u^3*v^3 + 5*u^2*v^4 - 8*u^4*v", 2, 5, [
        (1, 4, 16, 64, 256), (0, 2, 0, 0, 0), (1, 6, 0, 0, 0), (1, 8, 32, 0, 0),
        (0, 0, 0, 0, 0), (1, 8, 0, 0, 0), (1, 4, 16, 64, 256), (0, 2, 16, 144, 592),
        (1, 6, 44, 352, 1392), (1, 8, 32, 256, 1024), (0, 0, 4, 16, 64),
        (1, 8, 64, 256, 1024),
    ]),
    ("6*x^4 - x^3 - 3*x", "3*u^2*v^3 + 3*u*v^4 - 2*u^3*v - 9*v^2", 2, 5, [
        (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 0), (1, 4, 14, 56, 224),
        (0, 0, 0, 4, 16), (0, 0, 0, 0, 0), (0, 0, 2, 4, 16), (1, 4, 16, 64, 256),
    ]),
    ("-5*x^3*y^3", "8*u^3", 2, 5, [
        (0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (1, 8, 64, 0, 0), (1, 8, 64, 512, 4096),
        (1, 8, 64, 256, 1024), (1, 8, 64, 256, 2048), (1, 8, 64, 256, 1024),
        (1, 8, 64, 256, 2048),
    ]),
    ("5*x^4 + 6*y^2 - 4*x", "-6*u^4 - u^3 + u^2 - 9*u", 5, 2, [
        (14, 350), (4, 100), (0, 0), (0, 0), (2, 46), (1, 21), (2, 50), (0, 0), (0, 4),
        (0, 4), (2, 50), (0, 0),
    ]),
    ("8*x^4 + 2*x^3 - 8*x^2 + 9*x", "8*u^4 - 7*u^2", 5, 3, [
        (4, 20, 100), (1, 5, 25), (2, 10, 50), (1, 5, 25),
    ]),
    ("-6*x^4 + 4*x^3 + 9*x^2 - 8*x", "4*u^4 + 9*u", 3, 5, [
        (2, 6, 18, 54, 162), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (1, 3, 9, 27, 81),
    ]),
    ("3*x^4*y + 6*y^3 - 8*x*y - 2*y", "6*u^4*v^3 - 3*u^3*v^4 + 6*u^3 - u", 2, 4, [
        (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (1, 8, 64, 512), (1, 16, 128, 1024),
        (1, 8, 64, 512), (1, 8, 64, 512), (0, 0, 0, 0), (1, 16, 128, 1024),
        (1, 8, 64, 512), (1, 8, 64, 512), (0, 0, 0, 0), (1, 8, 64, 512), (1, 8, 64, 512),
        (1, 8, 64, 512), (0, 0, 0, 0),
    ]),
    ("5*x^2*y^4 + x^4 - 9*x*y", "9*u^4 - 4*u^3 - 3*u^2 + 5*u", 3, 3, [
        (0, 0, 0), (4, 36, 324), (0, 0, 0), (1, 9, 75), (0, 0, 0), (0, 0, 0), (0, 0, 0),
        (2, 18, 162), (0, 0, 0), (0, 0, 6), (2, 18, 162), (0, 0, 0),
    ]),
]


def _summand_domains(f):
    poly = build_polyhedron(f)
    return [zero_cone] + [face_cone(poly, face) for face in proper_faces(poly)]


def _coordinate_domains():
    polyx = build_polyhedron(P("x"))
    return zero_cone, face_cone(polyx, proper_faces(polyx)[0])


class TestDomains:
    def test_partition_counts(self):
        zero1, cone1 = _coordinate_domains()
        f = P("x^2 + y^3")
        per = {
            name: count_mod(f, 3, 6, domain=dom)
            for name, dom in {
                "zz": product(zero1, zero1, 1),
                "zc": product(zero1, cone1, 1),
                "cz": product(cone1, zero1, 1),
                "cc": product(cone1, cone1, 1),
            }.items()
        }
        assert per["zz"].counts == (2, 6, 18, 54, 162, 486)
        assert per["zc"].counts == (0, 0, 0, 0, 0, 0)
        assert per["cz"].counts == (0, 0, 0, 0, 0, 0)
        assert per["cc"].counts == (1, 9, 27, 81, 243, 2187)
        assert [per[k].n0 for k in ("zz", "zc", "cz", "cc")] == [1, 0, 0, 0]
        full = count_mod(f, 3, 6)
        for m in range(7):
            assert sum(c.N(m) for c in per.values()) == full.N(m)

    def test_partition_measure_additivity(self):
        zero1, cone1 = _coordinate_domains()
        f = P("x^2 + y^3")
        parts = [
            measure_series(count_mod(f, 3, 6, domain=product(a, b, 1)))
            for a in (zero1, cone1)
            for b in (zero1, cone1)
        ]
        full = measure_series(count_mod(f, 3, 6))
        for m in range(6):
            assert sum(s[m] for s in parts) == full[m]

    def test_partition_past_int64(self):
        # from level 20 on, residues mod 3^m are lifted in object arrays
        f = P("x^2 + x")
        poly = build_polyhedron(f)
        parts = [
            count_mod(f, 3, 22, domain=dom)
            for dom in (zero_cone, face_cone(poly, proper_faces(poly)[0]))
        ]
        full = count_mod(f, 3, 22)
        assert [c.counts for c in parts] == [(1,) * 22, (1,) * 22]
        assert full.counts == (2,) * 22
        for m in range(23):
            assert sum(c.N(m) for c in parts) == full.N(m)

    @pytest.mark.parametrize(
        "f_text,g_text,p,depth,expected",
        PINNED_PRODUCT_COUNTS,
        ids=[f"{f} + {g} mod {p}" for f, g, p, _, _ in PINNED_PRODUCT_COUNTS],
    )
    def test_pinned_product_counts(self, f_text, g_text, p, depth, expected):
        f, g = P(f_text), P(g_text)
        h = direct_sum(f, g)
        per = [
            count_mod(h, p, depth, domain=product(a, b, f.nvars))
            for a in _summand_domains(f)
            for b in _summand_domains(g)
        ]
        assert [c.counts for c in per] == expected
        full = count_mod(h, p, depth)
        for m in range(depth + 1):
            assert sum(c.N(m) for c in per) == full.N(m)

    def test_zero_cone_membership(self):
        assert zero_cone((0, 0))
        assert not zero_cone((1, 0))


class TestVerifyTheorem:
    def test_two_squares(self):
        rep = verify_theorem(P("x^2"), P("y^2"), 5, depth=8)
        assert rep.ok
        assert rep.numerator == (Fraction(16, 25), Fraction(16, 125))
        assert rep.factors == ((1, 1), (2, 2))
        assert rep.cancelled_factors == ()
        assert rep.as_dict()["poles_surviving"] == ["-1"]
        assert rep.max_deg == 5  # defaults to depth - 3
        assert rep.residuals == ()

    def test_two_lines_cancel_a_factor(self):
        rep = verify_theorem(P("x"), P("y"), 3, depth=8)
        assert rep.ok
        assert rep.numerator == (Fraction(2, 3), Fraction(-2, 27))
        assert rep.factors == ((1, 1), (2, 1))
        assert rep.cancelled_factors == ((2, 1),)
        assert rep.as_dict()["poles_surviving"] == ["-1"]

    def test_unattainable_degree_falsifies_in_band(self):
        rep = verify_theorem(P("x^2"), P("y^3"), 5, depth=6, max_deg=0)
        assert not rep.ok
        assert rep.numerator is None
        assert rep.residuals == (
            (1, Fraction(-4, 125)),
            (2, Fraction(4, 125)),
            (5, Fraction(-4, 15625)),
        )

    def test_budget_exhaustion_raises(self):
        # x^2 takes 4 nodes and y^3 3, none of them shared: a budget of 6
        # runs out inside y^3 only because f and g draw on the same budget
        assert ball_counts(direct_sum(P("x^2"), P("y^3")), 5, 8).nodes_expanded == 7
        with pytest.raises(BudgetExceeded, match=r"^value balls of y\^3 .* after 6 nodes \(budget 6\)$"):
            verify_theorem(P("x^2"), P("y^3"), 5, depth=8, budget=6)

    def test_readme_default_passes(self):
        rep = verify_theorem(P("x^2"), P("y^3"), 5)
        assert rep.ok
        assert (rep.depth, rep.max_deg) == (16, 7)
        assert [str(c) for c in rep.numerator] == ["4/5", "-4/125", "4/125", "0", "0", "-4/15625"]
        assert rep.as_dict()["poles_surviving"] == ["-1", "-5/6"]
        lifted = count_mod(P("x^2 + y^3"), 5, 7)
        assert rep.counts.counts[:7] == lifted.counts

    def test_report_dict_is_json_ready(self):
        import json

        rep = verify_theorem(P("x^2"), P("y^2"), 5, depth=8)
        d = rep.as_dict()
        json.dumps(d)
        assert d["ok"] is True
        assert d["poles_surviving"] == ["-1"]
        assert d["numerator"] == ["16/25", "16/125"]

    def test_falsification_dict(self):
        rep = verify_theorem(P("x^2"), P("y^3"), 5, depth=6, max_deg=0)
        d = rep.as_dict()
        assert d["ok"] is False
        assert d["residuals"] == [[1, "-4/125"], [2, "4/125"], [5, "-4/15625"]]

