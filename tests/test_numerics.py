import math
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptgsolve import numerics
from ptgsolve.numerics import (
    DomainError,
    F0,
    F1,
    INF,
    PwlError,
    PwlFn,
    format_cost,
    frac,
    is_inf,
    max_envelope,
    min_envelope,
    parse_cost,
    wait_closure,
)


def affine(lo, hi, v, s):
    return PwlFn.affine(Fr(lo), Fr(hi), Fr(v), Fr(s))


class TestScalars:
    def test_frac_rejects_floats(self):
        with pytest.raises(TypeError):
            frac(0.5)

    def test_frac_parses_strings_and_ints(self):
        assert frac("3/4") == Fr(3, 4)
        assert frac(7) == Fr(7)

    def test_parse_and_format_cost(self):
        assert parse_cost("inf") == INF
        assert parse_cost("5/3") == Fr(5, 3)
        assert parse_cost(2) == Fr(2)
        assert format_cost(INF) == "inf"
        assert format_cost(Fr(5, 3)) == "5/3"
        assert format_cost(Fr(-2)) == "-2"
        assert parse_cost(format_cost(Fr(22, 7))) == Fr(22, 7)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("7", Fr(7)), (" -3 ", Fr(-3)), ("+3", Fr(3)), ("\t10/4\n", Fr(5, 2)),
            ("2.5", Fr(5, 2)), (".5", Fr(1, 2)), ("1.", F1), ("-0.125", Fr(-1, 8)),
            (" inf ", INF),
        ],
    )
    def test_cost_grammar(self, text, value):
        assert parse_cost(text) == value

    @pytest.mark.parametrize(
        "text",
        ["1 / 2", "1/ 2", "1_000", "1/1_0", "\u0661", "\u0665.5", "\u20035", "5\u00a0",
         "1e3", "2E-1", "-inf", "+inf", "Infinity", "nan", "", ".", "-", "1/-2", "1.5/2",
         "2/.5", "- 1", "0x10", 1.5, True, None],
    )
    def test_outside_the_cost_grammar(self, text):
        with pytest.raises(ValueError):
            parse_cost(text)

    def test_is_inf(self):
        assert is_inf(INF)
        assert not is_inf(Fr(10**9))


class TestPwlEval:
    def test_constant(self):
        f = PwlFn.constant(0, 1, F0)
        assert f.eval(Fr(1, 2)) == 0

    def test_two_segments(self):
        f = PwlFn.from_segments([(F0, Fr(1, 2), F0, F0), (Fr(1, 2), F1, F1, Fr(-2))])
        # second piece is 2 - 2x
        assert f.eval(Fr(3, 4)) == Fr(1, 2)
        assert f.eval(Fr(1, 2)) == Fr(1)

    def test_constant_inf(self):
        f = PwlFn.constant(0, 1, INF)
        assert is_inf(f.eval(Fr(1, 3)))
        assert f.is_constant_inf()

    def test_outside_domain(self):
        f = PwlFn.constant(0, 1, F0)
        with pytest.raises(DomainError):
            f.eval(Fr(3, 2))

    def test_one_sided_limits_at_jump(self):
        f = PwlFn.from_segments([(F0, F1, F0, F0)], point_overrides={F0: F1})
        assert f.eval(F0) == F1
        assert f.eval(F0, side="right") == F0
        with pytest.raises(DomainError):
            f.eval(F0, side="left")

    def test_lookup_matches_a_segment_scan(self):
        f = PwlFn.from_segments(
            [
                (F0, Fr(1, 4), F1, F0),
                (Fr(1, 4), Fr(1, 2), Fr(2), Fr(-1)),
                (Fr(1, 2), Fr(3, 4), INF, F0),
                (Fr(3, 4), F1, F0, Fr(3)),
            ],
            point_overrides={Fr(1, 4): Fr(7), F1: Fr(9)},
        )
        segs = list(f.segments())

        def scan(x, side):
            if side == "at" and x in f.breaks:
                return f.point_vals[f.breaks.index(x)]
            for lo, hi, v, s in segs:
                if (lo < x <= hi) if side == "left" else (lo <= x < hi):
                    return INF if is_inf(v) else v + s * (x - lo)

        xs = sorted(set(f.breaks) | {Fr(i, 16) for i in range(17)})
        for x in xs:
            sides = ["at"] + (["left"] if x > F0 else []) + (["right"] if x < F1 else [])
            for side in sides:
                assert f.eval(x, side) == scan(x, side), (x, side)

    def test_collinear_segments_merge(self):
        f = PwlFn.from_segments([(F0, Fr(1, 2), F0, F1), (Fr(1, 2), F1, Fr(1, 2), F1)])
        assert f == affine(0, 1, 0, 1)
        assert len(f.seg_vals) == 1

    @pytest.mark.parametrize(
        "joint", [None, Fr(1, 2), F1, Fr(5)], ids=["none", "left-limit", "right-value", "other"]
    )
    def test_equal_slopes_with_a_gap_stay_apart(self, joint):
        """Neighbours of equal slope merge only when they are continuous:
        across a gap both stay, whatever the joint's point value."""
        segs = [(F0, Fr(1, 2), F0, F1), (Fr(1, 2), F1, F1, F1)]
        f = PwlFn.from_segments(segs, {} if joint is None else {Fr(1, 2): joint})
        assert list(f.segments()) == segs
        assert f.point_vals == (F0, F1 if joint is None else joint, Fr(3, 2))

    @pytest.mark.parametrize("joint, pieces", [(None, 1), (Fr(1, 2), 1), (Fr(3), 2)])
    def test_continuous_equal_slopes_merge_unless_the_joint_jumps(self, joint, pieces):
        segs = [(F0, Fr(1, 2), F0, F1), (Fr(1, 2), F1, Fr(1, 2), F1)]
        f = PwlFn.from_segments(segs, {} if joint is None else {Fr(1, 2): joint})
        assert len(f.seg_vals) == pieces
        assert f.eval(Fr(1, 2)) == (Fr(1, 2) if joint is None else joint)
        assert f.eval(Fr(1, 2), side="left") == f.eval(Fr(1, 2), side="right") == Fr(1, 2)

    def test_zero_width_segment_rejected(self):
        with pytest.raises(PwlError):
            PwlFn.from_segments([(F0, F0, F0, F0)])

    @pytest.mark.parametrize(
        "segments, message",
        [
            ([], "no segments"),
            ([(F0, Fr(1, 2), F0, F0), (Fr(3, 4), F1, F0, F0)], "segments do not tile the domain"),
        ],
        ids=["empty", "gap"],
    )
    def test_segments_that_do_not_tile_rejected(self, segments, message):
        with pytest.raises(PwlError, match=f"^{message}$"):
            PwlFn.from_segments(segments)

    def test_no_right_limit_at_the_upper_endpoint(self):
        with pytest.raises(DomainError, match="^no right limit at the upper endpoint$"):
            PwlFn.constant(0, 1, F0).eval(F1, side="right")

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="^unknown side 'middle'$"):
            PwlFn.constant(0, 1, F0).eval(Fr(1, 2), side="middle")


class TestEnvelopes:
    @pytest.mark.parametrize("envelope", [min_envelope, max_envelope])
    def test_empty_list_rejected(self, envelope):
        with pytest.raises(PwlError, match="^empty function list$"):
            envelope([])

    def test_crossing_pair(self):
        f = affine(0, 1, 2, -2)
        g = affine(0, 1, Fr(3, 2), -1)
        h = min_envelope([f, g])
        assert h.interior_breaks() == (Fr(1, 2),)
        assert h.eval(Fr(1, 4)) == Fr(5, 4)  # 3/2 - x wins low
        assert h.eval(Fr(3, 4)) == Fr(1, 2)  # 2 - 2x wins high

    def test_inf_identity(self):
        f = affine(0, 1, 1, -1)
        assert min_envelope([f, PwlFn.constant(0, 1, INF)]) == f
        assert max_envelope([f, PwlFn.constant(0, 1, INF)]).is_constant_inf()

    def test_dominance(self):
        f = affine(0, 1, 1, -1)
        assert max_envelope([f, PwlFn.constant(0, 1, F0)]) == f

    def test_mismatched_domains(self):
        with pytest.raises(DomainError):
            min_envelope([PwlFn.constant(0, 1, F0), PwlFn.constant(0, 2, F0)])

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(-4, 4)), min_size=1, max_size=4
        ),
        st.integers(0, 16),
    )
    @settings(max_examples=200)
    def test_pointwise_min(self, lines, num):
        fs = [affine(0, 1, v, s) for v, s in lines]
        h = min_envelope(fs)
        x = Fr(num, 16)
        assert h.eval(x) == min(f.eval(x) for f in fs)


@st.composite
def pwl_fns(draw):
    """A function on [0, 1] of up to 5 pieces on a grid of twelfths, with
    small integer values so that ties and shared crossings are common,
    infinite pieces, and jumps (some to infinity) at breakpoints."""
    cuts = draw(st.sets(st.integers(1, 11), max_size=4))
    pts = [F0] + [Fr(c, 12) for c in sorted(cuts)] + [F1]
    values = st.one_of(st.integers(-3, 3).map(Fr), st.just(INF))
    segs = [
        (a, b, draw(values), Fr(draw(st.integers(-6, 6)), 2)) for a, b in zip(pts, pts[1:])
    ]
    jumps = {p: draw(values) for p in pts if draw(st.booleans()) and draw(st.booleans())}
    return PwlFn.from_segments(segs, jumps)


def assert_pointwise(h, fs, best):
    """``h`` is the pointwise ``best`` of ``fs`` at every breakpoint of
    any of them (point value and both one-sided limits) and at every
    midpoint between consecutive ones."""
    grid = sorted(set(h.breaks).union(*(f.breaks for f in fs)))
    xs = grid + [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    for x in xs:
        sides = ["at"] + (["left"] if x > F0 else []) + (["right"] if x < F1 else [])
        for side in sides:
            assert h.eval(x, side) == best(f.eval(x, side) for f in fs), (x, side)


class TestMergedEnvelopes:
    @given(st.lists(pwl_fns(), min_size=1, max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_pointwise_reference(self, fs):
        assert_pointwise(min_envelope(fs), fs, min)
        assert_pointwise(max_envelope(fs), fs, max)

    @pytest.mark.parametrize("k", [64, 256])
    def test_work_is_k_log_k(self, k, monkeypatch):
        # tangents to x^2 (upper envelope) and -x^2 (lower): every line
        # shows on the envelope, which has k pieces and k-1 crossings.
        # A merge samples each of its two functions once per point of
        # the merged grid, so the grid points sampled count its work.
        walked = []
        plain_samples = numerics._samples
        monkeypatch.setattr(
            numerics, "_samples", lambda f, grid: walked.append(len(grid)) or plain_samples(f, grid)
        )
        ts = [Fr(i, k) for i in range(k)]
        for envelope, sign in ((max_envelope, 1), (min_envelope, -1)):
            walked.clear()
            h = envelope([affine(0, 1, -sign * t * t, sign * 2 * t) for t in ts])
            assert len(h.seg_vals) == k
            assert 0 < sum(walked) <= 8 * k * math.log2(k), sum(walked)


FINITE = st.integers(-3, 3).map(Fr)
VALUES = st.one_of(FINITE, st.just(INF))
SLOPES = st.integers(-6, 6).map(lambda s: Fr(s, 2))
CUTS = st.integers(1, 11).map(lambda c: Fr(c, 12))


@st.composite
def two_pieces(draw, cut, left=VALUES, right=VALUES, jump=False):
    """A function on [0, 1] with a breakpoint at ``cut``, and a drawn
    point value there if ``jump``."""
    segs = [(F0, cut, draw(left), draw(SLOPES)), (cut, F1, draw(right), draw(SLOPES))]
    f = PwlFn.from_segments(segs, {cut: draw(VALUES)} if jump else {})
    assume(cut in f.breaks)
    return f


def assert_both_envelopes(fs):
    assert_pointwise(min_envelope(fs), fs, min)
    assert_pointwise(max_envelope(fs), fs, max)


class TestLinearMerge:
    """The cases the merge's forward walk tells apart: a grid point that
    is a breakpoint of one function or of both, or lies inside a
    segment; jumps; infinite pieces; a single segment."""

    @given(pwl_fns(), st.sets(st.integers(1, 47), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_samples_are_the_one_sided_limits_and_point_values(self, f, extra):
        grid = sorted(set(f.breaks) | {Fr(e, 48) for e in extra})
        want = [
            (
                f.eval(x, "left") if x > F0 else None,
                f.eval(x),
                f.eval(x, "right") if x < F1 else None,
            )
            for x in grid
        ]
        assert numerics._samples(f, grid) == want

    @given(st.data(), CUTS)
    @settings(max_examples=200, deadline=None)
    def test_shared_breakpoint_where_both_jump(self, data, cut):
        f = data.draw(two_pieces(cut, jump=True))
        g = data.draw(two_pieces(cut, jump=True))
        assume(cut in f.jumps() and cut in g.jumps())
        assert_both_envelopes([f, g])

    @given(st.data(), CUTS, st.booleans(), pwl_fns())
    @settings(max_examples=200, deadline=None)
    def test_infinite_piece_beside_a_finite_one(self, data, cut, inf_first, g):
        sides = (st.just(INF), FINITE) if inf_first else (FINITE, st.just(INF))
        f = data.draw(two_pieces(cut, *sides))
        assert_both_envelopes([f, g])

    @given(st.data(), CUTS, CUTS)
    @settings(max_examples=200, deadline=None)
    def test_breakpoint_strictly_inside_the_other_segment(self, data, c, d):
        assume(c != d)
        f, g = data.draw(two_pieces(c)), data.draw(two_pieces(d))
        assert d not in f.breaks and c not in g.breaks
        assert_both_envelopes([f, g])

    @given(VALUES, SLOPES, pwl_fns())
    @settings(max_examples=200, deadline=None)
    def test_single_segment(self, v, s, g):
        f = PwlFn.affine(F0, F1, v, s)
        assert len(f.seg_vals) == 1
        assert_both_envelopes([f, g])
        assert_both_envelopes([f, PwlFn.constant(F0, F1, v)])


def jumps_reference(f):
    """Breakpoints whose point value differs from a one-sided limit."""
    return [
        x
        for x in f.breaks
        if (x > f.lo and f.eval(x, "left") != f.eval(x))
        or (x < f.hi and f.eval(x, "right") != f.eval(x))
    ]


def offset_reference(f, c):
    """``f + c`` rebuilt segment by segment, jumps as point overrides."""
    shift = lambda v: INF if is_inf(v) else v + c
    segs = [(lo, hi, shift(v), s) for lo, hi, v, s in f.segments()]
    return PwlFn.from_segments(segs, {b: shift(p) for b, p in zip(f.breaks, f.point_vals)})


class TestJumpsAndOffset:
    @given(pwl_fns())
    @settings(max_examples=300, deadline=None)
    def test_jumps_match_one_sided_limits(self, f):
        assert f.jumps() == jumps_reference(f)

    @given(pwl_fns(), st.sampled_from([F0, Fr(1, 3), Fr(5), Fr(-7, 2), INF]))
    @settings(max_examples=300, deadline=None)
    def test_offset_equals_a_rebuild(self, f, c):
        got, want = f.offset(c), offset_reference(f, c)
        assert (got.breaks, got.seg_vals, got.slopes, got.point_vals) == (
            want.breaks,
            want.seg_vals,
            want.slopes,
            want.point_vals,
        )


def running_extreme_from_right(f, x, pick):
    """Brute extreme of f over [x, 1] using breakpoints as candidates."""
    cands = [f.eval(x), f.eval(F1)]
    for b in f.breaks:
        if x <= b <= F1:
            cands.append(f.eval(b))
    return pick(cands)


class TestWaitClosure:
    def test_constant_target(self):
        f = PwlFn.constant(0, 1, Fr(1, 2))
        assert wait_closure(f, F1, "min") == f

    def test_free_wait_to_cheapest(self):
        f = affine(0, 1, 1, -1)
        assert wait_closure(f, F0, "min") == PwlFn.constant(0, 1, F0)

    def test_max_collects_rate(self):
        f = PwlFn.constant(0, 1, F0)
        assert wait_closure(f, F1, "max") == affine(0, 1, 1, -1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            wait_closure(PwlFn.constant(0, 1, F0), Fr(-1), "min")

    def test_unknown_player_rejected(self):
        with pytest.raises(ValueError, match="^unknown player 'mid'$"):
            wait_closure(PwlFn.constant(0, 1, F0), F1, "mid")

    def test_partly_infinite_rejected(self):
        half = Fr(1, 2)
        f = PwlFn.from_segments([(F0, half, INF, F0), (half, F1, F0, F0)])
        for player in ("min", "max"):
            with pytest.raises(
                PwlError, match="^wait closure requires a finite or constant-inf function$"
            ):
                wait_closure(f, F1, player)

    def test_constant_inf_passthrough(self):
        f = PwlFn.constant(0, 1, INF)
        assert wait_closure(f, F1, "min") == f

    def test_min_level_cuts_a_rising_segment(self):
        half, quarter = Fr(1, 2), Fr(1, 4)
        f = PwlFn.from_segments([(F0, half, F0, Fr(4)), (half, F1, Fr(2), Fr(-2))])
        want = PwlFn.from_segments([(F0, quarter, F0, Fr(4)), (quarter, F1, F1, F0)])
        assert wait_closure(f, F0, "min") == want

    def test_max_level_cuts_a_falling_segment(self):
        half, quarter = Fr(1, 2), Fr(1, 4)
        f = PwlFn.from_segments([(F0, half, Fr(2), Fr(-4)), (half, F1, F0, Fr(2))])
        want = PwlFn.from_segments([(F0, quarter, Fr(2), Fr(-4)), (quarter, F1, F1, F0)])
        assert wait_closure(f, F0, "max") == want

    def test_jump_rejected(self):
        half = Fr(1, 2)
        f = PwlFn.from_segments([(F0, half, F1, F0), (half, F1, F1, F0)], {half: F0})
        assert f.jumps() == [half]
        for player in ("min", "max"):
            with pytest.raises(PwlError):
                wait_closure(f, F1, player)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(-3, 3)), min_size=1, max_size=3
        ),
        st.integers(0, 12),
    )
    @settings(max_examples=150)
    def test_rate_zero_is_running_extreme(self, lines, num):
        f = min_envelope([affine(0, 1, v, s) for v, s in lines])
        x = Fr(num, 12)
        assert wait_closure(f, F0, "min").eval(x) == running_extreme_from_right(f, x, min)
        assert wait_closure(f, F0, "max").eval(x) == running_extreme_from_right(f, x, max)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(-3, 3)), min_size=1, max_size=3
        ),
        st.integers(0, 3),
        st.integers(0, 12),
    )
    @settings(max_examples=150)
    def test_closure_against_sampled_waits(self, lines, rate, num):
        f = min_envelope([affine(0, 1, v, s) for v, s in lines])
        r = Fr(rate)
        g = wait_closure(f, r, "min")
        x = Fr(num, 12)
        waits = [x] + [b for b in f.breaks if b >= x] + [g.breaks[i] for i in range(len(g.breaks)) if g.breaks[i] >= x]
        best = min(f.eval(w) + r * (w - x) for w in waits)
        assert g.eval(x) == best
        assert g.eval(x) <= f.eval(x)
