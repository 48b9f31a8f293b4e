import functools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import scalar_arclog_run, scalar_max_window_count, scalar_pair_product_log

from toral_nodal import lattice
from toral_nodal.errors import InvariantViolation
from toral_nodal.lattice import (ANGLE_TIE_TOL, INT64_N_MAX, SIEVE_BLOCK,
                                 CircleBlock, LatticeCircle,
                                 arclog_bound_audit, cc_exponent,
                                 cc_product_check, chord_arc_max,
                                 enumerate_circle, jarnik_audit, max_arc_count,
                                 representable_up_to, window_half_width)


def brute_force_points(n):
    """Independent O(n) scan over the full square."""
    r = math.isqrt(n)
    return sorted((x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
                  if x * x + y * y == n)


def brute_force_window_max(circle, kind, c=1.0):
    """Naive O(#E^2) oracle: every point as a window's leading edge."""
    half = window_half_width(kind, circle.radius, c)
    width = 2.0 * half
    best = 0
    for a in circle.angles:
        cnt = sum(1 for b in circle.angles
                  if (b - a) % (2.0 * math.pi) <= width + 1e-12)
        best = max(best, cnt)
    return min(best, circle.count)


def test_units_circle():
    c = enumerate_circle(1)
    assert c.points == ((1, 0), (0, 1), (-1, 0), (0, -1))
    assert c.count == 4


def test_non_representable_is_empty():
    assert enumerate_circle(3).count == 0
    assert enumerate_circle(7).count == 0


def test_n25_point_set(circle25):
    expected = brute_force_points(25)
    assert sorted(circle25.points) == expected
    assert circle25.count == 12
    for p in [(3, 4), (-4, 3), (5, 0), (0, -5)]:
        assert p in circle25.points


def test_bad_n_rejected():
    with pytest.raises(ValueError):
        enumerate_circle(0)
    with pytest.raises(ValueError):
        enumerate_circle(-4)


@given(st.integers(min_value=1, max_value=3000))
def test_circle_invariants(n):
    c = enumerate_circle(n)
    assert sorted(c.points) == brute_force_points(n)
    assert c.count % 4 == 0
    pts = set(c.points)
    for x, y in pts:
        assert (-x, -y) in pts and (y, x) in pts
    assert all(a < b for a, b in zip(c.angles, c.angles[1:]))


def test_sieve_matches_per_n_scan():
    sieved = {c.n: c.points for c in representable_up_to(600)}
    for n in range(1, 600 + 1):
        direct = enumerate_circle(n)
        if direct.count:
            assert sieved[n] == direct.points
        else:
            assert n not in sieved


def test_sieved_circle_equals_enumerated_circle():
    sieved = {c.n: c for c in representable_up_to(1105)}[1105]
    direct = enumerate_circle(1105)
    assert sieved == direct and hash(sieved) == hash(direct)
    assert repr(sieved) == repr(direct)
    assert pickle.loads(pickle.dumps(sieved)) == direct
    with pytest.raises(AttributeError):
        sieved.n = 5


def test_chord_window_counts_match_oracle():
    for n in (1, 2, 25, 50, 65, 325, 1105, 4225):
        c = enumerate_circle(n)
        b, witness = max_arc_count(c)
        assert b == brute_force_window_max(c, "chord")
        assert witness.kind == "chord"


def test_chord_window_oracle_sampled_to_1e4():
    # every 40th representable circle up to 10^4, both window kinds
    for i, c in enumerate(representable_up_to(10_000)):
        if i % 40:
            continue
        assert max_arc_count(c)[0] == brute_force_window_max(c, "chord")
        assert (max_arc_count(c, "length", 1.3)[0]
                == brute_force_window_max(c, "length", 1.3))


def test_chord_window_n25(circle25):
    b, witness = max_arc_count(circle25)
    assert b == 2
    # the witness window really covers b points
    half = window_half_width(witness.kind, circle25.radius, witness.c)
    covered = sum(
        1 for a in circle25.angles
        if abs((a - witness.center_angle + math.pi) % (2 * math.pi) - math.pi)
        <= half + 1e-12)
    assert covered == b


def test_empty_circle_rejected():
    with pytest.raises(ValueError):
        max_arc_count(enumerate_circle(3))


@given(st.sampled_from([2, 25, 65, 325, 1105]),
       st.floats(min_value=0.2, max_value=4.0),
       st.floats(min_value=1.0, max_value=3.0))
def test_window_count_monotone_in_width(n, c_small, factor):
    circle = enumerate_circle(n)
    b1, _ = max_arc_count(circle, kind="length", c=c_small)
    b2, _ = max_arc_count(circle, kind="length", c=c_small * factor)
    assert b2 >= b1


def test_jarnik_examples(circle25, circle1105):
    assert jarnik_audit(circle25)[0] <= 2
    assert circle1105.count == 32
    assert jarnik_audit(circle1105)[0] <= 2
    assert jarnik_audit(enumerate_circle(2))[0] == 1


def test_cc_exponent_values():
    assert cc_exponent(2) == 0
    assert cc_exponent(4) == 2
    assert cc_exponent(5) == 4


@given(st.integers(min_value=2, max_value=400))
def test_cc_exponent_parity_formula(m):
    if m % 2 == 0:
        assert cc_exponent(m) == (m // 2) * (m // 2 - 1)
    else:
        assert 4 * cc_exponent(m) == (m - 1) ** 2


def test_cc_exponent_rejects_small():
    with pytest.raises(ValueError):
        cc_exponent(1)


def test_cc_product_close_pair():
    r = cc_product_check([(3, 4), (4, 3)], 25)
    assert r.lhs == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert r.rhs == pytest.approx(1.0, rel=1e-12)
    assert r.ok


def test_cc_product_full_circle(circle25):
    assert cc_product_check(list(circle25.points), 25).ok


@given(st.sampled_from([2, 25, 65, 325]), st.data())
def test_cc_product_any_pair(n, data):
    pts = enumerate_circle(n).points
    i = data.draw(st.integers(0, len(pts) - 1))
    j = data.draw(st.integers(0, len(pts) - 1))
    if i == j:
        return
    assert cc_product_check([pts[i], pts[j]], n).ok


def test_cc_product_input_errors():
    with pytest.raises(ValueError):
        cc_product_check([(3, 4), (3, 4)], 25)
    with pytest.raises(ValueError):
        cc_product_check([(3, 4), (1, 0)], 25)
    with pytest.raises(ValueError):
        cc_product_check([(3, 4)], 25)


def test_arclog_examples(circle25):
    m, bound, ok = arclog_bound_audit(circle25)
    assert ok and m <= 2
    assert bound == pytest.approx(math.log(5) / (2 * math.log(2)) + 1, rel=1e-12)
    assert arclog_bound_audit(enumerate_circle(4))[0] == 1
    m2, _, ok2 = arclog_bound_audit(enumerate_circle(2 * 5**4))
    assert ok2


def test_arclog_needs_lambda_two():
    with pytest.raises(ValueError):
        arclog_bound_audit(enumerate_circle(2))


def test_arclog_exact_vs_float_bound():
    # 16^(m-1) <= n is the exact form of m <= log(lambda)/(2 log 2) + 1
    for c in representable_up_to(3000):
        if c.radius < 2.0:
            continue
        m, bound, ok = arclog_bound_audit(c)
        assert ok == (m <= bound + 1e-9)


def test_chord_arc_max_cache(circle25):
    assert chord_arc_max(circle25) == max_arc_count(circle25)[0]


def test_window_half_width_formulas():
    assert window_half_width("chord", 25.0) == pytest.approx(
        2 * math.asin(0.5 / 5.0))
    assert window_half_width("length", 25.0, c=2.0) == pytest.approx(2.0 / 10.0)
    with pytest.raises(ValueError):
        window_half_width("diagonal", 4.0)


# -- block kernels against the scalar oracles ---------------------------------

ORACLE_N = 20_000


@pytest.fixture(scope="module")
def oracle_circles():
    return list(representable_up_to(ORACLE_N - 1))


def _scalar_window(circle, kind, c=1.0):
    half = window_half_width(kind, circle.radius, c)
    count, i = scalar_max_window_count(circle.angles, 2.0 * half)
    return count, (circle.angles[i] + half) % (2.0 * math.pi)


@pytest.mark.parametrize("kind, c, n_max", [("chord", 1.0, ORACLE_N), ("length", 1.3, ORACLE_N),
                                             ("length", 40.0, 2000)])
def test_window_kernel_matches_scalar_oracle(oracle_circles, kind, c, n_max):
    # c = 40 makes the window at least a full turn for n <= 1642
    circles = [circle for circle in oracle_circles if circle.n < n_max]
    counts, centers = max_arc_count(CircleBlock.of(circles), kind, c)
    expected = [_scalar_window(circle, kind, c) for circle in circles]
    assert list(zip(counts.tolist(), centers.tolist())) == expected


def test_jarnik_kernel_matches_scalar_oracle(oracle_circles):
    counts, centers = jarnik_audit(CircleBlock.of(oracle_circles))
    expected = [_scalar_window(circle, "length", circle.radius ** (-1.0 / 6.0))
                for circle in oracle_circles]
    assert list(zip(counts.tolist(), centers.tolist())) == expected


def test_arclog_kernel_matches_scalar_oracle(oracle_circles):
    circles = [c for c in oracle_circles if c.n >= 4]
    m, bound, ok = arclog_bound_audit(CircleBlock.of(circles))
    assert m.tolist() == [scalar_arclog_run(c) for c in circles]
    assert bound.tolist() == [math.log(c.radius) / (2.0 * math.log(2.0)) + 1.0
                              for c in circles]
    assert ok.all()


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_pair_product_kernel_matches_scalar_oracle(oracle_circles, size):
    # every window of every circle is checked; the scalar oracle recomputes
    # each circle's first window and its last, which wraps past angle 2*pi
    block = CircleBlock.of(c for c in oracle_circles if c.count >= size)
    pts, ns = block.windows(size)
    res = cc_product_check(pts, ns)
    assert res.ok.all()
    rows = np.concatenate([block.start, block.start + block.count - 1])
    expected = [scalar_pair_product_log(w) for w in pts[rows].tolist()]
    np.testing.assert_allclose(res.log_lhs[rows], expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        res.log_rhs, [cc_exponent(size) * 0.5 * math.log(n) for n in ns.tolist()],
        rtol=0, atol=1e-12)


def _per_circle(circles):
    block = CircleBlock.of(circles)
    big = [c for c in circles if c.n >= 4]
    four = block.count >= 4
    return {
        "chord": [a.tolist() for a in max_arc_count(block)],
        "length": [a.tolist() for a in max_arc_count(block, "length", 1.3)],
        "jarnik": [a.tolist() for a in jarnik_audit(block)],
        "arclog": ([a.tolist() for a in arclog_bound_audit(CircleBlock.of(big))]
                   if big else [[], [], []]),
        "cc": cc_product_check(*block.windows(4, four)).log_lhs.tolist(),
    }


@functools.cache
def _circles_to_3000():
    return list(representable_up_to(3000))


@given(st.integers(0, 400), st.integers(2, 120), st.data())
def test_splitting_a_chunk_keeps_per_circle_results(first, length, data):
    circles = _circles_to_3000()[first:first + length]
    cut = data.draw(st.integers(1, len(circles) - 1))
    whole = _per_circle(circles)
    left, right = _per_circle(circles[:cut]), _per_circle(circles[cut:])
    for key, value in whole.items():
        if key == "cc":
            assert value == left[key] + right[key]
        else:
            assert value == [a + b for a, b in zip(left[key], right[key])]


def test_window_edge_inside_angle_tie_tol(circle25):
    # the closest pair on n = 25 is (4,3), (3,4); a window short of their
    # angular gap by less than ANGLE_TIE_TOL still holds both
    a = circle25.angles
    gap = a[circle25.points.index((3, 4))] - a[circle25.points.index((4, 3))]
    scale = math.sqrt(circle25.radius)
    inside = max_arc_count(circle25, "length", (gap - 0.5 * ANGLE_TIE_TOL) * scale)
    outside = max_arc_count(circle25, "length", (gap - 2.0 * ANGLE_TIE_TOL) * scale)
    assert inside[0] == 2 and outside[0] == 1
    for c in ((gap - 0.5 * ANGLE_TIE_TOL) * scale, (gap - 2.0 * ANGLE_TIE_TOL) * scale):
        assert max_arc_count(circle25, "length", c)[0] == scalar_max_window_count(
            a, 2.0 * window_half_width("length", circle25.radius, c))[0]


# -- exact pair-product verdicts and the int64 guard ---------------------------

def _cc_windows(n_max):
    block = CircleBlock.of(representable_up_to(n_max))
    sizes = np.minimum(6, block.count)
    for size in range(2, 7):
        for select in (sizes == size, sizes > size):
            if select.any():
                yield block.windows(size, select)


def test_exact_pair_product_recheck_keeps_verdicts(monkeypatch):
    batches = list(_cc_windows(4999))
    logged = [cc_product_check(pts, ns) for pts, ns in batches]
    monkeypatch.setattr(lattice, "CC_LOG_MARGIN", math.inf)
    for (pts, ns), fast in zip(batches, logged):
        exact = cc_product_check(pts, ns)
        assert exact.ok.all() and fast.ok.all()
        assert np.array_equal(exact.log_lhs, fast.log_lhs)


@pytest.mark.parametrize("margin", [lattice.CC_LOG_MARGIN, math.inf])
def test_pair_product_failure_raises_on_both_paths(monkeypatch, margin):
    monkeypatch.setattr(lattice, "CC_LOG_MARGIN", margin)
    monkeypatch.setattr(lattice, "cc_exponent", lambda m: 1)
    # |(3,4) - (4,3)|^2 = 2 < 25 = n^1
    with pytest.raises(InvariantViolation):
        cc_product_check([(3, 4), (4, 3)], 25)
    with pytest.raises(InvariantViolation):
        cc_product_check(np.array([[[5, 0], [4, 3]], [[3, 4], [4, 3]]]), [25, 25])


def test_int64_guard_raises_above_its_bound():
    assert 256 * INT64_N_MAX**2 < 2**63 <= 256 * (INT64_N_MAX + 1) ** 2
    x = math.isqrt(INT64_N_MAX // 2) + 1
    big = LatticeCircle(n=2 * x * x, radius=math.sqrt(2 * x * x),
                        points=((x, x), (-x, x), (-x, -x), (x, -x)))
    assert big.n > INT64_N_MAX
    with pytest.raises(ValueError, match="int64"):
        arclog_bound_audit(big)
    # the window counts compare angles only, so they need no bound
    assert max_arc_count(big)[0] == jarnik_audit(big)[0] == 1
    with pytest.raises(ValueError, match="int64"):
        cc_product_check(big.points[:2], big.n)
    with pytest.raises(ValueError, match="int64"):
        next(representable_up_to(INT64_N_MAX + 1))


def test_batched_pair_product_matches_single_subsets(circle1105):
    pts, ns = CircleBlock.of([circle1105]).windows(5)
    batch = cc_product_check(pts, ns)
    for w, lhs in zip(pts.tolist(), batch.log_lhs.tolist()):
        single = cc_product_check([tuple(p) for p in w], 1105)
        assert single.ok is True and single.log_lhs == pytest.approx(lhs, abs=1e-12)


# -- sieve memory --------------------------------------------------------------

def test_sieve_memory_is_bounded_by_one_block():
    # one traced pass to 4*10^5, keeping no circle: the peak after the first
    # block and after 10^5 bound the peak at the end
    marks, peaks = [SIEVE_BLOCK, 100_000], []
    tracemalloc.start()
    try:
        for circle in representable_up_to(400_000):
            if marks and circle.n > marks[0]:
                marks.pop(0)
                peaks.append(tracemalloc.get_traced_memory()[1])
        large = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_block, small = peaks
    assert large <= small + one_block
    assert large < 8 * 2**20
