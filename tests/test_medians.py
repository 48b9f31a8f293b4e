import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import median_dist, shell_window_count

from toral_nodal.errors import AntipodalMedianError
from toral_nodal.lattice import enumerate_circle
from toral_nodal.medians import build_median_set, dyadic_decompose, invert_median, median_map

CIRCLE_POOL = [1, 2, 25, 325, 1105]


def test_median_map_examples():
    m = median_map((3, 4), (3, 4), 25)
    assert m.z2 == (6, 8) and m.four_delta_sq == 0

    m = median_map((3, 4), (-3, -4), 25)
    assert m.z2 == (0, 0)

    m = median_map((3, 4), (4, 3), 25)
    assert m.z2 == (7, 7) and m.four_delta_sq == 2


def test_median_map_off_circle():
    with pytest.raises(ValueError):
        median_map((3, 4), (1, 0), 25)


def test_invert_examples():
    assert set(invert_median((7, 7), 25)) == {(3, 4), (4, 3)}
    assert set(invert_median((0, 8), 25)) == {(-3, 4), (3, 4)}
    # Delta = 0: both parents coincide with the median point
    assert set(invert_median((6, 8), 25)) == {(3, 4)}


def test_invert_error_cases():
    with pytest.raises(AntipodalMedianError):
        invert_median((0, 0), 25)
    with pytest.raises(ValueError):
        invert_median((21, 0), 25)  # |z2|^2 > 4n
    # inside the disk but not a lattice median
    assert invert_median((2, 1), 25) is None


@given(st.sampled_from(CIRCLE_POOL), st.data())
def test_round_trip_and_chord_gap(n, data):
    pts = enumerate_circle(n).points
    i = data.draw(st.integers(0, len(pts) - 1))
    j = data.draw(st.integers(0, len(pts) - 1))
    mu, nu = pts[i], pts[j]
    med = median_map(mu, nu, n)
    assert med.z2[0] ** 2 + med.z2[1] ** 2 + med.four_delta_sq == 4 * n
    if med.z2 == (0, 0):
        with pytest.raises(AntipodalMedianError):
            invert_median(med.z2, n)
        return
    pair = invert_median(med.z2, n)
    assert pair is not None and set(pair) == {mu, nu}
    mp, mm = pair
    gap_sq = (mp[0] - mm[0]) ** 2 + (mp[1] - mm[1]) ** 2
    assert gap_sq == med.four_delta_sq  # |mu+ - mu-|^2 = 4 Delta^2, exactly
    # orientation: (2 mu+ - z2) . z2_perp > 0 unless coincident
    a, b = med.z2
    t = (2 * mp[0] - a) * (-b) + (2 * mp[1] - b) * a
    assert t > 0 or med.four_delta_sq == 0


def test_build_median_set_sizes():
    assert len(build_median_set(enumerate_circle(1)).medians) == 10
    assert len(build_median_set(enumerate_circle(25)).medians) == 78


def test_nonzero_median_unique_parents(circle1105):
    mset = build_median_set(circle1105)
    seen = {}
    for med in mset.medians:
        if med.z2 == (0, 0):
            continue
        assert seen.setdefault(med.z2, med.parents) == med.parents
    assert len(mset.by_z2) == len(seen)


def test_shells_partition_starred(circle1105):
    decomp = dyadic_decompose(build_median_set(circle1105))
    lam = circle1105.radius
    starred = decomp.starred()
    # disjoint cover with correct dyadic bracketing
    seen = set()
    for K, shell in decomp.shells.items():
        for med in shell:
            assert med.z2 not in seen
            seen.add(med.z2)
            delta = med.delta
            assert K * math.sqrt(lam) <= delta + 1e-12 < 2 * K * math.sqrt(lam)
    # every starred median got a shell, and sub-shells refine exactly
    assert len(seen) == len(starred)
    for (L, l), sub in decomp.sub_shells.items():
        for med in sub:
            assert (L + l) * math.sqrt(lam) <= med.delta + 1e-12
            assert med.delta < (L + l + 1) * math.sqrt(lam) + 1e-12
    per_shell = {K: sorted(m.z2 for m in shell) for K, shell in decomp.shells.items()}
    rebuilt = {}
    for (L, l), sub in decomp.sub_shells.items():
        rebuilt.setdefault(L, []).extend(m.z2 for m in sub)
    assert {k: sorted(v) for k, v in rebuilt.items()} == per_shell


def test_starred_conditions_exact(circle1105):
    decomp = dyadic_decompose(build_median_set(circle1105))
    n = circle1105.n
    for med in decomp.starred():
        assert med.z2[0] ** 2 + med.z2[1] ** 2 >= n          # |z| >= lambda/2
        assert med.four_delta_sq**2 > 16 * n                 # Delta > sqrt(lambda)
    for med in decomp.small_gap:
        assert 0 < med.four_delta_sq and med.four_delta_sq**2 <= 16 * n


def test_decompose_epsilon_validation(circle25):
    mset = build_median_set(circle25)
    with pytest.raises(ValueError):
        dyadic_decompose(mset, 0.7)


def test_shell_window_count(circle1105):
    decomp = dyadic_decompose(build_median_set(circle1105))
    K = min(decomp.shells)
    z = decomp.shells[K][0]
    assert shell_window_count(decomp, z, K) >= 1  # its own window contains it
    assert shell_window_count(decomp, z, 999) == 0  # empty shell
    # brute-force scan oracle
    thr = decomp.locality
    for L, shell in decomp.shells.items():
        expected = sum(1 for w in shell if median_dist(z, w) < thr)
        assert shell_window_count(decomp, z, L) == expected
