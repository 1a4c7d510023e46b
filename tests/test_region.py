import itertools
import math

import numpy as np
import pytest

from conftest import EXAMPLE1_H, EXAMPLE1_SNR_DB
from ifwb import region as region_module
from ifwb.errors import IfwbError, WrongDimension
from ifwb.lattice import int_det
from ifwb.rates import (
    ChannelInstance,
    _effective_noise,
    _monotone,
    allocate_rates,
    mmse_sic_plan,
    pseudo_triangularize,
    white_input_capacity,
)
from ifwb.region import (
    RatePoint,
    _class_representatives,
    _kept_positions,
    _scan_box,
    _scan_table,
    capacity_polytope_2user,
    enumerate_achievable_points,
    pentagon_contains,
)

ANCHOR_TOL = 5e-4


def _contains_rate_pair(points, r1, r2, tol=ANCHOR_TOL):
    return any(abs(p.rates[0] - r1) <= tol and abs(p.rates[1] - r2) <= tol for p in points)


class TestCapacityPolytope:
    def test_example_corners(self, example1):
        vertices = capacity_polytope_2user(example1)
        assert _contains_rate_pair_like(vertices, 0.7776, 2.5139)
        assert _contains_rate_pair_like(vertices, 3.0028, 0.2887)

    def test_corner_sums_equal_cwi(self, example1):
        vertices = capacity_polytope_2user(example1)
        cwi = white_input_capacity(example1)
        sums = sorted(v[0] + v[1] for v in vertices)
        # the two sum-face vertices hit the sum-capacity
        assert abs(sums[-1] - cwi) <= 1e-9
        assert abs(sums[-2] - cwi) <= 1e-9

    def test_corners_match_sic_orders(self, example1):
        vertices = capacity_polytope_2user(example1)
        for order in ((0, 1), (1, 0)):
            plan = mmse_sic_plan(example1, decode_order=order)
            assert _contains_rate_pair_like(vertices, *plan.stream_rates, tol=1e-9)

    def test_orthogonal_equal_norm_degenerates_to_rectangle(self):
        ch = ChannelInstance(np.eye(2), 10.0)
        vertices = capacity_polytope_2user(ch)
        assert len(vertices) == 4  # pentagon collapses: sum face is a point
        i1 = 0.5 * np.log2(11.0)
        assert _contains_rate_pair_like(vertices, i1, i1, tol=1e-9)

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            capacity_polytope_2user(ChannelInstance(np.eye(3), 2.0))


def _contains_rate_pair_like(pairs, r1, r2, tol=ANCHOR_TOL):
    return any(abs(p[0] - r1) <= tol and abs(p[1] - r2) <= tol for p in pairs)


@pytest.fixture(scope="module")
def region():
    ch = ChannelInstance(np.array([[np.sqrt(2.0), 1.0]]), 10.0**1.5)
    return ch, enumerate_achievable_points(ch, 3)


class TestEnumerateAchievablePoints:
    def test_frontier_contains_all_marked_points(self, region):
        _, reg = region
        assert _contains_rate_pair(reg.frontier, 1.8452, 1.4463)
        assert _contains_rate_pair(reg.frontier, 1.4463, 1.8452)
        assert _contains_rate_pair(reg.frontier, 0.7776, 2.5139)
        assert _contains_rate_pair(reg.frontier, 3.0028, 0.2887)

    def test_sic_corners_present_as_sources(self, region):
        """Each SIC corner is a point labelled as one, with the corner's own
        rates, also where a scan point ties with it to within 1e-9 but sorts
        first (about one channel in six)."""
        rng = np.random.default_rng(2016)
        channels = [region[0]] + [
            ChannelInstance(rng.standard_normal((n, 2)), 10.0 ** rng.uniform(0.5, 3.5))
            for n in (1, 2, 3) * 10
        ]
        for ch in channels:
            reg = enumerate_achievable_points(ch, 3)
            corners = {p.permutation: p for p in reg.points if p.source == "sic_corner"}
            assert len(corners) == 2
            for order, p in corners.items():
                assert p.A == ((1, 0), (0, 1))
                assert p.rates == tuple(max(0.0, r) for r in mmse_sic_plan(ch, order).stream_rates)

    def test_points_inside_pentagon(self, region):
        ch, reg = region
        for p in reg.points:
            assert pentagon_contains(ch, p.rates, slack=1e-9)

    def test_unimodular_points_on_sum_face(self, region):
        ch, reg = region
        cwi = white_input_capacity(ch)
        for p in reg.points:
            if p.source == "successive_if" and abs(p.det_a) == 1:
                assert abs(sum(p.rates) - cwi) <= 1e-9

    def test_identity_only_scan_gives_sic_rectangles(self, region):
        ch, reg = region
        ident = ((1, 0), (0, 1))
        ident_points = {p.rates for p in reg.points if p.A == ident}
        corner_points = {p.rates for p in reg.points if p.source == "sic_corner"}
        # A = I achievable points coincide with the plain-SIC corners
        for rates in ident_points:
            assert any(
                max(abs(rates[i] - c[i]) for i in (0, 1)) <= 1e-9 for c in corner_points
            )

    def test_frontier_drops_points_dominated_within_tolerance(self):
        """A point 3.6e-16 right of a SIC corner but 1.6 bits below it is dominated."""
        ch = ChannelInstance(np.array([[-0.09169298400258642, 0.7513715983602517]]),
                             10.0 ** (14.97 / 10.0))
        reg = enumerate_achievable_points(ch, 3)
        (corner,) = [p for p in reg.points if p.source == "sic_corner" and p.permutation == (1, 0)]
        c1, c2 = corner.rates
        below = [p for p in reg.points if 0.0 < p.rates[0] - c1 <= 1e-9 and p.rates[1] < c2 - 0.5]
        assert below
        assert corner in reg.frontier and not set(below) & set(reg.frontier)
        for f in reg.frontier:
            assert not any(q != f and q.rates[0] - f.rates[0] >= -1e-9
                           and q.rates[1] - f.rates[1] >= -1e-9 for q in reg.points)

    def test_frontier_is_undominated_subset(self, region):
        _, reg = region
        point_set = {p.rates for p in reg.points}
        for f in reg.frontier:
            assert f.rates in point_set
            for q in reg.points:
                if q.rates == f.rates:
                    continue
                dominated = (
                    q.rates[0] >= f.rates[0]
                    and q.rates[1] >= f.rates[1]
                    and (q.rates[0] > f.rates[0] or q.rates[1] > f.rates[1])
                )
                assert not dominated

    def test_deterministic(self, region):
        ch, reg = region
        assert enumerate_achievable_points(ch, 3) == reg

    def test_guards(self):
        with pytest.raises(WrongDimension):
            enumerate_achievable_points(ChannelInstance(np.eye(3), 2.0), 2)
        ch = ChannelInstance(np.eye(2), 2.0)
        with pytest.raises(ValueError):
            enumerate_achievable_points(ch, 0)
        with pytest.raises(ValueError):
            enumerate_achievable_points(ch, 6)


def _reference_region(ch, bound):
    """Per-candidate scan: pseudo-triangularize each full-rank A, allocate per permutation.

    Test oracle for the batched scan, each rule by pairwise comparison: a scan
    point within 1e-9 of a SIC corner in both rates is that corner; of points
    within 1e-9 of each other in both rates the first in sorted order is kept;
    and a point is dominated when another is at least as large in both rates,
    to 1e-9.
    """
    def near(p, q):
        return abs(p.rates[0] - q.rates[0]) <= 1e-9 and abs(p.rates[1] - q.rates[1]) <= 1e-9

    corners = [
        RatePoint(tuple(max(0.0, r) for r in mmse_sic_plan(ch, order).stream_rates),
                  "sic_corner", ((1, 0), (0, 1)), order)
        for order in ((0, 1), (1, 0))
    ]
    scan = []
    for entries in itertools.product(range(-bound, bound + 1), repeat=4):
        a = np.array(entries, dtype=np.int64).reshape(2, 2)
        if int_det(a) == 0:
            continue
        for tri in pseudo_triangularize(a):
            plan = allocate_rates(ch, a, tri.permutation)
            if plan.monotone_feasible:
                rates = tuple(max(0.0, r) for r in plan.stream_rates)
                scan.append(RatePoint(rates, "successive_if", tuple(map(tuple, a.tolist())),
                                      plan.permutation))
    assert all(pentagon_contains(ch, p.rates) for p in corners + scan)
    points = corners + [p for p in scan if not any(near(p, c) for c in corners)]
    points.sort(key=lambda p: (p.rates, p.A, p.permutation))
    kept = []
    for p in points:
        if not any(near(p, k) for k in kept):
            kept.append(p)

    def dominated(p):
        return any(
            q is not p and p.rates[0] - q.rates[0] <= 1e-9 and p.rates[1] - q.rates[1] <= 1e-9
            for q in kept
        )

    return kept, [p for p in kept if not dominated(p)]


def _seeded_channels():
    rng = np.random.default_rng(2013)
    for n in (1, 1, 2, 2, 3, 3):
        yield ChannelInstance(rng.standard_normal((n, 2)), 10.0 ** (rng.uniform(5.0, 60.0) / 10.0))


# channels where many rate tuples tie exactly: integer entries, parallel
# columns, and a channel whose A = I plan is not monotone (a plan as plain SIC,
# which the scan keeps as the -I row, the (0, 1) SIC corner)
_TIE_CHANNELS = [
    ChannelInstance(np.array([[1.0, 2.0], [3.0, 1.0]]), 100.0),
    ChannelInstance(np.array([[1.0, 1.0], [0.5, 0.5]]), 10.0**1.5),
    ChannelInstance(np.array([[1.0, -1.0], [2.0, -2.0]]), 10.0),
    ChannelInstance(np.array([[0.7, 1.4]]), 10.0**2.5),
    ChannelInstance(np.array([[1.0, 0.2], [0.1, 3.0]]), 100.0),
]


@pytest.mark.parametrize("bound", range(1, 6))
@pytest.mark.parametrize(
    "ch", [ChannelInstance(EXAMPLE1_H, 10.0 ** (EXAMPLE1_SNR_DB / 10.0)), *_seeded_channels(), *_TIE_CHANNELS],
    ids=["example1"] + [f"seeded{i}" for i in range(6)] + [f"tie{i}" for i in range(len(_TIE_CHANNELS))],
)
def test_points_hold_what_the_report_template_writes(ch, bound):
    """Every point and frontier point holds exact finite float rates, a known
    source, a 2x2 tuple of tuples of exact ints and a known permutation: what
    the region report's template writes as the point's dict form."""
    reg = enumerate_achievable_points(ch, bound)
    for p in reg.points + reg.frontier:
        assert type(p.rates) is tuple and len(p.rates) == 2
        assert all(type(r) is float and math.isfinite(r) for r in p.rates)
        assert p.source in region_module._SOURCES
        assert type(p.A) is tuple and len(p.A) == 2
        assert all(type(row) is tuple and len(row) == 2 for row in p.A)
        assert all(type(x) is int for row in p.A for x in row)
        assert p.permutation in region_module._PERMUTATIONS


class TestBatchedScanMatchesReference:
    @pytest.mark.parametrize(
        "ch, bound",
        [(ChannelInstance(np.array([[np.sqrt(2.0), 1.0]]), 10.0**1.5), 3)]
        + [(ch, 2) for ch in _seeded_channels()]
        + [(ch, b) for ch in _TIE_CHANNELS for b in (1, 3)]
        + [(_TIE_CHANNELS[0], 5)],
    )
    def test_points_and_frontier_identical(self, ch, bound):
        reg = enumerate_achievable_points(ch, bound)
        points, frontier = _reference_region(ch, bound)
        for got, want in ((reg.points, points), (reg.frontier, frontier)):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.rates == w.rates
                assert (g.A, g.permutation, g.source) == (w.A, w.permutation, w.source)

    def test_signed_permutations_are_scanned_as_the_corners(self):
        """Where A = I is not monotone it is still a plan (plain SIC), as in
        rates: -I and -swap are scanned, each with its one plan, and labelled
        as the SIC corner of that decode order with A = I."""
        ch = _TIE_CHANNELS[-1]
        diag_sq = np.diag(ch.sic_cholesky) ** 2
        assert diag_sq[0] > diag_sq[1]  # A = I is not monotone
        plan = allocate_rates(ch, np.eye(2, dtype=np.int64), (0, 1))
        assert plan.monotone_feasible
        a, _, _, signed_permutation = _scan_table(1)
        assert a[signed_permutation].tolist() == [[[-1, 0], [0, -1]], [[0, -1], [-1, 0]]]
        corners = [p for p in enumerate_achievable_points(ch, 1).points if p.source == "sic_corner"]
        assert [(p.A, p.permutation) for p in corners] == [(((1, 0), (0, 1)), (0, 1)),
                                                            (((1, 0), (0, 1)), (1, 0))]
        assert corners[0].rates == plan.stream_rates

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_scan_box_returns_the_two_corners(self, bound):
        """On channels where neither +-I nor +-swap is monotone, the scan keeps
        exactly two corner rows, each reported as A = I with its decode order
        and with max(0, .) of mmse_sic_plan's stream rates bit for bit. The
        first 6 such channels of at most 100 draws are checked (the seeded
        draws give them within 22), and there must be 6."""
        rng = np.random.default_rng([4100, bound])
        eye, swap = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        signed = np.stack([eye, -eye, swap, -swap])
        checked = 0
        for _ in range(100):
            if checked == 6:
                break
            ch = ChannelInstance(rng.standard_normal((int(rng.integers(1, 4)), 2)),
                                 10.0 ** rng.uniform(0.5, 3.5))
            _, l = _effective_noise(ch, signed)
            if _monotone(np.diagonal(l, axis1=1, axis2=2)).any():
                continue
            matrices, perms, rates, corner = _scan_box(ch, bound)
            assert corner.sum() == 2
            assert matrices[corner].tolist() == [[[1, 0], [0, 1]]] * 2
            assert perms[corner].tolist() == [0, 1]
            for order, got in zip(((0, 1), (1, 0)), rates[corner].tolist()):
                assert got == [max(0.0, r) for r in mmse_sic_plan(ch, order).stream_rates]
            checked += 1
        assert checked == 6

    def test_identity_plan_is_the_sic_corner_bit_for_bit(self):
        """Why the scan's corners are the SIC corners: in the scan stack, -I
        gets per-step rates equal bit for bit to those of the (0, 1) SIC corner
        and -swap those of the (1, 0) corner, as do I and the swap (-10 to
        120 dB, H scaled by 1e-3 to 1e3)."""
        rng = np.random.default_rng(5000)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, af, _, signed_permutation = _scan_table(1)
        stack = np.concatenate([af, [np.eye(2), swap]])
        rows = np.concatenate([signed_permutation, [True, True]])
        for _ in range(300):
            h = rng.standard_normal((int(rng.integers(1, 4)), 2)) * 10.0 ** rng.uniform(-3, 3)
            ch = ChannelInstance(h, 10.0 ** rng.uniform(-1.0, 12.0))
            _, l = _effective_noise(ch, stack)
            per_step = (-np.log2(np.diagonal(l[rows], axis1=1, axis2=2))).tolist()
            first, second = (list(mmse_sic_plan(ch, order).rates) for order in ((0, 1), (1, 0)))
            assert per_step == [first, second, first, second]

    def test_dedup_compares_beyond_last_kept_point(self):
        r1, r2 = [1.0, 1.0 + 5e-10], [5.0, 2.0]  # both kept

        def is_duplicate(x, y):
            kept = _kept_positions(r1 + [x], r2 + [y])
            assert kept[:2] == [0, 1]
            return kept == [0, 1]

        assert is_duplicate(1.0 + 6e-10, 5.0)
        assert not is_duplicate(1.0 + 6e-10, 3.0)
        assert not is_duplicate(1.0 + 2e-9, 5.0)


def _box(bound):
    side = 2 * bound + 1
    return (np.indices((side,) * 4, dtype=np.int64).reshape(4, -1).T - bound).reshape(-1, 2, 2)


def _canonical(a):
    """The row-sign variant of a whose rows each start with a negative entry."""
    signs = np.where(np.take_along_axis(a, np.argmax(a != 0, axis=-1)[..., None], -1) > 0, -1, 1)
    return a * signs


class TestRowSignClasses:
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_one_matrix_per_class(self, bound):
        reps = _class_representatives(bound)
        assert reps.shape == ((((2 * bound + 1) ** 2 - 1) // 2) ** 2, 2, 2)
        np.testing.assert_array_equal(_canonical(reps), reps)
        box = _box(bound)
        box = box[np.all(np.any(box != 0, axis=-1), axis=-1)]  # no zero row
        classes = {tuple(m.ravel()) for m in _canonical(box)}
        assert classes == {tuple(m.ravel()) for m in reps}
        assert len(classes) == len(reps)
        keys = [tuple(m.ravel()) for m in reps]
        assert keys == sorted(keys)
        # each representative is its class's lexicographically smallest member
        for m in reps[:: max(1, len(reps) // 50)]:
            signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
            assert min(tuple((np.diag(d) @ m).ravel()) for d in signs) == tuple(m.ravel())

    @pytest.mark.parametrize("bound", [1, 3])
    def test_scanned_stack_is_the_nonsingular_representatives(self, bound, monkeypatch):
        seen = []

        def recording(ch, af):
            seen.append(af.copy())
            return _effective_noise(ch, af)

        monkeypatch.setattr(region_module, "_effective_noise", recording)
        enumerate_achievable_points(ChannelInstance(np.array([[np.sqrt(2.0), 1.0]]), 30.0), bound)
        (stack,) = seen
        reps = _class_representatives(bound)
        reps = reps[reps[:, 0, 0] * reps[:, 1, 1] - reps[:, 0, 1] * reps[:, 1, 0] != 0]
        np.testing.assert_array_equal(stack, reps.astype(float))

    @pytest.mark.parametrize("bound", [1, 3, 5])
    def test_scan_table_is_built_once_and_read_only(self, bound):
        a, af, first_row_nonzero, signed_permutation = _scan_table(bound)
        assert _scan_table(bound)[0] is a
        reps = _class_representatives(bound)
        nonsingular = reps[:, 0, 0] * reps[:, 1, 1] != reps[:, 0, 1] * reps[:, 1, 0]
        np.testing.assert_array_equal(a, reps[nonsingular])
        np.testing.assert_array_equal(af, a.astype(float))
        np.testing.assert_array_equal(first_row_nonzero, a[:, 0, :] != 0)
        assert a[signed_permutation].tolist() == [[[-1, 0], [0, -1]], [[0, -1], [-1, 0]]]
        assert not any(t.flags.writeable for t in (a, af, first_row_nonzero, signed_permutation))

    def test_sign_flips_change_no_rate_or_check(self):
        """The premise of the scan: D A gives the same diagonal of L bit for
        bit, and would fail the kernel's snr L L^T check, with the same error,
        exactly when A does. Every nonsingular matrix of the bound-3 box is
        D A for one representative A. Up to 90 dB no check fails."""
        rng = np.random.default_rng(77)
        flips = [np.diag(d) for d in ((1, -1), (-1, 1), (-1, -1))]
        failures = 0
        for snr_db in (10.0, 40.0, 80.0, 80.0, 90.0):
            ch = ChannelInstance(rng.standard_normal((int(rng.integers(1, 4)), 2)),
                                 10.0 ** (snr_db / 10.0))

            def outcome(a):
                try:
                    _, l = _effective_noise(ch, a.astype(float))
                except IfwbError as exc:
                    return str(exc)
                return np.diag(l).tobytes()

            for a in _class_representatives(3):
                if a[0, 0] * a[1, 1] == a[0, 1] * a[1, 0]:
                    continue
                want = outcome(a)
                failures += isinstance(want, str)
                for d in flips:
                    assert outcome(d @ a) == want
        assert failures == 0


def test_region_at_90_db():
    ch = ChannelInstance(np.array([[np.sqrt(2.0), 1.0]]), 1e9)
    reg = enumerate_achievable_points(ch, 2)
    assert all(pentagon_contains(ch, p.rates) for p in reg.points)


@pytest.mark.parametrize("snr_db", [80, 90, 100, 120])
def test_region_random_channels_at_high_snr(snr_db):
    """20 two-stream channels with N = 1-3 per SNR, bound 3; on the explicit-inverse
    kernel 6 / 10 / 12 / 9 of them raised IfwbError at 80 / 90 / 100 / 120 dB."""
    rng = np.random.default_rng(snr_db)
    for _ in range(20):
        ch = ChannelInstance(rng.standard_normal((int(rng.integers(1, 4)), 2)), 10.0 ** (snr_db / 10.0))
        reg = enumerate_achievable_points(ch, 3)
        assert all(pentagon_contains(ch, p.rates) for p in reg.points)
