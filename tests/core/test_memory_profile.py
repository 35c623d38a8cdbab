"""Unit + property tests for the memory staircase profile."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import MemoryProfile

from .profile_oracle import MergePassProfile


class TestBasics:
    def test_empty_profile(self):
        p = MemoryProfile(10)
        assert p.used_at(0) == 0
        assert p.used_at(1e9) == 0
        assert p.free_at(5) == 10
        assert p.peak() == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryProfile(-1)

    def test_bounded_interval(self):
        p = MemoryProfile(10)
        p.add(4, 2, 6)
        assert p.used_at(1.9) == 0
        assert p.used_at(2) == 4          # half-open: included at start
        assert p.used_at(5.999) == 4
        assert p.used_at(6) == 0          # excluded at end
        assert p.peak() == 4

    def test_open_ended_interval(self):
        p = MemoryProfile(10)
        p.add(3, 1, None)
        assert p.used_at(1e12) == 3

    def test_release_from(self):
        p = MemoryProfile(10)
        p.add(3, 0, None)
        p.release_from(3, 5)
        assert p.used_at(4.9) == 3
        assert p.used_at(5) == 0

    def test_overlapping_adds_accumulate(self):
        p = MemoryProfile(100)
        p.add(5, 0, 10)
        p.add(7, 5, 15)
        assert p.used_at(2) == 5
        assert p.used_at(7) == 12
        assert p.used_at(12) == 7
        assert p.peak() == 12

    def test_zero_amount_is_noop(self):
        p = MemoryProfile(10)
        p.add(0, 1, 5)
        assert p.n_segments() == 1

    def test_empty_interval_is_noop(self):
        p = MemoryProfile(10)
        p.add(5, 3, 3)
        p.add(5, 4, 2)
        assert p.peak() == 0

    def test_negative_start_clamped(self):
        p = MemoryProfile(10)
        p.add(2, -5, 3)
        assert p.used_at(0) == 2

    def test_peak_in_window(self):
        p = MemoryProfile(100)
        p.add(5, 0, 10)
        p.add(7, 5, 15)
        assert p.peak_in(0, 5) == 5
        assert p.peak_in(5, 10) == 12
        assert p.peak_in(10, 20) == 7
        assert p.peak_in(20, 30) == 0
        assert p.peak_in(3, 3) == 0


class TestEarliestFit:
    def test_zero_need_is_immediate(self):
        p = MemoryProfile(10)
        p.add(10, 0, None)
        assert p.earliest_fit(0) == 0
        assert p.earliest_fit(0, not_before=3) == 3

    def test_over_capacity_never_fits(self):
        p = MemoryProfile(10)
        assert p.earliest_fit(11) == math.inf

    def test_fits_after_release(self):
        p = MemoryProfile(10)
        p.add(8, 0, 5)
        assert p.earliest_fit(4) == 5
        assert p.earliest_fit(2) == 0

    def test_must_fit_forever(self):
        # Free dips below the need later: the earliest fit is after the dip.
        p = MemoryProfile(10)
        p.add(8, 5, 9)
        assert p.earliest_fit(4) == 9     # gap at [0,5) is not enough
        assert p.earliest_fit(2) == 0

    def test_tail_blocks_forever(self):
        p = MemoryProfile(10)
        p.add(9, 3, None)                  # never released
        assert p.earliest_fit(2) == math.inf
        assert p.earliest_fit(1) == 0

    def test_not_before(self):
        p = MemoryProfile(10)
        p.add(8, 0, 5)
        assert p.earliest_fit(4, not_before=7) == 7

    def test_infinite_capacity(self):
        p = MemoryProfile()
        p.add(1e9, 0, None)
        assert p.earliest_fit(1e12) == 0


class TestInvariantsAndCopy:
    def test_check_invariants_catches_negative(self):
        p = MemoryProfile(10)
        p.add(-1, 0, 5)
        with pytest.raises(AssertionError):
            p.check_invariants()

    def test_check_invariants_catches_over_capacity(self):
        p = MemoryProfile(10)
        p.add(11, 0, 5)
        with pytest.raises(AssertionError):
            p.check_invariants()

    def test_copy_is_independent(self):
        p = MemoryProfile(10)
        p.add(3, 0, 5)
        q = p.copy()
        q.add(4, 1, 2)
        assert p.used_at(1.5) == 3
        assert q.used_at(1.5) == 7

    def test_compact_preserves_semantics(self):
        p = MemoryProfile(10)
        p.add(3, 0, 5)
        p.add(2, 5, 8)
        p.add(1, 5, 8)
        p.add(-3, 5, 8)  # back to 0 on [5, 8) — mergeable with [8, inf)
        before = [p.used_at(t) for t in (0, 4.5, 6, 9)]
        p.compact()
        after = [p.used_at(t) for t in (0, 4.5, 6, 9)]
        assert before == after
        assert p.n_segments() <= 3


# ----------------------------------------------------------------------
# property tests against a brute-force reference
# ----------------------------------------------------------------------
interval = st.tuples(
    st.integers(min_value=1, max_value=9),    # amount
    st.integers(min_value=0, max_value=20),   # start
    st.one_of(st.none(), st.integers(min_value=1, max_value=25)),  # length
)


def _reference_used(ops, t):
    total = 0
    for amount, start, length in ops:
        end = math.inf if length is None else start + length
        if start <= t < end:
            total += amount
    return total


@given(st.lists(interval, max_size=12))
def test_used_at_matches_brute_force(ops):
    p = MemoryProfile(1000)
    for amount, start, length in ops:
        p.add(amount, start, None if length is None else start + length)
    for t in range(0, 50, 3):
        assert p.used_at(t) == pytest.approx(_reference_used(ops, t))


@given(st.lists(interval, max_size=12), st.integers(min_value=1, max_value=60))
def test_earliest_fit_matches_brute_force(ops, need):
    capacity = 60
    p = MemoryProfile(capacity)
    for amount, start, length in ops:
        p.add(amount, start, None if length is None else start + length)
    got = p.earliest_fit(need)
    # Brute force over the integer event grid (all inputs are integers).
    horizon = 60
    expected = math.inf
    for t in range(horizon + 1):
        if all(capacity - _reference_used(ops, u) >= need
               for u in range(t, horizon + 1)):
            expected = t
            break
    assert got == pytest.approx(expected)


@given(st.lists(interval, max_size=12))
def test_peak_is_max_of_used(ops):
    p = MemoryProfile(10_000)
    for amount, start, length in ops:
        p.add(amount, start, None if length is None else start + length)
    grid_max = max(_reference_used(ops, t) for t in range(0, 50))
    assert p.peak() >= grid_max
    assert p.peak() == pytest.approx(
        max((_reference_used(ops, s) for _, s, _ in ops), default=0.0))


# ----------------------------------------------------------------------
# add_batch: the in-place commit path must be bit-identical to the
# merge-pass oracle — same lists, same block maxima, same answers
# ----------------------------------------------------------------------
float_event = st.tuples(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False,
              allow_infinity=False),
    st.floats(min_value=-2.0, max_value=20.0, allow_nan=False,
              allow_infinity=False),
    st.one_of(st.none(), st.floats(min_value=-1.0, max_value=25.0,
                                   allow_nan=False, allow_infinity=False)),
)


def _canonical(profile):
    profile.compact()
    return list(profile._xs), list(profile._vals)


def _fresh_block_maxima(profile):
    B = profile._BLOCK
    vals = profile._vals
    return [max(vals[b:b + B]) for b in range(0, len(vals), B)]


def _assert_same(oracle, profile, needs):
    assert profile._xs == oracle._xs
    assert profile._vals == oracle._vals
    assert profile.version == oracle.version
    assert profile.peak() == oracle.peak()
    for need in needs:
        assert profile.earliest_fit(need) == oracle.earliest_fit(need)
    for t in oracle._xs[-8:]:
        assert profile.used_at(t) == oracle.used_at(t)
    profile._repair_blocks()
    assert profile._bmax == _fresh_block_maxima(profile)


class TestAddBatch:
    def test_empty_and_noop_events(self):
        p = MemoryProfile(100)
        p.add_batch([])
        p.add_batch([(0.0, 1.0, 5.0), (3.0, 7.0, 7.0), (2.0, 4.0, 2.0)])
        assert p.version == 0
        assert p.used_at(1.0) == 0.0

    def test_single_event_matches_add(self):
        a = MergePassProfile(100)
        b = MemoryProfile(100)
        a.add(5.0, 2.0, 9.0)
        b.add_batch([(5.0, 2.0, 9.0)])
        assert _canonical(a) == _canonical(b)

    def test_one_version_bump_per_batch(self):
        p = MemoryProfile(100)
        p.add_batch([(5.0, 0.0, 4.0), (-2.0, 1.0, None), (3.0, 2.0, 8.0)])
        assert p.version == 1

    def test_commit_shaped_batch(self):
        """The event shapes one scheduler commit produces: an output
        allocation to +inf, same-memory releases, and a bounded transfer
        window — against the merge-pass oracle."""
        events = [(7.5, 3.0, None), (-2.25, 10.0, None), (1.5, 1.0, 10.0)]
        a = MergePassProfile(50)
        b = MemoryProfile(50)
        a.add_batch(events)
        b.add_batch(events)
        _assert_same(a, b, (0.5, 5.0, 42.5, 49.0))

    @given(st.lists(float_event, max_size=10),
           st.lists(float_event, max_size=10),
           st.floats(min_value=0.1, max_value=30.0, allow_nan=False))
    def test_batches_match_sequential_adds(self, first, second, need):
        """Two consecutive batches (with an earliest_fit query in between,
        to exercise the block-max dirty tracking) produce the exact
        staircase and answers of one-at-a-time adds on the oracle."""
        def end_of(start, length):
            return None if length is None else max(0.0, start) + length

        a = MergePassProfile(30.0)
        b = MemoryProfile(30.0)
        for amount, start, length in first:
            a.add(amount, start, end_of(start, length))
        b.add_batch([(amount, start, end_of(start, length))
                     for amount, start, length in first])
        assert a.earliest_fit(need) == b.earliest_fit(need)
        for amount, start, length in second:
            a.add(amount, start, end_of(start, length))
        b.add_batch([(amount, start, end_of(start, length))
                     for amount, start, length in second])
        assert _canonical(a) == _canonical(b)
        assert a.earliest_fit(need) == b.earliest_fit(need)
        assert a.peak() == b.peak()


# Integer amounts and tenths (which do not add exactly in binary), so a
# reordered summation would show as differing bits.
amounts = st.one_of(st.integers(min_value=1, max_value=60).map(float),
                    st.integers(min_value=1, max_value=600).map(
                        lambda k: k / 10))


@st.composite
def commit_streams(draw):
    """Batches shaped like scheduler commits on a forward-moving clock:
    outputs allocated to +inf, inputs released to +inf, bounded transfer
    windows; some events start behind the tail (or before 0), some
    repeat times, some are no-ops."""
    clock = 0.0
    stream = []
    for _ in range(draw(st.integers(min_value=60, max_value=120))):
        clock += draw(st.sampled_from((0.0, 0.5, 1.0, 2.5, 7.0)))
        events = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            kind = draw(st.sampled_from(("alloc", "release", "window",
                                         "noop")))
            start = clock - draw(st.sampled_from((0.0, 0.0, 1.0, 3.5,
                                                  40.0)))
            amount = draw(amounts)
            if kind == "alloc":
                events.append((amount, start, None))
            elif kind == "release":
                events.append((-amount, start, None))
            elif kind == "window":
                length = draw(st.sampled_from((0.5, 1.0, 4.0, 12.0)))
                events.append((amount, start, start + length))
            else:
                events.append(draw(st.sampled_from(
                    ((0.0, start, None), (amount, start, start),
                     (amount, start, start - 1.0)))))
        stream.append(events)
    return stream


@given(commit_streams(), st.data())
def test_in_place_commits_match_merge_pass_oracle(stream, data):
    """Long commit streams crossing the auto-compaction threshold: after
    every commit the in-place profile holds exactly the oracle's lists,
    version and block maxima, and answers every query alike."""
    oracle = MergePassProfile(200.0)
    profile = MemoryProfile(200.0)
    for events in stream:
        oracle.add_batch(events)
        profile.add_batch(events)
        needs = data.draw(st.lists(st.sampled_from(
            (0.5, 10.0, 55.5, 120.0, 199.9)), max_size=2))
        _assert_same(oracle, profile, needs)
    assert profile.n_segments() == oracle.n_segments()


def test_commit_stream_crosses_compaction_threshold():
    """The stream shape above does reach auto-compaction: a plain
    allocate/release churn past ``_COMPACT_MIN`` breakpoints."""
    oracle = MergePassProfile(100.0)
    profile = MemoryProfile(100.0)
    for k in range(200):
        events = [(1.5, k * 1.0, None), (-1.5, k * 1.0 + 0.5, None),
                  (0.1, k * 1.0 - 3.0, k * 1.0 + 2.0)]
        oracle.add_batch(events)
        profile.add_batch(events)
        _assert_same(oracle, profile, (50.0, 99.0))
    assert profile._compact_floor > 1
