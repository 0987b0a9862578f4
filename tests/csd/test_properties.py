"""Hypothesis property tests: Channel/Span invariants and the
serial-vs-parallel sweep equivalence.

The channel properties drive :class:`repro.csd.channels.Channel` and
:class:`~repro.csd.channels.ChannelPool` directly (below the network
protocol) with arbitrary occupy / release / shift sequences; whatever
the sequence, no two occupants of one channel may overlap and the pool's
used-channel count may never exceed its size.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ChannelAllocationError
from repro.csd.channels import Channel, ChannelPool, Span
from repro.csd.simulator import sweep_locality
from repro.engine import run_fig3

N_SEGMENTS = 12


def spans(n_segments=N_SEGMENTS):
    return (
        st.tuples(
            st.integers(0, n_segments - 1), st.integers(1, n_segments)
        )
        .filter(lambda t: t[0] < t[1])
        .map(lambda t: Span(*t))
    )


# (op, span, shift_amount) triples; the span/amount field is ignored by
# the operations that do not need it.
operations = st.lists(
    st.tuples(
        st.sampled_from(["occupy", "release", "shift"]),
        spans(),
        st.integers(1, 3),
    ),
    max_size=60,
)


def _no_overlaps(channel: Channel) -> bool:
    live = [channel.span_of(o) for o in channel.occupants]
    return all(
        not a.overlaps(b) for a, b in itertools.combinations(live, 2)
    )


@given(ops=operations)
@settings(max_examples=200, deadline=None)
def test_channel_occupants_never_overlap(ops):
    channel = Channel(0, N_SEGMENTS)
    owners = itertools.count()
    live = []
    for op, span, amount in ops:
        if op == "occupy":
            owner = next(owners)
            try:
                channel.occupy(span, owner)
            except ChannelAllocationError:
                pass  # legitimate rejection — span collided
            else:
                live.append(owner)
        elif op == "release" and live:
            channel.release(live.pop(0))
        elif op == "shift":
            for evicted in channel.shift_all(amount):
                live.remove(evicted)
        assert _no_overlaps(channel)
        assert set(channel.occupants) == set(live)
        for owner in live:
            span_now = channel.span_of(owner)
            assert 0 <= span_now.lo < span_now.hi <= N_SEGMENTS


@given(ops=operations, n_channels=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_used_channel_count_never_exceeds_pool_size(ops, n_channels):
    pool = ChannelPool(n_channels, N_SEGMENTS)
    owners = itertools.count()
    placed = []  # (channel_index, owner)
    for op, span, amount in ops:
        if op == "occupy":
            free = pool.free_channels_for(span)
            if free:
                owner = next(owners)
                pool[free[0]].occupy(span, owner)
                placed.append((free[0], owner))
        elif op == "release" and placed:
            index, owner = placed.pop(0)
            pool[index].release(owner)
        elif op == "shift":
            for channel in pool:
                for evicted in channel.shift_all(amount):
                    placed.remove((channel.index, evicted))
        assert 0 <= pool.used_channel_count() <= len(pool)
        for channel in pool:
            assert _no_overlaps(channel)


@given(
    seed=st.integers(0, 2**16),
    locality=st.sampled_from([0.0, 0.4, 0.8]),
)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sweep_locality_serial_equals_parallel(seed, locality):
    localities = [locality, 0.2]
    serial = sweep_locality(16, localities, n_trials=2, seed=seed)
    parallel = run_fig3(
        localities, n_trials=2, seed=seed, n_objects_list=[16], workers=2
    )
    assert parallel == {16: serial}
