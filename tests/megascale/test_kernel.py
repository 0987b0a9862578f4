"""Lockstep validation of the vector CSD kernel against the live network.

The hypothesis property sends one random span sequence through
:meth:`VectorCSDKernel.grant_many` — once as a single batch and once cut
into several batches on one kernel — and through
:meth:`DynamicCSDNetwork.connect`, and demands the same grant or block
on every attempt and the same ``used_channels()`` /
``highest_used_channel()`` at every batch boundary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChannelAllocationError
from repro.csd.dynamic_csd import DynamicCSDNetwork
from repro.megascale.kernel import VectorCSDKernel


@st.composite
def _programs(draw):
    """A geometry, an in-array span sequence, and batch cut points."""
    n_objects = draw(st.integers(2, 12))
    n_channels = draw(st.integers(1, n_objects))
    spans = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_objects - 1), st.integers(0, n_objects - 1)
            ).filter(lambda t: t[0] != t[1]),
            max_size=40,
        )
    )
    spans = [(min(a, b), max(a, b)) for a, b in spans]
    cuts = draw(st.lists(st.integers(0, len(spans)), max_size=4))
    return n_objects, n_channels, spans, sorted(cuts)


def _live(n_objects, n_channels, spans):
    """Per attempt: the live grant (or ``None``) and the network's
    ``(used_channels, highest_used_channel)`` after it."""
    net = DynamicCSDNetwork(n_objects, n_channels=n_channels)
    grants, stats = [], []
    for lo, hi in spans:
        try:
            grants.append(net.connect(lo, hi).channel)
        except ChannelAllocationError:
            grants.append(None)
        stats.append((net.used_channels(), net.highest_used_channel()))
    return grants, stats


class TestLockstepProperty:
    @settings(deadline=None, max_examples=150)
    @given(program=_programs())
    def test_grant_many_equals_grant_loop(self, program):
        """One batch equals the live network's connect-per-request loop."""
        n_objects, n_channels, spans, _ = program
        live_grants, live_stats = _live(n_objects, n_channels, spans)
        kern = VectorCSDKernel(n_channels, n_objects - 1)
        assert kern.grant_many(spans) == live_grants
        final = live_stats[-1] if spans else (0, 0)
        assert (kern.used_channels(), kern.highest_used_channel()) == final

    @settings(deadline=None, max_examples=150)
    @given(program=_programs())
    def test_split_batches_match_live(self, program):
        """Consecutive batches on one kernel build on earlier grants."""
        n_objects, n_channels, spans, cuts = program
        live_grants, live_stats = _live(n_objects, n_channels, spans)
        kern = VectorCSDKernel(n_channels, n_objects - 1)
        grants = []
        for start, stop in zip([0, *cuts], [*cuts, len(spans)]):
            grants += kern.grant_many(spans[start:stop])
            expected = live_stats[stop - 1] if stop else (0, 0)
            assert (
                kern.used_channels(), kern.highest_used_channel()
            ) == expected
        assert grants == live_grants


class TestKernelUnit:
    def test_first_fit_is_lowest_channel(self):
        kern = VectorCSDKernel(3, 8)
        assert kern.grant_many([(0, 4), (2, 6), (4, 8), (0, 8), (3, 5)]) == [
            0,     # idle pool: channel 0
            1,     # overlaps channel 0
            0,     # disjoint: shares channel 0
            2,
            None,  # every channel busy there
        ]
        assert kern.used_channels() == 3
        assert kern.highest_used_channel() == 3

    def test_span_off_the_array_blocks(self):
        kern = VectorCSDKernel(4, 6)
        assert kern.grant_many([(4, 7), (0, 6)]) == [None, 0]
        assert kern.highest_used_channel() == 1

    def test_grant_many_validates_before_applying(self):
        kern = VectorCSDKernel(2, 6)
        for bad in ([(0, 3), (5, 2)], [(0, 3), (4, 4)], [(0, 3), (-1, 2)]):
            with pytest.raises(ValueError):
                kern.grant_many(bad)
        # no malformed batch applied its valid prefix
        assert kern.used_channels() == 0
        assert kern.highest_used_channel() == 0
        assert kern.grant_many([(0, 3)]) == [0]

    def test_capacity_growth_preserves_rows(self):
        # 300 grants in one batch on a 400-segment array (masks far wider
        # than a machine word); a later batch still sees every one
        kern = VectorCSDKernel(200, 400)
        grants = kern.grant_many([(i, i + 1) for i in range(300)])
        assert grants == [0] * 300  # disjoint spans all fit channel 0
        assert kern.used_channels() == 1
        assert kern.grant_many([(299, 300), (300, 400)]) == [1, 0]
        assert kern.highest_used_channel() == 2

    def test_constructor_validates_geometry(self):
        with pytest.raises(ValueError):
            VectorCSDKernel(0, 4)
        with pytest.raises(ValueError):
            VectorCSDKernel(2, 0)
