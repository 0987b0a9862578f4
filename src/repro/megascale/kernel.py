"""Vectorized CSD protocol kernel for the sweep engine's cold path.

The live protocol (:class:`repro.csd.dynamic_csd.DynamicCSDNetwork`)
models every channel as a Python object holding a dict of ``Span``
dataclasses; one connect request scans every channel's occupant list.
A Figure 3 trial only ever *grants* — it never releases or shifts — so
its whole protocol state fits in one segment-bitmask integer per
channel:

* a request ``[lo, hi)`` is the mask ``(1 << hi) - (1 << lo)``, and its
  broadcast on one channel is a single word-parallel ``AND``;
* the priority encoder's first-fit grant is the first channel whose mask
  does not intersect the request; channels past the highest used one are
  known idle, so the scan is bounded by the *used* channel count, not the
  provisioned one.

Grants, blocks, ``used_channels()`` and ``highest_used_channel()`` match
the live network bit for bit; the hypothesis lockstep property in
``tests/megascale/test_kernel.py`` drives the same span sequences through
both.  :class:`VectorSampler` re-derives the live observation probes
from a trial's grant log.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["VectorCSDKernel", "VectorSampler", "attempt_spans"]


def attempt_spans(requests) -> Tuple[List[Tuple[int, int]], List[int]]:
    """The ``(lo, hi)`` span of every connect attempt in ``requests``
    (one per source of each request, in the live simulator's attempt
    order) and, in parallel, the observation cycle each attempt belongs
    to: its request index + 1, the live sampler's clock."""
    spans: List[Tuple[int, int]] = []
    cycles: List[int] = []
    for cycle, req in enumerate(requests, 1):
        sink = req.sink
        for source in req.sources:
            if source == sink:  # cannot happen by construction
                continue
            spans.append((source, sink) if source < sink else (sink, source))
            cycles.append(cycle)
    return spans, cycles


class VectorCSDKernel:
    """First-fit grant machine for one ``(n_channels, n_segments)``
    geometry: one segment bitmask per channel, trimmed to the highest
    used channel and kept across :meth:`grant_many` calls."""

    def __init__(self, n_channels: int, n_segments: int) -> None:
        if n_channels < 1:
            raise ValueError("need at least one channel")
        if n_segments < 1:
            raise ValueError("need at least one segment")
        self.n_channels = n_channels
        self.n_segments = n_segments
        #: Bit ``s`` of ``_masks[c]`` is set when a granted span on
        #: channel ``c`` covers segment ``s``.
        self._masks: List[int] = []

    def grant_many(
        self, spans: Sequence[Tuple[int, int]]
    ) -> List[Optional[int]]:
        """Resolve ``(lo, hi)`` requests in order; one entry per request:
        the granted channel, or ``None`` when blocked.

        Every span is validated before any is applied, so a malformed
        span raises with the occupancy untouched.  A span running off the
        array (``hi > n_segments``) blocks, as it does on the live pool.
        """
        spans = [(int(lo), int(hi)) for lo, hi in spans]
        for lo, hi in spans:
            if lo < 0:
                raise ValueError("span cannot start below segment 0")
            if hi <= lo:
                raise ValueError(f"empty or inverted span [{lo}, {hi})")
        out: List[Optional[int]] = []
        append = out.append
        n_seg = self.n_segments
        nch = self.n_channels
        occ = self._masks
        for lo, hi in spans:
            if hi > n_seg:
                append(None)
                continue
            m = (1 << hi) - (1 << lo)
            for c, o in enumerate(occ):
                if not (o & m):
                    occ[c] = o | m
                    append(c)
                    break
            else:
                if len(occ) < nch:
                    append(len(occ))
                    occ.append(m)
                else:
                    append(None)
        return out

    def used_channels(self) -> int:
        """Channels carrying at least one granted span."""
        return sum(1 for m in self._masks if m)

    def highest_used_channel(self) -> int:
        """Highest granted channel index + 1, or 0 when idle."""
        return len(self._masks)


class VectorSampler:
    """Derives the live :class:`~repro.telemetry.observe.Sampler`'s CSD
    fabric probes from a trial's flat grant log instead of a live network.

    The live Figure-3 trial ticks a sampler once per chaining request and,
    at every ``stride``-aligned cycle, snapshots ``segment_demand()`` /
    ``channel_occupancy()`` (one heatmap column each) plus the
    used-channel count (a time-series sample).  Both probes are pure
    functions of *which spans have been granted so far* — blocked
    requests never touch occupancy — so a grant log of
    ``(cycle, lo, hi, channel)`` rows in grant order reconstructs every
    probe reading exactly:

    * segment demand is the difference array of the applied spans
      (``np.add.at`` on ``lo``/``hi`` + prefix sum), the same formula
      as ``ChannelPool.segment_demand``;
    * channel occupancy is ``hi - lo`` scattered per granted channel;
    * the used-channel count is the number of channels with at least one
      applied span.

    :meth:`replay` walks the sample cycles in ascending order, applies the
    grants that landed since the previous sample (``np.searchsorted`` on
    the log's cycle column), and emits the identical ``record()``/``add()``
    calls in the identical order (series first, then segment rows
    ``s0..s{S-1}``, then channel rows ``ch0..ch{C-1}``) — so ring-buffer
    eviction and heatmap cell-cap ``dropped`` tallies also match the live
    path byte for byte.  The lockstep property in
    ``tests/megascale/test_vector_observation.py`` checks this identity
    against a live network sampled by the live ``Sampler``.
    """

    __slots__ = ("n_segments", "n_channels", "stride", "samples_taken")

    def __init__(self, n_segments: int, n_channels: int, stride: int) -> None:
        if n_segments < 1:
            raise ValueError("need at least one segment")
        if n_channels < 1:
            raise ValueError("need at least one channel")
        if stride < 1:
            raise ValueError("stride must be at least one cycle")
        self.n_segments = n_segments
        self.n_channels = n_channels
        self.stride = stride
        self.samples_taken = 0

    def replay(
        self,
        cycles: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        ch: np.ndarray,
        n_cycles: int,
        segment_heatmap,
        channel_heatmap,
        series=None,
    ) -> None:
        """Emit every stride-aligned sample in ``[stride, n_cycles]``.

        ``cycles`` must be non-decreasing (grant order); ``segment_heatmap``
        / ``channel_heatmap`` take ``add(row, cycle, value)`` and ``series``
        (optional) takes ``record(cycle, value)`` — the
        :class:`~repro.telemetry.observe.Heatmap` / ``TimeSeries`` surface.
        """
        seg_rows = [f"s{i}" for i in range(self.n_segments)]
        ch_rows = [f"ch{i}" for i in range(self.n_channels)]
        diff = np.zeros(self.n_segments + 1, dtype=np.int64)
        occ = np.zeros(self.n_channels, dtype=np.int64)
        spans_per_ch = np.zeros(self.n_channels, dtype=np.int64)
        used = 0
        applied = 0
        for cycle in range(self.stride, n_cycles + 1, self.stride):
            upto = int(np.searchsorted(cycles, cycle, side="right"))
            if upto > applied:
                sl = slice(applied, upto)
                np.add.at(diff, lo[sl], 1)
                np.add.at(diff, hi[sl], -1)
                np.add.at(occ, ch[sl], hi[sl] - lo[sl])
                for granted in ch[sl]:
                    g = int(granted)
                    if spans_per_ch[g] == 0:
                        used += 1
                    spans_per_ch[g] += 1
                applied = upto
            if series is not None:
                series.record(cycle, float(used))
            demand = np.cumsum(diff[:-1])
            for i, row in enumerate(seg_rows):
                segment_heatmap.add(row, cycle, int(demand[i]))
            for i, row in enumerate(ch_rows):
                channel_heatmap.add(row, cycle, int(occ[i]))
            self.samples_taken += 1
