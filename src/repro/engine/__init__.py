"""The sweep engine: the one driver of the fig3/faults sweeps.

Layers, bottom up:

* :mod:`repro.engine.cache` — the bounded LRU the trial cache sits on;
* :mod:`repro.engine.core` — :class:`SweepEngine`, the memoizing trial
  runner: a vector-kernel cold path and byte-identical telemetry replay;
* :mod:`repro.engine.sweep` — whole sweeps (:func:`run_fig3`,
  :func:`run_faults`), serial or one process-pool task per point.

Everything here is an accelerator, never an oracle: a trial the replay
cannot reproduce (tracing, live CSD faults, retries after a block) runs
on the live simulator, and the output is byte-identical to the live
reference sweeps.
"""

from repro.engine.cache import LRUCache, MISSING
from repro.engine.core import SweepEngine, TrialEntry
from repro.engine.sweep import run_faults, run_fig3

__all__ = [
    "LRUCache",
    "MISSING",
    "SweepEngine",
    "TrialEntry",
    "run_fig3",
    "run_faults",
]
