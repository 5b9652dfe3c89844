"""Property guards that the edit-run benchmark cannot measure.

Speed is measured end to end by the edit-run benchmark in ``perfbench/``
at the repository root.  This package keeps the two CI guards that check
properties perfbench does not see:

* :mod:`repro.perf.oocbench` — the out-of-core peak-RSS budget
  (``python -m repro.experiments bench-mem``), measured in a fresh
  worker process;
* :mod:`repro.perf.journalbench` — journaled serving's I/O overhead
  (at most 5% of serving time), bit-parity with plain serving, and
  journal replay (``python -m repro.experiments bench-journal``).
"""
