"""FROTE configuration (the paper's user constraints and knobs)."""

from __future__ import annotations

from dataclasses import dataclass
from math import isinf

from repro.engine.registry import MODIFIERS, OBJECTIVES, SELECTORS
from repro.utils.rng import RandomState


@dataclass(frozen=True)
class FroteConfig:
    """User constraints and hyper-parameters of Algorithm 1.

    Every field is flat, and this one shape is what
    :meth:`EditSession.configure <repro.engine.EditSession.configure>`
    takes, spec hashes cover, and journals snapshot.

    Parameters
    ----------
    tau:
        Iteration limit τ — how many times the user is willing to run the
        training algorithm (paper default 200).
    q:
        Oversampling fraction — allowed augmentation relative to ``|D|``
        (paper default 0.5).  Must be in ``(0, MAX_Q]``; pass
        ``math.inf`` for an explicitly unbounded quota (diagnostic
        sweeps).
    eta:
        Instances generated per iteration.  ``None`` (default) uses the
        paper's uniform quota ``q·|D|/τ``; the paper's experiments override
        it per dataset (e.g. 200 for Adult, 20 for Breast Cancer).
    k:
        Nearest-neighbour count for generation and relaxation thresholds
        (paper: 5, following SMOTE).
    selection:
        Base-instance selection strategy — any name in
        :data:`repro.engine.SELECTORS` (built-ins: ``"random"``, ``"ip"``,
        ``"online"``; user plugins register via
        :func:`repro.engine.register_selector`).
    mod_strategy:
        Input dataset choice applied before augmentation — any name in
        :data:`repro.engine.MODIFIERS` (built-ins: ``"none"``,
        ``"relabel"``, ``"drop"``).
    objective:
        Acceptance objective — any name in :data:`repro.engine.OBJECTIVES`
        (built-ins: ``"equal"``, the paper's fixed 0.5/0.5 weighting, and
        ``"weighted"``, the coverage-probability weighting).
    mra_weight:
        Weight of the MRA term in the in-loop objective (paper: 0.5).
    accept_equal:
        Accept batches that leave the loss exactly unchanged (paper
        requires strict improvement; kept as a knob for ablations).
    incremental:
        Opt into the delta-proportional compute path: candidate models
        partial-refit in O(batch) when they support it (KNN, NB over
        unstandardized encoders) and prediction caches extend over
        appended rows instead of recomputing.  Results are mathematically
        identical to the default rebuild path, but not guaranteed
        bit-identical, hence off by default: NB refits from
        exactly-merged moments (floating-point rounding only).  KNN and
        the assignment/table layers are bit-exact always.
    max_resident_mb:
        Opt into the out-of-core path: the active dataset's column
        buffers are sharded into fixed-size chunks whose sealed heap
        copies are bounded by this many MiB — least-recently-used chunks
        spill to memory-mapped files and stream back on demand.
        Results are bit-identical to the dense path (the same bytes are
        read, only from different storage).  The budget bounds the
        dataset's *storage* footprint.  Whole-table passes — encoder
        ``transform``, :meth:`~repro.models.base.TableModel.predict_proba`,
        rule coverage and ``frs.assign`` — walk shard-aligned row blocks,
        so their transients are O(shard).  A full model *fit* still
        encodes the whole table, so pair with ``incremental=True`` and a
        partial-update model to keep the training-side peak
        delta-proportional.  The resident floor outside the budget is
        one machine word per row for labels and cached FRS assignments.
        ``None`` (default) keeps every buffer dense in RAM, bit-for-bit
        as before.
    shard_rows:
        Rows per shard for the out-of-core path (default
        :data:`repro.data.shards.DEFAULT_SHARD_ROWS`); requires
        ``max_resident_mb``.
    spill_dir:
        Base directory for spill files (default: the platform temp
        dir); requires ``max_resident_mb``.  A private subdirectory is
        created per run and removed when the run's data is released.
    journal_dir:
        Opt into the durable run journal: a run (``EditSession.run()``
        or a served session, both begun by ``EditSession.start()``)
        appends every iteration to an append-only, crash-safe journal under
        this directory (see :mod:`repro.journal`) and — when the
        journal already holds committed iterations of the same run —
        fast-forwards through them instead of recomputing
        (journal-based crash-resume).  The same run means the same
        :func:`~repro.journal.writer.run_identity`: config snapshot,
        seed, input dataset, initial rules, bit generator, start
        iteration and training algorithm; a journal of another run is
        refused.  ``None`` (default) runs exactly as before.
    journal_name:
        Subdirectory name for this session's journal under
        ``journal_dir`` (default ``"session"``, or the session's name
        when ``EditService`` serves it); requires ``journal_dir``.
    journal_resume:
        Whether re-running a journaled session resumes from its journal
        (default ``True``).  ``False`` wipes the journal and starts
        fresh; requires ``journal_dir`` to matter.
    random_state:
        Seed for all stochastic steps (paper runs use 42).  Journal
        resume requires an integer seed (the RNG stream must be
        reconstructible).
    """

    tau: int = 200
    q: float = 0.5
    eta: int | None = None
    k: int = 5
    selection: str = "random"
    mod_strategy: str = "relabel"
    objective: str = "equal"
    mra_weight: float = 0.5
    accept_equal: bool = False
    incremental: bool = False
    max_resident_mb: float | None = None
    shard_rows: int | None = None
    spill_dir: str | None = None
    journal_dir: str | None = None
    journal_name: str | None = None
    journal_resume: bool = True
    random_state: RandomState = 42

    #: Upper bound on ``q``; the paper sweeps (0, 1], anything past this is
    #: almost certainly a units mistake (e.g. a percentage passed as-is).
    MAX_Q = 10.0

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.q <= 0:
            raise ValueError(f"q must be positive, got {self.q}")
        if self.q > self.MAX_Q and not isinf(self.q):
            raise ValueError(
                f"q must be <= {self.MAX_Q} (a fraction of |D|, not a "
                f"percentage), got {self.q}; use q=math.inf for an "
                f"explicitly unbounded quota"
            )
        if self.eta is not None and self.eta < 1:
            raise ValueError(f"eta must be >= 1, got {self.eta}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.mra_weight <= 1.0:
            raise ValueError(f"mra_weight must be in [0, 1], got {self.mra_weight}")
        if self.max_resident_mb is not None and self.max_resident_mb <= 0:
            raise ValueError(
                f"max_resident_mb must be positive, got {self.max_resident_mb}"
            )
        if self.shard_rows is not None:
            if self.shard_rows < 1:
                raise ValueError(f"shard_rows must be >= 1, got {self.shard_rows}")
            if self.max_resident_mb is None:
                raise ValueError(
                    "shard_rows only applies to the out-of-core path; "
                    "set max_resident_mb too"
                )
        if self.spill_dir is not None and self.max_resident_mb is None:
            raise ValueError(
                "spill_dir only applies to the out-of-core path; "
                "set max_resident_mb too"
            )
        if self.journal_name is not None and self.journal_dir is None:
            raise ValueError(
                "journal_name only applies to journaled runs; "
                "set journal_dir too"
            )
        # Registry lookups: unknown names raise with the full registered
        # list (user plugins included) and a did-you-mean suggestion.
        SELECTORS.validate(self.selection)
        MODIFIERS.validate(self.mod_strategy)
        OBJECTIVES.validate(self.objective)

    def effective_eta(self, n: int) -> int:
        """Per-iteration generation count: explicit η or the uniform quota."""
        if self.eta is not None:
            return self.eta
        if isinf(self.q):
            return max(1, n)
        return max(1, int(round(self.q * n / self.tau)))

    def oversampling_quota(self, n: int) -> int:
        """Total augmentation budget ``q · |D|`` (rounded half-to-even,
        matching :meth:`effective_eta`); effectively unlimited for
        ``q=inf``."""
        if isinf(self.q):
            return int(1e18)
        return int(round(self.q * n))

