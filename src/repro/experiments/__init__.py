"""Experiment drivers reproducing the paper's tables and figures.

The layer is a declarative spec → executor → store split:

* :class:`ExperimentSpec` / :class:`RunSpec` (:mod:`~repro.experiments.spec`)
  — experiments as data, round-trippable through JSON;
* :class:`ExperimentRunner` (:mod:`~repro.experiments.grid`) with pluggable
  executors (:mod:`~repro.experiments.executors`) — serial or
  process-parallel, bit-identical either way;
* :class:`RunStore` (:mod:`~repro.experiments.store`) — content-addressed
  records keyed by spec hash, making interrupted grids resumable;
* run kinds (:mod:`~repro.experiments.kinds`) — the registered per-run
  protocols the specs name.

The ``run_fig*`` / ``run_table*`` drivers are pure consumers of that API.
"""

from repro.experiments.executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    execute_spec,
    make_executor,
)
from repro.experiments.figures import (
    fig2_spec,
    format_fig2,
    format_fig3,
    format_fig9,
    run_fig2,
    run_fig3,
    run_fig9,
)
from repro.experiments.grid import (
    ExperimentEvent,
    ExperimentRunner,
    GridResult,
)
from repro.experiments.kinds import RUN_KINDS, register_run_kind
from repro.experiments.paper_suite import SCALES, build_suite, run_paper_suite
from repro.experiments.persistence import (
    ExperimentArchive,
    from_jsonable,
    load_records,
    save_records,
    to_jsonable,
)
from repro.experiments.report import BoxStats, ascii_boxplot, format_mean_std, format_table
from repro.experiments.runner import (
    RunMetrics,
    RunResult,
    execute_run,
)
from repro.experiments.setup import (
    ExperimentContext,
    PreparedRun,
    build_context,
    prepare_run,
    probabilistic_variant,
)
from repro.experiments.spec import ExperimentSpec, RunSpec, derive_seed
from repro.experiments.store import RunStore, StoredRun
from repro.experiments.tables import (
    format_ablation,
    format_table2,
    format_table3,
    format_table6,
    run_ablation,
    run_table2,
    run_table3,
    run_table6,
)

__all__ = [
    "ExperimentSpec",
    "RunSpec",
    "derive_seed",
    "ExperimentRunner",
    "ExperimentEvent",
    "GridResult",
    "RunStore",
    "StoredRun",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "execute_spec",
    "RUN_KINDS",
    "register_run_kind",
    "build_context",
    "prepare_run",
    "probabilistic_variant",
    "ExperimentContext",
    "PreparedRun",
    "execute_run",
    "RunResult",
    "RunMetrics",
    "run_fig2",
    "run_fig3",
    "run_fig9",
    "fig2_spec",
    "format_fig2",
    "format_fig3",
    "format_fig9",
    "run_table2",
    "run_table3",
    "run_table6",
    "run_ablation",
    "format_table2",
    "format_table3",
    "format_table6",
    "format_ablation",
    "BoxStats",
    "ascii_boxplot",
    "format_table",
    "format_mean_std",
    "ExperimentArchive",
    "save_records",
    "load_records",
    "to_jsonable",
    "from_jsonable",
    "run_paper_suite",
    "build_suite",
    "SCALES",
]
