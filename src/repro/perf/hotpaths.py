"""Seed-vs-current micro-benchmarks of the edit loop's hot paths.

Each benchmark times one hot path twice on identical inputs and identical
RNG seeds: the *seed* side runs the original row-at-a-time implementation
preserved in :mod:`repro.perf.seed_reference`; the *current* side runs the
vectorized implementation now used in production.  Because the two sides
are bit-for-bit output-compatible (pinned by ``tests/perf``), the speedup
is a pure measure of the vectorization.  The one exception is
``kneighbors_topk``, whose current side runs the opt-in float32 coded
kernel: equivalent under the documented tie/precision contract of
:mod:`repro.neighbors.kernels`, not bitwise.

Covered paths, per dataset (a generated mixed-type table and the adult
registry dataset):

* ``kneighbors_topk`` — HEOM distances + top-k with self-exclusion:
  dense float64 pairwise + row-wise selection (seed) versus the blocked
  coded kernel (:mod:`repro.neighbors.kernels`, current);
* ``smote_majority`` — SMOTE-NC categorical aggregation;
* ``window_sampling`` — rule-constrained numeric generation;
* ``constrained_categorical`` — rule-constrained categorical generation;
* ``borderline_weights`` — Han-2005 category→weight mapping;
* ``selection_membership`` — IP-selection chosen-row membership;
* ``smote_generate`` — the full SMOTE candidate-generation path;
* ``cart_fit`` — a random forest fit in the paper's configuration
  (``max_depth=3``): the per-tree recursive builder with its per-feature
  argsort split search, one node at a time (seed), versus the lockstep
  grower with one batched histogram split search per round over every
  tree's waiting node (current).  Both sides must predict the same
  probability bits before the speedup is recorded.  The seed forest
  predicts with its own walk, a frontier of row sets routed down each
  tree's node list, and the current one with the level-synchronous walk
  over flat node arrays, so the check pins the two walks as well;
* ``lr_fit`` — a logistic regression fit in the paper's configuration
  (``max_iter=500``, standardized columns): the seed objective versus the
  fused one.  Both sides must reach the same coefficient bits, iteration
  count and ``predict_proba`` bits before the speedup is recorded.
"""

from __future__ import annotations

import numpy as np

from repro.data.encoding import TabularEncoder
from repro.data.table import Table, make_schema
from repro.models import LogisticRegression, RandomForestClassifier
from repro.neighbors import BruteKNN, TableNeighborSpace, kneighbors_blocked
from repro.perf import seed_reference as seed_ref
from repro.perf.harness import CompareRecord, compare
from repro.rules.predicate import Predicate
from repro.sampling import SMOTE
from repro.sampling.borderline import (
    BORDERLINE,
    DEFAULT_WEIGHTS,
    NOISY,
    SAFE,
    category_weights,
)
from repro.sampling.interpolation import majority_categorical_batch
from repro.sampling.rule_generation import (
    pick_categorical_batch,
    sample_in_window_batch,
    window_from_conditions,
)

K_NEIGHBORS = 5

#: Every hot-path benchmark name, in emission order — the vocabulary for
#: ``run_hotpath_benchmarks(only=...)`` and ``repro-bench --only``.
HOTPATH_NAMES = (
    "kneighbors_topk",
    "smote_majority",
    "window_sampling",
    "constrained_categorical",
    "borderline_weights",
    "selection_membership",
    "smote_generate",
    "cart_fit",
    "lr_fit",
)


def synthetic_mixed_table(n: int, seed: int) -> Table:
    """A mixed-type table shaped like the test-suite fixture, at scale."""
    schema = make_schema(
        numeric=["age", "income"],
        categorical={
            "marital": ("single", "married", "divorced"),
            "color": ("red", "green", "blue"),
        },
    )
    rng = np.random.default_rng(seed)
    return Table(
        schema,
        {
            "age": rng.uniform(18, 80, n),
            "income": rng.uniform(10, 200, n),
            "marital": rng.integers(0, 3, n),
            "color": rng.integers(0, 3, n),
        },
    )


def _bench_data(dataset: str, n: int, seed: int) -> tuple[Table, np.ndarray]:
    """The benchmark table and its class labels."""
    if dataset == "synthetic":
        table = synthetic_mixed_table(n, seed)
        return table, (table.column("age") < 45).astype(np.int64)
    from repro.datasets import load_dataset

    data = load_dataset(dataset, n, random_state=seed)
    return data.X, data.y


def _table_benchmarks(
    dataset: str,
    table: Table,
    labels: np.ndarray,
    *,
    seed: int,
    repeats: int,
    only: set[str] | None = None,
) -> list[CompareRecord]:
    """Hot-path comparisons over one table, optionally filtered by name."""

    def want(name: str) -> bool:
        return only is None or name in only

    records: list[CompareRecord] = []
    n = table.n_rows
    space = TableNeighborSpace().fit(table)
    E = space.encode(table)
    n_q = min(n, 2500)  # bound the dense distance matrix

    # --- neighbour search: distances + top-k with self-exclusion ------- #
    if want("kneighbors_topk"):
        # Seed side: the original whole-matrix path — dense float64 HEOM
        # pairwise, then row-at-a-time top-k.  Current side: the blocked
        # coded kernel (float32 sgemm tiles + streaming k-best).  Layouts
        # are built outside the timer: production caches them per
        # dataset_version, so the steady-state cost is the scan itself.
        base_coded = space.encode_coded(encoded=E)
        query_coded = base_coded.slice(0, n_q)

        def seed_knn():
            D = space.metric_.pairwise(E[:n_q], E)
            return seed_ref.seed_topk_from_dists(D, K_NEIGHBORS, exclude_self=True)

        records.append(
            compare(
                "kneighbors_topk", dataset, n,
                seed_knn,
                lambda: kneighbors_blocked(
                    query_coded, base_coded, K_NEIGHBORS, exclude_self=True
                ),
                repeats=repeats,
                extra={
                    "n_queries": n_q,
                    "k": K_NEIGHBORS,
                    "backend": "numpy",
                    "seed_side": "dense float64 pairwise + row-wise top-k",
                    "current_side": "blocked coded kernel, layouts prebuilt",
                },
            )
        )

    # Shared neighbour matrix for the generation benchmarks.
    generation = {"smote_majority", "window_sampling", "constrained_categorical"}
    if only is None or generation & only:
        knn = BruteKNN(space.metric_).fit(E)
        _, nbr_idx = knn.kneighbors(E[:n_q], K_NEIGHBORS, exclude_self=True)

        cat_name = table.schema.categorical_names[0]
        cat_spec = table.schema[cat_name]
        codes = table.column(cat_name)[nbr_idx]

        # --- SMOTE-NC categorical aggregation -------------------------- #
        if want("smote_majority"):
            records.append(
                compare(
                    "smote_majority", dataset, n,
                    lambda: seed_ref.seed_majority_batch(
                        codes, np.random.default_rng(seed)
                    ),
                    lambda: majority_categorical_batch(
                        codes, len(cat_spec.categories), np.random.default_rng(seed)
                    ),
                    repeats=repeats,
                    extra={"n_samples": n_q, "column": cat_name},
                )
            )

        # --- rule-constrained numeric windows -------------------------- #
        if want("window_sampling") and table.schema.numeric_names:
            num_name = table.schema.numeric_names[0]
            col = table.column(num_name)
            lo, hi = float(np.quantile(col, 0.25)), float(np.quantile(col, 0.75))
            window = window_from_conditions(
                (Predicate(num_name, ">=", lo), Predicate(num_name, "<", hi))
            )
            attr_range = (float(col.min()), float(col.max()))
            base_v = col[:n_q]
            nbr_v = col[nbr_idx[:, 0]]
            records.append(
                compare(
                    "window_sampling", dataset, n,
                    lambda: seed_ref.seed_sample_in_window_batch(
                        window, base_v, nbr_v, attr_range, np.random.default_rng(seed)
                    ),
                    lambda: sample_in_window_batch(
                        window, base_v, nbr_v, attr_range, np.random.default_rng(seed)
                    ),
                    repeats=repeats,
                    extra={"n_samples": n_q, "column": num_name},
                )
            )

        # --- rule-constrained categorical picks ------------------------ #
        if want("constrained_categorical"):
            conds = (Predicate(cat_name, "!=", cat_spec.categories[0]),)
            records.append(
                compare(
                    "constrained_categorical", dataset, n,
                    lambda: seed_ref.seed_pick_categorical_batch(
                        codes, conds, cat_spec.categories, np.random.default_rng(seed)
                    ),
                    lambda: pick_categorical_batch(
                        codes, conds, cat_spec.categories, np.random.default_rng(seed)
                    ),
                    repeats=repeats,
                    extra={"n_samples": n_q, "column": cat_name},
                )
            )

    # --- borderline category -> weight mapping ------------------------- #
    if want("borderline_weights"):
        rng = np.random.default_rng(seed)
        cats = np.array(
            [(NOISY, SAFE, BORDERLINE)[i] for i in rng.integers(0, 3, size=n)],
            dtype=object,
        )
        records.append(
            compare(
                "borderline_weights", dataset, n,
                lambda: seed_ref.seed_borderline_weights(cats, DEFAULT_WEIGHTS),
                lambda: category_weights(cats, DEFAULT_WEIGHTS),
                repeats=repeats,
            )
        )

    # --- IP-selection chosen-row membership ---------------------------- #
    if want("selection_membership"):
        rng = np.random.default_rng(seed + 1)
        pops = [
            np.sort(rng.choice(n, size=max(n // 5, 1), replace=False))
            for _ in range(5)
        ]
        chosen_rows = rng.choice(n, size=max(n // 10, 1), replace=False)

        def seed_membership() -> list[np.ndarray]:
            chosen_set = set(chosen_rows.tolist())
            out = []
            for pop in pops:
                mask = np.fromiter(
                    (int(v) in chosen_set for v in pop), dtype=bool, count=pop.size
                )
                out.append(np.flatnonzero(mask).astype(np.intp))
            return out

        def current_membership() -> list[np.ndarray]:
            return [
                np.flatnonzero(np.isin(pop, chosen_rows)).astype(np.intp)
                for pop in pops
            ]

        records.append(
            compare(
                "selection_membership", dataset, n,
                seed_membership, current_membership, repeats=repeats,
                extra={"n_rules": len(pops)},
            )
        )

    # --- full SMOTE candidate generation ------------------------------- #
    if want("smote_generate"):
        n_samples = min(n, 2000)
        records.append(
            compare(
                "smote_generate", dataset, n,
                lambda: seed_ref.seed_smote_generate(
                    table, n_samples, k=K_NEIGHBORS, rng=np.random.default_rng(seed)
                ),
                lambda: SMOTE(K_NEIGHBORS, distance_backend="numpy").generate(
                    table, n_samples, rng=np.random.default_rng(seed)
                ),
                repeats=repeats,
                extra={"n_samples": n_samples, "backend": "numpy"},
            )
        )

    # --- random forest fit: CART split search -------------------------- #
    if want("cart_fit"):
        X = TabularEncoder(standardize=False).fit(table).transform(table)

        def fit_forest(forest_cls: type[RandomForestClassifier]) -> RandomForestClassifier:
            # The "RF" registry entry's configuration.
            return forest_cls(max_depth=3, random_state=42).fit(X, labels)

        seed_proba = fit_forest(seed_ref.SeedSplitForest).predict_proba(X)
        current_proba = fit_forest(RandomForestClassifier).predict_proba(X)
        if seed_proba.tobytes() != current_proba.tobytes():
            raise AssertionError(
                f"cart_fit on {dataset}: the lockstep grower or the level "
                "walk changed the forest's predict_proba bits"
            )
        records.append(
            compare(
                "cart_fit", dataset, n,
                lambda: fit_forest(seed_ref.SeedSplitForest),
                lambda: fit_forest(RandomForestClassifier),
                repeats=repeats,
                extra={
                    "n_features": X.shape[1],
                    "seed_side": "recursive per-tree builder, per-feature argsort split",
                    "current_side": "lockstep trees, one histogram per round",
                },
            )
        )

    # --- logistic regression fit: the L-BFGS objective ----------------- #
    if want("lr_fit"):
        X_std = TabularEncoder().fit(table).transform(table)

        def fit_lr(lr_cls: type[LogisticRegression]) -> LogisticRegression:
            # The "LR" registry entry's configuration.
            return lr_cls(max_iter=500).fit(X_std, labels)

        seed_lr = fit_lr(seed_ref.SeedObjectiveLR)
        current_lr = fit_lr(LogisticRegression)
        if (
            seed_lr.coef_.tobytes() != current_lr.coef_.tobytes()
            or seed_lr.intercept_.tobytes() != current_lr.intercept_.tobytes()
            or seed_lr.n_iter_ != current_lr.n_iter_
            or seed_lr.predict_proba(X_std).tobytes()
            != current_lr.predict_proba(X_std).tobytes()
        ):
            raise AssertionError(
                f"lr_fit on {dataset}: the fused objective changed the "
                "fitted coefficient or probability bits"
            )
        records.append(
            compare(
                "lr_fit", dataset, n,
                lambda: fit_lr(seed_ref.SeedObjectiveLR),
                lambda: fit_lr(LogisticRegression),
                repeats=repeats,
                extra={
                    "n_features": X_std.shape[1],
                    "lbfgs_iters": current_lr.n_iter_,
                    "seed_side": "row max along axis 1, two exps, one-hot gradient",
                    "current_side": "column loops for row max and sums, one exp, "
                    "flat label take, cumsum intercept gradient",
                },
            )
        )
    return records


def run_hotpath_benchmarks(
    *,
    quick: bool = False,
    seed: int = 0,
    datasets: tuple[str, ...] | None = None,
    only: list[str] | None = None,
) -> list[CompareRecord]:
    """Run every hot-path comparison and return the records.

    Parameters
    ----------
    quick : bool, default False
        Smaller tables and fewer repeats — the CI per-PR configuration.
    seed : int, default 0
        Base seed for table generation and all benchmark RNGs.
    datasets : tuple of str, optional
        Override the benchmarked datasets (default: ``synthetic`` and
        ``adult``).
    only : list of str, optional
        Benchmark names to run (default: all of :data:`HOTPATH_NAMES`).
        Unknown names raise ``ValueError`` so a typo fails loudly instead
        of silently benchmarking nothing.  Shared setup (encoding, the
        neighbour index) is only built for the selected benchmarks, so
        iterating on one kernel stays fast.
    """
    selected: set[str] | None = None
    if only is not None:
        unknown = [name for name in only if name not in HOTPATH_NAMES]
        if unknown:
            raise ValueError(
                f"unknown hot-path benchmark(s) {unknown}; known: {list(HOTPATH_NAMES)}"
            )
        selected = set(only)
    n = 2500 if quick else 6000
    repeats = 3 if quick else 5
    names = datasets if datasets is not None else ("synthetic", "adult")
    records: list[CompareRecord] = []
    for dataset in names:
        table, labels = _bench_data(dataset, n, seed)
        records.extend(
            _table_benchmarks(
                dataset, table, labels, seed=seed, repeats=repeats, only=selected
            )
        )
    return records
