"""Governed model editing: lineage, audit records, and the inflection point.

Paper §6 argues FROTE edits are auditable: every relabel and every
synthetic instance can be logged with its generating rule.  This example
runs an edit, prints the governance audit (JSON-ready), and then sweeps
augmentation past the useful range to locate the *inflection point* where
more synthetic data starts hurting overall performance.

Run:  python examples/governance_audit.py
"""

import repro
from repro import FeedbackRuleSet, parse_rule
from repro.core import SYNTHETIC, format_inflection, trace_inflection
from repro.data import train_test_split
from repro.datasets import load_dataset
from repro.models import paper_algorithm


def main() -> None:
    data = load_dataset("nursery", n=1500, random_state=11)
    schema, labels = data.X.schema, data.label_names
    algorithm = paper_algorithm("LGBM")

    frs = FeedbackRuleSet(
        (
            parse_rule(
                "health = 'priority' AND parents = 'usual' => very_recom",
                schema, labels, name="board-decision-12",
            ),
            parse_rule(
                "finance = 'inconv' AND housing = 'critical' => not_recom",
                schema, labels, name="board-decision-13",
            ),
        )
    )

    # --- Part 1: run the edit and print its audit trail ------------------
    result = (
        repro.edit(data)
        .with_rules(frs)
        .with_algorithm(algorithm)
        .configure(tau=12, q=0.5, eta=40, random_state=42)
        .run()
    )
    audit = result.audit(frs, mod_strategy="relabel", ticket="GOV-4711")

    print(audit.summary())
    print("\nJSON form (first 400 chars):")
    print(audit.to_json()[:400], "...")

    # Row-level lineage: inspect a synthetic row's origin.
    prov = result.provenance
    synth_rows = [i for i in range(prov.n) if prov.kind[i] == SYNTHETIC]
    if synth_rows:
        i = synth_rows[0]
        print(
            f"\nExample lineage: row {i} is synthetic, generated at iteration "
            f"{prov.iteration[i]} by rule {prov.rule_index[i]} "
            f"({frs[int(prov.rule_index[i])].name})."
        )

    # --- Part 2: find the inflection point (paper §6) --------------------
    train, test = train_test_split(data, test_fraction=0.3, random_state=0)
    trace = trace_inflection(
        train, test, algorithm, frs, eta=60, max_iterations=10, random_state=0
    )
    print("\nAugmentation sweep (MRA-only acceptance, past the useful range):")
    print(format_inflection(trace))
    if trace.inflection_n_added is not None:
        print(
            f"\n-> past ~{trace.inflection_n_added} synthetic instances the "
            "outside-coverage cost outweighs the MRA gain (paper §6's "
            "data-difficulty effect)."
        )


if __name__ == "__main__":
    main()
