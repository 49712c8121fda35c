"""The functions the traced run wraps, named by the package module
(layer) that defines them.

Each entry names the span and the workloads that must call it: the
coverage check fails a traced run in which one of them records no call.
A name ``mod.f`` is the function ``f`` of ``mpdagid.mod``; ``mod.C`` is
the construction of class ``C``; ``mod.C.m`` is the method ``m`` of
``C``.  Which end-to-end metric each should move is in ``NOTES.md``.
"""

VERIFY, QUERY, ENUM = "verify-small", "query-medium", "enumerate-chordal"
ALL = (VERIFY, QUERY, ENUM)

TRACED: list[tuple[str, tuple[str, ...]]] = [
    ("cli.main", ALL),
    ("graphs.parse_graph", ALL),
    ("graphs.Pdag", ALL),
    ("graphs.Pdag.possible_descendants", (QUERY,)),
    ("graphs.Pdag.to_edgelist", (QUERY, ENUM)),
    ("meek.close", ALL),
    ("meek.is_mpdag", ALL),
    ("paths.amenability_witness", (VERIFY, QUERY)),
    ("paths.exists_possibly_causal", (VERIFY, QUERY)),
    ("paths.forbidden_set", (QUERY,)),
    ("paths.unblocked_proper_noncausal_path", (QUERY,)),
    ("buckets.pco", (VERIFY, QUERY)),
    ("identify.identify", (VERIFY, QUERY)),
    ("identify.find_adjustment_set", (QUERY,)),
    ("identify.check_adjustment", (QUERY,)),
    ("formula.render", (VERIFY, QUERY)),
    ("oracle.random_model", (VERIFY,)),
    ("oracle.DiscreteModel", (VERIFY,)),
    ("oracle.joint_table", (VERIFY,)),
    ("oracle.model_from_joint", (VERIFY,)),
    ("oracle.gformula_table", (VERIFY,)),
    ("oracle.id_formula_table", (VERIFY,)),
    ("oracle.cross_dag_agreement", (VERIFY,)),
    ("oracle.nonid_witness", (VERIFY,)),
    ("oracle.wright_cov", (VERIFY,)),
    ("oracle.enumerate_dags", (VERIFY, ENUM)),
    ("estimate.Dataset.from_csv", (QUERY,)),
    ("estimate.gaussian_effect", (QUERY,)),
]

# Counters and ratios derived from the spans, with their units.
DERIVED: list[tuple[str, str]] = [
    ("meek.close.inconsistent", "count"),
    ("oracle.enumerate_dags.dags", "count"),
    ("oracle.enumerate_dags.dead_branch_ratio", "ratio"),
    ("oracle.joint_table.calls_per_model", "ratio"),
    ("trace.overhead_share", "ratio"),
]
