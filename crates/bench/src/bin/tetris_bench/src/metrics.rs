//! The metric catalogue: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names (a test keeps the two in step)
//! and adds each end-to-end metric's direction and regression bound.

/// A reported metric.
pub struct Metric {
    /// `layer.quantity` for per-layer metrics; layers are module names.
    pub name: &'static str,
    /// The unit printed beside every value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user sees: one query on one input, from load to last tuple.
/// Medians over the untraced reps of a run.
pub const END_TO_END: [Metric; 3] = [
    // load + plan + prepare + preload + solve, tracing off.
    m("e2e_s", "s"),
    // load + plan + prepare: everything before the engine exists.
    m("setup_s", "s"),
    // The child's VmHWM, read before any reference pass.
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics. Those marked † come from the one traced rep and
/// are reported only with `--trace 1`.
pub const PER_LAYER: [Metric; 27] = [
    m("load.load_s", "s"),
    m("plan.plan_s", "s"),
    m("plan.prepare_s", "s"),
    m("relation.gap_extract_s", "s"),
    m("relation.gap_boxes", "count"),
    m("boxstore.preload_s", "s"),
    // Derived: preload − gap extraction.
    m("boxstore.insert_s", "s"),
    m("boxstore.ns_per_gap_box", "ns"),
    m("boxstore.store_mb", "MiB"),      // †
    m("boxstore.store_nodes", "count"), // †
    m("boxstore.probe_advance_share", "ratio"),
    m("boxstore.probe_full_walk_share", "ratio"),
    m("boxstore.walk_p50", "entries"), // †
    m("boxstore.walk_p99", "entries"), // †
    m("core.solve_s", "s"),
    m("core.resolutions", "count"),
    m("core.kb_queries", "count"),
    m("core.kb_inserts", "count"),
    m("core.kb_insert_skips", "count"),
    m("core.ns_per_resolution", "ns"),
    m("baseline.lftj_s", "s"),
    m("baseline.lftj_ratio", "ratio"),
    m("run.unexplained_s", "s"),
    m("run.reps", "count"),
    m("run.e2e_min_s", "s"),
    m("run.e2e_max_s", "s"),
    m("obs.trace_overhead", "ratio"), // †
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}
