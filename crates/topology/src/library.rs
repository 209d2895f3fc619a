//! The paper's dataflow library (Fig. 4 and Table 1).
//!
//! Five dataflows are evaluated: three micro-DAGs capturing common streaming
//! patterns (Linear, Diamond, Star) and two application DAGs modelled on
//! real deployments (Traffic — GPS stream analysis on IBM InfoSphere
//! Streams; Grid — smart-meter predictive analytics). All use the paper's
//! operator defaults: 100 ms dummy service time, 1:1 selectivity, 8 ev/s
//! source rate.
//!
//! The paper prints cumulative input rates per task and instance counts but
//! not the full wiring of the application DAGs; the wirings here satisfy
//! every published constraint (task counts, instance counts per Table 1,
//! per-task rates, sink rates):
//!
//! | DAG     | user tasks | instances | sink rate |
//! |---------|-----------|-----------|-----------|
//! | Linear  | 5         | 5         | 8 ev/s    |
//! | Diamond | 5         | 8         | 32 ev/s   |
//! | Star    | 5         | 8         | 32 ev/s   |
//! | Traffic | 11        | 13        | 32 ev/s   |
//! | Grid    | 15        | 21        | 32 ev/s   |

use crate::builder::DataflowBuilder;
use crate::graph::Dataflow;
use crate::task::{TaskId, TaskSpec};

/// Default source emit rate used across the paper's experiments (ev/s).
pub const SOURCE_RATE_HZ: f64 = 8.0;

/// Linear micro-DAG: `Src → T1 → … → T5 → Sink`, all at 8 ev/s.
///
/// # Examples
///
/// ```
/// use flowmig_topology::{library, InstanceSet};
/// let dag = library::linear();
/// assert_eq!(dag.user_tasks().count(), 5);
/// assert_eq!(InstanceSet::plan(&dag).user_instance_count(&dag), 5);
/// ```
pub fn linear() -> Dataflow {
    linear_n(5)
}

/// Linear micro-DAG with `n` user tasks — used for the 50-task drain-time
/// scaling experiment in §5.1.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn linear_n(n: usize) -> Dataflow {
    assert!(n > 0, "a linear dataflow needs at least one user task");
    let mut b = DataflowBuilder::new(if n == 5 { "linear".into() } else { format!("linear{n}") });
    let src = b.add(TaskSpec::source("src", SOURCE_RATE_HZ));
    let mut prev = src;
    for i in 1..=n {
        let t = b.add(TaskSpec::operator(format!("t{i}")));
        b.edge(prev, t);
        prev = t;
    }
    let sink = b.add(TaskSpec::sink("sink"));
    b.edge(prev, sink);
    b.finish().expect("linear dataflow is valid by construction")
}

/// Diamond micro-DAG: fan-out to four parallel tasks, fan-in to one.
///
/// `Src → {A,B,C,D} (8 ev/s each) → E (32 ev/s, 4 instances) → Sink`.
pub fn diamond() -> Dataflow {
    let mut b = DataflowBuilder::new("diamond");
    let src = b.add(TaskSpec::source("src", SOURCE_RATE_HZ));
    let mid: Vec<TaskId> =
        ["a", "b", "c", "d"].iter().map(|n| b.add(TaskSpec::operator(*n))).collect();
    let merge = b.add(TaskSpec::operator("e"));
    let sink = b.add(TaskSpec::sink("sink"));
    for &m in &mid {
        b.edge(src, m);
        b.edge(m, merge);
    }
    b.edge(merge, sink);
    b.finish().expect("diamond dataflow is valid by construction")
}

/// Star micro-DAG: hub-and-spoke.
///
/// `Src → {A,B} (8 ev/s) → H (16 ev/s, 2 inst) → {C,D} (16 ev/s, 2 inst
/// each) → Sink (32 ev/s)`.
pub fn star() -> Dataflow {
    let mut b = DataflowBuilder::new("star");
    let src = b.add(TaskSpec::source("src", SOURCE_RATE_HZ));
    let a = b.add(TaskSpec::operator("a"));
    let bb = b.add(TaskSpec::operator("b"));
    let hub = b.add(TaskSpec::operator("hub"));
    let c = b.add(TaskSpec::operator("c"));
    let d = b.add(TaskSpec::operator("d"));
    let sink = b.add(TaskSpec::sink("sink"));
    b.edge(src, a).edge(src, bb);
    b.edge(a, hub).edge(bb, hub);
    b.edge(hub, c).edge(hub, d);
    b.edge(c, sink).edge(d, sink);
    b.finish().expect("star dataflow is valid by construction")
}

/// Traffic application DAG (11 tasks, 13 instances): GPS stream analytics.
///
/// Three parallel 3-task analysis chains fan in to an aggregator `M`
/// (24 ev/s, 3 instances) feeding the sink, plus a direct monitoring branch
/// `D1` (8 ev/s) to the sink — sink input 32 ev/s.
pub fn traffic() -> Dataflow {
    let mut b = DataflowBuilder::new("traffic");
    let src = b.add(TaskSpec::source("src", SOURCE_RATE_HZ));
    let sink = b.add(TaskSpec::sink("sink"));
    let merge = b.add(TaskSpec::operator("m"));
    for chain in ["a", "b", "c"] {
        let mut prev = src;
        for i in 1..=3 {
            let t = b.add(TaskSpec::operator(format!("{chain}{i}")));
            b.edge(prev, t);
            prev = t;
        }
        b.edge(prev, merge);
    }
    let d1 = b.add(TaskSpec::operator("d1"));
    b.edge(src, d1).edge(d1, sink);
    b.edge(merge, sink);
    b.finish().expect("traffic dataflow is valid by construction")
}

/// Grid application DAG (15 tasks, 21 instances): smart-meter predictive
/// analytics.
///
/// Three parallel 3-task feature chains fan in to a 3-task aggregation
/// pipeline `M1 → M2 → M3` (24 ev/s, 3 instances each) feeding the sink,
/// plus a parallel 3-task direct chain `D1 → D2 → D3` (8 ev/s) — sink input
/// 32 ev/s. Critical path: 6 user tasks (the deepest DAG evaluated).
pub fn grid() -> Dataflow {
    grid_inner("grid".into(), None)
}

/// Grid wiring with every task's instance count forced to `width` via
/// [`TaskSpec::with_parallelism`] — the wave-latency scaling workload.
///
/// Rates are unchanged (8 ev/s source, shared across its `width`
/// instances), so per-instance load *shrinks* as the dataflow widens; what
/// grows is exactly what checkpoint waves pay for: the instance count. The
/// 15 operator tasks plus the sink give `16 × width` wave participants
/// (width 2 → 32, 3 → 48, 6 → 96, 12 → 192 — the `migration_latency`
/// bench sizes).
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn grid_scaled(width: usize) -> Dataflow {
    assert!(width > 0, "a scaled grid needs at least one instance per task");
    grid_inner(format!("gridx{width}"), Some(width))
}

fn grid_inner(name: String, width: Option<usize>) -> Dataflow {
    let widen = |spec: TaskSpec| match width {
        Some(w) => spec.with_parallelism(w),
        None => spec,
    };
    let mut b = DataflowBuilder::new(name);
    let src = b.add(widen(TaskSpec::source("src", SOURCE_RATE_HZ)));
    let sink = b.add(widen(TaskSpec::sink("sink")));
    let m1 = b.add(widen(TaskSpec::operator("m1")));
    let m2 = b.add(widen(TaskSpec::operator("m2")));
    let m3 = b.add(widen(TaskSpec::operator("m3")));
    for chain in ["a", "b", "c"] {
        let mut prev = src;
        for i in 1..=3 {
            let t = b.add(widen(TaskSpec::operator(format!("{chain}{i}"))));
            b.edge(prev, t);
            prev = t;
        }
        b.edge(prev, m1);
    }
    b.edge(m1, m2).edge(m2, m3).edge(m3, sink);
    let mut prev = src;
    for i in 1..=3 {
        let t = b.add(widen(TaskSpec::operator(format!("d{i}"))));
        b.edge(prev, t);
        prev = t;
    }
    b.edge(prev, sink);
    b.finish().expect("grid dataflow is valid by construction")
}

/// Rebuilds `dag` with a Zipf-skewed key space on every operator task:
/// `partitions` key partitions where partition `i` carries weight
/// `1 / (i + 1)^exponent` (see [`TaskSpec::with_zipf_keys`]). Sources and
/// sinks are untouched — only operator state is keyed and migratable.
///
/// This is the skew knob behind the key-range migration experiments: a
/// handful of hot partitions dominate the traffic and state, so a
/// range-scoped migration moves a small fraction of the bytes a
/// whole-instance migration would.
///
/// # Panics
///
/// Panics if `partitions` is zero.
pub fn zipf_keyed(dag: &Dataflow, partitions: u32, exponent: u32) -> Dataflow {
    use crate::task::TaskKind;
    let mut out = dag.clone();
    let operators: Vec<TaskId> =
        dag.user_tasks().filter(|&t| dag.spec(t).kind() == TaskKind::Operator).collect();
    for t in operators {
        let spec = out.spec(t).clone().with_zipf_keys(partitions, exponent);
        out = out.with_spec(t, spec);
    }
    out
}

/// The wave-latency grid ([`grid_scaled`]) with a Zipf-skewed key space on
/// every operator — the skew workload for the key-range migration bench.
/// `16 × width` wave participants; partition 0 of each operator carries the
/// bulk of the traffic under exponent ≥ 2.
///
/// # Panics
///
/// Panics if `width` or `partitions` is zero.
pub fn grid_zipf(width: usize, partitions: u32, exponent: u32) -> Dataflow {
    zipf_keyed(&grid_scaled(width), partitions, exponent)
}

/// All five paper dataflows in presentation order
/// (Linear, Diamond, Star, Grid, Traffic — the order of Figs. 5–8).
pub fn paper_dataflows() -> Vec<Dataflow> {
    vec![linear(), diamond(), star(), grid(), traffic()]
}

/// Generates a random layered dataflow — for fuzzing the engine and
/// protocols beyond the paper's five shapes.
///
/// The graph has `layers` layers of 1–`max_width` operator tasks; every
/// task is wired to at least one task of the next layer (plus extra random
/// edges), so the result is always a valid streaming DAG. All operators
/// use the paper's 100 ms service time.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `layers` or `max_width` is zero.
pub fn random_layered(seed: u64, layers: usize, max_width: usize) -> Dataflow {
    assert!(layers > 0 && max_width > 0, "need at least one layer and one task per layer");
    // Small deterministic LCG; keeps the topology crate free of a rand
    // dependency on the public path.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |bound: usize| -> usize {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };

    let mut b = DataflowBuilder::new(format!("random{seed}"));
    let src = b.add(TaskSpec::source("src", SOURCE_RATE_HZ));
    let sink = b.add(TaskSpec::sink("sink"));
    let mut prev: Vec<TaskId> = vec![src];
    for l in 0..layers {
        let width = 1 + next(max_width);
        let layer: Vec<TaskId> =
            (0..width).map(|i| b.add(TaskSpec::operator(format!("l{l}n{i}")))).collect();
        // Every upstream task feeds at least one task here; every task here
        // has at least one input.
        for (i, &p) in prev.iter().enumerate() {
            b.edge(p, layer[i % width]);
        }
        for (i, &t) in layer.iter().enumerate() {
            if prev.len() < i + 1 || i >= prev.len() {
                b.edge(prev[i % prev.len()], t);
            }
        }
        // A few extra random edges for irregular fan-in/out.
        for _ in 0..next(width + 1) {
            let from = prev[next(prev.len())];
            let to = layer[next(width)];
            b.edge(from, to);
        }
        prev = layer;
    }
    for &t in &prev {
        b.edge(t, sink);
    }
    // Random extra edges may duplicate deterministic ones; rebuild via the
    // builder is validated, so retry with a perturbed seed on collision.
    match b.finish() {
        Ok(dag) => dag,
        Err(_) => random_layered(seed.wrapping_add(0x5bd1_e995), layers, max_width),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::{InstanceSet, RatePlan};

    /// Table 1 of the paper: (dag, user tasks, user instances).
    #[test]
    fn table1_task_and_instance_counts() {
        let expect = [
            (linear(), 5, 5),
            (diamond(), 5, 8),
            (star(), 5, 8),
            (grid(), 15, 21),
            (traffic(), 11, 13),
        ];
        for (dag, tasks, instances) in expect {
            assert_eq!(dag.user_tasks().count(), tasks, "{} task count", dag.name());
            let inst = InstanceSet::plan(&dag);
            assert_eq!(inst.user_instance_count(&dag), instances, "{} instance count", dag.name());
        }
    }

    #[test]
    fn sink_rates_match_figure_4() {
        for (dag, rate) in
            [(linear(), 8.0), (diamond(), 32.0), (star(), 32.0), (grid(), 32.0), (traffic(), 32.0)]
        {
            let rates = RatePlan::for_dataflow(&dag);
            assert_eq!(rates.expected_sink_rate_hz(&dag), rate, "{} sink rate", dag.name());
        }
    }

    #[test]
    fn star_hub_sees_16hz() {
        let dag = star();
        let rates = RatePlan::for_dataflow(&dag);
        let hub = dag.task_by_name("hub").unwrap();
        assert_eq!(rates.input_hz(hub), 16.0);
        assert_eq!(rates.instances_for(&dag, hub), 2);
    }

    #[test]
    fn grid_aggregators_see_24hz() {
        let dag = grid();
        let rates = RatePlan::for_dataflow(&dag);
        for name in ["m1", "m2", "m3"] {
            let t = dag.task_by_name(name).unwrap();
            assert_eq!(rates.input_hz(t), 24.0, "{name}");
            assert_eq!(rates.instances_for(&dag, t), 3, "{name}");
        }
    }

    #[test]
    fn critical_paths() {
        assert_eq!(linear().critical_path_len(), 5);
        assert_eq!(diamond().critical_path_len(), 2);
        assert_eq!(star().critical_path_len(), 3);
        assert_eq!(traffic().critical_path_len(), 4);
        assert_eq!(grid().critical_path_len(), 6);
        assert_eq!(linear_n(50).critical_path_len(), 50);
    }

    #[test]
    fn grid_scaled_widens_every_task() {
        for width in [2usize, 3, 6, 12] {
            let dag = grid_scaled(width);
            assert_eq!(dag.name(), format!("gridx{width}"));
            assert_eq!(dag.user_tasks().count(), 15, "wiring unchanged");
            assert_eq!(dag.critical_path_len(), 6, "depth unchanged");
            let inst = InstanceSet::plan(&dag);
            assert_eq!(inst.user_instance_count(&dag), 15 * width);
            // Wave participants = operators + sinks = 16 × width.
            let sink = dag.task_by_name("sink").unwrap();
            assert_eq!(inst.of_task(sink).len(), width);
            assert_eq!(inst.user_instance_count(&dag) + inst.of_task(sink).len(), 16 * width);
        }
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn grid_scaled_zero_rejected() {
        let _ = grid_scaled(0);
    }

    #[test]
    fn linear_n_scales() {
        let dag = linear_n(50);
        assert_eq!(dag.user_tasks().count(), 50);
        assert_eq!(dag.name(), "linear50");
        assert_eq!(linear().name(), "linear");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn linear_zero_rejected() {
        let _ = linear_n(0);
    }

    #[test]
    fn random_layered_is_valid_and_deterministic() {
        for seed in 0..50u64 {
            let a = random_layered(seed, 4, 3);
            let b = random_layered(seed, 4, 3);
            assert_eq!(a.len(), b.len(), "deterministic in seed");
            assert!(a.user_tasks().count() >= 4);
            assert!(a.critical_path_len() >= 4);
            // Every operator is on a source→sink path (validated by
            // construction: no orphans allowed).
            assert_eq!(a.sources().count(), 1);
            assert_eq!(a.sinks().count(), 1);
        }
    }

    #[test]
    fn random_layered_varies_with_seed() {
        let sizes: std::collections::HashSet<usize> =
            (0..20).map(|s| random_layered(s, 5, 4).len()).collect();
        assert!(sizes.len() > 3, "different seeds give different shapes");
    }

    #[test]
    fn zipf_keyed_skews_operators_only() {
        let dag = zipf_keyed(&grid(), 8, 2);
        assert_eq!(dag.name(), "grid", "wiring and name unchanged");
        for t in dag.task_ids() {
            let spec = dag.spec(t);
            match spec.kind() {
                crate::task::TaskKind::Operator => {
                    assert_eq!(spec.key_partitions(), 8, "{}", spec.name());
                    assert!(spec.key_weight(0) > spec.key_weight(7), "{}", spec.name());
                }
                _ => assert_eq!(spec.key_partitions(), 1, "{}", spec.name()),
            }
        }
        // Instance planning is rate-driven and unaffected by key spaces.
        assert_eq!(InstanceSet::plan(&dag).user_instance_count(&dag), 21);
    }

    #[test]
    fn grid_zipf_keeps_scaled_width() {
        let dag = grid_zipf(6, 8, 2);
        assert_eq!(dag.name(), "gridx6");
        let inst = InstanceSet::plan(&dag);
        assert_eq!(inst.user_instance_count(&dag), 15 * 6);
        let m1 = dag.task_by_name("m1").unwrap();
        assert!(dag.spec(m1).is_keyed());
    }

    #[test]
    fn paper_dataflows_are_all_valid_and_named() {
        let names: Vec<String> = paper_dataflows().iter().map(|d| d.name().to_owned()).collect();
        assert_eq!(names, ["linear", "diamond", "star", "grid", "traffic"]);
    }
}
