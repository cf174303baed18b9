//! `--quick` runs of every workload: no failures, and every exact metric
//! and every per-layer counter repeats to the last digit.

use std::collections::BTreeMap;

use dr_benchmark::bench::{Ctx, WorkloadResult};
use dr_benchmark::metrics::{E2E, LAYERS, WORKLOADS};
use dr_benchmark::trace::Tracer;
use dr_benchmark::workloads;

fn quick(name: &str, traced: bool) -> WorkloadResult {
    let mut ctx = Ctx { seed: 3, seconds: 0.0, quick: true, tracer: Tracer::new(traced) };
    workloads::run(name, &mut ctx).expect("a catalogued workload")
}

/// The metrics that are counts of deterministic work rather than times.
fn exact_part(result: &WorkloadResult) -> BTreeMap<&'static str, u64> {
    let e2e = E2E
        .iter()
        .filter(|spec| spec.exact)
        .filter_map(|spec| Some((spec.name, result.e2e.get(spec.name)?.value.to_bits())));
    let counters = LAYERS
        .iter()
        .filter(|(name, unit)| {
            matches!(*unit, "count" | "bytes" | "KB" | "sim_sec") && *name != "trace.spans"
        })
        .map(|&(name, _)| (name, result.layers.get(name).copied().unwrap_or(0.0).to_bits()));
    e2e.chain(counters).collect()
}

#[test]
fn every_workload_passes_its_oracles_and_repeats_its_counters() {
    for w in WORKLOADS {
        let first = quick(w.name, true);
        assert_eq!(first.tally.failed, 0, "{}: {:?}", w.name, first.tally.messages);
        assert!(first.tally.attempted > 0, "{} attempted nothing", w.name);
        let second = quick(w.name, true);
        assert_eq!(first.tally.attempted, second.tally.attempted, "{}", w.name);
        let (a, b) = (exact_part(&first), exact_part(&second));
        for (name, bits) in &a {
            assert_eq!(
                Some(bits),
                b.get(name),
                "{}: {name} differs between two runs of the same seed: {} vs {:?}",
                w.name,
                f64::from_bits(*bits),
                b.get(name).map(|x| f64::from_bits(*x)),
            );
        }
    }
}

#[test]
fn untraced_runs_report_every_driver_metric_as_a_nonzero_number() {
    for w in WORKLOADS {
        let result = quick(w.name, false);
        assert!(result.correct(), "{}: {:?}", w.name, result.tally.messages);
        for spec in E2E.iter().filter(|s| s.driver_bound.is_some()) {
            let value = result.e2e.get(spec.name).map(|v| v.value);
            assert!(
                value.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}: {} = {value:?}",
                w.name,
                spec.name
            );
        }
        assert!(result.layers.is_empty(), "layer metrics belong to the traced run");
    }
}

#[test]
fn every_layer_is_exercised_by_the_workload_meant_to_stress_it() {
    let nonzero = |result: &WorkloadResult, prefix: &str| {
        result.layers.iter().any(|(name, value)| name.starts_with(prefix) && *value != 0.0)
    };
    let expectations: &[(&str, &[&str])] = &[
        (
            "converge_static",
            &[
                "datalog.parser",
                "datalog.eval",
                "core.localize",
                "core.harness",
                "core.processor",
                "core.footprint",
                "netsim.sim",
                "netsim.metrics",
                "baselines",
                "workloads",
            ],
        ),
        ("converge_explained", &["provenance", "datalog.eval"]),
        (
            "churn_recover",
            &["core.processor.tombstones_collapsed", "netsim.metrics.dropped_node_down"],
        ),
        (
            "lossy_recover",
            &[
                "core.processor.retransmits",
                "core.processor.dups_dropped",
                "core.processor.acks_sent",
                "netsim.metrics.dropped_fault",
            ],
        ),
        (
            "svc_lifecycle",
            &["service.server", "service.client", "service.apply", "service.protocol"],
        ),
        (
            "svc_fanout",
            &[
                "service.poll_ms",
                "service.advance_ms",
                "service.protocol",
                "service.outbox",
                "core.harness.cursor",
            ],
        ),
    ];
    for (workload, prefixes) in expectations {
        let result = quick(workload, true);
        for prefix in *prefixes {
            assert!(nonzero(&result, prefix), "{workload}: nothing non-zero under {prefix}");
        }
    }
}
