//! The benchmark's own tests: seeded inputs replay byte for byte, every
//! workload runs clean for a short while and emits every metric
//! `BENCHMARK.json` names, and thin percentiles stay unresolved.

use amoeba_perfbench::{cluster_zipf, fs_session, rpc_small, run, stats, Options};
use amoeba_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

/// The first `n` ops of every generator thread of `workload`, as bytes.
fn op_bytes(workload: &str, seed: u64, n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for thread in 0..amoeba_perfbench::THREADS {
        let ops: Vec<String> = match workload {
            "rpc_small" => {
                let mut g = rpc_small::Ops::new(seed, thread);
                (0..n).map(|_| g.next_offset().to_string()).collect()
            }
            "fs_session" => {
                let mut g = fs_session::Ops::new(seed, thread);
                (0..n).map(|_| format!("{:?}", g.next_op())).collect()
            }
            "cluster_zipf" => {
                let mut g = cluster_zipf::Ops::new(seed, thread);
                (0..n).map(|_| format!("{:?}", g.next_op())).collect()
            }
            other => panic!("no op stream for {other}"),
        };
        out.extend(ops.join(";").into_bytes());
        out.push(b'\n');
    }
    if workload == "fs_session" {
        out.extend(format!("{:?}", fs_session::layout(seed)).into_bytes());
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_ops_and_another_seed_differs() {
    for workload in WORKLOADS {
        let a = op_bytes(workload, 42, 5000);
        assert_eq!(a, op_bytes(workload, 42, 5000), "{workload} replays");
        assert_ne!(a, op_bytes(workload, 43, 5000), "{workload} varies by seed");
    }
}

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
}

#[test]
fn benchmark_json_names_exactly_the_emitted_metrics() {
    let json = manifest();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}

/// Seconds a short run needs: `cluster_zipf` pays one RPC timeout on
/// about half its ops, so it needs a few seconds to resolve a median.
fn short(workload: &str) -> f64 {
    if workload == "cluster_zipf" {
        4.0
    } else {
        0.4
    }
}

fn check_run(workload: &str, trace: bool) {
    let opts = Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: short(workload),
        trace,
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(report.correct, "{workload}: {:#?}", report.lines);
    assert_eq!(report.failed, 0, "{workload}: fail_frac must be 0");
    assert!(report.attempted > 0);
    let want: Vec<(&str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
    assert_eq!(got, want, "{workload} emits every metric, in order");
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{workload} {name} = {value}");
    }
    let json = report.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

#[test]
fn rpc_small_short_runs_are_clean() {
    check_run("rpc_small", false);
    check_run("rpc_small", true);
}

#[test]
fn fs_session_short_runs_are_clean() {
    check_run("fs_session", false);
    check_run("fs_session", true);
}

#[test]
fn cluster_zipf_short_runs_are_clean() {
    check_run("cluster_zipf", false);
    check_run("cluster_zipf", true);
}

#[test]
fn thin_percentiles_are_unresolved_never_numbers() {
    // 500 samples: p99 has 5 beyond it, p95 has 25.
    let sorted: Vec<u64> = (1..=500).map(|v| v * 1000).collect();
    assert_eq!(stats::percentile(&sorted, 99.0), None);
    assert!(stats::describe(&sorted, 99.0).starts_with("unresolved"));
    assert_eq!(stats::percentile(&sorted, 95.0), Some(475_000));
    assert_eq!(stats::tail(&sorted), Some((95.0, 475_000)));
    // Fewer than 20 samples resolve nothing, so no tail is reported.
    assert_eq!(stats::tail(&sorted[..19]), None);
}
