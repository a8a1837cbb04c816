//! A wall-clock benchmark of the Amoeba reproduction: three closed-loop
//! workloads, end-to-end metrics from an untraced run, and per-layer
//! metrics from a separate traced run. See `README.md` beside this
//! crate for the metric map and how to run it.

#![warn(missing_docs)]

pub mod cluster_zipf;
pub mod fs_session;
pub mod gen;
pub mod layers;
pub mod rpc_small;
pub mod stats;
pub mod trace;

use amoeba_net::{MetricsSnapshot, Network, StatsSnapshot};
use layers::TapStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{NameStats, Span, Tracer};

/// Generator threads per workload (closed loop, one caller each).
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What a workload's post-run audit found.
#[derive(Debug, Default)]
pub struct Audit {
    /// Objects or balances checked.
    pub checked: u64,
    /// Mismatches (each counts as a failed op).
    pub failed: u64,
    /// The first few mismatch descriptions.
    pub notes: Vec<String>,
}

impl Audit {
    /// Records one check.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(note());
            }
        }
    }
}

/// Everything the traced run hands a workload for its own per-layer
/// metrics.
pub struct TraceView<'a> {
    /// Wire traffic seen by the tap during the traced window.
    pub tap: &'a TapStats,
    /// Span totals by name over the traced window.
    pub spans: &'a BTreeMap<&'static str, NameStats>,
}

/// One benchmark workload: a fleet of servers and clients built from a
/// seed, and per-thread op generators that check every output.
pub trait Workload: Sized + Sync {
    /// Per-generator-thread op stream plus the model its checks use.
    type Gen: Send;

    /// Builds, populates and warms the fleet.
    ///
    /// # Errors
    /// Any setup step that fails.
    fn setup(seed: u64) -> Result<Self, String>;

    /// The network the fleet runs on.
    fn net(&self) -> &Network;

    /// The op generator of thread `thread`.
    fn gen(&self, thread: usize) -> Self::Gen;

    /// Runs the generator's next op and checks its result.
    ///
    /// # Errors
    /// A description of the failed call or mismatching output.
    fn step(&self, gen: &mut Self::Gen, tr: &mut Tracer) -> Result<(), String>;

    /// Post-run checks against the generators' models.
    fn audit(&self, gens: &[Self::Gen]) -> Audit;

    /// Whether every machine sits behind an F-box.
    fn fboxed(&self) -> bool {
        false
    }

    /// The scheme and put-port of the server whose capability check
    /// dominates the workload.
    fn validated(&self) -> (amoeba_cap::schemes::SchemeKind, amoeba_net::Port);

    /// Wall milliseconds the set-up spent migrating shards.
    fn migrate_ms(&self) -> f64 {
        0.0
    }

    /// Set-up facts worth a line in the human report.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }

    /// Workload-specific per-layer metrics from the traced window and
    /// from post-window probes.
    fn layer_metrics(&self, view: &TraceView<'_>, gens: &[Self::Gen]) -> Vec<(&'static str, f64)>;

    /// Stops every server thread.
    fn stop(self);
}

/// Slices a window is cut into for its slice medians.
pub const SLICES: usize = 10;

/// Fewest ops per slice, on average, for slice medians.
pub const MIN_OPS_PER_SLICE: u64 = 1000;

/// One timed window of closed-loop load.
#[derive(Debug)]
pub struct Window {
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose call failed or whose output mismatched.
    pub failed: u64,
    /// Latency of every op, ascending (ns).
    pub lat_ns: Vec<u64>,
    /// When every op ended, as an offset from the window start (ns).
    pub ends_ns: Vec<u64>,
    /// (offset from the window start, process CPU since it) at the
    /// start and at each slice boundary (ns).
    pub cpu_marks: Vec<(u64, u64)>,
    /// Wall time from start until the last op ended.
    pub elapsed: Duration,
    /// Process CPU (user + system) over the window (ns).
    pub cpu_ns: u64,
    /// Spans recorded (traced windows only).
    pub spans: Vec<Span>,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

/// Throughput and CPU of one slice of a window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Ops that ended in the slice per second of slice.
    pub ops_per_s: f64,
    /// Process CPU in the slice per op ended in it (µs).
    pub cpu_us_per_op: f64,
}

impl Window {
    /// Completed ops per wall second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    /// The window cut into [`SLICES`] equal slices by op end time, or
    /// `None` when it holds too few ops for slice figures to be exact.
    pub fn slices(&self) -> Option<Vec<Slice>> {
        if self.ops < SLICES as u64 * MIN_OPS_PER_SLICE || self.cpu_marks.len() != SLICES + 1 {
            return None;
        }
        let mut ops = [0u64; SLICES];
        for &end in &self.ends_ns {
            let i = self.cpu_marks[1..SLICES]
                .iter()
                .take_while(|(t, _)| *t <= end)
                .count();
            ops[i] += 1;
        }
        let slices = ops
            .iter()
            .zip(self.cpu_marks.windows(2))
            .map(|(&n, w)| Slice {
                ops_per_s: n as f64 / ((w[1].0 - w[0].0) as f64 / 1e9),
                cpu_us_per_op: (w[1].1 - w[0].1) as f64 / 1e3 / n.max(1) as f64,
            })
            .collect();
        Some(slices)
    }
}

/// Runs `THREADS` closed-loop generators for `duration`.
pub fn run_window<W: Workload>(
    w: &W,
    gens: &mut [W::Gen],
    duration: Duration,
    traced: bool,
) -> Window {
    let cpu0 = stats::process_cpu_ns();
    let start = Instant::now();
    let deadline = start + duration;
    let mut cpu_marks = vec![(0, 0)];
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(t, gen)| {
                s.spawn(move || {
                    let mut tr = if traced {
                        Tracer::on(start, t as u32)
                    } else {
                        Tracer::off()
                    };
                    let mut lat = Vec::with_capacity(1 << 16);
                    let mut ends = Vec::with_capacity(1 << 16);
                    let mut failed = 0u64;
                    let mut errors = Vec::new();
                    let mut now = Instant::now();
                    while now < deadline {
                        tr.set_op(((t as u64) << 40) | lat.len() as u64);
                        let r = w.step(gen, &mut tr);
                        let end = Instant::now();
                        lat.push((end - now).as_nanos() as u64);
                        ends.push((end - start).as_nanos() as u64);
                        if let Err(e) = r {
                            failed += 1;
                            if errors.len() < 5 {
                                errors.push(e);
                            }
                        }
                        now = end;
                    }
                    (lat, ends, failed, errors, now - start, tr.into_spans())
                })
            })
            .collect();
        // Mark process CPU at each slice boundary while the load runs.
        for i in 1..=SLICES {
            let at = start + duration.mul_f64(i as f64 / SLICES as f64);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            cpu_marks.push((
                (Instant::now() - start).as_nanos() as u64,
                stats::process_cpu_ns() - cpu0,
            ));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let cpu_ns = stats::process_cpu_ns() - cpu0;
    let mut out = Window {
        ops: 0,
        failed: 0,
        lat_ns: Vec::new(),
        ends_ns: Vec::new(),
        cpu_marks,
        elapsed: Duration::ZERO,
        cpu_ns,
        spans: Vec::new(),
        errors: Vec::new(),
    };
    for (lat, ends, failed, errors, elapsed, spans) in results {
        out.ops += lat.len() as u64;
        out.lat_ns.extend(lat);
        out.ends_ns.extend(ends);
        out.failed += failed;
        out.errors.extend(errors);
        out.elapsed = out.elapsed.max(elapsed);
        out.spans.extend(spans);
    }
    out.lat_ns.sort_unstable();
    out
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// `rpc_small`, `fs_session` or `cluster_zipf`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

/// The workload names, in the order the README lists them.
pub const WORKLOADS: [&str; 3] = ["rpc_small", "fs_session", "cluster_zipf"];

/// A finished run: the contract's result object plus the human report.
#[derive(Debug)]
pub struct Report {
    /// No failed op and a clean audit.
    pub correct: bool,
    /// Ops attempted plus audit checks.
    pub attempted: u64,
    /// Failed ops plus audit mismatches.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Every span of a traced run.
    pub spans: Vec<Span>,
}

impl Report {
    /// The contract's one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v:?}")
}

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("fbox.egress_ns", "ns"),
    ("fbox.evals_per_op", "count"),
    ("rpc.encode_ns", "ns"),
    ("rpc.decode_ns", "ns"),
    ("net.buf_cycle_ns", "ns"),
    ("server.validate_ns", "ns"),
    ("rpc.handoff_us", "us"),
    ("net.frames_per_op", "count"),
    ("net.wire_bytes_per_op", "B"),
    ("net.buf_allocs_per_op", "count"),
    ("net.hot_locks_per_op", "count"),
    ("rpc.retransmits_per_kop", "count"),
    ("rpc.timeouts_per_kop", "count"),
    ("rpc.demux_overflows_per_kop", "count"),
    ("dirsvr.resolve_us", "us"),
    ("dirsvr.resolve_frames_per_call", "count"),
    ("dirsvr.cache_hit_ratio", "ratio"),
    ("flatfs.read_us", "us"),
    ("flatfs.write_us", "us"),
    ("flatfs.scratch_us", "us"),
    ("block.frames_per_scratch", "count"),
    ("bank.paid_create_us", "us"),
    ("core.mint_ns.oneway", "ns"),
    ("core.validate_ns.oneway", "ns"),
    ("core.mint_ns.commutative", "ns"),
    ("core.validate_ns.commutative", "ns"),
    ("cluster.forwarded_frac", "ratio"),
    ("cluster.map_refreshes", "count"),
    ("cluster.route_cache_entries", "count"),
    ("cluster.migrate_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.traced_p50_us", "us"),
    ("trace.untraced_p50_us", "us"),
    ("trace.untraced_tail_us", "us"),
    ("trace.untraced_ops_per_s", "1/s"),
];

/// Runs the workload `opts` names.
///
/// # Errors
/// An unknown workload or a failed set-up.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "rpc_small" => run_workload::<rpc_small::RpcSmall>(opts),
        "fs_session" => run_workload::<fs_session::FsSession>(opts),
        "cluster_zipf" => run_workload::<cluster_zipf::ClusterZipf>(opts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Sets the fleet up [`SETUPS`] times and keeps the last one.
fn set_up<W: Workload>(seed: u64) -> Result<(W, Vec<f64>, Vec<f64>), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut migrate_ms = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let w = W::setup(seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        migrate_ms.push(w.migrate_ms());
        if i + 1 < SETUPS {
            w.stop();
        } else {
            kept = Some(w);
        }
    }
    Ok((kept.expect("SETUPS > 0"), setup_s, migrate_ms))
}

fn run_workload<W: Workload>(opts: &Options) -> Result<Report, String> {
    let (w, setup_s, migrate_ms) = set_up::<W>(opts.seed)?;
    let mut gens: Vec<W::Gen> = (0..THREADS).map(|t| w.gen(t)).collect();
    let mut lines = vec![format!(
        "workload {} seed {} threads {THREADS} (closed loop), available_parallelism {}",
        opts.workload,
        opts.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )];
    lines.push(format!(
        "setup_s per set-up: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    lines.extend(w.notes());
    let report = if opts.trace {
        Ok(traced(&w, &mut gens, opts, &migrate_ms, lines))
    } else {
        untraced(&w, &mut gens, opts, &setup_s, lines)
    };
    w.stop();
    report
}

fn finish_checks(
    window_ops: u64,
    window_failed: u64,
    errors: &[String],
    audit: &Audit,
    lines: &mut Vec<String>,
) -> (bool, u64, u64) {
    let attempted = window_ops + audit.checked;
    let failed = window_failed + audit.failed;
    lines.push(format!(
        "checks: {window_ops} ops checked, {} audit checks, {failed} failed; fail_frac = {}",
        audit.checked,
        failed as f64 / attempted.max(1) as f64
    ));
    for e in errors.iter().chain(&audit.notes) {
        lines.push(format!("  failure: {e}"));
    }
    (failed == 0, attempted.max(1), failed)
}

fn untraced<W: Workload>(
    w: &W,
    gens: &mut [W::Gen],
    opts: &Options,
    setup_s: &[f64],
    mut lines: Vec<String>,
) -> Result<Report, String> {
    let win = run_window(w, gens, Duration::from_secs_f64(opts.seconds), false);
    let audit = w.audit(gens);
    if stats::percentile(&win.lat_ns, 50.0).is_none() {
        return Err(format!(
            "{} ops are too few to resolve even a median; run longer",
            win.ops
        ));
    }
    let whole_cpu = win.cpu_ns as f64 / 1e3 / win.ops as f64;
    lines.push(format!(
        "whole window: {} ops in {:.3} s = {:.1} ops/s, cpu {whole_cpu:.3} us/op",
        win.ops,
        win.elapsed.as_secs_f64(),
        win.ops_per_s(),
    ));
    lines.push(format!(
        "p50_us = {}, p99_us = {}, tail_us = {} (n = {})",
        stats::describe(&win.lat_ns, 50.0),
        stats::describe(&win.lat_ns, 99.0),
        describe_tail(&win.lat_ns),
        win.lat_ns.len()
    ));
    // Medians over slices shrug off a transient stall of the host;
    // windows too thin to slice report whole-window figures.
    let (ops_per_s, cpu_us_per_op, basis) = match win.slices() {
        Some(slices) => {
            let col =
                |f: fn(&Slice) -> f64| stats::median(&slices.iter().map(f).collect::<Vec<_>>());
            (
                col(|s| s.ops_per_s),
                col(|s| s.cpu_us_per_op),
                format!("median of {SLICES} slices"),
            )
        }
        None => (
            win.ops_per_s(),
            whole_cpu,
            "whole window; too few ops to slice".to_string(),
        ),
    };
    lines.push(format!("ops_per_s = {ops_per_s:.1} 1/s ({basis})"));
    lines.push(format!("cpu_us_per_op = {cpu_us_per_op:.3} us ({basis})"));
    let setup = stats::median(setup_s);
    lines.push(format!(
        "setup_s = {setup:.4} s (median of {})",
        setup_s.len()
    ));
    let (correct, attempted, failed) =
        finish_checks(win.ops, win.failed, &win.errors, &audit, &mut lines);
    let metrics = vec![
        ("ops_per_s", ops_per_s, "1/s"),
        ("cpu_us_per_op", cpu_us_per_op, "us"),
        ("setup_s", setup, "s"),
    ];
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        lines,
        spans: Vec::new(),
    })
}

fn traced<W: Workload>(
    w: &W,
    gens: &mut [W::Gen],
    opts: &Options,
    migrate_ms: &[f64],
    mut lines: Vec<String>,
) -> Report {
    let net = w.net();
    let half = Duration::from_secs_f64(opts.seconds / 2.0);

    // Untraced half: counter diffs that the tap itself would disturb
    // (it holds frame handles, delaying buffer reclamation).
    let stats0 = net.stats().snapshot();
    let hot0 = net.hot_path();
    let plain = run_window(w, gens, half, false);
    let hot = net.hot_path() - hot0;
    let wire: StatsSnapshot = net.stats().snapshot() - stats0;

    // Traced half: Obs on, tap on, spans on.
    net.obs().enable();
    let tap = layers::Tap::start(net);
    let obs0 = net.obs().snapshot().unwrap_or_default();
    let traced = run_window(w, gens, half, true);
    let obs1 = net.obs().snapshot().unwrap_or_default();
    let tap = tap.finish();
    let spans = trace::by_name(&traced.spans);
    let audit = w.audit(gens);

    let per_op = |n: u64, ops: u64| n as f64 / ops.max(1) as f64;
    let per_kop = |n: u64| 1e3 * per_op(n, traced.ops);
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let frames_per_op = per_op(wire.packets_sent, plain.ops);
    m.insert("fbox.evals_per_op", per_op(hot.oneway_evals, plain.ops));
    m.insert("net.frames_per_op", frames_per_op);
    m.insert("net.wire_bytes_per_op", per_op(wire.bytes_sent, plain.ops));
    m.insert(
        "net.buf_allocs_per_op",
        per_op(hot.buffer_allocs, plain.ops),
    );
    m.insert(
        "net.hot_locks_per_op",
        per_op(hot.lock_acquisitions, plain.ops),
    );
    m.insert(
        "rpc.retransmits_per_kop",
        per_kop(obs1.retransmits - obs0.retransmits),
    );
    m.insert(
        "rpc.timeouts_per_kop",
        per_kop(obs1.trans_timeouts - obs0.trans_timeouts),
    );
    m.insert(
        "rpc.demux_overflows_per_kop",
        per_kop(obs1.demux_overflows - obs0.demux_overflows),
    );

    let micro = layers::Micro::measure(&tap, w.fboxed(), w.validated());
    m.insert("fbox.egress_ns", micro.egress_ns);
    m.insert("rpc.encode_ns", micro.encode_ns);
    m.insert("rpc.decode_ns", micro.decode_ns);
    m.insert("net.buf_cycle_ns", micro.buf_cycle_ns);
    m.insert("server.validate_ns", micro.validate_ns);
    m.insert("core.mint_ns.oneway", micro.mint_ns[0]);
    m.insert("core.validate_ns.oneway", micro.scheme_validate_ns[0]);
    m.insert("core.mint_ns.commutative", micro.mint_ns[1]);
    m.insert("core.validate_ns.commutative", micro.scheme_validate_ns[1]);

    // Plain sample medians (a short cluster_zipf half may hold fewer
    // than the 20 ops a resolved median needs). Take the per-message
    // layer costs along one op's frames off the traced median, and
    // what is left is the unattributed park/wake share.
    let median_us = |w: &Window| {
        w.lat_ns
            .get(w.lat_ns.len() / 2)
            .map_or(0.0, |&ns| ns as f64 / 1e3)
    };
    let traced_p50_us = median_us(&traced);
    m.insert("trace.untraced_p50_us", median_us(&plain));
    m.insert(
        "trace.untraced_tail_us",
        stats::tail(&plain.lat_ns).map_or(0.0, |(_, ns)| ns as f64 / 1e3),
    );
    let per_frame_ns = micro.encode_ns + micro.decode_ns + micro.buf_cycle_ns + micro.egress_ns;
    let attributed_us =
        (frames_per_op * per_frame_ns + frames_per_op / 2.0 * micro.validate_ns) / 1e3;
    m.insert("rpc.handoff_us", traced_p50_us - attributed_us);
    m.insert("trace.traced_p50_us", traced_p50_us);
    m.insert("trace.untraced_ops_per_s", plain.ops_per_s());

    let mean = |name: &str| spans.get(name).map_or(0.0, NameStats::mean_us);
    m.insert("dirsvr.resolve_us", mean("dirsvr.resolve"));
    m.insert("flatfs.read_us", mean("flatfs.read"));
    m.insert("flatfs.write_us", mean("flatfs.write"));
    m.insert("flatfs.scratch_us", mean("flatfs.scratch"));
    m.insert("bank.paid_create_us", mean("bank.paid_create"));
    m.insert("cluster.migrate_ms", stats::median(migrate_ms));
    m.insert(
        "trace.overhead_frac",
        1.0 - traced.ops_per_s() / plain.ops_per_s(),
    );
    let view = TraceView {
        tap: &tap,
        spans: &spans,
    };
    for (name, value) in w.layer_metrics(&view, gens) {
        assert!(m.contains_key(name), "undeclared per-layer metric {name}");
        m.insert(name, value);
    }

    lines.push(format!(
        "untraced half: {} ops, {:.1} ops/s; traced half: {} ops, {:.1} ops/s",
        plain.ops,
        plain.ops_per_s(),
        traced.ops,
        traced.ops_per_s()
    ));
    lines.push("counter diffs over the untraced window:".into());
    lines.push(format!("  net.{wire:?}"));
    lines.push(format!("  net.{hot:?}"));
    lines.push("obs counter diffs over the traced window:".into());
    for (name, v) in obs_diff(&obs0, &obs1) {
        lines.push(format!("  obs.{name} = {v}"));
    }
    lines.push(format!(
        "tap over the traced window: {} frames, {} bytes, {} flows",
        tap.frames(),
        tap.bytes(),
        tap.flows.len()
    ));
    lines.push("span self time over the traced window (name: count, mean us, self us/op):".into());
    for (name, s) in &spans {
        lines.push(format!(
            "  {name}: {} spans, mean {:.3} us, self {:.3} us/op",
            s.count,
            s.mean_us(),
            s.self_ns as f64 / 1e3 / traced.ops.max(1) as f64
        ));
    }
    let units: BTreeMap<&str, &str> = PER_LAYER.iter().copied().collect();
    for (name, _) in PER_LAYER {
        lines.push(format!("{name} = {} {}", m[name], units[name]));
    }
    let (correct, attempted, failed) = finish_checks(
        plain.ops + traced.ops,
        plain.failed + traced.failed,
        &[plain.errors, traced.errors.clone()].concat(),
        &audit,
        &mut lines,
    );
    Report {
        correct,
        attempted,
        failed,
        metrics: PER_LAYER.iter().map(|(n, u)| (*n, m[n], *u)).collect(),
        lines,
        spans: traced.spans,
    }
}

/// The highest resolved percentile of [`stats::TAIL_LADDER`], named.
fn describe_tail(sorted: &[u64]) -> String {
    match stats::tail(sorted) {
        Some((p, ns)) => format!("p{p} = {:.3} us", ns as f64 / 1e3),
        None => "unresolved".into(),
    }
}

fn obs_diff(a: &MetricsSnapshot, b: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("trans_started", b.trans_started - a.trans_started),
        ("trans_completed", b.trans_completed - a.trans_completed),
        ("trans_timeouts", b.trans_timeouts - a.trans_timeouts),
        ("retransmits", b.retransmits - a.retransmits),
        (
            "reply_ports_fresh",
            b.reply_ports_fresh - a.reply_ports_fresh,
        ),
        (
            "reply_ports_recycled",
            b.reply_ports_recycled - a.reply_ports_recycled,
        ),
        (
            "reply_ports_leased",
            b.reply_ports_leased - a.reply_ports_leased,
        ),
        ("demux_overflows", b.demux_overflows - a.demux_overflows),
        ("failovers", b.failovers - a.failovers),
        ("server_requests", b.server_requests - a.server_requests),
        (
            "handlers_completed",
            b.handlers_completed - a.handlers_completed,
        ),
        ("latency_count", b.latency_count - a.latency_count),
    ]
}
