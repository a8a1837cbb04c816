//! Hot path: what the zero-copy codec costs, per operation.
//!
//! The paper's premise is that sparse-capability checking is cheap
//! enough to run on every message — the F-box is imagined as hardware
//! precisely because `F` sits on the per-packet path. With transport
//! latency virtualised (PR 4), per-message CPU and allocator traffic
//! are the dominant *real* cost of the metered-create hammer, so this
//! bench meters exactly those: for the steady-state workload it
//! reports **ns/op**, **buffer allocs/op** and **one-way-function
//! evals/op**, for four shapes:
//!
//! * **single** — the §3.6 metered create (nested bank payment), every
//!   machine behind an F-box, one frame per request;
//! * **batched** — the same creates shipped 16 to a `BATCH_REQUEST`
//!   frame, server-side fan-out, embedded bank client pipelined;
//! * **cluster** — the creates spread over a 3-replica sharded
//!   placement group bootstrapped from a directory (open interfaces;
//!   the leg isolates pooling, not crypto);
//! * **contended** — independent fleets sharing one `BufPool`, at one
//!   thread and at two: per-op hot-lock acquisitions and the 1→2-core
//!   throughput scaling (the lock-free demux and thread-local pool
//!   caches should leave nothing for a second core to wait on).
//!
//! Every shape runs the one codec there is: pooled frame buffers,
//! recycled reply ports and memoized F-boxes. `tests/scale.rs` gates
//! the single shape on absolute figures (at most 0.5 allocs/op, 0.5
//! oneway evals/op and 9 frames/op, zero hot locks, zero
//! retransmissions and timeouts).
//!
//! Besides stdout, the headline numbers go to `BENCH_hotpath.json`
//! (override with `BENCH_HOTPATH_OUT`) so CI can archive the perf
//! trajectory and fail on allocation regressions.

use amoeba_bank::{BankClient, BankServer, Currency, CurrencyId};
use amoeba_bench::{
    contended_hot_path, hot_path_round, measure_hot_path, HotPathMeasure, METERED_HOP_LATENCY,
};
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::Capability;
use amoeba_cluster::{ElasticClient, ElasticCluster};
use amoeba_dirsvr::{DirClient, DirServer};
use amoeba_flatfs::{ops, FlatFsServer, QuotaPolicy};
use amoeba_net::{BufPool, Network};
use amoeba_rpc::{Client, DemuxPolicy, PipelineConfig, RpcConfig};
use amoeba_server::proto::null_cap;
use amoeba_server::{wire, ServiceClient, ServiceRunner};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

const WARMUP_OPS: usize = 8;
const MEASURED_OPS: usize = 32;
const BATCH: usize = 16;
const CLUSTER_REPLICAS: usize = 3;

fn patient() -> RpcConfig {
    RpcConfig {
        timeout: Duration::from_secs(60),
        attempts: 2,
    }
}

/// The batched shape: metered creates shipped [`BATCH`] to a frame
/// (then batch-destroyed), embedded bank pipelined, every pool shared
/// so allocation counts cover the whole fleet.
fn batched_leg() -> HotPathMeasure {
    let net = Network::new_virtual();
    let pool = BufPool::new();

    let (bank_server, treasury_rx) =
        BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
    // The bank serves metered traffic during measurement, so it shares
    // the leg's pool: its allocations count too.
    let bank_runner = ServiceRunner::spawn_workers_with_pool(
        net.attach_open(),
        amoeba_net::Port::new(0xBA2C).expect("port"),
        bank_server,
        1,
        pool.clone(),
    );
    let bank_port = bank_runner.put_port();
    let treasury = treasury_rx.recv().expect("treasury");
    let bank = BankClient::with_service(
        ServiceClient::with_client(
            Client::with_config(net.attach_open(), patient()).with_pool(pool.clone()),
        ),
        bank_port,
    );
    let server_account = bank.open_account().expect("server account");
    let wallet = bank.open_account().expect("wallet");
    bank.mint(&treasury, &wallet, CurrencyId(0), 1_000_000)
        .expect("mint");

    // The embedded bank client pipelines so the pool workers' payment
    // transfers coalesce (the PR 2 shape), on the shared pool.
    let quota_bank = BankClient::with_service(
        ServiceClient::with_client(
            Client::with_config(net.attach_open(), patient())
                .with_demux_policy(DemuxPolicy {
                    contended_tick: Duration::from_micros(250),
                    idle_tick: DemuxPolicy::DEFAULT_IDLE_TICK,
                })
                .with_pipeline(PipelineConfig {
                    flush_window: Duration::from_millis(10),
                    max_entries: BATCH,
                })
                .with_pool(pool.clone()),
        ),
        bank_port,
    );
    let runner = ServiceRunner::spawn_workers_with_pool(
        net.attach_open(),
        amoeba_net::Port::new(0xB47C).expect("port"),
        FlatFsServer::with_quota(
            SchemeKind::OneWay,
            QuotaPolicy {
                bank: quota_bank,
                server_account,
                currency: CurrencyId(0),
                price_per_kib: 1,
            },
        ),
        BATCH,
        pool.clone(),
    );
    let port = runner.put_port();
    let svc = ServiceClient::with_client(
        Client::with_config(net.attach_open(), patient()).with_pool(pool.clone()),
    );
    net.set_latency(METERED_HOP_LATENCY);

    let one_round = |svc: &ServiceClient| {
        let create = wire::Writer::new().cap(&wallet).u64(1).finish();
        let creates = (0..BATCH)
            .map(|_| (null_cap(), ops::CREATE, create.clone()))
            .collect();
        let caps: Vec<Capability> = svc
            .call_batch(port, creates)
            .expect("batched create")
            .into_iter()
            .map(|r| wire::Reader::new(&r.expect("entry")).cap().expect("cap"))
            .collect();
        let destroys = caps
            .iter()
            .map(|cap| (*cap, ops::DESTROY, bytes::Bytes::new()))
            .collect();
        for r in svc.call_batch(port, destroys).expect("batched destroy") {
            r.expect("destroy entry");
        }
    };

    let warm_rounds = WARMUP_OPS.div_ceil(BATCH).max(1);
    let rounds = MEASURED_OPS.div_ceil(BATCH).max(1);
    for _ in 0..warm_rounds {
        one_round(&svc);
    }
    let measure = measure_hot_path(&net, &pool, rounds * BATCH, || {
        for _ in 0..rounds {
            one_round(&svc);
        }
    });
    net.set_latency(Duration::ZERO);
    runner.stop();
    bank_runner.stop();
    measure
}

/// The cluster shape: creates spread over a 3-replica sharded group,
/// every replica metering through one shared bank, the client
/// bootstrapped from a directory (§3.4). Open interfaces — the leg
/// isolates what pooling buys under placement routing.
fn cluster_leg() -> HotPathMeasure {
    let net = Network::new_virtual();
    let pool = BufPool::new();

    let (bank_server, treasury_rx) =
        BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
    // On the leg's pool, like every other party (see batched_leg).
    let bank_runner = ServiceRunner::spawn_workers_with_pool(
        net.attach_open(),
        amoeba_net::Port::new(0xBA2C).expect("port"),
        bank_server,
        1,
        pool.clone(),
    );
    let bank_port = bank_runner.put_port();
    let treasury = treasury_rx.recv().expect("treasury");
    let svc = || {
        ServiceClient::with_client(
            Client::with_config(net.attach_open(), patient()).with_pool(pool.clone()),
        )
    };
    let bank = BankClient::with_service(svc(), bank_port);
    let server_account = bank.open_account().expect("server account");
    let wallet = bank.open_account().expect("wallet");
    bank.mint(&treasury, &wallet, CurrencyId(0), 1_000_000)
        .expect("mint");

    let cluster =
        ElasticCluster::spawn_open_with_pool(&net, CLUSTER_REPLICAS, 2, pool.clone(), |_| {
            FlatFsServer::with_quota(
                SchemeKind::OneWay,
                QuotaPolicy {
                    bank: BankClient::with_service(svc(), bank_port),
                    server_account,
                    currency: CurrencyId(0),
                    price_per_kib: 1,
                },
            )
        });
    // The directory only serves the bootstrap, outside the measured
    // phase.
    let dir_runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
    let dirs = DirClient::open(&net, dir_runner.put_port());
    let root = dirs.create_dir().expect("root directory");
    cluster.publish(&dirs, &root, "flatfs").expect("publish");
    let client =
        ElasticClient::with_service(svc(), dirs, &root, "flatfs").expect("bootstrap shard map");
    net.set_latency(METERED_HOP_LATENCY);

    let one_op = |client: &ElasticClient| {
        let params = wire::Writer::new().cap(&wallet).u64(1).finish();
        let body = client
            .call_create(ops::CREATE, params)
            .expect("sharded create");
        let cap = wire::Reader::new(&body).cap().expect("cap");
        client
            .call(&cap, ops::DESTROY, bytes::Bytes::new())
            .expect("sharded destroy");
    };
    for _ in 0..WARMUP_OPS {
        one_op(&client);
    }
    let measure = measure_hot_path(&net, &pool, MEASURED_OPS, || {
        for _ in 0..MEASURED_OPS {
            one_op(&client);
        }
    });
    net.set_latency(Duration::ZERO);
    cluster.stop();
    dir_runner.stop();
    bank_runner.stop();
    measure
}

fn leg_json(name: &str, leg: &HotPathMeasure) -> String {
    format!(
        "  \"{name}\": {{\n    \"ops\": {},\n    \"ns_per_op\": {:.0},\n    \
         \"allocs_per_op\": {:.3},\n    \"oneway_per_op\": {:.3},\n    \
         \"locks_per_op\": {:.3},\n    \"frames_per_op\": {:.3}\n  }}",
        leg.ops,
        leg.ns_per_op(),
        leg.allocs_per_op(),
        leg.oneway_per_op(),
        leg.locks_per_op(),
        leg.frames as f64 / leg.ops as f64,
    )
}

/// The contended-leg JSON block: absolute throughput at one and two
/// fleets, their ratio (the 1→2-core scaling CI gates at ≥1.5× on a
/// 2-core runner), and locks/op under contention.
fn contended_json(one: &HotPathMeasure, two: &HotPathMeasure) -> String {
    format!(
        "  \"contended\": {{\n    \"threads_1_ops_per_sec\": {:.1},\n    \
         \"threads_2_ops_per_sec\": {:.1},\n    \"scaling\": {:.3},\n    \
         \"locks_per_op\": {:.3},\n    \"allocs_per_op\": {:.3}\n  }}",
        one.ops_per_sec(),
        two.ops_per_sec(),
        two.ops_per_sec() / one.ops_per_sec(),
        two.locks_per_op(),
        two.allocs_per_op(),
    )
}

fn print_leg(name: &str, leg: &HotPathMeasure) {
    println!(
        "hot-path/{name}: {:.0} ns/op, {:.2} allocs/op, {:.2} oneway/op, {:.2} locks/op",
        leg.ns_per_op(),
        leg.allocs_per_op(),
        leg.oneway_per_op(),
        leg.locks_per_op(),
    );
}

fn report_headline_numbers() {
    let single = hot_path_round(&Network::new_virtual(), WARMUP_OPS, MEASURED_OPS);
    print_leg("single", &single);
    let batched = batched_leg();
    print_leg("batched", &batched);
    let cluster = cluster_leg();
    print_leg("cluster", &cluster);

    // The contended leg: identical independent fleets against one
    // shared BufPool, at one thread and at two. On a machine with ≥2
    // cores the second fleet should run on its own core, so the ratio
    // measures how much shared-structure locking steals.
    let contended_1 = contended_hot_path(1, WARMUP_OPS, MEASURED_OPS);
    let contended_2 = contended_hot_path(2, WARMUP_OPS, MEASURED_OPS);
    println!(
        "hot-path/contended: 1 fleet {:.0} ops/s, 2 fleets {:.0} ops/s \
         (scaling {:.2}x, {:.2} locks/op contended)",
        contended_1.ops_per_sec(),
        contended_2.ops_per_sec(),
        contended_2.ops_per_sec() / contended_1.ops_per_sec(),
        contended_2.locks_per_op(),
    );

    let json = format!(
        "{{\n  \"workload\": \"metered-create hot path\",\n  \
         \"hop_latency_ms\": {},\n{},\n{},\n{},\n{}\n}}\n",
        METERED_HOP_LATENCY.as_millis(),
        leg_json("single", &single),
        leg_json("batched", &batched),
        leg_json("cluster", &cluster),
        contended_json(&contended_1, &contended_2),
    );
    let out = std::env::var("BENCH_HOTPATH_OUT").unwrap_or_else(|_| "BENCH_hotpath.json".into());
    match std::fs::write(&out, &json) {
        Ok(()) => println!("hot-path: wrote {out}"),
        Err(e) => println!("hot-path: could not write {out}: {e}"),
    }
}

fn bench_rounds(c: &mut Criterion) {
    let mut g = amoeba_bench::net_group(c, "hot-path");
    g.sample_size(10);
    g.bench_function("metered-create/fast", |b| {
        b.iter(|| hot_path_round(&Network::new_virtual(), 0, MEASURED_OPS))
    });
    g.finish();
}

fn bench_hot_path(c: &mut Criterion) {
    bench_rounds(c);
    report_headline_numbers();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
