//! Cluster placement: horizontal scaling of the metered-create
//! workload and the cost of transparent failover.
//!
//! Three experiments, all over the §3.6 metered flat file service
//! (every CREATE parks its dispatch worker on a nested bank
//! round-trip) at 2 ms per network hop:
//!
//! * **placement / metered-create / {1,3}** — the same 24-create
//!   hammer against a 1-replica and a 3-replica sharded cluster, from
//!   clients bootstrapped off a directory once per rig (outside the
//!   timed loop). The workload is latency-bound, so throughput scales
//!   with machines — the acceptance bar (checked in
//!   `tests/cluster.rs`) is ≥ 2× for 3 replicas.
//! * **failover latency** — with 3 replicas serving one port, halt one
//!   and time the first call that trips over it: the cost is one
//!   attempt timeout plus a retry on a survivor, and every later call
//!   is full speed again. Measured directly, printed, not asserted.
//! * **discovery overhead** — LOCATE broadcast traffic (frames and
//!   wire bytes, from the `broadcast_bytes_sent` counter) as a share
//!   of total traffic for the replicated hammer.
//!
//! Besides stdout, the run writes the headline numbers to
//! `BENCH_cluster.json` (override the path with `BENCH_CLUSTER_OUT`)
//! so CI can archive the perf trajectory. The JSON is written in both
//! smoke and measure modes — the numbers come from direct wall-clock
//! measurement, not the criterion harness.

use amoeba_bank::{BankClient, BankServer, Currency, CurrencyId};
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::Capability;
use amoeba_cluster::{ClusterClient, ElasticClient, ElasticCluster, ServiceCluster};
use amoeba_dirsvr::{DirClient, DirServer};
use amoeba_flatfs::{ops, FlatFsServer, QuotaPolicy};
use amoeba_net::Network;
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::{wire, RequestCtx, Service, ServiceRunner};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 12;
const CALLS_PER_CLIENT: usize = 2;
const HOP_LATENCY: Duration = Duration::from_millis(2);

/// A sharded metered flat file cluster published under a directory,
/// its bank, one funded wallet, and the hammer's clients — bootstrapped
/// from the directory once, shared by every timed round.
struct Rig {
    net: Network,
    _bank_runner: ServiceRunner,
    _dir_runner: ServiceRunner,
    cluster: Option<ElasticCluster>,
    clients: Vec<Arc<ElasticClient>>,
    wallet: Capability,
}

fn rig(replicas: usize) -> Rig {
    let net = Network::new();
    let (bank_server, treasury_rx) =
        BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
    let bank_runner = ServiceRunner::spawn_open(&net, bank_server);
    let bank_port = bank_runner.put_port();
    let treasury = treasury_rx.recv().unwrap();
    let bank = BankClient::open(&net, bank_port);
    let server_account = bank.open_account().unwrap();
    let wallet = bank.open_account().unwrap();
    bank.mint(&treasury, &wallet, CurrencyId(0), 10_000_000)
        .unwrap();
    let cluster = ElasticCluster::spawn_open(&net, replicas, 1, |_| {
        FlatFsServer::with_quota(
            SchemeKind::OneWay,
            QuotaPolicy {
                bank: BankClient::open(&net, bank_port),
                server_account,
                currency: CurrencyId(0),
                price_per_kib: 1,
            },
        )
    });
    let dir_runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
    let dirs = DirClient::open(&net, dir_runner.put_port());
    let root = dirs.create_dir().unwrap();
    cluster.publish(&dirs, &root, "flatfs").unwrap();
    let clients = (0..CLIENTS)
        .map(|_| {
            let dirs = DirClient::open(&net, dir_runner.put_port());
            Arc::new(ElasticClient::from_directory(&net, dirs, &root, "flatfs").unwrap())
        })
        .collect();
    Rig {
        net,
        _bank_runner: bank_runner,
        _dir_runner: dir_runner,
        cluster: Some(cluster),
        clients,
        wallet,
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.net.set_latency(Duration::ZERO);
        if let Some(c) = self.cluster.take() {
            c.stop();
        }
    }
}

/// CLIENTS threads each perform CALLS_PER_CLIENT pre-paid creates
/// through their own sharded client.
fn hammer(rig: &Rig) {
    let handles: Vec<_> = rig
        .clients
        .iter()
        .map(|client| {
            let client = Arc::clone(client);
            let wallet = rig.wallet;
            std::thread::spawn(move || {
                for _ in 0..CALLS_PER_CLIENT {
                    let params = wire::Writer::new().cap(&wallet).u64(1).finish();
                    let body = client.call_create(ops::CREATE, params).unwrap();
                    wire::Reader::new(&body).cap().unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

fn bench_placement(c: &mut Criterion) {
    let mut g = amoeba_bench::net_group(c, "cluster-placement");
    for replicas in [1usize, 3] {
        g.bench_with_input(
            BenchmarkId::new("metered-create", replicas),
            &replicas,
            |b, &replicas| {
                let rig = rig(replicas);
                rig.net.set_latency(HOP_LATENCY);
                b.iter(|| hammer(&rig));
            },
        );
    }
    g.finish();
}

/// A stateless echo service for the failover measurement.
struct Echo;

impl Service for Echo {
    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        if req.command == 1 {
            Reply::ok(req.params.clone())
        } else {
            Reply::status(Status::BadCommand)
        }
    }
}

/// Returns `(healthy_call, failover_call, recovered_call)` latencies:
/// a warm call with 3 replicas, the first call after one replica is
/// halted (pays the detection timeout + retry), and the next call
/// (back to full speed on the surviving set).
fn measure_failover(net: &Network) -> (Duration, Duration, Duration) {
    let mut cluster = ServiceCluster::spawn_open(net, 3, 1, |_| Echo);
    let port = cluster.put_port();
    let client = ClusterClient::broadcast(net);
    // Resolve until all three replicas answered (a loaded host can
    // miss one gather window).
    while client.replicas(port).len() < 3 {
        client.invalidate(port);
        std::thread::sleep(Duration::from_millis(5));
    }
    net.set_latency(HOP_LATENCY);

    let call = |client: &ClusterClient| {
        let t0 = Instant::now();
        client
            .call_anonymous(port, 1, Bytes::from_static(b"ping"))
            .unwrap();
        t0.elapsed()
    };
    let healthy = call(&client);
    cluster.halt_replica(0);
    // Round-robin: within three calls one trips over the halted
    // replica and pays the failover; keep the worst as the headline.
    let failover = (0..3).map(|_| call(&client)).max().unwrap();
    let recovered = call(&client);
    net.set_latency(Duration::ZERO);
    cluster.stop();
    (healthy, failover, recovered)
}

/// The frames/bytes a replicated hammer puts on the wire, split into
/// discovery (broadcast) and request/reply traffic.
fn measure_discovery(net: &Network) -> (u64, u64, u64, u64) {
    let cluster = ServiceCluster::spawn_open(net, 3, 1, |_| Echo);
    let client = ClusterClient::broadcast(net);
    let before = net.stats().snapshot();
    for i in 0..24u8 {
        client
            .call_anonymous(cluster.put_port(), 1, Bytes::from(vec![i]))
            .unwrap();
    }
    let d = net.stats().snapshot() - before;
    cluster.stop();
    (
        d.broadcasts_sent,
        d.broadcast_bytes_sent,
        d.packets_sent,
        d.bytes_sent,
    )
}

/// Direct wall-clock measurement of the placement speedup (the number
/// the criterion groups above sample, condensed to one comparison),
/// plus the failover and discovery figures; printed and written to
/// `BENCH_cluster.json`.
fn report_headline_numbers() {
    let timed = |replicas: usize| {
        let rig = rig(replicas);
        rig.net.set_latency(HOP_LATENCY);
        let t0 = Instant::now();
        hammer(&rig);
        t0.elapsed()
    };
    let single = timed(1);
    let triple = timed(3);
    let speedup = single.as_secs_f64() / triple.as_secs_f64();

    let net = Network::new();
    let (healthy, failover, recovered) = measure_failover(&net);

    let net = Network::new();
    let (locate_frames, locate_bytes, frames, bytes) = measure_discovery(&net);

    let total = (CLIENTS * CALLS_PER_CLIENT) as f64;
    println!(
        "cluster-placement/metered-create/{total}: 1 replica {single:?}, \
         3 replicas {triple:?} ({speedup:.2}x)",
    );
    println!(
        "cluster-placement/failover: healthy {healthy:?}, \
         first-call-after-halt {failover:?}, recovered {recovered:?}",
    );
    println!(
        "cluster-placement/discovery: {locate_frames} broadcast frames / \
         {locate_bytes} B out of {frames} frames / {bytes} B total",
    );

    let json = format!(
        "{{\n  \"workload\": \"metered-create\",\n  \"creates\": {},\n  \
         \"hop_latency_ms\": {},\n  \"single_replica_ms\": {:.3},\n  \
         \"three_replica_ms\": {:.3},\n  \"speedup\": {:.3},\n  \
         \"failover_healthy_ms\": {:.3},\n  \"failover_first_call_ms\": {:.3},\n  \
         \"failover_recovered_ms\": {:.3},\n  \"discovery_frames\": {},\n  \
         \"discovery_bytes\": {},\n  \"total_frames\": {},\n  \"total_bytes\": {}\n}}\n",
        CLIENTS * CALLS_PER_CLIENT,
        HOP_LATENCY.as_millis(),
        single.as_secs_f64() * 1e3,
        triple.as_secs_f64() * 1e3,
        speedup,
        healthy.as_secs_f64() * 1e3,
        failover.as_secs_f64() * 1e3,
        recovered.as_secs_f64() * 1e3,
        locate_frames,
        locate_bytes,
        frames,
        bytes,
    );
    let out = std::env::var("BENCH_CLUSTER_OUT").unwrap_or_else(|_| "BENCH_cluster.json".into());
    match std::fs::write(&out, &json) {
        Ok(()) => println!("cluster-placement: wrote {out}"),
        Err(e) => println!("cluster-placement: could not write {out}: {e}"),
    }
}

fn bench_cluster(c: &mut Criterion) {
    bench_placement(c);
    report_headline_numbers();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
