//! `cluster_zipf`: skewed tenant traffic on a 4-replica elastic cluster
//! of in-memory flat file servers (1 worker each), after a live
//! rebalance. The tenants' shards start adversarially packed onto one
//! replica, as in the repository's `rebalance` bench; set-up warms the
//! cluster by op count, lets the rebalancer live-migrate, and
//! republishes the map. Each generator keeps the long-lived
//! `ElasticClient` it built before the migration, as real clients do,
//! so the timed window is the post-migration steady state: stale maps,
//! forwarding and the route cache.

use crate::gen::{body, proportional_counts, zipf_weights, Deck, Interleave, Rng};
use crate::trace::Tracer;
use crate::{Audit, TraceView, Workload, THREADS};
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::Capability;
use amoeba_cluster::{ElasticClient, ElasticCluster, Rebalancer};
use amoeba_dirsvr::{DirClient, DirServer};
use amoeba_flatfs::{ops, FlatFsServer};
use amoeba_net::{Network, Port};
use amoeba_rpc::Client;
use amoeba_server::{placement_range, wire, ServiceClient, ServiceRunner, DEFAULT_SHARDS};
use bytes::Bytes;
use std::time::Instant;

/// Replicas in the elastic group.
pub const REPLICAS: usize = 4;
/// Tenants, with Zipf(1.0) popularity by rank.
pub const TENANTS: usize = 16;
/// Objects per tenant, split evenly between the generators.
pub const OBJECTS_PER_TENANT: usize = 8;
/// Bytes per object and per read/write.
pub const OBJECT_BYTES: usize = 64;
/// Length of the tenant interleave's cycle.
pub const TENANT_CYCLE: usize = 200;
/// Cards per read/write deck round: 80% READ, 20% WRITE.
pub const MIX: [usize; 2] = [4, 1];
/// Reads each generator makes before the rebalance.
pub const WARMUP_OPS: usize = 1000;
/// The directory name the shard map is published under.
pub const SERVICE: &str = "tenants";

/// Tenant rank → home shard: ranks 0–3 (61.6% of the traffic) land on
/// shards 0, 4, 8 and 12, which the initial placement all puts on
/// replica 0.
pub const RANK_TO_SHARD: [usize; TENANTS] = [0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15];

/// One op on (tenant, object slot within the thread's share).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the whole object.
    Read(usize, usize),
    /// Overwrite the whole object.
    Write(usize, usize),
}

/// The op stream of one generator.
#[derive(Debug, Clone)]
pub struct Ops {
    rng: Rng,
    tenants: Interleave,
    mix: Deck,
}

impl Ops {
    /// Thread `thread`'s stream for `seed`. Tenants follow Zipf(1.0)
    /// popularity as an evenly spread interleave (see
    /// [`Interleave`]), so a short run sees the same tenant mix as a
    /// long one; the seed picks its starting point, the object slots
    /// and the read/write order.
    pub fn new(seed: u64, thread: usize) -> Ops {
        let mut rng = Rng::new(seed, 0xC1A5 + thread as u64);
        let weights = proportional_counts(&zipf_weights(TENANTS), TENANT_CYCLE);
        Ops {
            tenants: Interleave::new(&weights, &mut rng),
            rng,
            mix: Deck::new(&MIX),
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        let tenant = self.tenants.next_kind();
        let slot = self.rng.below(OBJECTS_PER_TENANT / THREADS);
        match self.mix.deal(&mut self.rng) {
            0 => Op::Read(tenant, slot),
            _ => Op::Write(tenant, slot),
        }
    }
}

/// Object index of (thread, tenant, slot).
fn object(thread: usize, tenant: usize, slot: usize) -> usize {
    tenant * OBJECTS_PER_TENANT + slot * THREADS + thread
}

fn shard_of(cap: &Capability) -> usize {
    placement_range(cap.object, DEFAULT_SHARDS, DEFAULT_SHARDS)
}

/// The fleet.
pub struct ClusterZipf {
    net: Network,
    dir_runner: ServiceRunner,
    dir_port: Port,
    cluster: ElasticCluster,
    dirs: DirClient,
    dir: Capability,
    clients: Vec<ElasticClient>,
    /// Machines of each client's own directory client.
    client_dir_machines: Vec<u32>,
    objects: Vec<Capability>,
    migrate_ms: f64,
    /// The rebalancer's moves, as (shard, new owner).
    moves: Vec<(usize, usize)>,
    seed: u64,
}

/// One generator: op stream and the versions it acknowledged.
pub struct Gen {
    ops: Ops,
    thread: usize,
    versions: Vec<u64>,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl ClusterZipf {
    fn run(&self, gen: &mut Gen, op: Op, tr: &mut Tracer) -> Result<(), String> {
        let client = &self.clients[gen.thread];
        match op {
            Op::Read(tenant, slot) => tr.span("op.read", |tr| {
                let i = object(gen.thread, tenant, slot);
                let params = wire::Writer::new().u64(0).u32(OBJECT_BYTES as u32).finish();
                let got = tr
                    .span("cluster.read", |_| {
                        client.call(&self.objects[i], ops::READ, params)
                    })
                    .map_err(|e| err(&format!("read object {i}"), e))?;
                if got[..] != body(self.seed, i as u64, gen.versions[i], OBJECT_BYTES)[..] {
                    return Err(format!("object {i} read other bytes"));
                }
                Ok(())
            }),
            Op::Write(tenant, slot) => tr.span("op.write", |tr| {
                let i = object(gen.thread, tenant, slot);
                let data = body(self.seed, i as u64, gen.versions[i] + 1, OBJECT_BYTES);
                let params = wire::Writer::new().u64(0).bytes(&data).finish();
                tr.span("cluster.write", |_| {
                    client.call(&self.objects[i], ops::WRITE, params)
                })
                .map_err(|e| err(&format!("write object {i}"), e))?;
                gen.versions[i] += 1;
                Ok(())
            }),
        }
    }
}

impl Workload for ClusterZipf {
    type Gen = Gen;

    fn setup(seed: u64) -> Result<ClusterZipf, String> {
        let net = Network::new();
        let dir_runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
        let dir_port = dir_runner.put_port();
        let dirs = DirClient::open(&net, dir_port);
        let dir = dirs.create_dir().map_err(|e| err("directory", e))?;
        let cluster = ElasticCluster::spawn_open(&net, REPLICAS, 1, |_| {
            FlatFsServer::new(SchemeKind::Commutative)
        });
        cluster
            .publish(&dirs, &dir, SERVICE)
            .map_err(|e| err("publish", e))?;

        // Place every tenant's objects on its home shard: each replica
        // round-robins creates over its own four shards, so a few
        // creates at the owner's port land one where it is wanted.
        let svc = ServiceClient::open(&net);
        let ports = cluster.shard_ports();
        let mut objects = Vec::with_capacity(TENANTS * OBJECTS_PER_TENANT);
        for (rank, &shard) in RANK_TO_SHARD.iter().enumerate() {
            for _ in 0..OBJECTS_PER_TENANT {
                let cap = loop {
                    let reply = svc
                        .call_anonymous(ports[shard], ops::CREATE, Bytes::new())
                        .map_err(|e| err("create", e))?;
                    let cap = wire::Reader::new(&reply)
                        .cap()
                        .ok_or_else(|| "create reply without capability".to_string())?;
                    // Misplaced objects stay: destroying one would free
                    // the slot the next create prefers.
                    if shard_of(&cap) == shard {
                        break cap;
                    }
                };
                let i = objects.len();
                let data = body(seed, i as u64, 0, OBJECT_BYTES);
                svc.call_at(
                    ports[shard],
                    &cap,
                    ops::WRITE,
                    wire::Writer::new().u64(0).bytes(&data).finish(),
                )
                .map_err(|e| err(&format!("populate tenant {rank}"), e))?;
                objects.push(cap);
            }
        }

        let mut clients = Vec::with_capacity(THREADS);
        let mut client_dir_machines = Vec::with_capacity(THREADS);
        for _ in 0..THREADS {
            let own_dirs = DirClient::open(&net, dir_port);
            client_dir_machines.push(own_dirs.service().rpc().endpoint().id().as_u32());
            clients.push(
                ElasticClient::from_directory(&net, own_dirs, &dir, SERVICE)
                    .map_err(|e| err("client bootstrap", e))?,
            );
        }
        let mut fleet = ClusterZipf {
            net,
            dir_runner,
            dir_port,
            cluster,
            dirs,
            dir,
            clients,
            client_dir_machines,
            objects,
            migrate_ms: 0.0,
            moves: Vec::new(),
            seed,
        };

        // Warm pass by op count (reads only, so the model stays at
        // version 0); it leaves the skewed per-shard load behind.
        let warm: Result<(), String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let fleet = &fleet;
                    s.spawn(move || {
                        let mut g = fleet.gen(t);
                        g.ops = Ops::new(!fleet.seed, t);
                        let mut tr = Tracer::off();
                        (0..WARMUP_OPS).try_for_each(|_| {
                            let op = match g.ops.next_op() {
                                Op::Read(tenant, slot) | Op::Write(tenant, slot) => {
                                    Op::Read(tenant, slot)
                                }
                            };
                            fleet.run(&mut g, op, &mut tr)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("warm-up thread panicked"))
        });
        warm?;

        let rpc = Client::new(fleet.net.attach_open());
        let t0 = Instant::now();
        let moves = Rebalancer::default()
            .rebalance(&fleet.cluster, &rpc)
            .map_err(|e| err("rebalance", format!("{e:?}")))?;
        fleet.migrate_ms = t0.elapsed().as_secs_f64() * 1e3;
        for &(shard, _) in &moves {
            fleet
                .cluster
                .republish(&fleet.dirs, &fleet.dir, SERVICE, shard)
                .map_err(|e| err("republish", e))?;
        }
        fleet.moves = moves;
        Ok(fleet)
    }

    fn net(&self) -> &Network {
        &self.net
    }

    fn gen(&self, thread: usize) -> Gen {
        Gen {
            ops: Ops::new(self.seed, thread),
            thread,
            versions: vec![0; self.objects.len()],
        }
    }

    fn step(&self, gen: &mut Gen, tr: &mut Tracer) -> Result<(), String> {
        let op = gen.ops.next_op();
        self.run(gen, op, tr)
    }

    fn audit(&self, gens: &[Gen]) -> Audit {
        let mut audit = Audit::default();
        let reader = match ElasticClient::from_directory(
            &self.net,
            DirClient::open(&self.net, self.dir_port),
            &self.dir,
            SERVICE,
        ) {
            Ok(c) => c,
            Err(e) => {
                audit.check(false, || err("audit client", e));
                return audit;
            }
        };
        for (i, cap) in self.objects.iter().enumerate() {
            let version = gens[i % THREADS].versions[i];
            let params = wire::Writer::new().u64(0).u32(OBJECT_BYTES as u32).finish();
            let got = reader.call(cap, ops::READ, params);
            audit.check(
                got.as_deref() == Ok(&body(self.seed, i as u64, version, OBJECT_BYTES)[..]),
                || format!("object {i} does not hold its last acknowledged write"),
            );
        }
        audit
    }

    fn validated(&self) -> (SchemeKind, Port) {
        (SchemeKind::Commutative, self.cluster.replica_port(0))
    }

    fn migrate_ms(&self) -> f64 {
        self.migrate_ms
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "rebalance moved {} shards in {:.3} ms, (shard, new owner): {:?}",
            self.moves.len(),
            self.migrate_ms,
            self.moves
        )]
    }

    fn layer_metrics(&self, view: &TraceView<'_>, _gens: &[Gen]) -> Vec<(&'static str, f64)> {
        let replica_ports: Vec<u64> = (0..REPLICAS)
            .map(|i| self.cluster.replica_port(i).value())
            .collect();
        let client_machines: Vec<u32> = self
            .clients
            .iter()
            .map(|c| c.service().rpc().endpoint().id().as_u32())
            .collect();
        let to_replicas = |from_client: bool| {
            view.tap
                .count(Some(crate::layers::TapStats::REQUEST), |dest, src| {
                    replica_ports.contains(&dest) && client_machines.contains(&src) == from_client
                })
        };
        let sent = to_replicas(true);
        let forwarded = to_replicas(false);
        let dir_lookups = view
            .tap
            .count(Some(crate::layers::TapStats::REQUEST), |dest, src| {
                dest == self.dir_port.value() && self.client_dir_machines.contains(&src)
            });
        let routes: usize = self
            .clients
            .iter()
            .map(|c| c.service().rpc().cached_routes())
            .sum();
        vec![
            (
                "cluster.forwarded_frac",
                forwarded as f64 / sent.max(1) as f64,
            ),
            (
                "cluster.map_refreshes",
                dir_lookups as f64 / DEFAULT_SHARDS as f64,
            ),
            ("cluster.route_cache_entries", routes as f64),
        ]
    }

    fn stop(self) {
        drop((self.clients, self.dirs));
        self.cluster.stop();
        self.dir_runner.stop();
    }
}
