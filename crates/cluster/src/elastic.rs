//! Sharded placement: each replica owns a set of object-table shards,
//! and the shard index in a capability's object number routes to its
//! owner — with a shard→replica map that can change at runtime via
//! live migration.
//!
//! A stateful service cannot be served by "any replica" — an object
//! lives where it was created. The [`ObjectTable`] already stamps a
//! shard index into the low bits of every object number (the
//! lock-striping key); here that index becomes the **placement key**:
//! replica `i` of an `n`-way group starts out minting only objects
//! whose `shard % n == i` (via [`Service::bind_shard_range`]), so any
//! capability names its owning replica. The directory server stores
//! one locator capability per shard (§3.4: "the directory server …
//! returns the capability" — clients walk names, not machines), and
//! the client routes every call by the capability's shard.
//!
//! A static assignment melts one machine under a skewed workload while
//! the rest idle, so an [`ElasticCluster`] keeps the map *mutable*
//! (a group that never migrates is simply a static sharded placement):
//! [`migrate`](ElasticCluster::migrate) streams one
//! shard to a new owner (the cutover protocol of
//! [`crate::migrate`]), [`drain`](ElasticCluster::drain) empties a
//! replica for maintenance, and the per-shard directory entries are
//! republished so new clients bootstrap the fresh map.
//!
//! Clients with a stale map stay correct throughout: the old owner
//! *forwards* requests for a released shard to the new owner
//! (capability validation happens there — the secrets moved with the
//! objects), and [`ElasticClient`] refreshes its map from the
//! directory when a call hits a drained replica.
//!
//! Forwarding is visible on the wire. The old owner relays the request
//! as a `RELAY_REQUEST` frame and the new owner answers with a
//! `RELAYED_REPLY` (see `docs/PROTOCOL.md`). The client's
//! `(port, machine)` route cache ignores relayed replies, so a warm
//! client keeps targeting the old owner, which keeps relaying: one
//! extra hop, never a timeout. [`ElasticClient`] goes further and
//! leaves the forward after **one** relayed call: it re-reads that one
//! shard's directory entry (the directory stays the authority, §3.4 —
//! no reply can point a capability at a new port) and routes there.
//! The work is bounded: if the entry still names the forwarding port
//! because it has not been republished yet, the shard is marked and
//! later relays on it skip the lookup until the next error-driven
//! [`refresh`](ElasticClient::refresh) clears the mark.
//!
//! [`ObjectTable`]: amoeba_server::ObjectTable
//! [`Service::bind_shard_range`]: amoeba_server::Service::bind_shard_range

use crate::migrate::{migrate_shard, MigrateError, MigrationStats};
use amoeba_cap::{Capability, ObjectNum, Rights};
use amoeba_dirsvr::DirClient;
use amoeba_net::{BufPool, Network, Port};
use amoeba_rpc::Client;
use amoeba_server::proto::Status;
use amoeba_server::DEFAULT_SHARDS;
use amoeba_server::{placement_range, ClientError, Service, ServiceClient, ServiceRunner};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

fn shard_entry_name(service: &str, shard: usize) -> String {
    format!("{service}.shard-{shard}")
}

/// The capability a directory stores for one shard: it names the
/// shard owner's put-port and nothing else (object 0, no rights, no
/// secret). It is a *locator*, not an authorisation — the real
/// per-object capabilities are minted and validated by the owner; this
/// entry only tells clients where requests for the shard go, exactly
/// like the per-server directory entries of §3.4.
fn shard_locator(port: Port) -> Capability {
    Capability::new(
        port,
        ObjectNum::new(0).expect("zero is a valid object number"),
        Rights::NONE,
        0,
    )
}

fn shard_of(cap: &Capability) -> usize {
    placement_range(cap.object, DEFAULT_SHARDS, DEFAULT_SHARDS)
}

/// A placement group of `n` replicas serving all [`DEFAULT_SHARDS`]
/// table shards, with a runtime-mutable shard→replica ownership map.
pub struct ElasticCluster {
    runners: Vec<ServiceRunner>,
    /// Authoritative shard→replica map (control-plane view; the data
    /// plane tolerates staleness via forwarding).
    owner: Mutex<Vec<usize>>,
    next_xfer: AtomicU64,
}

impl std::fmt::Debug for ElasticCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticCluster")
            .field("replicas", &self.runners.len())
            .field("owner", &*self.owner.lock())
            .finish()
    }
}

impl ElasticCluster {
    /// Spawns `replicas` instances (one per fresh open-interface
    /// machine, `workers` dispatch workers each); replica `i` starts
    /// owning the shards with `shard % replicas == i`.
    ///
    /// # Panics
    /// Panics if `replicas` is zero or exceeds [`DEFAULT_SHARDS`].
    pub fn spawn_open<S: Service>(
        net: &Network,
        replicas: usize,
        workers: usize,
        factory: impl FnMut(usize) -> S,
    ) -> ElasticCluster {
        Self::spawn_open_with_pool(net, replicas, workers, BufPool::new(), factory)
    }

    /// [`spawn_open`](Self::spawn_open) with every replica's bound port
    /// encoding into `pool` — share one handle to meter the whole
    /// group's frame allocations.
    ///
    /// # Panics
    /// As for [`spawn_open`](Self::spawn_open).
    pub fn spawn_open_with_pool<S: Service>(
        net: &Network,
        replicas: usize,
        workers: usize,
        pool: BufPool,
        mut factory: impl FnMut(usize) -> S,
    ) -> ElasticCluster {
        assert!(
            (1..=DEFAULT_SHARDS).contains(&replicas),
            "1..={DEFAULT_SHARDS} replicas per elastic group"
        );
        let mut rng = rand::rngs::StdRng::from_entropy();
        let runners: Vec<ServiceRunner> = (0..replicas)
            .map(|i| {
                let mut service = factory(i);
                service.bind_shard_range(i, replicas);
                let get_port = Port::random(&mut rng);
                ServiceRunner::spawn_workers_with_pool(
                    net.attach_open(),
                    get_port,
                    service,
                    workers,
                    pool.clone(),
                )
            })
            .collect();
        let owner = (0..DEFAULT_SHARDS).map(|s| s % replicas).collect();
        ElasticCluster {
            runners,
            owner: Mutex::new(owner),
            next_xfer: AtomicU64::new(1),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.runners.len()
    }

    /// The put-port of replica `i`.
    pub fn replica_port(&self, i: usize) -> Port {
        self.runners[i].put_port()
    }

    /// The current shard→replica ownership map (a snapshot).
    pub fn owners(&self) -> Vec<usize> {
        self.owner.lock().clone()
    }

    /// The current shard→port map (a snapshot).
    pub fn shard_ports(&self) -> Vec<Port> {
        self.owner
            .lock()
            .iter()
            .map(|&r| self.runners[r].put_port())
            .collect()
    }

    /// Per-shard request counts, read from each shard's current
    /// owner. A freshly migrated shard restarts near zero on its new
    /// owner, which is the figure a load balancer wants: recent load
    /// at the serving machine.
    pub fn shard_loads(&self) -> Vec<u64> {
        let owner = self.owner.lock();
        owner
            .iter()
            .enumerate()
            .map(|(s, &r)| {
                self.runners[r]
                    .service()
                    .migrator()
                    .map(|m| m.shard_ops()[s])
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Stores one locator capability per shard under `dir` as
    /// `"<service>.shard-<s>"` entries, pointing at each shard's
    /// current owner.
    ///
    /// # Errors
    /// Directory errors (`Conflict` if already published, rights).
    pub fn publish(
        &self,
        dirs: &DirClient,
        dir: &Capability,
        service: &str,
    ) -> Result<(), ClientError> {
        for (s, port) in self.shard_ports().into_iter().enumerate() {
            dirs.enter(dir, &shard_entry_name(service, s), &shard_locator(port))?;
        }
        Ok(())
    }

    /// Re-points shard `s`'s directory entry at its current owner
    /// (call after a successful [`migrate`](Self::migrate)). Clients
    /// that read the old entry keep working through forwarding.
    ///
    /// # Errors
    /// Directory errors from the replace ( a missing old entry is not
    /// an error).
    pub fn republish(
        &self,
        dirs: &DirClient,
        dir: &Capability,
        service: &str,
        shard: usize,
    ) -> Result<(), ClientError> {
        let port = self.shard_ports()[shard];
        let name = shard_entry_name(service, shard);
        match dirs.remove(dir, &name) {
            Ok(()) | Err(ClientError::Status(Status::NotFound)) => {}
            Err(e) => return Err(e),
        }
        dirs.enter(dir, &name, &shard_locator(port))
    }

    /// Live-migrates `shard` to replica `to`, blocking until the
    /// cutover completes. A no-op (zero stats) if `to` already owns
    /// the shard. `client` supplies the transport for the transfer
    /// stream.
    ///
    /// # Errors
    /// [`MigrateError`]; on failure the current owner keeps serving.
    ///
    /// # Panics
    /// Panics if `shard` or `to` is out of range.
    pub fn migrate(
        &self,
        client: &Client,
        shard: usize,
        to: usize,
    ) -> Result<MigrationStats, MigrateError> {
        assert!(shard < DEFAULT_SHARDS, "shard out of range");
        assert!(to < self.runners.len(), "replica out of range");
        let from = self.owner.lock()[shard];
        if from == to {
            return Ok(MigrationStats::default());
        }
        let source_service = self.runners[from].service();
        let source = source_service.migrator().ok_or(MigrateError::NoMigrator)?;
        let xfer = self.next_xfer.fetch_add(1, Ordering::Relaxed);
        let stats = migrate_shard(
            client,
            source,
            shard,
            xfer,
            self.runners[to].put_port(),
            None,
        )?;
        self.owner.lock()[shard] = to;
        Ok(stats)
    }

    /// Empties replica `i` for maintenance: every shard it owns is
    /// migrated to whichever *other* replica currently owns the fewest
    /// shards. Returns the moves performed as `(shard, new_owner)`.
    ///
    /// # Errors
    /// The first [`MigrateError`]; earlier moves stay in effect.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the group has a single
    /// replica (nowhere to drain to).
    pub fn drain(&self, client: &Client, i: usize) -> Result<Vec<(usize, usize)>, MigrateError> {
        assert!(i < self.runners.len(), "replica out of range");
        assert!(
            self.runners.len() > 1,
            "cannot drain a single-replica group"
        );
        let owned: Vec<usize> = {
            let owner = self.owner.lock();
            (0..DEFAULT_SHARDS).filter(|&s| owner[s] == i).collect()
        };
        let mut moves = Vec::with_capacity(owned.len());
        for shard in owned {
            let to = {
                let owner = self.owner.lock();
                let mut counts = vec![0usize; self.runners.len()];
                for &r in owner.iter() {
                    counts[r] += 1;
                }
                (0..self.runners.len())
                    .filter(|&r| r != i)
                    .min_by_key(|&r| counts[r])
                    .expect("more than one replica")
            };
            self.migrate(client, shard, to)?;
            moves.push((shard, to));
        }
        Ok(moves)
    }

    /// Stops every replica.
    pub fn stop(self) {
        for r in self.runners {
            r.stop();
        }
    }
}

/// A client for an [`ElasticCluster`]: routes by the capability's
/// shard, and re-reads the directory map when a call lands on a
/// replica that no longer mints (drained) or the transport times out —
/// so migrations behind its back cost one retry, never an error. A
/// call the old owner relayed re-reads just that shard's entry, so the
/// next call goes straight to the new owner.
pub struct ElasticClient {
    svc: ServiceClient,
    dirs: DirClient,
    dir: Capability,
    service: String,
    /// shard → owning port, refreshed from the directory on demand.
    ports: RwLock<Vec<Port>>,
    /// Per shard: a relay-driven lookup is in flight or found the
    /// entry not yet republished. Relays on a marked shard skip the
    /// lookup; [`refresh`](Self::refresh) clears every mark.
    relay_marks: Vec<AtomicBool>,
    /// Round-robin cursor for placements with no capability (CREATE).
    next_shard: AtomicUsize,
}

impl std::fmt::Debug for ElasticClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticClient")
            .field("service", &self.service)
            .field("ports", &*self.ports.read())
            .finish()
    }
}

impl ElasticClient {
    /// Bootstraps the shard map from the `"<service>.shard-<s>"`
    /// entries an [`ElasticCluster::publish`] stored under `dir`,
    /// calling through a fresh open-interface [`ServiceClient`].
    ///
    /// # Errors
    /// [`ClientError`] from the directory lookups (all
    /// [`DEFAULT_SHARDS`] entries must exist; an unpublished service
    /// name is `NotFound`).
    pub fn from_directory(
        net: &Network,
        dirs: DirClient,
        dir: &Capability,
        service: &str,
    ) -> Result<ElasticClient, ClientError> {
        Self::with_service(ServiceClient::open(net), dirs, dir, service)
    }

    /// [`from_directory`](Self::from_directory) calling through `svc`
    /// — a patient or pool-sharing client, for instance.
    ///
    /// # Errors
    /// As for [`from_directory`](Self::from_directory).
    pub fn with_service(
        svc: ServiceClient,
        dirs: DirClient,
        dir: &Capability,
        service: &str,
    ) -> Result<ElasticClient, ClientError> {
        // Start each client's create cursor at a random shard: a fleet
        // of clients built together would otherwise march over the
        // replicas in lockstep, convoying on one replica at a time.
        let start = rand::rngs::StdRng::from_entropy().next_u64() as usize % DEFAULT_SHARDS;
        let client = ElasticClient {
            svc,
            dirs,
            dir: *dir,
            service: service.to_string(),
            ports: RwLock::new(Vec::new()),
            relay_marks: (0..DEFAULT_SHARDS)
                .map(|_| AtomicBool::new(false))
                .collect(),
            next_shard: AtomicUsize::new(start),
        };
        client.refresh()?;
        Ok(client)
    }

    /// Re-reads the whole shard map from the directory.
    ///
    /// # Errors
    /// [`ClientError`] from the directory lookups.
    pub fn refresh(&self) -> Result<(), ClientError> {
        let mut fresh = Vec::with_capacity(DEFAULT_SHARDS);
        for s in 0..DEFAULT_SHARDS {
            fresh.push(
                self.dirs
                    .lookup(&self.dir, &shard_entry_name(&self.service, s))?
                    .port,
            );
        }
        *self.ports.write() = fresh;
        for mark in &self.relay_marks {
            mark.store(false, Ordering::Release);
        }
        Ok(())
    }

    /// The port currently mapped for `cap`'s shard.
    pub fn port_for(&self, cap: &Capability) -> Port {
        self.ports.read()[shard_of(cap)]
    }

    /// Re-reads shard `shard`'s directory entry after a call to
    /// `stale` came back relayed, and routes the shard to the entry's
    /// port when it moved. At most one lookup per relay episode: the
    /// mark goes up before the lookup (concurrent relays on the shard
    /// skip theirs) and comes down only when the entry named a new
    /// port. A failed lookup leaves the shard marked too — the call
    /// itself succeeded, and forwarding keeps serving it.
    fn reroute(&self, shard: usize, stale: Port) {
        if self.relay_marks[shard].swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(m) = self.svc.rpc().endpoint().obs().metrics() {
            m.shard_refreshes.add(1);
        }
        let name = shard_entry_name(&self.service, shard);
        let Ok(entry) = self.dirs.lookup(&self.dir, &name) else {
            return;
        };
        if entry.port != stale {
            let mut ports = self.ports.write();
            if ports[shard] == stale {
                ports[shard] = entry.port;
            }
            drop(ports);
            self.relay_marks[shard].store(false, Ordering::Release);
        }
    }

    fn should_refresh(err: &ClientError) -> bool {
        matches!(
            err,
            ClientError::Rpc(_) | ClientError::Status(Status::Unsupported)
        )
    }

    /// Invokes `command` on the object named by `cap`, routed to its
    /// shard's owner. A transport failure or a drained-replica refusal
    /// triggers one map refresh and one retry; a reply relayed by the
    /// shard's old owner triggers one lookup of that shard's entry.
    ///
    /// # Errors
    /// As for [`ServiceClient::call`], after the retry.
    pub fn call(
        &self,
        cap: &Capability,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, ClientError> {
        let shard = shard_of(cap);
        let port = self.ports.read()[shard];
        match self.svc.call_at_relayed(port, cap, command, params.clone()) {
            Ok((body, relayed)) => {
                if relayed {
                    self.reroute(shard, port);
                }
                Ok(body)
            }
            Err(e) if Self::should_refresh(&e) => {
                self.refresh()?;
                self.svc.call_at(self.port_for(cap), cap, command, params)
            }
            Err(e) => Err(e),
        }
    }

    /// Invokes a capability-less placement command (CREATE and
    /// friends) on the next shard owner in round-robin order. A
    /// drained replica answers `Unsupported` (it has no mintable
    /// shard left); that triggers one map refresh and one retry on
    /// the refreshed owner.
    ///
    /// # Errors
    /// As for [`ServiceClient::call_anonymous`], after the retry.
    pub fn call_create(&self, command: u32, params: Bytes) -> Result<Bytes, ClientError> {
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % DEFAULT_SHARDS;
        let port = self.ports.read()[shard];
        match self.svc.call_anonymous(port, command, params.clone()) {
            Ok(body) => Ok(body),
            Err(e) if Self::should_refresh(&e) => {
                self.refresh()?;
                let port = self.ports.read()[shard];
                self.svc.call_anonymous(port, command, params)
            }
            Err(e) => Err(e),
        }
    }

    /// The underlying generic service client.
    pub fn service(&self) -> &ServiceClient {
        &self.svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rebalancer;
    use amoeba_cap::schemes::SchemeKind;
    use amoeba_dirsvr::DirServer;
    use amoeba_flatfs::{ops, FlatFsServer};
    use amoeba_server::wire;

    fn elastic_fs(net: &Network, replicas: usize) -> ElasticCluster {
        ElasticCluster::spawn_open(net, replicas, 1, |_| {
            FlatFsServer::new(SchemeKind::Commutative)
        })
    }

    fn create_at(svc: &ServiceClient, port: Port) -> Capability {
        let body = svc.call_anonymous(port, ops::CREATE, Bytes::new()).unwrap();
        wire::Reader::new(&body).cap().unwrap()
    }

    fn write(svc: &ServiceClient, cap: &Capability, data: &[u8]) {
        svc.call(
            cap,
            ops::WRITE,
            wire::Writer::new().u64(0).bytes(data).finish(),
        )
        .unwrap();
    }

    fn read(svc: &ServiceClient, cap: &Capability) -> Bytes {
        svc.call(cap, ops::READ, wire::Writer::new().u64(0).u32(32).finish())
            .unwrap()
    }

    #[test]
    fn migration_moves_objects_and_old_port_forwards() {
        let net = Network::new();
        let cluster = elastic_fs(&net, 2);
        let svc = ServiceClient::open(&net);
        let caps: Vec<Capability> = (0..8)
            .map(|_| create_at(&svc, cluster.replica_port(0)))
            .collect();
        for (i, cap) in caps.iter().enumerate() {
            write(&svc, cap, format!("body-{i}").as_bytes());
        }
        let shard = shard_of(&caps[0]);
        let rpc = Client::new(net.attach_open());
        let stats = cluster.migrate(&rpc, shard, 1).unwrap();
        assert!(stats.chunks >= 1, "a populated shard ships chunks");
        assert_eq!(cluster.owners()[shard], 1);

        // Every capability still works addressed at the port it was
        // minted with: the migrated shard is *forwarded* by the old
        // owner, the rest are served there as before.
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(&read(&svc, cap)[..], format!("body-{i}").as_bytes());
        }
        // The new owner serves the migrated shard directly — secrets
        // moved with the objects, so old capabilities validate there.
        for (i, cap) in caps.iter().enumerate() {
            if shard_of(cap) != shard {
                continue;
            }
            let body = svc
                .call_at(
                    cluster.replica_port(1),
                    cap,
                    ops::READ,
                    wire::Writer::new().u64(0).u32(32).finish(),
                )
                .unwrap();
            assert_eq!(&body[..], format!("body-{i}").as_bytes());
        }
        cluster.stop();
    }

    #[test]
    fn migration_is_invisible_to_a_live_writer() {
        let net = Network::new();
        let cluster = elastic_fs(&net, 2);
        let svc = ServiceClient::open(&net);
        let cap = create_at(&svc, cluster.replica_port(0));
        let shard = shard_of(&cap);

        const WRITES: u32 = 200;
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                // Always addresses the *original* owner: the held
                // window retransmits, the forwarded window relays.
                let svc = ServiceClient::open(&net);
                for i in 0..WRITES {
                    write(&svc, &cap, format!("v{i:04}").as_bytes());
                }
            });
            let rpc = Client::new(net.attach_open());
            cluster.migrate(&rpc, shard, 1).unwrap();
            writer.join().unwrap();
        });
        // The last write survived the cutover, wherever it landed.
        let last = WRITES - 1;
        assert_eq!(&read(&svc, &cap)[..], format!("v{last:04}").as_bytes());
        cluster.stop();
    }

    /// A directory, a published `replicas`-way cluster, and an elastic
    /// client that knows nothing but the directory.
    struct Rig {
        dir_runner: ServiceRunner,
        dirs: DirClient,
        root: Capability,
        cluster: ElasticCluster,
        client: ElasticClient,
    }

    impl Rig {
        fn stop(self) {
            self.cluster.stop();
            self.dir_runner.stop();
        }
    }

    fn published_fs(net: &Network, replicas: usize) -> Rig {
        let dir_runner = ServiceRunner::spawn_open(net, DirServer::new(SchemeKind::OneWay));
        let dirs = DirClient::open(net, dir_runner.put_port());
        let root = dirs.create_dir().unwrap();
        let cluster = elastic_fs(net, replicas);
        cluster.publish(&dirs, &root, "fs").unwrap();
        let client = ElasticClient::from_directory(
            net,
            DirClient::open(net, dir_runner.put_port()),
            &root,
            "fs",
        )
        .unwrap();
        Rig {
            dir_runner,
            dirs,
            root,
            cluster,
            client,
        }
    }

    fn create(client: &ElasticClient) -> Capability {
        let body = client.call_create(ops::CREATE, Bytes::new()).unwrap();
        wire::Reader::new(&body).cap().unwrap()
    }

    fn elastic_write(client: &ElasticClient, cap: &Capability, data: &[u8]) {
        let params = wire::Writer::new().u64(0).bytes(data).finish();
        client.call(cap, ops::WRITE, params).unwrap();
    }

    fn elastic_read(client: &ElasticClient, cap: &Capability) -> Bytes {
        client
            .call(cap, ops::READ, wire::Writer::new().u64(0).u32(32).finish())
            .unwrap()
    }

    /// A published 2-replica rig whose client holds one written object
    /// per shard.
    fn warm_rig(net: &Network) -> (Rig, Vec<Capability>) {
        let rig = published_fs(net, 2);
        let caps: Vec<Capability> = (0..DEFAULT_SHARDS).map(|_| create(&rig.client)).collect();
        for cap in &caps {
            elastic_write(&rig.client, cap, b"warm");
        }
        (rig, caps)
    }

    #[test]
    fn placement_key_routes_back_to_the_minting_replica() {
        let net = Network::new();
        let rig = published_fs(&net, 3);
        for _ in 0..12 {
            let cap = create(&rig.client);
            // The replica that minted the capability stamped its own
            // put-port; the placement key must route right back to it.
            assert_eq!(
                rig.client.port_for(&cap),
                cap.port,
                "object {} routed to the wrong replica",
                cap.object
            );
        }
        rig.stop();
    }

    #[test]
    fn creates_spread_over_every_replica() {
        let net = Network::new();
        let rig = published_fs(&net, 4);
        let used: std::collections::HashSet<Port> = (0..DEFAULT_SHARDS)
            .map(|_| create(&rig.client).port)
            .collect();
        assert_eq!(used.len(), 4, "round-robin must use every replica");
        rig.stop();
    }

    #[test]
    fn create_cursors_start_at_random_shards() {
        // Clients built together must not march over the replicas in
        // lockstep: their first creates land on different shards.
        let net = Network::new();
        let rig = published_fs(&net, 2);
        let firsts: std::collections::HashSet<usize> = (0..8)
            .map(|_| {
                let client = ElasticClient::from_directory(
                    &net,
                    DirClient::open(&net, rig.dir_runner.put_port()),
                    &rig.root,
                    "fs",
                )
                .unwrap();
                shard_of(&create(&client))
            })
            .collect();
        assert!(firsts.len() > 1, "every cursor started at one shard");
        rig.stop();
    }

    #[test]
    fn data_lives_and_validates_on_its_owning_replica() {
        let net = Network::new();
        let rig = published_fs(&net, 3);
        let client = &rig.client;
        let caps: Vec<Capability> = (0..9).map(|_| create(client)).collect();
        for (i, cap) in caps.iter().enumerate() {
            elastic_write(client, cap, format!("file-{i}").as_bytes());
        }
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(
                &elastic_read(client, cap)[..],
                format!("file-{i}").as_bytes()
            );
        }
        // The standard RESTRICT routes by placement too.
        let keep = wire::Writer::new().u32(Rights::READ.bits() as u32).finish();
        let body = client
            .call(&caps[0], amoeba_server::proto::cmd::STD_RESTRICT, keep)
            .unwrap();
        let ro = wire::Reader::new(&body).cap().unwrap();
        assert!(matches!(
            client.call(
                &ro,
                ops::WRITE,
                wire::Writer::new().u64(0).bytes(b"x").finish()
            ),
            Err(ClientError::Status(Status::RightsViolation))
        ));
        rig.stop();
    }

    #[test]
    fn foreign_replica_rejects_a_misrouted_capability() {
        // Routing a capability to a replica that never owned its shard
        // must fail closed: that replica has no such object.
        let net = Network::new();
        let rig = published_fs(&net, 2);
        let cap = create(&rig.client);
        let owner = rig.cluster.owners()[shard_of(&cap)];
        let err = rig
            .client
            .service()
            .call_at(
                rig.cluster.replica_port(1 - owner),
                &cap,
                ops::READ,
                wire::Writer::new().u64(0).u32(1).finish(),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Status(Status::NoSuchObject) | ClientError::Status(Status::Forged)
            ),
            "foreign replica must reject: {err:?}"
        );
        rig.stop();
    }

    #[test]
    fn directory_bootstraps_the_shard_map_and_unknown_names_are_not_found() {
        let net = Network::new();
        let rig = published_fs(&net, 3);
        // The bootstrapped map is the cluster's, shard for shard.
        let probe: Vec<Capability> = (0..DEFAULT_SHARDS).map(|_| create(&rig.client)).collect();
        let ports = rig.cluster.shard_ports();
        for cap in &probe {
            assert_eq!(rig.client.port_for(cap), ports[shard_of(cap)]);
            assert_eq!(rig.client.port_for(cap), cap.port);
        }
        let ghost = ElasticClient::with_service(
            ServiceClient::open(&net),
            DirClient::open(&net, rig.dir_runner.put_port()),
            &rig.root,
            "ghost",
        );
        assert!(matches!(ghost, Err(ClientError::Status(Status::NotFound))));
        rig.stop();
    }

    #[test]
    fn warm_elastic_client_leaves_the_forward_after_one_relayed_call() {
        let net = Network::new();
        net.obs().enable();
        let (rig, caps) = warm_rig(&net);
        let Rig {
            dirs,
            root,
            cluster,
            client,
            ..
        } = &rig;
        // Move two of replica 0's shards, then republish their entries.
        let moved: Vec<usize> = (0..DEFAULT_SHARDS)
            .filter(|&s| cluster.owners()[s] == 0)
            .take(2)
            .collect();
        let rpc = Client::new(net.attach_open());
        for &shard in &moved {
            cluster.migrate(&rpc, shard, 1).unwrap();
            cluster.republish(dirs, root, "fs", shard).unwrap();
        }

        let m = net.obs().metrics().unwrap();
        let before = m.snapshot();
        for i in 0..100 {
            assert_eq!(&elastic_read(client, &caps[i % caps.len()])[..], b"warm");
        }
        let after = m.snapshot();
        assert_eq!(after.retransmits - before.retransmits, 0);
        assert_eq!(after.trans_timeouts - before.trans_timeouts, 0);
        assert_eq!(after.route_evictions - before.route_evictions, 0);
        // One relayed call and one lookup per moved shard, no more.
        let lookups = after.shard_refreshes - before.shard_refreshes;
        let forwarded = after.requests_forwarded - before.requests_forwarded;
        assert_eq!(lookups, moved.len() as u64);
        assert_eq!(forwarded, moved.len() as u64);
        assert_eq!(after.relayed_replies - before.relayed_replies, forwarded);
        for cap in caps.iter().filter(|c| moved.contains(&shard_of(c))) {
            assert_eq!(client.port_for(cap), cluster.replica_port(1));
        }
        rig.stop();
    }

    #[test]
    fn unpublished_move_costs_one_lookup_until_the_next_refresh() {
        let net = Network::new();
        net.obs().enable();
        let (rig, caps) = warm_rig(&net);
        let Rig {
            cluster, client, ..
        } = &rig;
        let shard = shard_of(&caps[0]);
        let from = cluster.owners()[shard];
        let rpc = Client::new(net.attach_open());
        cluster.migrate(&rpc, shard, 1 - from).unwrap();
        // No republish: the entry still names the forwarding port, so
        // every call rides the relay — at one lookup in total.
        let m = net.obs().metrics().unwrap();
        let before = m.snapshot();
        for _ in 0..20 {
            assert_eq!(&elastic_read(client, &caps[0])[..], b"warm");
        }
        let after = m.snapshot();
        assert_eq!(after.requests_forwarded - before.requests_forwarded, 20);
        assert_eq!(after.shard_refreshes - before.shard_refreshes, 1);
        assert_eq!(after.retransmits - before.retransmits, 0);
        assert_eq!(client.port_for(&caps[0]), cluster.replica_port(from));
        // A full refresh clears the mark: the next relay looks again.
        client.refresh().unwrap();
        elastic_read(client, &caps[0]);
        assert_eq!(m.snapshot().shard_refreshes - after.shard_refreshes, 1);
        rig.stop();
    }

    #[test]
    fn drain_republish_and_stale_clients_recover() {
        let net = Network::new();
        let rig = published_fs(&net, 3);
        let Rig {
            dirs,
            root,
            cluster,
            client,
            ..
        } = &rig;
        let caps: Vec<Capability> = (0..9).map(|_| create(client)).collect();
        for (i, cap) in caps.iter().enumerate() {
            elastic_write(client, cap, format!("file-{i}").as_bytes());
        }

        let rpc = Client::new(net.attach_open());
        let moves = cluster.drain(&rpc, 0).unwrap();
        assert!(!moves.is_empty(), "replica 0 owned shards to move");
        let owners = cluster.owners();
        assert!(owners.iter().all(|&r| r != 0), "replica 0 fully drained");
        for &(shard, _) in &moves {
            cluster.republish(dirs, root, "fs", shard).unwrap();
        }

        // The drained replica refuses to mint.
        let direct = ServiceClient::open(&net);
        assert!(matches!(
            direct.call_anonymous(cluster.replica_port(0), ops::CREATE, Bytes::new()),
            Err(ClientError::Status(Status::Unsupported))
        ));

        // The elastic client's map is stale — reads route through
        // forwarding, creates hit `Unsupported` once, refresh, and
        // succeed on the new owner.
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(
                &elastic_read(client, cap)[..],
                format!("file-{i}").as_bytes()
            );
        }
        for _ in 0..6 {
            let cap = create(client);
            assert_ne!(cap.port, cluster.replica_port(0), "drained replica minted");
        }
        rig.stop();
    }

    #[test]
    fn rebalancer_spreads_a_hot_replica() {
        let net = Network::new();
        let cluster = elastic_fs(&net, 4);
        let svc = ServiceClient::open(&net);
        // Hammer replica 0's objects; everyone else stays cold.
        let caps: Vec<Capability> = (0..4)
            .map(|_| create_at(&svc, cluster.replica_port(0)))
            .collect();
        for (i, cap) in caps.iter().enumerate() {
            write(&svc, cap, format!("hot-{i}").as_bytes());
            for _ in 0..25 {
                read(&svc, cap);
            }
        }
        let rpc = Client::new(net.attach_open());
        let moves = Rebalancer::default().rebalance(&cluster, &rpc).unwrap();
        assert!(!moves.is_empty(), "the skew must trigger moves");
        let owners = cluster.owners();
        let hot_owners: std::collections::HashSet<usize> =
            caps.iter().map(|c| owners[shard_of(c)]).collect();
        assert!(hot_owners.len() > 1, "hot shards no longer share one owner");
        // Nothing was lost and stale routing still works.
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(&read(&svc, cap)[..], format!("hot-{i}").as_bytes());
        }
        cluster.stop();
    }

    #[test]
    fn migrate_to_current_owner_is_a_no_op() {
        let net = Network::new();
        let cluster = elastic_fs(&net, 2);
        let rpc = Client::new(net.attach_open());
        let stats = cluster.migrate(&rpc, 0, 0).unwrap();
        assert_eq!(stats, MigrationStats::default());
        assert_eq!(cluster.owners()[0], 0);
        cluster.stop();
    }
}
