//! `rpc_small`: each generator reads 64 B of its own file through its
//! own F-boxed client from an in-memory flat file server (OneWay
//! scheme, 2 workers) behind an F-box. The handler does almost
//! nothing, so the per-message path dominates: F-box egress, frame
//! codec, buffer pool, network queue, demux, server pump, capability
//! check and the reply wake.

use crate::gen::{body, Rng};
use crate::trace::Tracer;
use crate::{Audit, TraceView, Workload, THREADS};
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::Capability;
use amoeba_flatfs::{FlatFsClient, FlatFsServer};
use amoeba_net::{Network, Port};
use amoeba_server::{ServiceClient, ServiceRunner};

/// Bytes in each generator's file.
pub const FILE_BYTES: usize = 4096;
/// Bytes per read.
pub const READ_BYTES: usize = 64;
/// Reads each generator makes during set-up, before timing starts.
pub const WARMUP_OPS: usize = 10_000;

/// The op stream of one generator: read offsets.
#[derive(Debug, Clone)]
pub struct Ops {
    rng: Rng,
}

impl Ops {
    /// Thread `thread`'s stream for `seed`.
    pub fn new(seed: u64, thread: usize) -> Ops {
        Ops {
            rng: Rng::new(seed, 0x5E11 + thread as u64),
        }
    }

    /// The next read offset.
    pub fn next_offset(&mut self) -> usize {
        self.rng.below(FILE_BYTES / READ_BYTES) * READ_BYTES
    }
}

/// The fleet.
pub struct RpcSmall {
    net: Network,
    runner: ServiceRunner,
    clients: Vec<FlatFsClient>,
    files: Vec<(Capability, Vec<u8>)>,
    seed: u64,
}

/// One generator: its op stream and thread index.
pub struct Gen {
    ops: Ops,
    thread: usize,
}

impl RpcSmall {
    fn read(&self, gen: &mut Gen, tr: &mut Tracer) -> Result<(), String> {
        let off = gen.ops.next_offset();
        let (cap, content) = &self.files[gen.thread];
        let client = &self.clients[gen.thread];
        tr.span("op.read", |tr| {
            let got = tr
                .span("flatfs.read", |_| {
                    client.read(cap, off as u64, READ_BYTES as u32)
                })
                .map_err(|e| format!("read at {off}: {e}"))?;
            if got[..] != content[off..off + READ_BYTES] {
                return Err(format!("read at {off} returned other bytes"));
            }
            Ok(())
        })
    }
}

impl Workload for RpcSmall {
    type Gen = Gen;

    fn setup(seed: u64) -> Result<RpcSmall, String> {
        let net = Network::new();
        let runner =
            ServiceRunner::spawn_fbox_workers(&net, FlatFsServer::new(SchemeKind::OneWay), 2);
        let mut clients = Vec::new();
        let mut files = Vec::new();
        for t in 0..THREADS {
            let client = FlatFsClient::with_service(ServiceClient::fbox(&net), runner.put_port());
            let cap = client.create().map_err(|e| format!("create: {e}"))?;
            let content = body(seed, t as u64, 0, FILE_BYTES);
            client
                .write(&cap, 0, &content)
                .map_err(|e| format!("populate: {e}"))?;
            clients.push(client);
            files.push((cap, content));
        }
        let fleet = RpcSmall {
            net,
            runner,
            clients,
            files,
            seed,
        };
        // Warm-up on a stream of its own, so timed streams start fresh.
        let warm: Result<(), String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let fleet = &fleet;
                    s.spawn(move || {
                        let mut g = Gen {
                            ops: Ops::new(!fleet.seed, t),
                            thread: t,
                        };
                        let mut tr = Tracer::off();
                        (0..WARMUP_OPS).try_for_each(|_| fleet.read(&mut g, &mut tr))
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("warm-up thread panicked"))
        });
        warm?;
        Ok(fleet)
    }

    fn net(&self) -> &Network {
        &self.net
    }

    fn gen(&self, thread: usize) -> Gen {
        Gen {
            ops: Ops::new(self.seed, thread),
            thread,
        }
    }

    fn step(&self, gen: &mut Gen, tr: &mut Tracer) -> Result<(), String> {
        self.read(gen, tr)
    }

    fn audit(&self, _gens: &[Gen]) -> Audit {
        let mut audit = Audit::default();
        for (t, (cap, content)) in self.files.iter().enumerate() {
            let got = self.clients[t].read(cap, 0, FILE_BYTES as u32);
            audit.check(got.as_deref() == Ok(&content[..]), || {
                format!("file of thread {t} does not hold the bytes written")
            });
        }
        audit
    }

    fn fboxed(&self) -> bool {
        true
    }

    fn validated(&self) -> (SchemeKind, Port) {
        (SchemeKind::OneWay, self.runner.put_port())
    }

    fn layer_metrics(&self, _view: &TraceView<'_>, _gens: &[Gen]) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn stop(self) {
        drop(self.clients);
        self.runner.stop();
    }
}
