//! `fs_session`: a file session over the full server stack. Both
//! generators share one caching `DirClient` and one client per file
//! server, so the RPC demux runs contended. Files live on a block-backed
//! flat file server and are named through a tree spread over two
//! directory servers (OneWay and Commutative); a bank-metered in-memory
//! file server takes the §3.6 paid creates.
//!
//! The seeded mix, dealt from an exactly proportioned deck:
//! 55% resolve + 4 KiB read, 20% resolve + 4 KiB overwrite, 15% scratch
//! file (create, 16 KiB write, read back, destroy), 10% paid create +
//! 64 B write + destroy.

use crate::gen::{body, Deck, Rng, Zipf};
use crate::layers::{probe, TapStats};
use crate::trace::Tracer;
use crate::{Audit, TraceView, Workload, THREADS};
use amoeba_bank::{BankClient, BankServer, Currency, CurrencyId};
use amoeba_block::{BlockServer, DiskConfig};
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::Capability;
use amoeba_dirsvr::{DirClient, DirServer};
use amoeba_flatfs::{BlockFlatFsServer, FlatFsClient, FlatFsServer, QuotaPolicy};
use amoeba_net::{Network, Port};
use amoeba_server::ServiceRunner;
use std::time::Duration;

/// Files in the tree, split evenly between the generators. Several
/// times the capability cache's 512 slots.
pub const FILES: usize = 2048;
/// Deepest path, in segments (the file name included).
pub const MAX_DEPTH: usize = 8;
/// Independent directory chains the files hang off.
pub const CHAINS: usize = 16;
/// Directory levels served by the OneWay server; deeper levels live on
/// the Commutative server, so deep paths cross servers.
pub const FIRST_SERVER_LEVELS: usize = 3;
/// Bytes per file and per read/overwrite.
pub const FILE_BYTES: usize = 4096;
/// Bytes written and read back by a scratch op.
pub const SCRATCH_BYTES: usize = 16 * 1024;
/// Bytes written to a paid file before it is destroyed.
pub const PAID_BYTES: usize = 64;
/// Price per KiB of metered quota.
pub const PRICE_PER_KIB: u64 = 3;
/// Paid creates pre-pay two KiB; destroy refunds the unused one, so
/// each paid op costs the wallet exactly one KiB's price.
pub const PREPAY: u64 = 2 * PRICE_PER_KIB;
/// Cards per deck round: read, overwrite, scratch, paid.
pub const MIX: [usize; 4] = [11, 4, 3, 2];
/// Resolve + read ops each generator makes during set-up.
pub const WARMUP_OPS: usize = 1000;
/// Scratch ops the traced run replays alone to count block frames.
pub const PROBE_SCRATCHES: u64 = 32;

/// One op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Resolve the file's path and read it whole.
    Read(usize),
    /// Resolve the file's path and overwrite it whole.
    Write(usize),
    /// Create, write, read back and destroy a scratch file.
    Scratch,
    /// Paid create, small write, destroy on the metered server.
    Paid,
}

/// The op stream of one generator.
#[derive(Debug, Clone)]
pub struct Ops {
    rng: Rng,
    deck: Deck,
    zipf: Zipf,
    /// Popularity rank → file index; only this thread's files.
    by_rank: Vec<usize>,
}

impl Ops {
    /// Thread `thread`'s stream for `seed`. Thread `t` owns the files
    /// with `index % THREADS == t`, in a seeded popularity order.
    pub fn new(seed: u64, thread: usize) -> Ops {
        let by_rank = ranking(seed, thread);
        Ops {
            rng: Rng::new(seed, 0x0F5 + thread as u64),
            deck: Deck::new(&MIX),
            zipf: Zipf::new(by_rank.len()),
            by_rank,
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        match self.deck.deal(&mut self.rng) {
            0 => Op::Read(self.by_rank[self.zipf.draw(&mut self.rng)]),
            1 => Op::Write(self.by_rank[self.zipf.draw(&mut self.rng)]),
            2 => Op::Scratch,
            _ => Op::Paid,
        }
    }
}

/// Thread `thread`'s files in popularity order (rank → file index).
pub fn ranking(seed: u64, thread: usize) -> Vec<usize> {
    let mut by_rank: Vec<usize> = (thread..FILES).step_by(THREADS).collect();
    Rng::new(seed, 0xF11E + thread as u64).shuffle(&mut by_rank);
    by_rank
}

/// The seeded tree: for each file, its depth and chain. Depths cycle
/// 1..=MAX_DEPTH down each thread's popularity ranking, so every seed
/// weights the depths alike and only the naming varies.
pub fn layout(seed: u64) -> Vec<(usize, usize)> {
    let mut depth = vec![0; FILES];
    for thread in 0..THREADS {
        for (rank, file) in ranking(seed, thread).into_iter().enumerate() {
            depth[file] = 1 + rank % MAX_DEPTH;
        }
    }
    let mut rng = Rng::new(seed, 0x7AEE);
    depth.into_iter().map(|d| (d, rng.below(CHAINS))).collect()
}

struct File {
    path: String,
    cap: Capability,
}

/// The fleet.
pub struct FsSession {
    net: Network,
    runners: Vec<ServiceRunner>,
    dir_ports: [Port; 2],
    dir_machines: [u32; 2],
    disk: (Port, u32),
    fs_port: Port,
    dirs: DirClient,
    fs: FlatFsClient,
    metered: FlatFsClient,
    bank: BankClient,
    wallet: Capability,
    server_account: Capability,
    /// Wallet and server balances when set-up ended.
    balances0: (u64, u64),
    root: Capability,
    files: Vec<File>,
    seed: u64,
}

/// One generator: op stream, the model of its files, and tallies.
pub struct Gen {
    ops: Ops,
    thread: usize,
    /// Overwrites acknowledged per file (this thread's files only).
    versions: Vec<u64>,
    scratch_seq: u64,
    paid: u64,
    /// Traced resolves, and how many found their full path cached.
    resolves: u64,
    cached: u64,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl FsSession {
    fn resolve(&self, gen: &mut Gen, i: usize, tr: &mut Tracer) -> Result<Capability, String> {
        let file = &self.files[i];
        if tr.is_on() {
            let now = self.dirs.service().rpc().endpoint().now();
            let cache = self.dirs.cache().expect("cache enabled");
            gen.resolves += 1;
            gen.cached += u64::from(cache.get(&self.root, &file.path, now).is_some());
        }
        let cap = tr
            .span("dirsvr.resolve", |_| {
                self.dirs.resolve(&self.root, &file.path)
            })
            .map_err(|e| err(&format!("resolve {}", file.path), e))?;
        if cap != file.cap {
            return Err(format!("resolve {} returned another capability", file.path));
        }
        Ok(cap)
    }

    fn scratch(&self, key: u64, tr: &mut Tracer) -> Result<(), String> {
        let data = body(self.seed, key, 0, SCRATCH_BYTES);
        let got = tr.span("flatfs.scratch", |tr| {
            let cap = tr
                .span("flatfs.create", |_| self.fs.create())
                .map_err(|e| err("scratch create", e))?;
            tr.span("flatfs.write_16k", |_| self.fs.write(&cap, 0, &data))
                .map_err(|e| err("scratch write", e))?;
            let got = tr
                .span("flatfs.read_16k", |_| {
                    self.fs.read(&cap, 0, SCRATCH_BYTES as u32)
                })
                .map_err(|e| err("scratch read", e))?;
            tr.span("flatfs.destroy", |_| self.fs.destroy(&cap))
                .map_err(|e| err("scratch destroy", e))?;
            Ok::<_, String>(got)
        })?;
        if got != data {
            return Err("scratch file read back other bytes".into());
        }
        Ok(())
    }

    fn paid(&self, tr: &mut Tracer) -> Result<(), String> {
        let cap = tr
            .span("bank.paid_create", |_| {
                self.metered.create_paid(&self.wallet, PREPAY)
            })
            .map_err(|e| err("paid create", e))?;
        tr.span("metered.write", |_| {
            self.metered.write(&cap, 0, &[0x5A; PAID_BYTES])
        })
        .map_err(|e| err("paid write", e))?;
        tr.span("metered.destroy", |_| self.metered.destroy(&cap))
            .map_err(|e| err("paid destroy", e))
    }

    fn balances(&self) -> Result<(u64, u64), String> {
        let wallet = self.bank.balance(&self.wallet, CurrencyId(0));
        let server = self.bank.balance(&self.server_account, CurrencyId(0));
        Ok((
            wallet.map_err(|e| err("wallet balance", e))?,
            server.map_err(|e| err("server balance", e))?,
        ))
    }

    fn run(&self, gen: &mut Gen, op: Op, tr: &mut Tracer) -> Result<(), String> {
        match op {
            Op::Read(i) => tr.span("op.read", |tr| {
                let cap = self.resolve(gen, i, tr)?;
                let got = tr
                    .span("flatfs.read", |_| self.fs.read(&cap, 0, FILE_BYTES as u32))
                    .map_err(|e| err("read", e))?;
                if got != body(self.seed, i as u64, gen.versions[i], FILE_BYTES) {
                    return Err(format!("file {i} read other bytes"));
                }
                Ok(())
            }),
            Op::Write(i) => tr.span("op.write", |tr| {
                let cap = self.resolve(gen, i, tr)?;
                let data = body(self.seed, i as u64, gen.versions[i] + 1, FILE_BYTES);
                let size = tr
                    .span("flatfs.write", |_| self.fs.write(&cap, 0, &data))
                    .map_err(|e| err("overwrite", e))?;
                gen.versions[i] += 1;
                if size != FILE_BYTES as u64 {
                    return Err(format!("overwrite of file {i} reported size {size}"));
                }
                Ok(())
            }),
            Op::Scratch => tr.span("op.scratch", |tr| {
                gen.scratch_seq += 1;
                let key = (1 << 40) | ((gen.thread as u64) << 32) | gen.scratch_seq;
                self.scratch(key, tr)
            }),
            Op::Paid => tr.span("op.paid", |tr| {
                self.paid(tr)?;
                gen.paid += 1;
                Ok(())
            }),
        }
    }
}

impl Workload for FsSession {
    type Gen = Gen;

    fn setup(seed: u64) -> Result<FsSession, String> {
        let net = Network::new();
        let d1 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
        let d2 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
        let disk = ServiceRunner::spawn_open(
            &net,
            BlockServer::new(
                DiskConfig {
                    block_size: FILE_BYTES as u32,
                    capacity_blocks: 16_384,
                },
                SchemeKind::OneWay,
            ),
        );
        let bfs = ServiceRunner::spawn_open_workers(
            &net,
            BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative),
            2,
        );
        let (bank_server, treasury_rx) =
            BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
        let bank_runner = ServiceRunner::spawn_open(&net, bank_server);
        let treasury = treasury_rx.recv().map_err(|e| err("treasury", e))?;
        let bank = BankClient::open(&net, bank_runner.put_port());
        let server_account = bank.open_account().map_err(|e| err("account", e))?;
        let wallet = bank.open_account().map_err(|e| err("wallet", e))?;
        bank.mint(&treasury, &wallet, CurrencyId(0), 1 << 40)
            .map_err(|e| err("mint", e))?;
        let mfs = ServiceRunner::spawn_open_workers(
            &net,
            FlatFsServer::with_quota(
                SchemeKind::OneWay,
                QuotaPolicy {
                    bank: BankClient::open(&net, bank_runner.put_port()),
                    server_account,
                    currency: CurrencyId(0),
                    price_per_kib: PRICE_PER_KIB,
                },
            ),
            2,
        );

        let dirs = DirClient::open(&net, d1.put_port()).with_cache(Duration::from_secs(24 * 3600));
        let fs = FlatFsClient::open(&net, bfs.put_port());
        let metered = FlatFsClient::open(&net, mfs.put_port());

        // The tree: CHAINS chains of nested directories, the first
        // FIRST_SERVER_LEVELS levels on d1 and the rest on d2.
        let root = dirs
            .create_dir_on(d1.put_port())
            .map_err(|e| err("root", e))?;
        let mut chains: Vec<Vec<(Capability, String)>> = Vec::with_capacity(CHAINS);
        for c in 0..CHAINS {
            let mut levels = vec![(root, String::new())];
            for level in 1..MAX_DEPTH {
                let port = if level <= FIRST_SERVER_LEVELS {
                    d1.put_port()
                } else {
                    d2.put_port()
                };
                let dir = dirs.create_dir_on(port).map_err(|e| err("mkdir", e))?;
                let name = if level == 1 {
                    format!("c{c}")
                } else {
                    format!("l{level}")
                };
                let (parent, parent_path) = levels.last().expect("root level").clone();
                dirs.enter(&parent, &name, &dir)
                    .map_err(|e| err("enter dir", e))?;
                levels.push((dir, format!("{parent_path}{name}/")));
            }
            chains.push(levels);
        }
        let mut files = Vec::with_capacity(FILES);
        for (i, (depth, chain)) in layout(seed).into_iter().enumerate() {
            let (parent, parent_path) = &chains[chain][depth - 1];
            let cap = fs.create().map_err(|e| err("create file", e))?;
            fs.write(&cap, 0, &body(seed, i as u64, 0, FILE_BYTES))
                .map_err(|e| err("populate file", e))?;
            let name = format!("f{i}");
            dirs.enter(parent, &name, &cap)
                .map_err(|e| err("enter file", e))?;
            files.push(File {
                path: format!("{parent_path}{name}"),
                cap,
            });
        }

        let mut fleet = FsSession {
            dir_ports: [d1.put_port(), d2.put_port()],
            dir_machines: [d1.machine().as_u32(), d2.machine().as_u32()],
            disk: (disk.put_port(), disk.machine().as_u32()),
            fs_port: bfs.put_port(),
            runners: vec![mfs, bank_runner, bfs, disk, d2, d1],
            net,
            dirs,
            fs,
            metered,
            bank,
            wallet,
            server_account,
            balances0: (0, 0),
            root,
            files,
            seed,
        };
        // Warm-up: resolve + read on streams of their own.
        let warm: Result<(), String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let fleet = &fleet;
                    s.spawn(move || {
                        let mut g = fleet.gen(t);
                        g.ops = Ops::new(!fleet.seed, t);
                        let mut tr = Tracer::off();
                        (0..WARMUP_OPS).try_for_each(|_| {
                            let i = loop {
                                if let Op::Read(i) = g.ops.next_op() {
                                    break i;
                                }
                            };
                            fleet.run(&mut g, Op::Read(i), &mut tr)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("warm-up thread panicked"))
        });
        warm?;
        fleet.balances0 = fleet.balances()?;
        Ok(fleet)
    }

    fn net(&self) -> &Network {
        &self.net
    }

    fn gen(&self, thread: usize) -> Gen {
        Gen {
            ops: Ops::new(self.seed, thread),
            thread,
            versions: vec![0; FILES],
            scratch_seq: 0,
            paid: 0,
            resolves: 0,
            cached: 0,
        }
    }

    fn step(&self, gen: &mut Gen, tr: &mut Tracer) -> Result<(), String> {
        let op = gen.ops.next_op();
        self.run(gen, op, tr)
    }

    fn audit(&self, gens: &[Gen]) -> Audit {
        let mut audit = Audit::default();
        for (i, file) in self.files.iter().enumerate() {
            let version = gens[i % THREADS].versions[i];
            let got = self.fs.read(&file.cap, 0, FILE_BYTES as u32);
            audit.check(
                got.as_deref() == Ok(&body(self.seed, i as u64, version, FILE_BYTES)[..]),
                || format!("file {i} does not hold its last acknowledged write"),
            );
        }
        let paid: u64 = gens.iter().map(|g| g.paid).sum();
        let (wallet0, server0) = self.balances0;
        match self.balances() {
            Ok((wallet, server)) => {
                audit.check(
                    wallet0.checked_sub(wallet) == Some(PRICE_PER_KIB * paid),
                    || format!("wallet went {wallet0} -> {wallet} over {paid} paid creates"),
                );
                audit.check(
                    server.checked_sub(server0) == Some(PRICE_PER_KIB * paid),
                    || {
                        format!(
                            "server account went {server0} -> {server} over {paid} paid creates"
                        )
                    },
                );
            }
            Err(e) => audit.check(false, || e),
        }
        audit
    }

    fn validated(&self) -> (SchemeKind, Port) {
        (SchemeKind::Commutative, self.fs_port)
    }

    fn layer_metrics(&self, view: &TraceView<'_>, gens: &[Gen]) -> Vec<(&'static str, f64)> {
        let dir_frames = view.tap.count(None, |dest, src| {
            self.dir_ports.iter().any(|p| p.value() == dest) || self.dir_machines.contains(&src)
        });
        let resolves = view.spans.get("dirsvr.resolve").map_or(0, |s| s.count);
        let peeked: u64 = gens.iter().map(|g| g.resolves).sum();
        let cached: u64 = gens.iter().map(|g| g.cached).sum();

        // Block frames per scratch op, replayed alone after the window.
        let (_, probed) = probe(&self.net, || {
            let mut tr = Tracer::off();
            for k in 0..PROBE_SCRATCHES {
                if let Err(e) = self.scratch((3 << 40) | k, &mut tr) {
                    eprintln!("probe scratch failed: {e}");
                }
            }
        });
        let block_frames = block_frames(&probed, self.disk);
        vec![
            (
                "dirsvr.resolve_frames_per_call",
                dir_frames as f64 / resolves.max(1) as f64,
            ),
            (
                "dirsvr.cache_hit_ratio",
                cached as f64 / peeked.max(1) as f64,
            ),
            (
                "block.frames_per_scratch",
                block_frames as f64 / PROBE_SCRATCHES as f64,
            ),
        ]
    }

    fn stop(self) {
        drop((self.dirs, self.fs, self.metered, self.bank));
        for r in self.runners {
            r.stop();
        }
    }
}

/// Frames to or from the block server.
fn block_frames(tap: &TapStats, (port, machine): (Port, u32)) -> u64 {
    tap.count(None, |dest, src| dest == port.value() || src == machine)
}
