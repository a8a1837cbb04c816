//! Measuring layers from outside: a network tap that classifies the
//! traced window's frames, and micro-timings of public layer functions
//! on the frames and capabilities the workload itself produced.

use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::ObjectNum;
use amoeba_crypto::oneway::ShaOneWay;
use amoeba_fbox::FBox;
use amoeba_net::{BufPool, Header, MachineId, Network, NetworkInterface, Port};
use amoeba_rpc::Frame;
use amoeba_server::ObjectTable;
use bytes::{Bytes, BytesMut};
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames of each kind kept for the codec micro-timings.
const SAMPLE_FRAMES: usize = 256;

/// One flow: (frame-kind tag, destination port, source machine).
pub type Flow = (u8, u64, u32);

/// What the tap saw.
#[derive(Debug, Default)]
pub struct TapStats {
    /// Frames and wire bytes per flow.
    pub flows: HashMap<Flow, (u64, u64)>,
    /// Sampled frames (header as transmitted, payload copy).
    pub samples: Vec<(Header, Bytes)>,
    /// Samples taken so far of [REQUEST, REPLY] frames.
    sampled: [usize; 2],
}

impl TapStats {
    /// The frame-kind tag of REQUEST frames.
    pub const REQUEST: u8 = 0;

    fn record(&mut self, header: Header, source: MachineId, payload: &Bytes) {
        let kind = payload.first().copied().unwrap_or(u8::MAX);
        let e = self
            .flows
            .entry((kind, header.dest.value(), source.as_u32()))
            .or_default();
        e.0 += 1;
        e.1 += payload.len() as u64;
        if kind <= 1 && self.sampled[kind as usize] < SAMPLE_FRAMES {
            self.sampled[kind as usize] += 1;
            self.samples.push((header, Bytes::copy_from_slice(payload)));
        }
    }

    /// Frames seen.
    pub fn frames(&self) -> u64 {
        self.flows.values().map(|v| v.0).sum()
    }

    /// Payload bytes seen.
    pub fn bytes(&self) -> u64 {
        self.flows.values().map(|v| v.1).sum()
    }

    /// Frames of `kind` matching `pred(dest port, source machine)`.
    pub fn count(&self, kind: Option<u8>, pred: impl Fn(u64, u32) -> bool) -> u64 {
        self.flows
            .iter()
            .filter(|((k, dest, src), _)| kind.is_none_or(|want| want == *k) && pred(*dest, *src))
            .map(|(_, v)| v.0)
            .sum()
    }
}

/// A running tap: a drain thread classifies frames as they are sent
/// and drops them at once, so the tap holds no frame buffer for long.
pub struct Tap {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<TapStats>,
}

impl Tap {
    /// Taps `net` from now on.
    pub fn start(net: &Network) -> Tap {
        let rx = net.tap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut stats = TapStats::default();
            // Poll rather than block: a blocked receiver would be woken
            // by every send, a context switch per frame.
            loop {
                let stopping = flag.load(Ordering::Acquire);
                while let Ok(p) = rx.try_recv() {
                    stats.record(p.header, p.source, &p.payload);
                }
                if stopping {
                    return stats;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        Tap { stop, handle }
    }

    /// Stops the drain thread once every frame sent so far is counted.
    pub fn finish(self) -> TapStats {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("tap drain thread panicked")
    }
}

/// Mean nanoseconds per call of `f`: calibrated to about 2 ms per
/// batch, median of seven batches.
pub fn time_ns(mut f: impl FnMut(usize)) -> f64 {
    let mut iters = 16usize;
    loop {
        let t0 = Instant::now();
        for i in 0..iters {
            f(i);
        }
        if t0.elapsed() >= Duration::from_millis(2) || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::stats::median(&batches)
}

/// Micro-timings of public layer functions.
#[derive(Debug, Default)]
pub struct Micro {
    /// `NetworkInterface::egress` of a memoizing hardware F-box on the
    /// workload's headers (0 when no F-box is in the path).
    pub egress_ns: f64,
    /// `Frame::encode_into` on the workload's frames.
    pub encode_ns: f64,
    /// `Frame::decode` on the workload's frames.
    pub decode_ns: f64,
    /// `BufPool::take` plus `BufPool::retire` of a one-frame buffer.
    pub buf_cycle_ns: f64,
    /// `ObjectTable::validate` with the workload's scheme and port.
    pub validate_ns: f64,
    /// `ProtectionScheme::mint` for [OneWay, Commutative].
    pub mint_ns: [f64; 2],
    /// `ProtectionScheme::validate` for [OneWay, Commutative].
    pub scheme_validate_ns: [f64; 2],
}

impl Micro {
    /// Times every layer function on `tap`'s sampled frames.
    pub fn measure(tap: &TapStats, fboxed: bool, validated: (SchemeKind, Port)) -> Micro {
        let payloads: Vec<Bytes> = tap.samples.iter().map(|(_, p)| p.clone()).collect();
        let frames: Vec<Frame> = payloads.iter().filter_map(Frame::decode).collect();
        let mut m = Micro::default();
        if !frames.is_empty() {
            let mut buf = BytesMut::with_capacity(1 << 16);
            m.encode_ns = time_ns(|i| {
                buf.clear();
                frames[i % frames.len()].encode_into(&mut buf);
                black_box(&buf);
            });
            m.decode_ns = time_ns(|i| {
                black_box(Frame::decode(black_box(&payloads[i % payloads.len()])));
            });
        }
        let pool = BufPool::new();
        m.buf_cycle_ns = time_ns(|_| {
            let mut b = pool.take();
            b.extend_from_slice(&[0]);
            pool.retire(black_box(b.freeze()));
        });
        if fboxed && !tap.samples.is_empty() {
            let fbox = FBox::hardware(ShaOneWay);
            let headers: Vec<Header> = tap.samples.iter().map(|(h, _)| *h).collect();
            for h in &headers {
                fbox.egress(&mut h.clone());
            }
            m.egress_ns = time_ns(|i| {
                let mut h = headers[i % headers.len()];
                fbox.egress(&mut h);
                black_box(h);
            });
        }
        let (kind, port) = validated;
        let table: ObjectTable<()> = ObjectTable::with_port(kind.instantiate(), port);
        let (_, cap) = table.create(());
        m.validate_ns = time_ns(|_| {
            black_box(table.validate(black_box(&cap)).is_ok());
        });
        let object = ObjectNum::new(1).expect("small object number");
        for (i, kind) in [SchemeKind::OneWay, SchemeKind::Commutative]
            .into_iter()
            .enumerate()
        {
            let scheme = kind.instantiate();
            let secret = scheme.new_secret(&mut rand::rngs::StdRng::seed_from_u64(7));
            let cap = scheme.mint(port, object, &secret);
            m.mint_ns[i] = time_ns(|_| {
                black_box(scheme.mint(black_box(port), object, &secret));
            });
            m.scheme_validate_ns[i] = time_ns(|_| {
                black_box(scheme.validate(black_box(&cap), &secret).is_ok());
            });
        }
        m
    }
}

/// Runs `f` under a fresh tap and returns what the tap saw. Frames are
/// queued at send time, so everything `f` caused is counted; run it
/// while no other load is on the network.
pub fn probe<R>(net: &Network, f: impl FnOnce() -> R) -> (R, TapStats) {
    let rx = net.tap();
    let out = f();
    let mut stats = TapStats::default();
    while let Ok(p) = rx.try_recv() {
        stats.record(p.header, p.source, &p.payload);
    }
    (out, stats)
}
