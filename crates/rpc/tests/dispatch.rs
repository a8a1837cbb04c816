//! The server loop's local wakes: an exploded batch pulls idle workers
//! over with `Endpoint::wake_one`, which must never reach the wire, and
//! only the wall-clock blocking receive ever rings one.

use amoeba_net::{Header, Network, Packet, Port};
use amoeba_rpc::{Client, Frame, RpcConfig, ServerPort};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn patient() -> RpcConfig {
    RpcConfig {
        timeout: Duration::from_secs(30),
        attempts: 1,
    }
}

/// `n` echo workers on one bound port, serving until `stop` is set.
fn spawn_echo_workers(
    server: &Arc<ServerPort>,
    n: usize,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..n)
        .map(|_| {
            let server = Arc::clone(server);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(req) = server.next_request_timeout(Duration::from_millis(20)) {
                        server.reply(&req, req.payload.clone());
                    }
                }
            })
        })
        .collect()
}

fn worker_wakes(net: &Network) -> u64 {
    net.obs().metrics().expect("obs enabled").worker_wakes.get()
}

fn four_bodies() -> Vec<Bytes> {
    (0..4u8).map(|i| Bytes::from(vec![i])).collect()
}

#[test]
fn batch_wakes_stay_off_the_wire_and_single_frames_wake_nobody() {
    let net = Network::new();
    net.obs().enable();
    let tap = net.tap();
    let server = Arc::new(ServerPort::bind(
        net.attach_open(),
        Port::new(0x7C).unwrap(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let workers = spawn_echo_workers(&server, 4, &stop);
    let client = Client::with_config(net.attach_open(), patient());
    // A batch rings wakes only when it finds workers blocked on the
    // endpoint; repeat until one has, checking the wire every time.
    for _ in 0..200 {
        let before = net.stats().snapshot();
        let results = client
            .trans_batch(server.put_port(), four_bodies())
            .unwrap();
        for (expect, got) in four_bodies().iter().zip(&results) {
            assert_eq!(got.as_ref().unwrap(), expect);
        }
        let after = net.stats().snapshot();
        let frames: Vec<Packet> = std::iter::from_fn(|| tap.try_recv().ok()).collect();
        assert_eq!(frames.len(), 2, "the tap sees only the real frames");
        assert!(matches!(
            Frame::decode(&frames[0].payload),
            Some(Frame::BatchRequest { .. })
        ));
        assert!(matches!(
            Frame::decode(&frames[1].payload),
            Some(Frame::BatchReply { .. })
        ));
        assert_eq!(after.packets_sent - before.packets_sent, 2);
        assert_eq!(after.packets_delivered - before.packets_delivered, 2);
        assert_eq!(
            after.bytes_sent - before.bytes_sent,
            frames.iter().map(Packet::wire_len).sum::<u64>()
        );
        if worker_wakes(&net) > 0 {
            break;
        }
    }
    let wakes = worker_wakes(&net);
    assert!(wakes > 0, "no batch found an idle worker to wake");

    for i in 0..16u8 {
        let body = Bytes::from(vec![i]);
        assert_eq!(client.trans(server.put_port(), body.clone()).unwrap(), body);
    }
    assert_eq!(worker_wakes(&net), wakes, "single frames ring no wake");
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn virtual_clock_batches_ring_no_wake() {
    let net = Network::new_virtual();
    net.obs().enable();
    let server = Arc::new(ServerPort::bind(
        net.attach_open(),
        Port::new(0x7D).unwrap(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let workers = spawn_echo_workers(&server, 4, &stop);
    let client = Client::with_config(net.attach_open(), patient());
    for _ in 0..3 {
        let results = client
            .trans_batch(server.put_port(), four_bodies())
            .unwrap();
        assert!(results.iter().all(Result::is_ok));
    }
    assert_eq!(worker_wakes(&net), 0);
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn sim_clock_batches_ring_no_wake() {
    let net = Network::new_sim(7);
    net.obs().enable();
    let server = ServerPort::bind(net.attach_open(), Port::new(0x7E).unwrap());
    let client = net.attach_open();
    let batch = Frame::BatchRequest {
        id: 1,
        entries: four_bodies(),
    };
    let header = Header::to(server.put_port()).with_reply(Port::new(0x7F).unwrap());
    client.send(header, batch.encode());
    // A blocking receive on the sim clock releases the delivery itself;
    // the entries come back in order.
    for i in 0..4u16 {
        let req = server.next_request_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(req.batch_context(), Some((1, i)));
        server.reply(&req, req.payload.clone());
    }
    assert_eq!(worker_wakes(&net), 0);
    assert!(!server.endpoint().has_arrivals(), "no wake packet queued");
}
