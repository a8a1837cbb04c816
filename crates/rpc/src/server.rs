//! The server side: GET on a port, loop over requests, reply.
//!
//! # Dispatch model
//!
//! A [`ServerPort`] is shared (via `Arc`) by every worker of a dispatch
//! pool, and every worker runs the paper's plain server loop: block on
//! the endpoint's packet queue, decode what arrives, serve it, reply.
//! The queue is MPMC, so each packet goes to exactly one worker, and
//! the worker that dequeues a single-frame request (`REQUEST`,
//! `RELAY_REQUEST` or a transfer frame) serves it itself: one wake per
//! request, no hand-off between threads.
//!
//! A `BATCH_REQUEST` frame is the one exception. The worker that
//! dequeues it **explodes** it: it serves the first entry itself and
//! pushes the rest onto an internal ready queue, which every worker
//! drains before it blocks again. So that the entries run on the pool
//! at once, the exploding worker also wakes at most
//! `min(entries − 1, idle workers)` of the workers blocked on the
//! endpoint, each with [`Endpoint::wake_one`] — a local empty packet
//! that never reaches the wire. An atomic counts the blocked workers.
//!
//! Under a virtual or simulated clock, workers park on the network's
//! reactor instead, polling the ready queue and the packet queue
//! together; a ready-queue push notifies the reactor, so no local wake
//! is rung there. [`ServerPort::poll_request`] is the non-blocking form
//! of the same loop, for driver threads that multiplex many ports.
//!
//! # Batch fan-in
//!
//! Each exploded batch entry carries a shared accumulator.
//! [`ServerPort::reply`] deposits the entry's reply body there instead
//! of sending a frame; whichever worker deposits the **last** body
//! encodes the complete `BATCH_REPLY` frame and transmits it. One frame
//! in, one frame out, regardless of how many workers served the
//! entries. If any entry is never replied to, no batch reply is sent
//! and the client's retransmission machinery takes over — identical to
//! the single-frame contract.
//!
//! The server loop also transparently answers broadcast LOCATE queries
//! for its port, implementing the software match-making of §2.2.

use crate::frame::{self, BatchReplyEntry, BatchStatus, Frame, FrameKind, TransferOp};
use amoeba_net::{
    BufPool, Endpoint, Gate, Header, HotMutex, MachineId, Packet, Port, RecvError, Timestamp,
};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A request as seen by the server.
#[derive(Debug, Clone)]
pub struct IncomingRequest {
    /// Opaque request body (the capability, opcode and parameters, as
    /// encoded by `amoeba-server`).
    pub payload: Bytes,
    /// The wire put-port to reply to — already `F(G′)`, transformed by
    /// the *client's* F-box in transit.
    pub reply_to: Port,
    /// The transmitted signature field, `F(S)` of the sender's secret
    /// signature, or `None` if the request was unsigned. Compare against
    /// the principal's published `F(S)`.
    pub signature: Option<Port>,
    /// The (unforgeable) source machine.
    pub source: MachineId,
    /// Present when this request arrived as one entry of a batch frame;
    /// routes the reply into the batch's fan-in accumulator.
    batch: Option<BatchSlot>,
    /// Present when this request arrived as a transfer frame (shard
    /// migration); `payload` is empty and the dispatch layer routes the
    /// op to the service's migrator instead of its request handler.
    transfer: Option<TransferOp>,
    /// Whether this request arrived as a `RELAY_REQUEST` (forwarded by
    /// a server that no longer owns its shard); the reply then goes out
    /// as a `RELAYED_REPLY` so the client's route cache ignores it.
    relayed: bool,
    /// Virtual-clock delivery gate, held while the decoded request
    /// waits in the ready queue and released when a worker claims it.
    gate: Option<Gate>,
}

impl IncomingRequest {
    /// `(batch id, entry index)` when this request arrived inside a
    /// `BATCH_REQUEST` frame, `None` for a single-frame request.
    pub fn batch_context(&self) -> Option<(u32, u16)> {
        self.batch.as_ref().map(|s| (s.acc.id, s.index))
    }

    /// The shard-migration op when this "request" arrived as a transfer
    /// frame, `None` for an ordinary request. Transfer ops are answered
    /// with [`ServerPort::reply`] like any other request.
    pub fn transfer_op(&self) -> Option<&TransferOp> {
        self.transfer.as_ref()
    }
}

/// One entry's handle into its batch's reply accumulator.
#[derive(Debug, Clone)]
struct BatchSlot {
    acc: Arc<BatchAccumulator>,
    index: u16,
}

/// Collects per-entry replies until the batch is complete. The slot
/// lock is a counted [`HotMutex`] (metered against the server's pool):
/// batch fan-in is inherently a rendezvous, so its cost is accounted,
/// not hidden — the lock-free single-frame path never touches it.
#[derive(Debug)]
struct BatchAccumulator {
    id: u32,
    reply_to: Port,
    slots: HotMutex<BatchSlots>,
}

#[derive(Debug)]
struct BatchSlots {
    entries: Vec<Option<(BatchStatus, Bytes)>>,
    filled: usize,
    /// Set once the final entry fan-in has consumed the slots. The
    /// rebuild takes the bodies out of the slots (so their buffers can
    /// be retired), which means emptiness no longer distinguishes
    /// "never deposited" from "already shipped" — this flag does, and
    /// keeps a post-completion duplicate deposit a no-op.
    done: bool,
}

impl BatchAccumulator {
    fn new(id: u32, reply_to: Port, count: usize, pool: &BufPool) -> BatchAccumulator {
        BatchAccumulator {
            id,
            reply_to,
            slots: HotMutex::with_meter(
                BatchSlots {
                    entries: vec![None; count],
                    filled: 0,
                    done: false,
                },
                pool.lock_meter(),
            ),
        }
    }

    /// Deposits one entry's reply; returns the encoded `BATCH_REPLY`
    /// frame when this was the last outstanding entry, built in a
    /// pooled buffer with the entry bodies retired back to the pool.
    /// Duplicate deposits for an index — before or after the batch
    /// completed — are ignored (a retransmitted batch can race its
    /// original through two workers).
    fn submit(
        &self,
        index: u16,
        status: BatchStatus,
        body: Bytes,
        pool: &BufPool,
    ) -> Option<Bytes> {
        let mut slots = self.slots.lock();
        if slots.done {
            return None;
        }
        let slot = slots.entries.get_mut(index as usize)?;
        if slot.is_some() {
            return None;
        }
        *slot = Some((status, body));
        slots.filled += 1;
        if slots.filled < slots.entries.len() {
            return None;
        }
        slots.done = true;
        let entries: Vec<BatchReplyEntry> = slots
            .entries
            .iter_mut()
            .enumerate()
            .map(|(i, s)| {
                let (status, body) = s.take().expect("all slots filled");
                BatchReplyEntry {
                    index: i as u16,
                    status,
                    body,
                }
            })
            .collect();
        let reply = Frame::BatchReply {
            id: self.id,
            entries,
        };
        let mut buf = pool.take();
        reply.encode_into(&mut buf);
        // The frame now carries copies of every body. The bodies are
        // foreign handles (handler threads own their storage), so
        // *release* them — reclaim-if-unique — rather than parking
        // still-shared buffers on this thread.
        if let Frame::BatchReply { entries, .. } = reply {
            for e in entries {
                pool.release(e.body);
            }
        }
        Some(buf.freeze())
    }
}

/// A bound server port: the result of `GET(G)`.
///
/// A `ServerPort` is safe to share (e.g. in an `Arc`) across a pool of
/// dispatch workers: concurrent [`next_request`](Self::next_request)
/// calls each claim a distinct request (batch entries included), and
/// [`reply`](Self::reply) is stateless for single frames and
/// internally synchronised for batch fan-in. See the module docs for
/// the dispatch model.
#[derive(Debug)]
pub struct ServerPort {
    endpoint: Endpoint,
    get_port: Port,
    wire_port: Port,
    /// Entries of exploded batches awaiting a worker (MPMC: each
    /// claimed once).
    ready_tx: Sender<IncomingRequest>,
    ready_rx: Receiver<IncomingRequest>,
    /// Workers blocked on the endpoint's packet queue (wall clock
    /// only); bounds the local wakes an exploded batch rings.
    idle: AtomicUsize,
    /// Reply frames (and handler-built bodies) are encoded into and
    /// retired back to this pool; steady-state replies allocate
    /// nothing.
    pool: BufPool,
}

// The worker-pool dispatch engine shares one bound port across
// threads; keep that property from regressing silently.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<ServerPort>();
};

/// What a waiting worker found: a queued batch entry, or a packet.
enum Arrival {
    Ready(IncomingRequest),
    Packet(Packet),
}

impl ServerPort {
    /// `GET(G)`: claims the get-port on the endpoint's interface and
    /// returns the bound server, encoding into a private [`BufPool`].
    pub fn bind(endpoint: Endpoint, get_port: Port) -> ServerPort {
        Self::bind_with_pool(endpoint, get_port, BufPool::new())
    }

    /// [`bind`](Self::bind) encoding into `pool` — pass a shared handle
    /// to aggregate allocation counters across parties.
    pub fn bind_with_pool(endpoint: Endpoint, get_port: Port, pool: BufPool) -> ServerPort {
        let wire_port = endpoint.claim(get_port);
        let (ready_tx, ready_rx) = unbounded();
        ServerPort {
            endpoint,
            get_port,
            wire_port,
            ready_tx,
            ready_rx,
            idle: AtomicUsize::new(0),
            pool,
        }
    }

    /// The frame-buffer pool replies are encoded into. Handlers can
    /// take/retire body buffers here so body allocations ride the same
    /// recycling as frame allocations.
    pub fn buf_pool(&self) -> &BufPool {
        &self.pool
    }

    /// The put-port clients should send to (`F(G)` under an F-box;
    /// `G` itself on an open interface).
    pub fn put_port(&self) -> Port {
        self.wire_port
    }

    /// The secret get-port (never goes on the wire).
    pub fn get_port(&self) -> Port {
        self.get_port
    }

    /// The underlying endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Blocks for the next client request, transparently answering
    /// LOCATE broadcasts in the meantime.
    ///
    /// # Errors
    /// [`RecvError::Disconnected`] if the endpoint is detached.
    pub fn next_request(&self) -> Result<IncomingRequest, RecvError> {
        self.next_request_deadline(None)
    }

    /// Like [`next_request`](Self::next_request) with a deadline.
    ///
    /// # Errors
    /// [`RecvError::Timeout`] on expiry; [`RecvError::Disconnected`] if
    /// detached.
    pub fn next_request_timeout(&self, timeout: Duration) -> Result<IncomingRequest, RecvError> {
        self.next_request_deadline(Some(self.endpoint.now() + timeout))
    }

    /// Gates a queued batch entry (virtual clock only): the timeline
    /// may not pass its arrival instant until a worker claims it, so a
    /// slow hand-off cannot distort other flows' timing.
    fn ready_gate(&self, pkt: &Packet) -> Option<Gate> {
        let reactor = self.endpoint.reactor();
        reactor
            .uses_gates()
            .then(|| reactor.register_gate(pkt.deliver_at()))
    }

    /// Hands a request to its worker, releasing its gate. Every
    /// receive path funnels through here, so it is also where the
    /// flight recorder sees a request leave the queue for a worker.
    fn claim(&self, req: IncomingRequest) -> IncomingRequest {
        if let Some(gate) = req.gate {
            self.endpoint.reactor().release_gate(gate);
        }
        let obs = self.endpoint.obs();
        if obs.enabled() {
            obs.record(
                amoeba_net::EventKind::PumpDequeue,
                self.endpoint.now().since_epoch().as_nanos() as u64,
                0,
                req.reply_to.value(),
                u64::from(req.source.as_u32()),
            );
        }
        req
    }

    /// Non-blocking receive for reactor driver loops: serves a queued
    /// batch entry if there is one, otherwise decodes queued packets
    /// until one yields a request. Never parks the thread (though under
    /// a virtual clock consuming a delivery may briefly wait for
    /// earlier deliveries to be consumed); a driver multiplexing many
    /// bound ports calls this in a scan and parks on the reactor only
    /// when every port comes up empty.
    pub fn poll_request(&self) -> Option<IncomingRequest> {
        loop {
            if let Ok(req) = self.ready_rx.try_recv() {
                return Some(self.claim(req));
            }
            let pkt = self.endpoint.poll_arrival()?;
            self.endpoint.reactor().deliver(&pkt);
            if let Some(req) = self.process(pkt) {
                return Some(self.claim(req));
            }
        }
    }

    /// Whether a call to [`poll_request`](Self::poll_request) could
    /// make progress right now: a batch entry is queued or a packet
    /// has arrived. Two loads, never a block.
    pub fn has_claimable_work(&self) -> bool {
        !self.ready_rx.is_empty() || self.endpoint.has_arrivals()
    }

    /// The worker loop behind both blocking receives; `None` waits
    /// forever.
    fn next_request_deadline(
        &self,
        deadline: Option<Timestamp>,
    ) -> Result<IncomingRequest, RecvError> {
        loop {
            let arrival = if self.endpoint.reactor().is_virtual() {
                self.park(deadline)?
            } else {
                // Counted idle *before* the last look at the ready
                // queue: a worker exploding a batch either sees this
                // count and wakes us, or pushed its entries before our
                // look (both sides pass through the queue's mutex).
                self.idle.fetch_add(1, Ordering::SeqCst);
                let arrival = match self.ready_rx.try_recv() {
                    Ok(req) => Ok(Arrival::Ready(req)),
                    Err(_) => match deadline {
                        None => self.endpoint.recv(),
                        Some(d) => self.endpoint.recv_deadline(d),
                    }
                    .map(Arrival::Packet),
                };
                self.idle.fetch_sub(1, Ordering::SeqCst);
                arrival?
            };
            let req = match arrival {
                Arrival::Ready(req) => Some(req),
                Arrival::Packet(pkt) => self.process(pkt),
            };
            if let Some(req) = req {
                return Ok(self.claim(req));
            }
        }
    }

    /// The virtual- and sim-clock wait: parks on the reactor until a
    /// batch entry is queued or a packet arrives. No local wake is
    /// needed here; ready-queue pushes notify the reactor.
    fn park(&self, deadline: Option<Timestamp>) -> Result<Arrival, RecvError> {
        let reactor = self.endpoint.reactor();
        let arrival = reactor.park_until(deadline, || match self.ready_rx.try_recv() {
            Ok(req) => Some(Arrival::Ready(req)),
            Err(_) => self.endpoint.poll_arrival().map(Arrival::Packet),
        });
        // Consume the delivery outside the park: it re-enters the
        // reactor.
        if let Some(Arrival::Packet(pkt)) = &arrival {
            reactor.deliver(pkt);
        }
        arrival.ok_or(RecvError::Timeout)
    }

    /// Decodes one packet. A single-frame request comes back to be
    /// served by the caller; a batch is exploded (see
    /// [`explode`](Self::explode)); a LOCATE for our port is answered
    /// here; anything else, local wakes included, is dropped.
    fn process(&self, pkt: Packet) -> Option<IncomingRequest> {
        let (frame, relayed) = Frame::decode(&pkt.payload).map(Frame::unrelay)?;
        let ours = pkt.header.dest == self.wire_port;
        let request = |payload, transfer| IncomingRequest {
            payload,
            reply_to: pkt.header.reply,
            signature: signature_of(&pkt),
            source: pkt.source,
            batch: None,
            transfer,
            relayed,
            gate: None,
        };
        match frame {
            Frame::Request(body) if ours => Some(request(body, None)),
            Frame::Transfer(op) if ours => Some(request(Bytes::new(), Some(op))),
            Frame::BatchRequest { id, entries } if ours => self.explode(&pkt, id, entries),
            // Someone broadcast a LOCATE for our port; answer it.
            Frame::Locate(port)
                if pkt.header.dest.is_broadcast()
                    && port == self.wire_port
                    && !pkt.header.reply.is_null() =>
            {
                let mut buf = self.pool.take();
                Frame::LocateReply(self.wire_port, self.endpoint.id()).encode_into(&mut buf);
                let reply = buf.freeze();
                self.endpoint
                    .send(Header::to(pkt.header.reply), reply.clone());
                self.pool.retire(reply);
                None
            }
            _ => None,
        }
    }

    /// Returns a batch's first entry for the caller to serve and
    /// queues the rest for the pool, waking at most one blocked worker
    /// per queued entry so they run at once.
    fn explode(&self, pkt: &Packet, id: u32, entries: Vec<Bytes>) -> Option<IncomingRequest> {
        // One-way batches (null reply port) are dispatched with no
        // accumulator: every entry is served, nothing is sent back —
        // mirroring one-way single frames.
        let acc = (!pkt.header.reply.is_null()).then(|| {
            Arc::new(BatchAccumulator::new(
                id,
                pkt.header.reply,
                entries.len(),
                &self.pool,
            ))
        });
        let mut entries = entries
            .into_iter()
            .enumerate()
            .map(|(index, body)| IncomingRequest {
                payload: body,
                reply_to: pkt.header.reply,
                signature: signature_of(pkt),
                source: pkt.source,
                batch: acc.as_ref().map(|acc| BatchSlot {
                    acc: Arc::clone(acc),
                    index: index as u16,
                }),
                transfer: None,
                relayed: false,
                gate: None,
            });
        let first = entries.next()?;
        let mut queued = 0;
        for mut req in entries {
            req.gate = self.ready_gate(pkt);
            let _ = self.ready_tx.send(req);
            queued += 1;
        }
        if queued > 0 {
            // Reactor-parked workers and drivers re-poll on a notify;
            // workers blocked on the endpoint need a local wake.
            self.endpoint.reactor().notify();
            let wakes = queued.min(self.idle.load(Ordering::SeqCst));
            for _ in 0..wakes {
                self.endpoint.wake_one();
            }
            if let Some(m) = self.endpoint.obs().metrics() {
                m.worker_wakes.add(wakes as u64);
            }
        }
        Some(first)
    }

    /// Sends a reply for `request`. For a batch entry this deposits the
    /// body in the batch's accumulator; the worker depositing the final
    /// entry transmits the whole `BATCH_REPLY` frame.
    ///
    /// Reply frames are encoded into pooled buffers and retired after
    /// transmission, so a steady-state server replies without touching
    /// the allocator.
    pub fn reply(&self, request: &IncomingRequest, body: Bytes) {
        match &request.batch {
            Some(slot) => {
                if let Some(frame) = slot
                    .acc
                    .submit(slot.index, BatchStatus::Ok, body, &self.pool)
                {
                    self.endpoint
                        .send(Header::to(slot.acc.reply_to), frame.clone());
                    self.pool.retire(frame);
                }
            }
            None => {
                if request.reply_to.is_null() {
                    // One-way request: nothing goes on the wire, but
                    // the (typically pooled) body buffer still
                    // recycles.
                    self.pool.retire(body);
                    return;
                }
                let mut buf = self.pool.take();
                if request.relayed {
                    frame::encode_relay_into(&mut buf, FrameKind::RelayedReply, &body);
                } else {
                    frame::encode_reply_into(&mut buf, &body);
                }
                self.pool.retire(body);
                let frame = buf.freeze();
                self.endpoint
                    .send(Header::to(request.reply_to), frame.clone());
                self.pool.retire(frame);
            }
        }
    }

    /// Relays `request` to another server port, preserving the client's
    /// reply port (and signature) so the new owner replies *straight to
    /// the client* — the client's demultiplexer correlates on the reply
    /// port alone, so the relayed reply completes the original
    /// transaction with no gap and no extra hop back through us.
    ///
    /// The request travels as a `RELAY_REQUEST` frame, so the new owner
    /// answers with a `RELAYED_REPLY`: the client then knows the
    /// replying machine does not serve the port it addressed, and its
    /// `(port, machine)` route cache keeps the route it had.
    ///
    /// Only sound on **open interfaces** (every cluster deployment in
    /// this repository): an F-box would transform the relayed reply and
    /// signature fields a second time on our egress, breaking the
    /// correlation. Batch entries cannot be relayed either — their
    /// replies fan into this server's accumulator — so they are
    /// rejected instead ([`BatchStatus::Rejected`], which the client
    /// surfaces as a retryable transport error). Returns `true` when
    /// the request actually went to `dest`.
    pub fn forward(&self, request: &IncomingRequest, dest: Port) -> bool {
        if request.batch.is_some() {
            self.reject(request);
            return false;
        }
        let mut buf = self.pool.take();
        frame::encode_relay_into(&mut buf, FrameKind::RelayRequest, &request.payload);
        let frame = buf.freeze();
        let mut header = Header::to(dest).with_reply(request.reply_to);
        if let Some(sig) = request.signature {
            header = header.with_signature(sig);
        }
        self.endpoint.send(header, frame.clone());
        self.pool.retire(frame);
        let obs = self.endpoint.obs();
        if obs.enabled() {
            obs.record(
                amoeba_net::EventKind::RequestForwarded,
                self.endpoint.now().since_epoch().as_nanos() as u64,
                0,
                dest.value(),
                request.reply_to.value(),
            );
            if let Some(m) = obs.metrics() {
                m.requests_forwarded.add(1);
            }
        }
        true
    }

    /// Declines `request` without serving it. A batch entry deposits
    /// [`BatchStatus::Rejected`] (the client sees a retryable transport
    /// error); a single-frame request is simply dropped, so the
    /// client's retransmission machinery retries it — the contract a
    /// sealed shard relies on during the migration cutover window.
    pub fn reject(&self, request: &IncomingRequest) {
        if let Some(slot) = &request.batch {
            if let Some(frame) =
                slot.acc
                    .submit(slot.index, BatchStatus::Rejected, Bytes::new(), &self.pool)
            {
                self.endpoint
                    .send(Header::to(slot.acc.reply_to), frame.clone());
                self.pool.retire(frame);
            }
        }
    }
}

impl Drop for ServerPort {
    fn drop(&mut self) {
        // Batch entries never claimed would otherwise hold their
        // ready-queue gates forever and wedge the virtual timeline.
        while let Ok(req) = self.ready_rx.try_recv() {
            if let Some(gate) = req.gate {
                self.endpoint.reactor().release_gate(gate);
            }
        }
    }
}

fn signature_of(pkt: &Packet) -> Option<Port> {
    (!pkt.header.signature.is_null()).then_some(pkt.header.signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RpcConfig, RpcError};
    use amoeba_net::Network;

    fn fast() -> RpcConfig {
        RpcConfig {
            timeout: Duration::from_millis(100),
            attempts: 2,
        }
    }

    #[test]
    fn request_reply_roundtrip_open_nics() {
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x11).unwrap());
        let p = server.put_port();
        let t = std::thread::spawn(move || {
            let req = server.next_request().unwrap();
            assert_eq!(&req.payload[..], b"ping");
            assert!(req.batch_context().is_none());
            server.reply(&req, Bytes::from_static(b"pong"));
        });
        let client = Client::with_config(net.attach_open(), fast());
        let reply = client.trans(p, Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&reply[..], b"pong");
        t.join().unwrap();
    }

    #[test]
    fn open_nic_put_port_equals_get_port() {
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x22).unwrap());
        assert_eq!(server.put_port(), server.get_port());
    }

    #[test]
    fn unsigned_requests_have_no_signature() {
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x33).unwrap());
        let p = server.put_port();
        let t = std::thread::spawn(move || {
            let req = server.next_request().unwrap();
            assert!(req.signature.is_none());
            server.reply(&req, Bytes::new());
        });
        let client = Client::with_config(net.attach_open(), fast());
        client.trans(p, Bytes::new()).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn next_request_timeout_expires() {
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x44).unwrap());
        assert_eq!(
            server
                .next_request_timeout(Duration::from_millis(10))
                .unwrap_err(),
            RecvError::Timeout
        );
    }

    #[test]
    fn shared_port_workers_claim_disjoint_requests() {
        // Two threads drain one bound port; every request is answered
        // exactly once no matter which worker claims it.
        use std::sync::Arc;
        let net = Network::new();
        let server = Arc::new(ServerPort::bind(
            net.attach_open(),
            Port::new(0x66).unwrap(),
        ));
        let p = server.put_port();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let mut served = 0u32;
                    while let Ok(req) = server.next_request_timeout(Duration::from_millis(200)) {
                        server.reply(&req, req.payload.clone()); // echo
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        let mut clients = Vec::new();
        for i in 0..8u32 {
            let net = net.clone();
            clients.push(std::thread::spawn(move || {
                let client = Client::with_config(
                    net.attach_open(),
                    RpcConfig {
                        timeout: Duration::from_millis(500),
                        attempts: 3,
                    },
                );
                let body = Bytes::from(i.to_be_bytes().to_vec());
                let reply = client.trans(p, body.clone()).unwrap();
                assert_eq!(reply, body);
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        let total: u32 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 8, "each request claimed by exactly one worker");
    }

    #[test]
    fn batch_entries_fan_out_across_workers_and_fan_in_one_reply() {
        use std::sync::Arc;
        let net = Network::new();
        let server = Arc::new(ServerPort::bind(
            net.attach_open(),
            Port::new(0x77).unwrap(),
        ));
        let p = server.put_port();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let mut served = 0u32;
                    while let Ok(req) = server.next_request_timeout(Duration::from_millis(300)) {
                        assert!(req.batch_context().is_some());
                        server.reply(&req, req.payload.clone());
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_secs(2),
                attempts: 2,
            },
        );
        let before = net.stats().snapshot();
        let bodies: Vec<Bytes> = (0..12u8).map(|i| Bytes::from(vec![i])).collect();
        let results = client.trans_batch(p, bodies.clone()).unwrap();
        for (expect, got) in bodies.iter().zip(&results) {
            assert_eq!(got.as_ref().unwrap(), expect);
        }
        assert_eq!(
            net.stats().snapshot().packets_sent - before.packets_sent,
            2,
            "12 entries, 1 frame each way"
        );
        let total: u32 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 12, "every batch entry claimed exactly once");
    }

    #[test]
    fn forward_relays_single_requests_and_rejects_batch_entries() {
        // A single request is relayed as RELAY_REQUEST and its reply
        // comes back as RELAYED_REPLY; batch entries cannot be relayed
        // (their replies fan in here), so both are rejected instead.
        let net = Network::new();
        let old = ServerPort::bind(net.attach_open(), Port::new(0x88).unwrap());
        let new = ServerPort::bind(net.attach_open(), Port::new(0x89).unwrap());
        let (p_old, p_new) = (old.put_port(), new.put_port());
        let relay = std::thread::spawn(move || {
            let mut relayed = 0;
            while let Ok(req) = old.next_request_timeout(Duration::from_millis(300)) {
                relayed += u32::from(old.forward(&req, p_new));
            }
            relayed
        });
        let serve = std::thread::spawn(move || {
            while let Ok(req) = new.next_request_timeout(Duration::from_millis(300)) {
                assert!(req.relayed, "forwarded requests arrive flagged");
                new.reply(&req, Bytes::from_static(b"served"));
            }
        });
        let client = Client::with_config(net.attach_open(), fast());
        let (body, relayed) = client
            .trans_relayed(p_old, Bytes::from_static(b"one"))
            .unwrap();
        assert_eq!((&body[..], relayed), (&b"served"[..], true));
        let results = client
            .trans_batch(
                p_old,
                vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")],
            )
            .unwrap();
        assert_eq!(
            results,
            vec![Err(RpcError::Rejected), Err(RpcError::Rejected)]
        );
        assert_eq!(relay.join().unwrap(), 1, "only the single request relays");
        serve.join().unwrap();
    }

    #[test]
    fn duplicate_batch_deposit_after_completion_is_ignored() {
        // A retransmitted batch can race its original through two
        // workers, so deposits may land *after* the reply frame
        // shipped (when the slots have been consumed for body
        // retirement). They must be no-ops — not panics, not second
        // frames.
        let pool = amoeba_net::BufPool::new();
        let acc = BatchAccumulator::new(7, Port::new(0x99).unwrap(), 2, &pool);
        assert!(acc
            .submit(0, BatchStatus::Ok, Bytes::from_static(b"a"), &pool)
            .is_none());
        assert!(acc
            .submit(1, BatchStatus::Ok, Bytes::from_static(b"b"), &pool)
            .is_some());
        assert!(acc
            .submit(0, BatchStatus::Ok, Bytes::from_static(b"a"), &pool)
            .is_none());
        assert!(acc
            .submit(1, BatchStatus::Rejected, Bytes::new(), &pool)
            .is_none());
        // Out-of-range duplicates stay harmless too.
        assert!(acc
            .submit(9, BatchStatus::Ok, Bytes::new(), &pool)
            .is_none());
    }

    #[test]
    fn retransmission_reaches_server_after_loss() {
        let net = Network::new();
        net.reseed(7);
        let server = ServerPort::bind(net.attach_open(), Port::new(0x55).unwrap());
        let p = server.put_port();
        let t = std::thread::spawn(move || {
            let req = server.next_request().unwrap();
            server.reply(&req, Bytes::from_static(b"ok"));
            // Absorb a possible duplicate from the retry.
            let _ = server.next_request_timeout(Duration::from_millis(50));
        });
        // Drop everything for the first attempt...
        net.set_drop_rate(1.0);
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_millis(30),
                attempts: 10,
            },
        );
        let net2 = net.clone();
        let heal = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(45));
            net2.set_drop_rate(0.0);
        });
        let reply = client.trans(p, Bytes::from_static(b"once more")).unwrap();
        assert_eq!(&reply[..], b"ok");
        heal.join().unwrap();
        t.join().unwrap();
    }
}
