//! The driver's XMPP client: one connection's framing, sealing and
//! non-blocking I/O over a [`NetBackend`], shared by `chat_*` and
//! `churn`. Every backend call the driver makes is also counted, so the
//! syscalls it charges to the shared platform can be subtracted.

use std::sync::Arc;
use std::time::{Duration, Instant};

use enet::{NetBackend, NetError, RecvOutcome, SocketId};
use sgx_sim::CostHandle;
use xmpp::stanza::Stanza;
use xmpp::wire::{encode_frame, ConnCrypto, FrameBuf};

use crate::counters::DriverCharges;

/// The service's logical port ([`xmpp::XmppConfig::port`]'s default).
pub const PORT: u16 = 5222;

/// How long set-up waits for a listener, a handshake or a first echo.
pub const SETUP_TIMEOUT: Duration = Duration::from_secs(10);

/// What the driver does when a poll round found nothing: spin. It never
/// yields or sleeps while ops are due or in flight, on the CPU
/// [`crate::host::spawn_apart`] left it alone on. A driver that called `sched_yield` here read 5 to 10 times
/// the run-to-run spread (chat p50 720–1 040 us per second of window
/// against 1 170–1 320 us spinning): the scheduler's choices, not the
/// program's, decided each stanza's latency.
pub fn idle() {
    std::hint::spin_loop();
}

/// The backend plus the tally of what the driver's own calls charged.
pub struct Net {
    backend: Arc<dyn NetBackend>,
    syscall_cycles: u64,
}

impl Net {
    pub fn new(backend: Arc<dyn NetBackend>, costs: &CostHandle) -> Net {
        Net {
            backend,
            syscall_cycles: costs.model().syscall_cycles,
        }
    }

    fn charge(&self, charges: &mut DriverCharges) {
        charges.syscalls += 1;
        charges.cycles += self.syscall_cycles;
    }
}

/// One client connection.
pub struct Client {
    pub socket: SocketId,
    pub name: String,
    crypto: ConnCrypto,
    frames: FrameBuf,
    out: Vec<u8>,
}

impl Client {
    /// Connect and queue the stream opening. `costs` pays for the
    /// client's own sealing; pass a handle of a platform the service
    /// does not share, so client crypto stays out of its counters.
    pub fn connect(
        net: &Net,
        name: &str,
        costs: CostHandle,
        charges: &mut DriverCharges,
    ) -> Result<Client, NetError> {
        net.charge(charges);
        let socket = net.backend.connect(PORT)?;
        let mut client = Client {
            socket,
            name: name.to_owned(),
            crypto: ConnCrypto::for_user(name, costs),
            frames: FrameBuf::new(),
            out: Vec::with_capacity(512),
        };
        let open = Stanza::Stream {
            from: name.to_owned(),
            to: "eactors.example".to_owned(),
        };
        encode_frame(open.to_xml().as_bytes(), &mut client.out);
        Ok(client)
    }

    /// Seal `stanza` for this connection and queue its frame.
    pub fn queue_sealed(&mut self, stanza: &Stanza) {
        let sealed = self.crypto.seal_stanza(&stanza.to_xml());
        encode_frame(&sealed, &mut self.out);
    }

    /// Send what is queued; `true` once nothing is left. An error says,
    /// in words, why the connection is no longer usable.
    pub fn flush(&mut self, net: &Net, charges: &mut DriverCharges) -> Result<bool, String> {
        while !self.out.is_empty() {
            net.charge(charges);
            match net.backend.send(self.socket, &self.out) {
                Ok(0) | Err(NetError::WouldBlock) => return Ok(false),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(true)
    }

    /// Read whatever arrived; `true` if any bytes did.
    pub fn poll(&mut self, net: &Net, charges: &mut DriverCharges) -> Result<bool, String> {
        let mut buf = [0u8; 4096];
        let mut any = false;
        loop {
            net.charge(charges);
            match net.backend.recv(self.socket, &mut buf) {
                Ok(RecvOutcome::Data(n)) => {
                    self.frames.push(&buf[..n]);
                    any = true;
                    if n < buf.len() {
                        return Ok(true);
                    }
                }
                Ok(RecvOutcome::WouldBlock) => return Ok(any),
                Ok(RecvOutcome::Eof) => return Err("closed by the service".to_owned()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// The next complete frame, still sealed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        self.frames.next_frame().map_err(|e| e.to_string())
    }

    /// Authenticate, decrypt and parse a sealed frame.
    pub fn open(&self, frame: &[u8]) -> Result<Stanza, String> {
        let xml = self.crypto.open_stanza(frame).map_err(|e| e.to_string())?;
        Stanza::parse(&xml).map_err(|e| format!("{e:?}"))
    }

    /// Decrypt only (the caller times the parse apart).
    pub fn open_text(&self, frame: &[u8]) -> Result<String, String> {
        self.crypto.open_stanza(frame).map_err(|e| e.to_string())
    }

    pub fn close(self, net: &Net, charges: &mut DriverCharges) {
        net.charge(charges);
        let _ = net.backend.close(self.socket);
    }
}

/// The `socket` in a `StreamOk { id: "s<socket>" }`.
pub fn stream_ok_socket(frame: &[u8]) -> Result<u64, String> {
    let xml = std::str::from_utf8(frame).map_err(|e| e.to_string())?;
    match Stanza::parse(xml) {
        Ok(Stanza::StreamOk { id }) => id
            .strip_prefix('s')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("unexpected stream id {id:?}")),
        other => Err(format!("expected stream-ok, got {other:?}")),
    }
}

/// Connect `names` and complete every handshake, at most `wave` in
/// flight at once. Returns the clients in `names` order and each
/// handshake's duration (connect → `StreamOk` parsed).
pub fn handshake_all(
    net: &Net,
    names: &[String],
    costs: &CostHandle,
    wave: usize,
    charges: &mut DriverCharges,
) -> Result<(Vec<Client>, Vec<Duration>), String> {
    let deadline = Instant::now() + SETUP_TIMEOUT;
    let mut done: Vec<Client> = Vec::with_capacity(names.len());
    let mut took = Vec::with_capacity(names.len());
    for chunk in names.chunks(wave.max(1)) {
        let mut pending: Vec<Option<(Client, Instant)>> = Vec::with_capacity(chunk.len());
        for name in chunk {
            let started = Instant::now();
            let client = loop {
                match Client::connect(net, name, costs.clone(), charges) {
                    Ok(c) => break c,
                    // The listener comes up asynchronously after start.
                    Err(NetError::ConnectionRefused(_)) if Instant::now() < deadline => idle(),
                    Err(e) => return Err(format!("connect {name}: {e}")),
                }
            };
            pending.push(Some((client, started)));
        }
        let mut finished: Vec<Option<(Client, Duration)>> =
            (0..chunk.len()).map(|_| None).collect();
        let mut left = chunk.len();
        while left > 0 {
            if Instant::now() > deadline {
                return Err(format!(
                    "{left} handshakes still pending after {SETUP_TIMEOUT:?}"
                ));
            }
            let mut progressed = false;
            for (slot, out) in pending.iter_mut().zip(finished.iter_mut()) {
                let Some((client, started)) = slot else {
                    continue;
                };
                client
                    .flush(net, charges)
                    .map_err(|e| format!("{}: {e}", client.name))?;
                progressed |= client
                    .poll(net, charges)
                    .map_err(|e| format!("{}: {e}", client.name))?;
                if let Some(frame) = client.next_frame()? {
                    stream_ok_socket(&frame)?;
                    let started = *started;
                    let (client, _) = slot.take().expect("checked above");
                    *out = Some((client, started.elapsed()));
                    left -= 1;
                }
            }
            if !progressed {
                idle();
            }
        }
        for (client, t) in finished.into_iter().flatten() {
            done.push(client);
            took.push(t);
        }
    }
    Ok((done, took))
}
