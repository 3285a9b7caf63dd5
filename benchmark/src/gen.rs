//! Seeded input generation. The seed drives payload bytes, arrival
//! gaps, key choice and room choice; the program under test sees only
//! what these generators emit, and the same seed emits the same bytes.

/// SplitMix64: small, fast, and good enough to decorrelate streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `label` under the same seed.
    pub fn stream(seed: u64, label: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]; 53-bit mantissa.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fill `out` with lower-case letters (no XML escaping needed).
    pub fn letters(&mut self, out: &mut Vec<u8>, n: usize) {
        let mut word = 0u64;
        for i in 0..n {
            if i % 8 == 0 {
                word = self.next_u64();
            }
            out.push(b'a' + ((word & 0xFF) % 26) as u8);
            word >>= 8;
        }
    }
}

/// Poisson arrivals: exponential inter-arrival gaps with mean `1/rate`,
/// as nanoseconds since the schedule's origin.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: Rng,
    mean_gap_ns: f64,
    next_ns: f64,
}

impl Arrivals {
    pub fn new(seed: u64, rate: f64) -> Arrivals {
        let mut a = Arrivals {
            rng: Rng::stream(seed, 0xA221),
            mean_gap_ns: 1e9 / rate,
            next_ns: 0.0,
        };
        a.advance();
        a
    }

    /// When the next op is due.
    pub fn due_ns(&self) -> u64 {
        self.next_ns as u64
    }

    pub fn advance(&mut self) {
        self.next_ns += -self.rng.unit().ln() * self.mean_gap_ns;
    }
}

/// Zipf over `n` ranks with exponent `s`, by inverse CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Payload bytes of a ping-pong message and of a stored value.
pub const SMALL_BYTES: usize = 64;
/// Body bytes of a chat message (the paper's client payload).
pub const CHAT_BODY_BYTES: usize = 150;
/// Width of the sequence number that starts every chat body.
pub const SEQ_DIGITS: usize = 10;
/// Rooms churn sessions join; more than the shard count, so joins touch
/// every room shard.
pub const CHURN_ROOMS: u64 = 61;
/// Key population of `pos_kv`.
pub const KV_KEYS: usize = 4096;
/// Mutations per acknowledged `wal_sync` batch in `pos_kv`.
pub const KV_SYNC_EVERY: u64 = 64;

/// Fill `out` with the next 64 B ping payload.
pub fn ping_payload(rng: &mut Rng, out: &mut [u8; SMALL_BYTES]) {
    for chunk in out.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
}

/// One chat stanza to send: which active connection carries it and its
/// 150 B body (sequence number, then seeded filler).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChatOp {
    pub conn: usize,
    pub body: String,
}

/// Generator of chat stanzas over `conns` active connections.
#[derive(Debug, Clone)]
pub struct ChatGen {
    rng: Rng,
    conns: usize,
    next_seq: Vec<u64>,
}

impl ChatGen {
    pub fn new(seed: u64, conns: usize) -> ChatGen {
        ChatGen {
            rng: Rng::stream(seed, 0xC4A7),
            conns,
            next_seq: vec![0; conns],
        }
    }

    pub fn next_op(&mut self) -> ChatOp {
        let conn = self.rng.below(self.conns as u64) as usize;
        let seq = self.next_seq[conn];
        self.next_seq[conn] += 1;
        let mut body = format!("{seq:0width$}", width = SEQ_DIGITS).into_bytes();
        self.rng.letters(&mut body, CHAT_BODY_BYTES - SEQ_DIGITS);
        ChatOp {
            conn,
            body: String::from_utf8(body).expect("ascii"),
        }
    }
}

/// One churn session: its user name and the room it joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnOp {
    pub user: String,
    pub room: String,
}

/// Generator of churn sessions. Names carry a seed tag, so the
/// user-hash shard and instance assignment vary with the seed.
#[derive(Debug, Clone)]
pub struct ChurnGen {
    rng: Rng,
    tag: u64,
    next: u64,
}

impl ChurnGen {
    pub fn new(seed: u64) -> ChurnGen {
        let mut rng = Rng::stream(seed, 0xC4E2);
        let tag = rng.below(100_000);
        ChurnGen { rng, tag, next: 0 }
    }

    pub fn next_op(&mut self) -> ChurnOp {
        let n = self.next;
        self.next += 1;
        ChurnOp {
            user: format!("c{}u{n}", self.tag),
            room: format!("room-{}", self.rng.below(CHURN_ROOMS)),
        }
    }
}

/// One key-value operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    Get {
        key: usize,
    },
    Set {
        key: usize,
        value: [u8; SMALL_BYTES],
    },
    Delete {
        key: usize,
    },
}

/// Generator of `pos_kv` operations: Zipf(0.99) key choice over
/// [`KV_KEYS`], 50 % get / 45 % set / 5 % delete.
#[derive(Debug, Clone)]
pub struct KvGen {
    rng: Rng,
    zipf: Zipf,
    /// Rank → key index, so the hot keys differ between seeds.
    order: Vec<usize>,
}

impl KvGen {
    pub fn new(seed: u64) -> KvGen {
        let mut rng = Rng::stream(seed, 0x4B56);
        let mut order: Vec<usize> = (0..KV_KEYS).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        KvGen {
            rng,
            zipf: Zipf::new(KV_KEYS, 0.99),
            order,
        }
    }

    pub fn value(&mut self) -> [u8; SMALL_BYTES] {
        let mut v = [0u8; SMALL_BYTES];
        ping_payload(&mut self.rng, &mut v);
        v
    }

    pub fn next_op(&mut self) -> KvOp {
        let key = self.order[self.zipf.sample(&mut self.rng)];
        match self.rng.below(100) {
            0..=49 => KvOp::Get { key },
            50..=94 => KvOp::Set {
                key,
                value: self.value(),
            },
            _ => KvOp::Delete { key },
        }
    }
}

/// The key bytes of key index `k`.
pub fn kv_key(k: usize) -> [u8; 8] {
    let mut key = *b"key-0000";
    key[4..].copy_from_slice(format!("{k:04}").as_bytes());
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{Load, Workload};

    /// The first `ops` generated inputs of `workload` under `seed`, as
    /// bytes: what the determinism self-test compares.
    fn input_bytes(workload: Workload, seed: u64, ops: usize) -> Vec<u8> {
        let mut out = Vec::new();
        if let Load::Open { rate } = workload.load() {
            let mut arrivals = Arrivals::new(seed, rate);
            for _ in 0..ops {
                out.extend_from_slice(&arrivals.due_ns().to_le_bytes());
                arrivals.advance();
            }
        }
        match workload {
            Workload::PingpongLocal | Workload::PingpongXenclave => {
                let mut rng = Rng::stream(seed, 0x9126);
                let mut payload = [0u8; SMALL_BYTES];
                for _ in 0..ops {
                    ping_payload(&mut rng, &mut payload);
                    out.extend_from_slice(&payload);
                }
            }
            Workload::ChatIdle | Workload::ChatBusy => {
                let mut gen = ChatGen::new(seed, 2);
                for _ in 0..ops {
                    let op = gen.next_op();
                    out.push(op.conn as u8);
                    out.extend_from_slice(op.body.as_bytes());
                }
            }
            Workload::Churn => {
                let mut gen = ChurnGen::new(seed);
                for _ in 0..ops {
                    let op = gen.next_op();
                    out.extend_from_slice(op.user.as_bytes());
                    out.extend_from_slice(op.room.as_bytes());
                }
            }
            Workload::PosKv => {
                let mut gen = KvGen::new(seed);
                for _ in 0..ops {
                    match gen.next_op() {
                        KvOp::Get { key } => {
                            out.push(0);
                            out.extend_from_slice(&kv_key(key));
                        }
                        KvOp::Set { key, value } => {
                            out.push(1);
                            out.extend_from_slice(&kv_key(key));
                            out.extend_from_slice(&value);
                        }
                        KvOp::Delete { key } => {
                            out.push(2);
                            out.extend_from_slice(&kv_key(key));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = input_bytes(w, 7, 500);
            assert_eq!(a, input_bytes(w, 7, 500), "{} not reproducible", w.name());
            assert_ne!(a, input_bytes(w, 8, 500), "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn arrivals_keep_the_offered_rate() {
        let mut a = Arrivals::new(3, 2_000.0);
        for _ in 0..20_000 {
            a.advance();
        }
        let rate = 20_000.0 / (a.due_ns() as f64 / 1e9);
        assert!((1_900.0..2_100.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(KV_KEYS, 0.99);
        let mut rng = Rng::new(1);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) < 41).count();
        // The top 1 % of ranks draw well over a third of the samples.
        assert!(hits > 3_500, "top-rank share too small: {hits}");
    }

    #[test]
    fn chat_bodies_are_150_bytes_and_sequenced_per_connection() {
        let mut g = ChatGen::new(5, 2);
        let mut next = [0u64; 2];
        for _ in 0..100 {
            let op = g.next_op();
            assert_eq!(op.body.len(), CHAT_BODY_BYTES);
            let seq: u64 = op.body[..SEQ_DIGITS].parse().unwrap();
            assert_eq!(seq, next[op.conn]);
            next[op.conn] += 1;
        }
    }
}
