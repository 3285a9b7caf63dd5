//! The fixed catalogue: workload names, metric names, units and
//! directions. Later issues cite these names, so they change only in a
//! benchmark-only PR. `BENCHMARK.json` at the repo root carries the same
//! lists plus the regression bounds; a self-test holds the two equal.

/// `BENCHMARK.json`, embedded so `compare` knows the bounds and the
/// self-tests can hold the catalogue in code equal to it.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// The next op is issued when the previous one completed.
    Closed,
    /// Seeded Poisson arrivals at this many ops per second; every op is
    /// timed from the instant it was due.
    Open { rate: f64 },
}

/// One of the six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    PingpongLocal,
    PingpongXenclave,
    ChatIdle,
    ChatBusy,
    Churn,
    PosKv,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PingpongLocal,
        Workload::PingpongXenclave,
        Workload::ChatIdle,
        Workload::ChatBusy,
        Workload::Churn,
        Workload::PosKv,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongLocal => "pingpong_local",
            Workload::PingpongXenclave => "pingpong_xenclave",
            Workload::ChatIdle => "chat_idle",
            Workload::ChatBusy => "chat_busy",
            Workload::Churn => "churn",
            Workload::PosKv => "pos_kv",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists and which layer it isolates (one line;
    /// the long form is in `README.md`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PingpongLocal => {
                "same-enclave 64 B ping-pong on one worker: no crossings, no crypto, so core (arena, mbox, channel, worker loop) does the work"
            }
            Workload::PingpongXenclave => {
                "two enclaves, encrypted channel, one actor per worker: cross-thread mbox hand-off, wake path and sgx_sim seal/open dominate; tail is the p99.9, p99 sits on the spin-park cliff"
            }
            Workload::ChatIdle => {
                "open loop 2000 stanzas/s over real sockets with 256 idle residents: workers park between stanzas, so the wake path dominates"
            }
            Workload::ChatBusy => {
                "same service at 8000 stanzas/s: workers stay hot, so per-stanza CPU along READER-open-lookup-seal-WRITER dominates"
            }
            Workload::Churn => {
                "open loop 1000 sessions/s on SimNet, 2 instances x 2 shards: the control path (accept, assign, DirShard writes, close) does the work"
            }
            Workload::PosKv => {
                "single-thread encrypted WAL store, Zipf 50/45/5 get/set/delete, sync every 64 mutations, default compaction: only pos and sgx_sim crypto run"
            }
        }
    }

    pub fn load(self) -> Load {
        match self {
            Workload::PingpongLocal | Workload::PingpongXenclave | Workload::PosKv => Load::Closed,
            Workload::ChatIdle => Load::Open { rate: 2_000.0 },
            Workload::ChatBusy => Load::Open { rate: 8_000.0 },
            Workload::Churn => Load::Open { rate: 1_000.0 },
        }
    }

    /// The p99 latency limit in microseconds, for the workloads that
    /// serve requests as they arrive. An op slower than this, failed or
    /// never answered counts against `driver.over_limit_share`.
    pub fn latency_limit_us(self) -> Option<f64> {
        match self {
            Workload::ChatIdle | Workload::ChatBusy => Some(10_000.0),
            Workload::Churn => Some(50_000.0),
            _ => None,
        }
    }
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's fixed name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The seven end-to-end metrics, reported for every workload.
pub const END_TO_END: [MetricSpec; 7] = [
    lo("setup_s", "s"),
    hi("throughput_ops_s", "1/s"),
    lo("latency_p50_us", "us"),
    lo("latency_p99_us", "us"),
    lo("cpu_us_per_op", "us"),
    lo("peak_rss_mib", "MiB"),
    lo("recover_ms", "ms"),
];

/// The per-layer metrics (layer = crate). A metric a workload does not
/// exercise reads 0 on that workload.
pub const PER_LAYER: [MetricSpec; 64] = [
    // sgx_sim
    lo("sgx_sim.charge_ns_per_kcycle", "ns"),
    lo("sgx_sim.ecall_roundtrip_ns", "ns"),
    lo("sgx_sim.seal_open_150b_ns", "ns"),
    lo("sgx_sim.transitions_per_op", "1/op"),
    lo("sgx_sim.charged_cycles_per_op", "1/op"),
    lo("sgx_sim.syscalls_per_op", "1/op"),
    // core
    lo("core.arena_pop_free_ns", "ns"),
    lo("core.mbox_spsc_send_recv_ns", "ns"),
    lo("core.channel_plain_64b_ns", "ns"),
    lo("core.mbox_mpsc_send_recv_ns", "ns"),
    lo("core.mbox_xthread_rtt_ns", "ns"),
    lo("core.channel_enc_64b_ns", "ns"),
    lo("core.wake_park_notify_us", "us"),
    lo("core.executions_per_op", "1/op"),
    lo("core.idle_pass_share", "share"),
    lo("core.parks_per_op", "1/op"),
    hi("core.wake_share", "share"),
    lo("core.freelist_cas_retries_per_op", "1/op"),
    hi("core.magazine_hit_share", "share"),
    lo("core.worker_cpu_max_share", "share"),
    lo("core.allocs_per_op", "1/op"),
    lo("core.runtime_start_ms", "ms"),
    // enet
    lo("enet.backend_rtt_us", "us"),
    lo("enet.actor_echo_rtt_us", "us"),
    lo("enet.backend_connect_close_us", "us"),
    lo("enet.park_waits_per_op", "1/op"),
    lo("enet.enter_syscalls_per_op", "1/op"),
    hi("enet.cqes_per_enter", "count"),
    lo("enet.dropped_reads_per_op", "1/op"),
    lo("enet.dropped_writes_per_op", "1/op"),
    // xmpp
    lo("xmpp.stanza_parse_ns", "ns"),
    lo("xmpp.stanza_to_xml_ns", "ns"),
    lo("xmpp.frame_seal_150b_ns", "ns"),
    lo("xmpp.frame_open_150b_ns", "ns"),
    lo("xmpp.dir_lookup_ns", "ns"),
    lo("xmpp.dir_register_unregister_ns", "ns"),
    lo("xmpp.dir_join_leave_ns", "ns"),
    lo("xmpp.service_residence_us", "us"),
    lo("xmpp.handshake_us", "us"),
    lo("xmpp.join_us", "us"),
    lo("xmpp.bad_frames_per_op", "1/op"),
    lo("xmpp.offline_drops_per_op", "1/op"),
    lo("xmpp.shard_imbalance", "count"),
    // pos
    lo("pos.get_ns", "ns"),
    lo("pos.set_ns", "ns"),
    lo("pos.delete_ns", "ns"),
    lo("pos.clean_us", "us"),
    lo("pos.full_retries_per_kop", "1/kop"),
    lo("pos.wal_sync_p50_us", "us"),
    hi("pos.records_per_sync", "count"),
    lo("pos.compactions", "count"),
    lo("pos.compaction_stall_ms", "ms"),
    lo("pos.wal_bytes_per_user_byte", "B/B"),
    lo("pos.disk_bytes_per_live_byte", "B/B"),
    lo("pos.memory_bytes", "bytes"),
    // obs
    lo("obs.events_per_op", "1/op"),
    lo("obs.trace_dropped_per_op", "1/op"),
    lo("obs.snapshot_ms", "ms"),
    // driver
    lo("driver.sched_lag_p99_us", "us"),
    lo("driver.over_limit_share", "share"),
    lo("driver.client_self_us", "us"),
    lo("driver.trace_overhead_pct", "pct"),
    hi("driver.budget_coverage", "share"),
    lo("driver.calibration_retries", "count"),
];

/// The unit a catalogued metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}
