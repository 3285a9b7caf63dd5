//! Per-layer counter metrics: deltas of the program's *public* counters
//! (`Platform::stats()`, `Runtime::metrics()`) between window start and
//! window end, divided by the ops of the window.

use obs::MetricsSnapshot;
use sgx_sim::StatsSnapshot;

/// Counters at one instant.
#[derive(Debug, Clone)]
pub struct Snap {
    pub platform: StatsSnapshot,
    /// Absent for workloads that run no runtime (`pos_kv`).
    pub runtime: Option<MetricsSnapshot>,
}

/// What the driver itself charged to the platform it shares with the
/// program, to be subtracted: its backend calls each charge one syscall.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverCharges {
    pub syscalls: u64,
    pub cycles: u64,
}

fn sum(snap: &MetricsSnapshot, prefix: &str, suffix: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
        .map(|&(_, v)| v)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The counter-derived per-layer metrics of one window.
pub fn layer_ratios(
    before: &Snap,
    after: &Snap,
    ops: u64,
    driver: DriverCharges,
) -> Vec<(&'static str, f64)> {
    let ops = ops as f64;
    let p = |f: fn(&StatsSnapshot) -> u64| f(&after.platform).saturating_sub(f(&before.platform));
    let mut out = vec![
        (
            "sgx_sim.transitions_per_op",
            ratio(p(StatsSnapshot::transitions) as f64, ops),
        ),
        (
            "sgx_sim.charged_cycles_per_op",
            ratio(
                p(StatsSnapshot::cycles_charged).saturating_sub(driver.cycles) as f64,
                ops,
            ),
        ),
        (
            "sgx_sim.syscalls_per_op",
            ratio(
                p(StatsSnapshot::syscalls).saturating_sub(driver.syscalls) as f64,
                ops,
            ),
        ),
    ];
    let (Some(b), Some(a)) = (&before.runtime, &after.runtime) else {
        return out;
    };
    let d = |prefix: &str, suffix: &str| {
        sum(a, prefix, suffix).saturating_sub(sum(b, prefix, suffix)) as f64
    };
    // `worker_*_passes` also matches `worker_*_idle_passes`.
    let idle = d("worker_", "_idle_passes");
    let passes = d("worker_", "_passes") - idle;
    let parks = d("worker_", "_parks");
    let hits = d("", "_magazine_hits");
    let enters = d("net_enter_syscalls", "");
    out.extend([
        (
            "core.executions_per_op",
            ratio(d("actor_", "_executions"), ops),
        ),
        ("core.idle_pass_share", ratio(idle, passes)),
        ("core.parks_per_op", ratio(parks, ops)),
        ("core.wake_share", ratio(d("worker_", "_wakes"), parks)),
        (
            "core.freelist_cas_retries_per_op",
            ratio(d("arena_freelist_cas_retries", ""), ops),
        ),
        (
            "core.magazine_hit_share",
            ratio(hits, hits + d("", "_magazine_misses")),
        ),
        (
            "enet.park_waits_per_op",
            ratio(d("net_park_waits", ""), ops),
        ),
        ("enet.enter_syscalls_per_op", ratio(enters, ops)),
        (
            "enet.cqes_per_enter",
            ratio(d("net_cqe_reaped", ""), enters),
        ),
        (
            "enet.dropped_reads_per_op",
            ratio(d("net_dropped_reads", ""), ops),
        ),
        (
            "enet.dropped_writes_per_op",
            ratio(d("net_dropped_writes", ""), ops),
        ),
        (
            "xmpp.bad_frames_per_op",
            ratio(d("xmpp_bad_frames", ""), ops),
        ),
        (
            "xmpp.offline_drops_per_op",
            ratio(d("xmpp_offline_drops", ""), ops),
        ),
        (
            "xmpp.shard_imbalance",
            a.gauge("xmpp_shard_imbalance").unwrap_or(0) as f64,
        ),
        ("obs.events_per_op", ratio(d("events_", ""), ops)),
        (
            "obs.trace_dropped_per_op",
            ratio(d("trace_dropped", ""), ops),
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(counters: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: counters.iter().map(|&(n, v)| (n.to_owned(), v)).collect(),
            gauges: vec![("xmpp_shard_imbalance".to_owned(), 3)],
            hists: Vec::new(),
        }
    }

    #[test]
    fn ratios_are_deltas_over_ops() {
        let platform = sgx_sim::Platform::builder().build();
        let p0 = platform.stats();
        platform.costs().charge_syscall();
        platform.costs().charge_syscall();
        let before = Snap {
            platform: p0,
            runtime: Some(snap(&[
                ("worker_0_passes", 100),
                ("worker_0_idle_passes", 50),
                ("worker_0_parks", 4),
                ("worker_0_wakes", 1),
                ("actor_ping_executions", 10),
            ])),
        };
        let after = Snap {
            platform: platform.stats(),
            runtime: Some(snap(&[
                ("worker_0_passes", 300),
                ("worker_0_idle_passes", 100),
                ("worker_0_parks", 14),
                ("worker_0_wakes", 6),
                ("actor_ping_executions", 110),
            ])),
        };
        let r = layer_ratios(
            &before,
            &after,
            10,
            DriverCharges {
                syscalls: 1,
                cycles: 0,
            },
        );
        let get = |name: &str| r.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("sgx_sim.syscalls_per_op"), 0.1);
        assert_eq!(get("core.executions_per_op"), 10.0);
        assert_eq!(get("core.idle_pass_share"), 0.25, "50 idle of 200 passes");
        assert_eq!(get("core.parks_per_op"), 1.0);
        assert_eq!(get("core.wake_share"), 0.5);
        assert_eq!(get("xmpp.shard_imbalance"), 3.0);
        assert_eq!(get("enet.cqes_per_enter"), 0.0);
    }
}
