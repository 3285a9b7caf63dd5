//! The open-loop clock. Ops become due on a schedule fixed before the
//! run; a generator that falls behind sends late, but every op is still
//! timed from the instant it was *due*, so a stall is charged to the
//! ops it delayed instead of silently thinning the load.

use crate::gen::Arrivals;

/// An op the schedule has released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    /// Position in the schedule, from 0.
    pub index: u64,
    /// When the op was due, in nanoseconds since the schedule's origin.
    pub due_ns: u64,
}

/// A seeded Poisson schedule handing out ops as they fall due.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    arrivals: Arrivals,
    issued: u64,
}

impl OpenLoop {
    pub fn new(seed: u64, rate: f64) -> OpenLoop {
        OpenLoop {
            arrivals: Arrivals::new(seed, rate),
            issued: 0,
        }
    }

    /// The next op if it is due at `now_ns`, while the schedule has not
    /// passed `until_ns`. Never skips and never re-anchors: after a
    /// stall every overdue op is released with its original due time.
    pub fn pop_due(&mut self, now_ns: u64, until_ns: u64) -> Option<Due> {
        let due_ns = self.arrivals.due_ns();
        if due_ns > now_ns || due_ns >= until_ns {
            return None;
        }
        let index = self.issued;
        self.issued += 1;
        self.arrivals.advance();
        Some(Due { index, due_ns })
    }
}

/// An op's latency: from the instant it was due to its verified
/// completion.
pub fn latency_ns(due_ns: u64, completed_ns: u64) -> u64 {
    completed_ns.saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_generator_is_charged_to_the_late_ops() {
        // 1 000 ops/s; the generator sleeps from t = 100 ms to 150 ms.
        let mut clock = OpenLoop::new(11, 1_000.0);
        let service_ns = 200_000; // the system answers in 200 us
        let until = u64::MAX;
        let mut on_time = Vec::new();
        while let Some(d) = clock.pop_due(100_000_000, until) {
            on_time.push(d);
        }
        assert!(on_time.len() > 50, "about 100 ops fall due in 100 ms");
        // The stall: nothing is popped for 50 ms, then the generator
        // wakes at 150 ms and sends everything that fell due meanwhile.
        let woke = 150_000_000;
        let mut late = Vec::new();
        while let Some(d) = clock.pop_due(woke, until) {
            late.push(d);
        }
        assert!(late.len() > 20, "about 50 ops fell due during the stall");
        for d in &late {
            assert!(d.due_ns > 100_000_000 && d.due_ns <= woke);
            // Sent at `woke`, answered `service_ns` later — but timed from
            // when it was due, so the wait behind the stall is included.
            let lat = latency_ns(d.due_ns, woke + service_ns);
            assert_eq!(lat, (woke - d.due_ns) + service_ns);
            assert!(lat >= service_ns);
        }
        let worst = latency_ns(late[0].due_ns, woke + service_ns);
        assert!(
            worst > 40_000_000,
            "the first stalled op waited most of the stall: {worst}"
        );
        // The schedule was not re-anchored: indices are dense.
        assert_eq!(late[0].index, on_time.len() as u64);
    }

    #[test]
    fn nothing_is_released_past_the_window() {
        let mut clock = OpenLoop::new(1, 1_000.0);
        let mut n = 0;
        while clock.pop_due(u64::MAX, 10_000_000).is_some() {
            n += 1;
        }
        assert!(
            (1..40).contains(&n),
            "10 ms at 1 000/s releases about 10 ops: {n}"
        );
        assert_eq!(clock.pop_due(u64::MAX, u64::MAX).map(|d| d.index), Some(n));
    }
}
