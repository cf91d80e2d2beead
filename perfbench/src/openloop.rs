//! The open-loop request generator: requests fall due on a fixed schedule
//! whatever the server is doing, and each is timed from its due time.
//!
//! One thread plays both the front door and the server. Whenever it is
//! free it picks up every request already due, plans them into bursts
//! and serves the bursts back to back. A request that fell due while an
//! earlier burst was being served therefore waits, and that wait is part
//! of its latency: latency runs from the *due* time to the end of the
//! request's burst, never from the moment it was picked up.

use crate::trace;
use core::ops::Range;

/// A monotonic nanosecond clock.
pub trait Clock {
    /// Nanoseconds since the loop's start.
    fn now_ns(&self) -> u64;

    /// Records a span the loop timed with this clock's readings.
    fn record(&self, _name: &'static str, _index: usize, _start_ns: u64, _end_ns: u64) {}
}

/// The host's monotonic clock, zeroed at construction. It shares the
/// tracer's epoch, so the loop's own readings stamp its spans.
#[derive(Debug)]
pub struct HostClock(u64);

impl HostClock {
    /// A clock reading zero now.
    #[must_use]
    pub fn start() -> Self {
        HostClock(trace::now_ns())
    }
}

impl Clock for HostClock {
    fn now_ns(&self) -> u64 {
        trace::now_ns() - self.0
    }

    fn record(&self, name: &'static str, index: usize, start_ns: u64, end_ns: u64) {
        trace::record(name, index as u64, start_ns + self.0, end_ns + self.0);
    }
}

/// What one open-loop pass measured, per request (index order) and per
/// burst.
#[derive(Debug, Default, Clone)]
pub struct OpenLoopRecord {
    /// Pickup time minus due time: how late the generator ran.
    pub pickup_lag_ns: Vec<u64>,
    /// Start of the request's burst minus its due time.
    pub queue_wait_ns: Vec<u64>,
    /// End of the request's burst minus its due time.
    pub latency_ns: Vec<u64>,
    /// Requests in each burst.
    pub burst_len: Vec<u32>,
    /// Time spent waiting for the next request to fall due.
    pub idle_ns: u64,
    /// Wall time of the whole pass.
    pub wall_ns: u64,
}

/// Drives `dues.len()` requests, due at `dues` (ascending, nanoseconds
/// from the clock's zero). `plan` cuts a range of due requests into
/// bursts (ranges relative to its input); `serve` serves one burst,
/// given as an absolute index range.
pub fn run<C: Clock>(
    clock: &C,
    dues: &[u64],
    mut plan: impl FnMut(Range<usize>) -> Vec<Range<usize>>,
    mut serve: impl FnMut(Range<usize>),
) -> OpenLoopRecord {
    debug_assert!(dues.windows(2).all(|w| w[0] <= w[1]));
    let n = dues.len();
    let mut rec = OpenLoopRecord {
        pickup_lag_ns: vec![0; n],
        queue_wait_ns: vec![0; n],
        latency_ns: vec![0; n],
        ..OpenLoopRecord::default()
    };
    let t0 = clock.now_ns();
    let mut next = 0usize;
    while next < n {
        let mut now = clock.now_ns();
        if dues[next] > now {
            let idle_from = now;
            while now < dues[next] {
                std::hint::spin_loop();
                now = clock.now_ns();
            }
            rec.idle_ns += now - idle_from;
            clock.record("serve.idle", next, idle_from, now);
        }
        let end = next + dues[next..].partition_point(|&d| d <= now);
        for (lag, due) in rec.pickup_lag_ns[next..end]
            .iter_mut()
            .zip(&dues[next..end])
        {
            *lag = now - due;
        }
        let bursts = plan(next..end);
        // Each step starts when the previous one ended: one clock read
        // per step.
        let mut start = clock.now_ns();
        clock.record("serve.plan", next, now, start);
        for b in bursts {
            let b = (b.start + next)..(b.end + next);
            serve(b.clone());
            let stop = clock.now_ns();
            rec.burst_len.push(b.len() as u32);
            for i in b {
                rec.queue_wait_ns[i] = start.saturating_sub(dues[i]);
                rec.latency_ns[i] = stop - dues[i];
            }
            start = stop;
        }
        next = end;
    }
    rec.wall_ns = clock.now_ns() - t0;
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that ticks once per reading, and jumps when told to.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            let t = self.0.get();
            self.0.set(t + 1);
            t
        }
    }

    #[test]
    fn latency_runs_from_due_time_not_pickup_time() {
        let clock = FakeClock(Cell::new(0));
        // Request 0 is due at once; requests 1 and 2 fall due while
        // request 0's burst is being served (it takes 1000 ns).
        let dues = [0, 100, 200, 5_000];
        let rec = run(
            &clock,
            &dues,
            // Everything due is one burst.
            |r| std::iter::once(0..r.len()).collect(),
            |_| clock.0.set(clock.0.get() + 1_000),
        );
        // Requests 1 and 2 were picked up together, long after they fell
        // due; their latency counts that wait.
        assert_eq!(rec.burst_len, vec![1, 2, 1]);
        let pickup_1 = rec.pickup_lag_ns[1] + dues[1];
        assert_eq!(rec.pickup_lag_ns[2] + dues[2], pickup_1);
        assert!(rec.pickup_lag_ns[1] > 900, "{rec:?}");
        for i in 0..dues.len() {
            assert!(rec.latency_ns[i] >= 1_000);
            assert!(rec.queue_wait_ns[i] >= rec.pickup_lag_ns[i]);
        }
        // Same burst, same end time: latency differs exactly by the due
        // times, which a pickup-based timer would not show.
        assert_eq!(rec.latency_ns[1] - rec.latency_ns[2], dues[2] - dues[1]);
        // Request 3 fell due on an idle server: no lag, the loop waited.
        assert_eq!(rec.pickup_lag_ns[3], 0);
        assert!(rec.idle_ns > 0);
        assert!(rec.latency_ns[3] < rec.latency_ns[1]);
    }

    #[test]
    fn every_request_is_served_once_in_order() {
        let clock = FakeClock(Cell::new(0));
        let dues: Vec<u64> = (0..50).map(|i| i * 3).collect();
        let mut seen = Vec::new();
        let rec = run(
            &clock,
            &dues,
            |r| {
                // Bursts of at most two.
                (0..r.len())
                    .step_by(2)
                    .map(|s| s..(s + 2).min(r.len()))
                    .collect()
            },
            |b| seen.extend(b),
        );
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        assert_eq!(rec.burst_len.iter().map(|&l| l as usize).sum::<usize>(), 50);
        assert!(rec.burst_len.iter().all(|&l| l <= 2));
    }
}
