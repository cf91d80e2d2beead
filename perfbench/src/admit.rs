//! The admission leg: a client population churning disjoint connection
//! pools, served by `serve::plan_bursts` + `ChurnEngine::submit_batch`,
//! first as an open loop at a fixed offered rate and then saturated
//! (every request due at once) on a fresh engine.

use crate::openloop::{self, HostClock};
use crate::stats::Hist;
use crate::{allocation_digest, trace, validate_end};
use aelite_alloc::{gaps, Allocation};
use aelite_online::{AdmissionRequest, ChurnEngine, ChurnStats};
use aelite_serve::{merge_population, plan_bursts, TimedRequest};
use aelite_spec::churn::{client_population, ChurnParams};
use aelite_spec::SystemSpec;
use std::time::Instant;

/// Offered rate of the open loop, requests per second: a moderate load
/// (about a sixth of the saturated rate), where latency still reads
/// service time rather than a growing queue.
const OFFERED_RPS: f64 = 250_000.0;

/// Largest burst `plan_bursts` may form.
const BURST_CAP: usize = 64;

/// One admission platform and load.
#[derive(Debug, Clone, Copy)]
pub struct AdmitCfg {
    /// Human-readable platform and load.
    pub platform: &'static str,
    /// Builds the platform's spec from a seed.
    pub build: fn(u64) -> SystemSpec,
    /// Clients, each on its own connection pool.
    pub clients: u32,
    /// Churn events drawn per client; the first quarter of the merged
    /// stream is an untimed warm-up.
    pub events_per_client: u32,
    /// Input sets a run cycles through (see `main.rs`).
    pub sets: usize,
}

/// What one round of the leg measured.
#[derive(Debug)]
pub struct AdmitRound {
    /// Spec, population, merge and warm-up of both engines.
    pub setup_ns: u64,
    /// Open loop: latency from due time to the end of the burst.
    pub latency: Hist,
    /// Open loop: pickup time minus due time.
    pub pickup_lag: Hist,
    /// Open loop: start of the burst minus due time.
    pub queue_wait: Hist,
    /// Open loop: bursts served.
    pub open_bursts: u64,
    /// Open loop: wall time minus the time spent waiting for arrivals.
    pub open_work_ns: u64,
    /// Requests in the timed window (each leg serves all of them).
    pub requests: u64,
    /// Wall time of the saturated pass.
    pub sat_ns: u64,
    /// Saturated pass: requests refused.
    pub sat_refused: u64,
    /// Saturated pass: engine counters over the timed window.
    pub sat_stats: ChurnStats,
    /// Saturated pass: digest of the end allocation.
    pub sat_digest: u64,
    /// Saturated pass: NI pairs whose routes the engine holds.
    pub route_pairs: usize,
    /// Saturated end state: mean and peak slot utilisation of loaded
    /// links, and the median over loaded links of the longest free run.
    pub util_mean: f64,
    /// See `util_mean`.
    pub util_peak: f64,
    /// See `util_mean`.
    pub free_run_p50: f64,
    /// Broken correctness checks.
    pub failures: Vec<String>,
}

/// Due times of `timed`, its trace arrival times rescaled so the whole
/// window is offered at `rps` requests per second.
#[must_use]
pub fn due_times(timed: &[TimedRequest], rps: f64) -> Vec<u64> {
    let (Some(first), Some(last)) = (timed.first(), timed.last()) else {
        return Vec::new();
    };
    let span = (last.at_ns - first.at_ns).max(1) as f64;
    let scale = (timed.len() as f64 / rps * 1e9) / span;
    timed
        .iter()
        .map(|r| ((r.at_ns - first.at_ns) as f64 * scale) as u64)
        .collect()
}

fn warmed(spec: &SystemSpec, warmup: &[TimedRequest]) -> (ChurnEngine, Allocation) {
    let mut engine = ChurnEngine::new(spec);
    let mut alloc = Allocation::empty_for(spec);
    trace::span("online.submit", 0, || {
        for r in warmup {
            let _ = engine.submit(spec, &mut alloc, r.request.clone());
        }
    });
    (engine, alloc)
}

/// Slot-table fragmentation of `alloc`'s loaded links: mean and peak
/// utilisation, and the median longest free run.
fn fragmentation(spec: &SystemSpec, alloc: &Allocation) -> (f64, f64, f64) {
    let mut runs: Vec<f64> = spec
        .topology()
        .links()
        .filter_map(|l| {
            let table = alloc.link_table(l);
            let reserved: Vec<u32> = table
                .iter()
                .filter_map(|(s, owner)| owner.map(|_| s))
                .collect();
            let longest_gap = gaps(&reserved, table.size()).into_iter().max()?;
            Some(f64::from(longest_gap - 1))
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    let p50 = crate::stats::median(&runs);
    (
        alloc.mean_loaded_utilisation(),
        alloc.peak_utilisation(),
        p50,
    )
}

/// Runs one round: set up, open loop, saturated pass, checks.
#[must_use]
pub fn round(cfg: &AdmitCfg, seed: u64) -> AdmitRound {
    let t = Instant::now();
    let spec = trace::span("spec.build", seed, || (cfg.build)(seed));
    let params = ChurnParams::steady(cfg.events_per_client);
    let population = trace::span("spec.client_population", seed, || {
        client_population(&spec, cfg.clients, &params, seed ^ 0x5EED_A11C)
    });
    let stream = trace::span("serve.merge_population", seed, || {
        merge_population(population)
    });
    let warmup = stream.len() / 4;
    let timed = &stream[warmup..];
    let dues = due_times(timed, OFFERED_RPS);
    let (mut open_engine, mut open_alloc) = warmed(&spec, &stream[..warmup]);
    let (mut sat_engine, mut sat_alloc) = warmed(&spec, &stream[..warmup]);
    // Requests are handed to the engine as slices of this copy, so no
    // per-burst staging runs inside the timed passes.
    let requests: Vec<AdmissionRequest> = timed.iter().map(|r| r.request.clone()).collect();
    let setup_ns = t.elapsed().as_nanos() as u64;

    let mut failures = Vec::new();
    let mut verdicts = Vec::with_capacity(BURST_CAP);

    let open = trace::span("bench.admit_open", seed, || {
        let clock = HostClock::start();
        openloop::run(
            &clock,
            &dues,
            |r| plan_bursts(&timed[r], BURST_CAP),
            |b| {
                trace::span("online.submit_batch", b.start as u64, || {
                    open_engine.submit_batch(&spec, &mut open_alloc, &requests[b], &mut verdicts);
                });
            },
        )
    });
    if let Err(e) = validate_end(&spec, &open_alloc) {
        failures.push(format!("admission open loop end state: {e}"));
    }

    let before = *sat_engine.stats();
    let mut admitted = 0u64;
    let t = Instant::now();
    trace::span("bench.admit_saturated", seed, || {
        let bursts = trace::span("serve.plan", 0, || plan_bursts(timed, BURST_CAP));
        for b in bursts {
            trace::span("online.submit_batch", b.start as u64, || {
                sat_engine.submit_batch(&spec, &mut sat_alloc, &requests[b], &mut verdicts);
            });
            admitted += verdicts.iter().filter(|v| v.is_ok()).count() as u64;
        }
    });
    let sat_ns = t.elapsed().as_nanos() as u64;
    let sat_stats = sat_engine.stats().delta(&before);
    if let Err(e) = validate_end(&spec, &sat_alloc) {
        failures.push(format!("admission saturated end state: {e}"));
    }
    let (util_mean, util_peak, free_run_p50) = fragmentation(&spec, &sat_alloc);

    AdmitRound {
        setup_ns,
        latency: open.latency_ns.iter().copied().collect(),
        pickup_lag: open.pickup_lag_ns.iter().copied().collect(),
        queue_wait: open.queue_wait_ns.iter().copied().collect(),
        open_bursts: open.burst_len.len() as u64,
        open_work_ns: open.wall_ns - open.idle_ns,
        requests: timed.len() as u64,
        sat_ns,
        sat_refused: timed.len() as u64 - admitted,
        sat_stats,
        sat_digest: allocation_digest(&sat_alloc),
        route_pairs: sat_engine.route_provider().resident_pairs(),
        util_mean,
        util_peak,
        free_run_p50,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_online::AdmissionRequest;
    use aelite_spec::ids::ConnId;

    #[test]
    fn due_times_rescale_the_trace_to_the_offered_rate() {
        let timed: Vec<TimedRequest> = [10u64, 20, 30, 50]
            .iter()
            .map(|&at_ns| TimedRequest {
                at_ns,
                client: 0,
                request: AdmissionRequest::Close(ConnId::new(0)),
            })
            .collect();
        // Four requests at 1M/s span 4 µs; the trace spans 40 ns.
        let dues = due_times(&timed, 1.0e6);
        assert_eq!(dues, vec![0, 1_000, 2_000, 4_000]);
    }
}
