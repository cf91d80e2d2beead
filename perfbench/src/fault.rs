//! The fault leg: every connection opened, then one merged churn + fault
//! scenario replayed event by event through `FaultEngine::apply_event`.

use crate::stats::Hist;
use crate::{allocation_digest, trace, validate_end};
use aelite_alloc::{Allocation, Allocator, Steering};
use aelite_online::{ChurnEngine, FaultEngine, FaultStats};
use aelite_spec::fault::{fault_trace, FaultOp, FaultParams, FaultScenario, ScenarioOp};
use aelite_spec::{churn_trace, ChurnOp, ChurnParams, SystemSpec};
use std::time::Instant;

/// Span name of each event kind; the index is the kind.
pub const KINDS: [&str; 6] = [
    "online.fault.churn_op",
    "online.fault.link_down",
    "online.fault.link_up",
    "online.fault.router_down",
    "online.fault.router_up",
    "online.fault.glitch",
];

/// Kind index of churn events in [`KINDS`].
const CHURN: u8 = 0;

fn kind(op: &ScenarioOp) -> u8 {
    match op {
        ScenarioOp::Churn(_) => CHURN,
        ScenarioOp::Fault(FaultOp::LinkDown(_)) => 1,
        ScenarioOp::Fault(FaultOp::LinkUp(_)) => 2,
        ScenarioOp::Fault(FaultOp::RouterDown(_)) => 3,
        ScenarioOp::Fault(FaultOp::RouterUp(_)) => 4,
        ScenarioOp::Fault(FaultOp::LinkGlitch { .. }) => 5,
    }
}

/// One fault platform and scenario size.
#[derive(Debug, Clone, Copy)]
pub struct FaultCfg {
    /// Human-readable platform and scenario.
    pub platform: &'static str,
    /// Builds the platform's spec from a seed.
    pub build: fn(u64) -> SystemSpec,
    /// Candidate-ordering mode of the admission engine.
    pub steering: Steering,
    /// Churn events in the scenario (drawn at 1M requests/s).
    pub churn_events: u32,
    /// Fault events in the scenario, spread over the churn's time span.
    pub fault_events: u32,
    /// Input sets a run cycles through (see `main.rs`).
    pub sets: usize,
}

/// What one round of the leg measured.
#[derive(Debug)]
pub struct FaultRound {
    /// Spec, opening every connection, and drawing the scenario.
    pub setup_ns: u64,
    /// Wall time of the replay, final clock advance included.
    pub replay_ns: u64,
    /// Scenario events replayed.
    pub events: u64,
    /// Of which churn events.
    pub churn_ops: u64,
    /// Host time of every fault event (untraced rounds only).
    pub recovery: Hist,
    /// Churn events refused by the engine.
    pub churn_refused: u64,
    /// Recovery counters.
    pub stats: FaultStats,
    /// Admissions refused because of the fault mask.
    pub refused_link_down: u64,
    /// Digest of the end allocation.
    pub digest: u64,
    /// Broken correctness checks.
    pub failures: Vec<String>,
}

/// Runs one round: set up, replay, checks.
#[must_use]
pub fn round(cfg: &FaultCfg, seed: u64) -> FaultRound {
    let t = Instant::now();
    let spec = trace::span("spec.build", seed, || (cfg.build)(seed));
    let mut alloc = Allocation::empty_for(&spec);
    let allocator = Allocator {
        steering: cfg.steering,
        ..Allocator::new()
    };
    let mut engine = FaultEngine::with_engine(ChurnEngine::with_allocator(&spec, allocator));
    trace::span("online.fault.open_all", 0, || {
        for c in spec.connections() {
            engine.apply(&spec, &mut alloc, &ScenarioOp::Churn(ChurnOp::Open(c.id)));
        }
    });
    let scenario = trace::span("spec.scenario", seed, || {
        let churn = churn_trace(&spec, &ChurnParams::steady(cfg.churn_events), seed ^ 0xC4);
        // Churn arrives at 1M/s; spread the faults over the same span.
        let span_s = f64::from(cfg.churn_events) / 1.0e6;
        let faults = fault_trace(
            spec.topology(),
            &FaultParams {
                rate_per_sec: f64::from(cfg.fault_events) / span_s,
                ..FaultParams::sparse(cfg.fault_events)
            },
            seed ^ 0xFA,
        );
        FaultScenario::merge(&churn, &faults)
    });
    let kinds: Vec<u8> = scenario.events.iter().map(|e| kind(&e.op)).collect();
    let setup_ns = t.elapsed().as_nanos() as u64;

    let mut recovery = Hist::default();
    let mut churn_refused = 0u64;
    let t = Instant::now();
    trace::span("bench.fault_replay", seed, || {
        if trace::enabled() {
            // Advance and apply as two spans: what `apply_event` does.
            for (i, e) in scenario.events.iter().enumerate() {
                trace::span("online.fault.advance", i as u64, || {
                    engine.advance_to(&spec, &mut alloc, e.at_ns);
                });
                let ok = trace::span(KINDS[kinds[i] as usize], i as u64, || {
                    engine.apply(&spec, &mut alloc, &e.op)
                });
                churn_refused += u64::from(!ok);
            }
        } else {
            for (e, &k) in scenario.events.iter().zip(&kinds) {
                let t = Instant::now();
                let ok = engine.apply_event(&spec, &mut alloc, e);
                let ns = t.elapsed().as_nanos() as u64;
                if k != CHURN {
                    recovery.record(ns);
                }
                churn_refused += u64::from(!ok);
            }
        }
        // Run the clock past every pending glitch so only enforced
        // faults stay masked.
        let end_ns = scenario.events.last().map_or(0, |e| e.at_ns);
        trace::span("online.fault.advance", scenario.len() as u64, || {
            engine.advance_to(&spec, &mut alloc, end_ns.saturating_add(1_000_000));
        });
    });
    let replay_ns = t.elapsed().as_nanos() as u64;

    let mut failures = Vec::new();
    for g in alloc.grants() {
        if let Some(l) = g.links.iter().find(|&&l| engine.enforced().is_down(l)) {
            failures.push(format!("fault: {} rides enforced-down link {l:?}", g.conn));
        }
    }
    if engine.mask().down_count() != engine.enforced().down_count() {
        failures.push("fault: glitches still masked after the final advance".into());
    }
    let stats = *engine.stats();
    if stats.survived() + stats.dropped != stats.affected {
        failures.push(format!(
            "fault: survived {} + dropped {} != affected {}",
            stats.survived(),
            stats.dropped,
            stats.affected
        ));
    }
    if let Err(e) = validate_end(&spec, &alloc) {
        failures.push(format!("fault end state: {e}"));
    }

    FaultRound {
        setup_ns,
        replay_ns,
        events: kinds.len() as u64,
        churn_ops: kinds.iter().filter(|&&k| k == CHURN).count() as u64,
        recovery,
        churn_refused,
        stats,
        refused_link_down: engine.engine().stats().refused_link_down,
        digest: allocation_digest(&alloc),
        failures,
    }
}
