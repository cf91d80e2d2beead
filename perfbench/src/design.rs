//! The design-time leg: several use cases designed with
//! `AeliteSystem::design`, then the first simulated through
//! `AeliteSystem::simulate` and through the turbo kernel, with every
//! connection's measured worst case checked against its analytical bound.

use crate::stats::Digest;
use crate::trace;
use aelite_alloc::{validate_allocation, Allocation, Allocator};
use aelite_analysis::service::verify_service;
use aelite_core::system::{measured_services, AeliteSystem, SimOptions};
use aelite_noc::flitsim::{FlitSim, FlitSimConfig};
use aelite_noc::network::NetworkKind;
use aelite_noc::turbo::build_turbo;
use aelite_spec::SystemSpec;
use std::time::Instant;

/// Use cases designed per round.
const USE_CASES: u64 = 4;

/// Cycles each simulator runs.
pub const CYCLES: u64 = 20_000;

/// One design platform.
#[derive(Debug, Clone, Copy)]
pub struct DesignCfg {
    /// Human-readable platform.
    pub platform: &'static str,
    /// Builds one use case's spec from a seed.
    pub build: fn(u64) -> SystemSpec,
    /// Input sets a run cycles through (see `main.rs`).
    pub sets: usize,
}

/// What one round of the leg measured.
#[derive(Debug, Default)]
pub struct DesignRound {
    /// Building every use case's spec.
    pub setup_ns: u64,
    /// Host time of each use case's design.
    pub design_ns: Vec<u64>,
    /// `AeliteSystem::simulate`, verdict included.
    pub simulate_ns: u64,
    /// `build_turbo`.
    pub turbo_build_ns: u64,
    /// `run_cycles`.
    pub turbo_step_ns: u64,
    /// Flits the flit simulator delivered.
    pub flitsim_flits: u64,
    /// Flits the turbo kernel delivered.
    pub turbo_flits: u64,
    /// Largest measured worst-case flit latency over its analytical bound.
    pub bound_ratio_max: f64,
    /// Digest of the turbo kernel's delivery logs.
    pub log_digest: u64,
    /// Digest of every use case's allocation.
    pub alloc_digest: u64,
    /// Use cases that failed to design.
    pub failed_designs: u64,
    /// Broken correctness checks.
    pub failures: Vec<String>,
}

/// A designed use case: through the front door, or, when traced, through
/// the same public calls `AeliteSystem::design` makes, one span each.
enum Designed {
    System(AeliteSystem),
    Parts(SystemSpec, Allocation),
}

impl Designed {
    fn spec(&self) -> &SystemSpec {
        match self {
            Designed::System(s) => s.spec(),
            Designed::Parts(spec, _) => spec,
        }
    }

    fn allocation(&self) -> &Allocation {
        match self {
            Designed::System(s) => s.allocation(),
            Designed::Parts(_, alloc) => alloc,
        }
    }
}

fn design(spec: SystemSpec, k: u64) -> Result<Designed, String> {
    if !trace::enabled() {
        return AeliteSystem::design(spec)
            .map(Designed::System)
            .map_err(|e| e.to_string());
    }
    trace::span("spec.validate_config", k, || spec.config().validate())?;
    let alloc = trace::span("alloc.allocate", k, || Allocator::new().allocate(&spec))
        .map_err(|e| e.to_string())?;
    trace::span("alloc.validate", k, || validate_allocation(&spec, &alloc))
        .map_err(|v| format!("{} violations", v.len()))?;
    Ok(Designed::Parts(spec, alloc))
}

/// Simulates `d` through the flit simulator and the service check;
/// returns (all verdicts ok, flits delivered).
fn simulate(d: &Designed, cycles: u64) -> (bool, u64) {
    let opts = SimOptions {
        duration_cycles: cycles,
        ..SimOptions::default()
    };
    let (report, service) = match d {
        Designed::System(sys) => {
            let out = sys.simulate(opts);
            (out.report, out.service)
        }
        Designed::Parts(spec, alloc) => {
            let report = trace::span("noc.flitsim", 0, || {
                FlitSim::new(spec, alloc).run(FlitSimConfig {
                    duration_cycles: cycles,
                    record_timestamps: opts.record_timestamps,
                    ..FlitSimConfig::default()
                })
            });
            let measured = trace::span("core.measured_services", 0, || measured_services(&report));
            let service = trace::span("analysis.verify_service", 0, || {
                verify_service(
                    spec,
                    Some(alloc),
                    &measured,
                    cycles,
                    opts.throughput_tolerance,
                )
            });
            (report, service)
        }
    };
    (
        service.all_ok(),
        report.per_conn.iter().map(|s| s.flits).sum(),
    )
}

/// Runs one round: build the use cases, design them, simulate the first
/// twice, then check bounds and digest the results.
#[must_use]
pub fn round(cfg: &DesignCfg, seed: u64) -> DesignRound {
    let mut r = DesignRound::default();
    let t = Instant::now();
    let specs: Vec<SystemSpec> = (0..USE_CASES)
        .map(|k| {
            let s = seed.wrapping_mul(16).wrapping_add(k);
            trace::span("spec.build", s, || (cfg.build)(s))
        })
        .collect();
    r.setup_ns = t.elapsed().as_nanos() as u64;

    // The timed part: designs, then both simulators on the first design.
    // Checks and digests run after it, outside the measured path.
    let mut designed = Vec::new();
    let net = trace::span("bench.design_verify", seed, || {
        for (k, spec) in specs.into_iter().enumerate() {
            let t = Instant::now();
            let d = design(spec, k as u64);
            r.design_ns.push(t.elapsed().as_nanos() as u64);
            match d {
                Ok(d) => designed.push(d),
                Err(e) => {
                    r.failed_designs += 1;
                    r.failures.push(format!("design of use case {k}: {e}"));
                }
            }
        }
        let d = designed.first()?;
        let t = Instant::now();
        let (ok, flits) = simulate(d, CYCLES);
        r.simulate_ns = t.elapsed().as_nanos() as u64;
        r.flitsim_flits = flits;
        if !ok {
            r.failures
                .push("design: simulate verdict is not all_ok()".into());
        }
        let t = Instant::now();
        let mut net = trace::span("noc.turbo_build", 0, || {
            build_turbo(d.spec(), d.allocation(), NetworkKind::Synchronous, true)
        });
        r.turbo_build_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        trace::span("noc.turbo_step", 0, || net.run_cycles(CYCLES));
        r.turbo_step_ns = t.elapsed().as_nanos() as u64;
        Some(net)
    });

    let mut alloc_digest = Digest::default();
    for d in &designed {
        alloc_digest.push(crate::allocation_digest(d.allocation()));
    }
    r.alloc_digest = alloc_digest.value();
    let (Some(d), Some(net)) = (designed.first(), net) else {
        return r;
    };
    let (spec, alloc) = (d.spec(), d.allocation());
    for c in spec.connections() {
        let lat = net.latency(c.id);
        if lat.flits == 0 {
            continue;
        }
        let bound = alloc.worst_case_latency_cycles(spec, c.id);
        r.bound_ratio_max = r.bound_ratio_max.max(lat.max_cycles as f64 / bound as f64);
        if lat.max_cycles > bound {
            r.failures.push(format!(
                "design: {} turbo worst case {} > bound {bound} cycles",
                c.id, lat.max_cycles
            ));
        }
    }
    let mut logs = Digest::default();
    for (conn, log) in &net.logs {
        for f in log.borrow().iter() {
            logs.push(conn.index() as u64);
            logs.push(f.tag);
            logs.push(f.cycle);
            r.turbo_flits += 1;
        }
    }
    r.log_digest = logs.value();
    if r.flitsim_flits == 0 || r.turbo_flits == 0 {
        r.failures
            .push("design: a simulator delivered nothing".into());
    }
    r
}
