//! The end-to-end aelite system: specify → allocate → simulate → verify.
//!
//! [`AeliteSystem`] is the front door of the library: it takes a
//! [`SystemSpec`], runs the allocation flow, independently validates the
//! result, and exposes guaranteed-service queries, simulation and
//! verification — the workflow a user of the paper's design flow follows.

use aelite_alloc::allocate::{admission_order, AllocError, AllocScratch, Allocation, Allocator};
use aelite_alloc::route_cache::RouteCache;
use aelite_alloc::validate::{validate, Violation};

use aelite_analysis::composability::{compare_timelines, ComposabilityResult, Timeline};
use aelite_analysis::service::{verify_service, MeasuredService, ServiceReport};
use aelite_noc::flitsim::{FlitSim, FlitSimConfig, TrafficReport};
use aelite_noc::network::{build_network, CycleNet, NetworkKind};
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::{AppId, ConnId};
use aelite_spec::traffic::Bandwidth;
use core::fmt;

/// Why a system could not be designed.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignError {
    /// The NoC configuration is internally inconsistent.
    InvalidConfig(String),
    /// The allocator could not satisfy every contract.
    Allocation(AllocError),
    /// The allocator produced an allocation the independent validator
    /// rejects — an internal error worth surfacing loudly.
    Validation(Vec<Violation>),
    /// A reconfiguration kept this connection id but changed its
    /// endpoints or contract.
    ChangedConnection(ConnId),
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DesignError::Allocation(e) => write!(f, "allocation failed: {e}"),
            DesignError::Validation(v) => {
                write!(f, "allocation failed validation ({} violations)", v.len())
            }
            DesignError::ChangedConnection(c) => write!(
                f,
                "{c} changed during reconfiguration; remove it and add it under a new id"
            ),
        }
    }
}

impl std::error::Error for DesignError {}

impl From<AllocError> for DesignError {
    fn from(e: AllocError) -> Self {
        DesignError::Allocation(e)
    }
}

/// Options for a guaranteed-service simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Simulated duration in clock cycles.
    pub duration_cycles: u64,
    /// Record per-flit delivery timelines (needed for composability).
    pub record_timestamps: bool,
    /// Accepted throughput shortfall fraction for CBR sources.
    pub throughput_tolerance: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            duration_cycles: 300_000,
            record_timestamps: false,
            throughput_tolerance: 0.05,
        }
    }
}

/// A simulation outcome: raw measurements plus the service verdicts.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Raw per-connection measurements.
    pub report: TrafficReport,
    /// Contract/bound verdicts.
    pub service: ServiceReport,
}

/// A fully designed aelite system: a specification plus its validated
/// contention-free allocation.
///
/// # Examples
///
/// ```
/// use aelite_core::system::{AeliteSystem, SimOptions};
/// use aelite_spec::generate::paper_workload;
///
/// let system = AeliteSystem::design(paper_workload(42))?;
/// let outcome = system.simulate(SimOptions {
///     duration_cycles: 60_000,
///     ..SimOptions::default()
/// });
/// assert!(outcome.service.all_ok());
/// # Ok::<(), aelite_core::system::DesignError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AeliteSystem {
    spec: SystemSpec,
    allocation: Allocation,
}

impl AeliteSystem {
    /// Designs a system: validates the configuration, allocates every
    /// connection and independently validates the allocation.
    ///
    /// # Errors
    ///
    /// Returns a [`DesignError`] when the configuration is inconsistent,
    /// a contract cannot be satisfied, or (internal error) the produced
    /// allocation fails validation.
    pub fn design(spec: SystemSpec) -> Result<Self, DesignError> {
        Self::design_with(spec, &Allocator::new())
    }

    /// [`Self::design`] with a custom allocator configuration.
    ///
    /// # Errors
    ///
    /// See [`design`](Self::design).
    pub fn design_with(spec: SystemSpec, allocator: &Allocator) -> Result<Self, DesignError> {
        spec.config()
            .validate()
            .map_err(DesignError::InvalidConfig)?;
        let allocation = allocator.allocate(&spec)?;
        validate(&spec, &allocation).map_err(DesignError::Validation)?;
        Ok(AeliteSystem { spec, allocation })
    }

    /// The underlying specification.
    #[must_use]
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The validated allocation.
    #[must_use]
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The bandwidth guaranteed to `conn` by its reserved slots.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is not part of the system.
    #[must_use]
    pub fn guaranteed_bandwidth(&self, conn: ConnId) -> Bandwidth {
        self.allocation.allocated_bandwidth(&self.spec, conn)
    }

    /// The analytical worst-case per-flit latency of `conn`, ns.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is not part of the system.
    #[must_use]
    pub fn latency_bound_ns(&self, conn: ConnId) -> f64 {
        self.allocation.worst_case_latency_ns(&self.spec, conn)
    }

    /// Runs the flit-level simulator over the full system.
    #[must_use]
    pub fn simulate(&self, opts: SimOptions) -> SimulationOutcome {
        self.simulate_spec(&self.spec, opts)
    }

    /// Runs the flit-level simulator with only `apps` active, against the
    /// full system's allocation — applications are developed and verified
    /// in isolation (the paper's functional-scalability workflow).
    #[must_use]
    pub fn simulate_apps(&self, apps: &[AppId], opts: SimOptions) -> SimulationOutcome {
        let restricted = self.spec.restricted_to(apps);
        self.simulate_spec(&restricted, opts)
    }

    fn simulate_spec(&self, spec: &SystemSpec, opts: SimOptions) -> SimulationOutcome {
        let report = FlitSim::new(spec, &self.allocation).run(FlitSimConfig {
            duration_cycles: opts.duration_cycles,
            record_timestamps: opts.record_timestamps,
            ..FlitSimConfig::default()
        });
        let measured = measured_services(&report);
        let service = verify_service(
            spec,
            Some(&self.allocation),
            &measured,
            opts.duration_cycles,
            opts.throughput_tolerance,
        );
        SimulationOutcome { report, service }
    }

    /// Verifies composability: every application's delivery timelines are
    /// bit-identical between the full system and each isolated run.
    #[must_use]
    pub fn verify_composability(&self, opts: SimOptions) -> ComposabilityResult {
        let opts = SimOptions {
            record_timestamps: true,
            ..opts
        };
        let full = self.simulate(opts);
        let reference = timelines(&full.report);
        let mut divergent = Vec::new();
        let mut compared = 0;
        for app in self.spec.apps() {
            let isolated = self.simulate_apps(&[app.id], opts);
            let result = compare_timelines(&reference, &timelines(&isolated.report));
            compared += result.compared;
            divergent.extend(result.divergent);
        }
        ComposabilityResult {
            divergent,
            compared,
        }
    }

    /// Builds the cycle-accurate network for this system.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is inconsistent with the configuration's
    /// `link_pipeline_stages` (see [`aelite_noc::network::build_network`]).
    #[must_use]
    pub fn cycle_accurate(&self, kind: NetworkKind, with_traffic: bool) -> CycleNet {
        build_network(&self.spec, &self.allocation, kind, with_traffic)
    }

    /// Reconfigures the live system to `new_spec`: connections that
    /// disappeared are released, new ones allocated into the freed
    /// resources, and — the undisrupted-QoS property of the Æthereal flow
    /// the paper builds on (\[16\]) — **every kept connection's grant is
    /// left untouched**, so its timing is bit-identical across the
    /// reconfiguration.
    ///
    /// Connection ids must be stable across specs: a connection present
    /// in both is "kept" and must have the same endpoints and contract.
    /// The call is atomic: it either applies in full or leaves the
    /// system exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns, with the spec, every grant and every link table
    /// unchanged:
    ///
    /// * [`DesignError::InvalidConfig`] if `new_spec`'s configuration is
    ///   inconsistent or its slot-table size, slots per hop or link count
    ///   differs from the running platform's;
    /// * [`DesignError::ChangedConnection`] if a kept connection changed
    ///   its endpoints or contract;
    /// * [`DesignError::Allocation`] if the new connections cannot all be
    ///   allocated;
    /// * [`DesignError::Validation`] if the final allocation fails
    ///   validation (an internal error).
    pub fn reconfigure(&mut self, new_spec: SystemSpec) -> Result<ReconfigReport, DesignError> {
        new_spec
            .config()
            .validate()
            .map_err(DesignError::InvalidConfig)?;
        let (old_cfg, new_cfg) = (self.spec.config(), new_spec.config());
        if new_cfg.slot_table_size != old_cfg.slot_table_size
            || new_cfg.slots_per_hop() != old_cfg.slots_per_hop()
            || new_spec.topology().link_count() != self.spec.topology().link_count()
        {
            return Err(DesignError::InvalidConfig(
                "reconfiguration must keep the slot-table size, slots per hop and link count"
                    .into(),
            ));
        }
        let old_ids: std::collections::BTreeSet<ConnId> =
            self.spec.connections().iter().map(|c| c.id).collect();
        let new_ids: std::collections::BTreeSet<ConnId> =
            new_spec.connections().iter().map(|c| c.id).collect();
        let changed = |c: ConnId| {
            let (old, new) = (self.spec.connection(c), new_spec.connection(c));
            old != new
                || self.spec.ip_ni(old.src) != new_spec.ip_ni(new.src)
                || self.spec.ip_ni(old.dst) != new_spec.ip_ni(new.dst)
        };
        if let Some(&c) = old_ids.intersection(&new_ids).find(|&&c| changed(c)) {
            return Err(DesignError::ChangedConnection(c));
        }
        let released: Vec<ConnId> = old_ids.difference(&new_ids).copied().collect();
        let added: Vec<ConnId> = new_ids.difference(&old_ids).copied().collect();

        let snapshot = self.allocation.clone();
        if let Err(e) = apply_delta(&new_spec, &mut self.allocation, &released, &added) {
            self.allocation = snapshot;
            return Err(e);
        }
        self.spec = new_spec;
        Ok(ReconfigReport { released, added })
    }
}

/// Releases `released`, admits `added` hardest-first in one admission
/// round and validates the result against `spec`. Leaves `alloc`
/// half-applied on error; [`AeliteSystem::reconfigure`] rolls it back.
fn apply_delta(
    spec: &SystemSpec,
    alloc: &mut Allocation,
    released: &[ConnId],
    added: &[ConnId],
) -> Result<(), DesignError> {
    for &c in released {
        alloc.take_grant(c);
    }
    let allocator = Allocator::new();
    let mut routes = RouteCache::new(spec.topology(), allocator.max_paths);
    let mut scratch = AllocScratch::new();
    let round = allocator.begin_round(spec, alloc, &routes);
    let mut order = added.to_vec();
    admission_order(spec, &mut order);
    for c in order {
        allocator.admit_in_round(&round, spec, alloc, c, &mut routes, &mut scratch)?;
    }
    validate(spec, alloc).map_err(DesignError::Validation)
}

/// What a [`AeliteSystem::reconfigure`] call changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigReport {
    /// Connections torn down.
    pub released: Vec<ConnId>,
    /// Connections newly allocated.
    pub added: Vec<ConnId>,
}

/// Converts a flit-level report into simulator-independent measurements.
#[must_use]
pub fn measured_services(report: &TrafficReport) -> Vec<MeasuredService> {
    report
        .per_conn
        .iter()
        .map(|s| MeasuredService {
            conn: s.conn,
            bytes: s.bytes,
            min_latency_cycles: if s.flits > 0 { s.min_latency } else { 0 },
            mean_latency_cycles: s.mean_latency().unwrap_or(0.0),
            max_latency_cycles: s.max_latency,
        })
        .collect()
}

/// Extracts delivery timelines (requires the run to have recorded
/// timestamps).
#[must_use]
pub fn timelines(report: &TrafficReport) -> Vec<Timeline> {
    report
        .per_conn
        .iter()
        .map(|s| Timeline {
            conn: s.conn,
            deliveries: s.timestamps.clone(),
        })
        .collect()
}

/// Converts a best-effort report into simulator-independent measurements.
#[must_use]
pub fn measured_services_be(report: &aelite_baseline::BeReport) -> Vec<MeasuredService> {
    report
        .per_conn
        .iter()
        .map(|s| MeasuredService {
            conn: s.conn,
            bytes: s.bytes,
            min_latency_cycles: if s.flits > 0 { s.min_latency } else { 0 },
            mean_latency_cycles: s.mean_latency().unwrap_or(0.0),
            max_latency_cycles: s.max_latency,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::config::NocConfig;
    use aelite_spec::generate::paper_workload;
    use aelite_spec::ids::NiId;
    use aelite_spec::topology::Topology;

    fn quick() -> SimOptions {
        SimOptions {
            duration_cycles: 60_000,
            ..SimOptions::default()
        }
    }

    #[test]
    fn paper_system_designs_and_satisfies_contracts() {
        let system = AeliteSystem::design(paper_workload(42)).unwrap();
        let outcome = system.simulate(quick());
        assert!(outcome.service.all_ok());
        assert_eq!(outcome.service.verdicts.len(), 200);
    }

    #[test]
    fn guarantees_exceed_contracts() {
        let system = AeliteSystem::design(paper_workload(1)).unwrap();
        for c in system.spec().connections() {
            assert!(
                system.guaranteed_bandwidth(c.id).bytes_per_sec() >= c.bandwidth.bytes_per_sec()
            );
            assert!(system.latency_bound_ns(c.id) <= c.max_latency_ns as f64);
        }
    }

    #[test]
    fn composability_holds_for_paper_system() {
        let system = AeliteSystem::design(paper_workload(7)).unwrap();
        let result = system.verify_composability(SimOptions {
            duration_cycles: 30_000,
            ..SimOptions::default()
        });
        assert!(result.is_composable(), "{result}");
        assert!(result.compared >= 200);
    }

    #[test]
    fn isolated_app_meets_contracts_alone() {
        let system = AeliteSystem::design(paper_workload(13)).unwrap();
        let outcome = system.simulate_apps(&[AppId::new(2)], quick());
        assert!(outcome.service.all_ok());
        assert_eq!(outcome.service.verdicts.len(), 50);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let spec = paper_workload(1);
        let bad = spec.at_frequency(0);
        match AeliteSystem::design(bad) {
            Err(DesignError::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_spec_reports_allocation_error() {
        // Halving the frequency halves slot bandwidth: the same workload
        // no longer fits.
        let spec = paper_workload(42).at_frequency(120);
        match AeliteSystem::design(spec) {
            Err(DesignError::Allocation(_)) => {}
            other => panic!("expected Allocation error, got {other:?}"),
        }
    }

    #[test]
    fn design_error_display() {
        let e = DesignError::InvalidConfig("bad".into());
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn reconfiguration_preserves_kept_timing_exactly() {
        // Swap application 2 out (and back in, standing in for a new use
        // case): the remaining applications' delivery timelines must be
        // bit-identical before and after — undisrupted QoS.
        let mut system = AeliteSystem::design(paper_workload(42)).unwrap();
        let opts = SimOptions {
            duration_cycles: 30_000,
            record_timestamps: true,
            ..SimOptions::default()
        };
        let kept_apps = [AppId::new(0), AppId::new(1), AppId::new(3)];
        let before = system.simulate_apps(&kept_apps, opts);

        let without_app2 = system.spec().restricted_to(&kept_apps);
        let full = system.spec().clone();
        let report = system.reconfigure(without_app2).unwrap();
        assert_eq!(report.released.len(), 50);
        assert!(report.added.is_empty());
        let during = system.simulate(opts);

        let report = system.reconfigure(full).unwrap();
        assert_eq!(report.added.len(), 50);
        let after = system.simulate_apps(&kept_apps, opts);

        for (b, d) in before.report.per_conn.iter().zip(&during.report.per_conn) {
            assert_eq!(b.timestamps, d.timestamps, "{} moved during", b.conn);
        }
        for (b, a) in before.report.per_conn.iter().zip(&after.report.per_conn) {
            assert_eq!(b.timestamps, a.timestamps, "{} moved after", b.conn);
        }
        // And the re-added application still meets its contracts.
        let app2 = system.simulate_apps(
            &[AppId::new(2)],
            SimOptions {
                duration_cycles: 30_000,
                ..SimOptions::default()
            },
        );
        assert!(app2.service.all_ok());
    }

    #[test]
    fn same_spec_reconfiguration_is_a_noop() {
        let mut system = AeliteSystem::design(paper_workload(1)).unwrap();
        let same = system.spec().clone();
        let report = system.reconfigure(same).unwrap();
        assert!(report.released.is_empty() && report.added.is_empty());
    }

    /// Everything a refused reconfiguration must leave as it was — the
    /// spec, every grant and every link table — rendered for comparison.
    fn state(system: &AeliteSystem) -> String {
        format!("{:?}", (system.spec(), system.allocation()))
    }

    #[test]
    fn reconfiguration_leaves_other_grants_untouched() {
        // Remove application 1, then add its connections back (a stand-in
        // for a new use case occupying the freed resources): every other
        // grant is bit-identical — undisrupted QoS.
        let mut system = AeliteSystem::design(paper_workload(42)).unwrap();
        let full = system.spec().clone();
        let keep: Vec<aelite_alloc::Grant> = full
            .connections()
            .iter()
            .filter(|c| c.app != AppId::new(1))
            .map(|c| system.allocation().grant(c.id).unwrap().clone())
            .collect();
        let others = [AppId::new(0), AppId::new(2), AppId::new(3)];
        let report = system.reconfigure(full.restricted_to(&others)).unwrap();
        assert_eq!(report.released.len(), 50);
        let report = system.reconfigure(full).unwrap();
        assert_eq!(report.added.len(), 50);
        for g in keep {
            assert_eq!(
                system.allocation().grant(g.conn).unwrap(),
                &g,
                "{} moved",
                g.conn
            );
        }
        validate(system.spec(), system.allocation()).expect("final allocation is consistent");
    }

    #[test]
    fn reconfiguration_allocates_new_connection_into_live_system() {
        // A late application brings a connection whose id lies beyond the
        // running spec's id bound; ids of existing connections are stable.
        let topo = Topology::mesh(2, 2, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let base = b.add_app("base");
        let late = b.add_app("late arrival");
        let ips: Vec<_> = (0..4).map(|i| b.add_ip_at(NiId::new(i))).collect();
        let bw = Bandwidth::from_mbytes_per_sec;
        let c0 = b.add_connection(base, ips[0], ips[3], bw(100), 500);
        let c1 = b.add_connection(late, ips[1], ips[2], bw(80), 500);
        let full = b.build();
        let mut system = AeliteSystem::design(full.restricted_to(&[base])).unwrap();
        assert!(system.spec().conn_id_bound() <= c1.index());

        let before = system.allocation().grant(c0).unwrap().clone();
        let report = system.reconfigure(full).expect("capacity available");
        assert_eq!(report.added, vec![c1]);
        assert_eq!(
            system.allocation().grant(c0).unwrap(),
            &before,
            "kept grant moved"
        );
        assert!(system.allocation().grant(c1).is_some());
        validate(system.spec(), system.allocation()).expect("extended allocation validates");
    }

    #[test]
    fn infeasible_reconfiguration_changes_nothing() {
        // c0 nearly fills the 0→1 link, so c2 cannot join it; c1 runs the
        // other way and is released by the same call. The refusal must
        // also restore c1's grant.
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("a");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        let bw = Bandwidth::from_mbytes_per_sec;
        let c0 = b.add_connection(app, s, d, bw(1_200), 10_000);
        let c1 = b.add_connection(app, d, s, bw(100), 10_000);
        let c2 = b.add_connection(app, s, d, bw(400), 10_000);
        let full = b.build();
        let mut system = AeliteSystem::design(full.restricted_to_connections(&[c0, c1])).unwrap();
        let before = state(&system);

        match system.reconfigure(full.restricted_to_connections(&[c0, c2])) {
            Err(DesignError::Allocation(_)) => {}
            other => panic!("expected Allocation error, got {other:?}"),
        }
        assert_eq!(
            state(&system),
            before,
            "refused reconfiguration left changes"
        );
    }

    #[test]
    fn changed_kept_connection_is_refused() {
        // One connection from the IP on NI `src` to the IP on NI 3.
        let build = |src: u32, mbps: u64| {
            let mut b = SystemSpecBuilder::new(Topology::mesh(2, 2, 1), NocConfig::paper_default());
            let app = b.add_app("a");
            let s = b.add_ip_at(NiId::new(src));
            let d = b.add_ip_at(NiId::new(3));
            b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(mbps), 500);
            b.build()
        };
        let mut system = AeliteSystem::design(build(0, 100)).unwrap();
        let before = state(&system);
        // A new contract, then the same contract from an IP on another NI.
        for changed in [build(0, 200), build(1, 100)] {
            assert_eq!(
                system.reconfigure(changed),
                Err(DesignError::ChangedConnection(ConnId::new(0)))
            );
            assert_eq!(state(&system), before);
        }
    }

    #[test]
    fn platform_change_is_refused() {
        let mut system = AeliteSystem::design(paper_workload(1)).unwrap();
        let before = state(&system);
        let stages = system.spec().config().link_pipeline_stages;
        let pipelined = system.spec().with_link_pipeline_stages(stages + 1, 1);
        match system.reconfigure(pipelined) {
            Err(DesignError::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert_eq!(state(&system), before);
    }
}
