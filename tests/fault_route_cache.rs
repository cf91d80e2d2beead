//! Route-cache state never leaks into fault recovery.
//!
//! The default [`RouteCache`] keeps every resident entry across mask
//! changes and filters candidates through the mask at lookup time. The
//! twin here is the opposite extreme: a provider that throws every
//! entry away on each [`set_faults`](RouteProvider::set_faults), so each
//! mask is served by a cold cache. Replaying the same merged
//! [`FaultScenario`] — churn, link and router failures and repairs,
//! glitches both masked and escalated — through one [`FaultEngine`] on
//! each provider must give identical per-event recovery reports,
//! identical counters and an identical end allocation, under both
//! steering modes and both repair policies.

use aelite_alloc::{
    Allocation, Allocator, FaultMask, RouteCache, RouteEntry, RouteProvider, Steering,
};
use aelite_online::{ChurnEngine, FaultEngine, RecoveryReport, RepairPolicy};
use aelite_spec::app::SystemSpec;
use aelite_spec::fault::{fault_trace, FaultOp, FaultParams, FaultScenario, ScenarioOp};
use aelite_spec::generate::{TrafficProfile, WorkloadBuilder};
use aelite_spec::ids::{LinkId, NiId};
use aelite_spec::topology::Topology;
use aelite_spec::{churn_trace, ChurnParams};

/// A [`RouteCache`] that starts over on every mask change: each mask is
/// served by a cache that has never seen another one.
#[derive(Debug)]
struct ColdPerMask {
    topo: Topology,
    inner: RouteCache,
}

impl ColdPerMask {
    fn new(topo: &Topology, max_paths: usize) -> Self {
        ColdPerMask {
            topo: topo.clone(),
            inner: RouteCache::new(topo, max_paths),
        }
    }
}

impl RouteProvider for ColdPerMask {
    fn max_paths(&self) -> usize {
        self.inner.max_paths()
    }

    fn candidate(
        &mut self,
        topo: &Topology,
        src: NiId,
        dst: NiId,
        i: usize,
    ) -> Option<&RouteEntry> {
        self.inner.candidate(topo, src, dst, i)
    }

    fn resident_pairs(&self) -> usize {
        self.inner.resident_pairs()
    }

    fn faults(&self) -> &FaultMask {
        self.inner.faults()
    }

    fn set_faults(&mut self, faults: &FaultMask) {
        self.inner = RouteCache::new(&self.topo, self.inner.max_paths());
        self.inner.set_faults(faults);
    }

    fn all_candidates(
        &mut self,
        topo: &Topology,
        src: NiId,
        dst: NiId,
    ) -> (&[RouteEntry], &FaultMask) {
        self.inner.all_candidates(topo, src, dst)
    }

    fn blocking_fault(&mut self, topo: &Topology, src: NiId, dst: NiId) -> Option<LinkId> {
        self.inner.blocking_fault(topo, src, dst)
    }
}

/// A 4×4 mesh with 2 NIs per router, 32-slot tables and 300 hotspot
/// connections: loaded enough that failures displace grants, some
/// re-routes need their old slots and some refusals are capacity-bound.
fn spec() -> SystemSpec {
    WorkloadBuilder::mesh(4, 4, 2)
        .connections(300)
        .slot_table_size(32)
        .apps(4)
        .profile(TrafficProfile::Hotspot { spots: 2 })
        .seed(7)
        .build()
}

/// 3000 churn events at 1M/s holding ~95% of the pool open, with 150
/// fault events spread over the same span, glitches included.
fn scenario(spec: &SystemSpec, seed: u64) -> FaultScenario {
    let churn = churn_trace(
        spec,
        &ChurnParams {
            target_open: 0.95,
            ..ChurnParams::steady(3000)
        },
        seed,
    );
    let faults = fault_trace(
        spec.topology(),
        &FaultParams {
            rate_per_sec: 150.0 / 3.0e-3,
            glitch_weight: 0.3,
            ..FaultParams::sparse(150)
        },
        seed ^ 0xFA,
    );
    FaultScenario::merge(&churn, &faults)
}

/// Applies one event the way [`FaultEngine::apply_event`] does, but
/// keeps both recovery reports: the clock advance's and the op's.
fn step(
    engine: &mut FaultEngine,
    spec: &SystemSpec,
    alloc: &mut Allocation,
    at_ns: u64,
    op: &ScenarioOp,
) -> (RecoveryReport, RecoveryReport, bool) {
    let advanced = engine.advance_to(spec, alloc, at_ns);
    let (report, ok) = match op {
        ScenarioOp::Churn(_) => (RecoveryReport::default(), engine.apply(spec, alloc, op)),
        ScenarioOp::Fault(f) => {
            let r = match *f {
                FaultOp::LinkDown(l) => engine.link_down(spec, alloc, l),
                FaultOp::LinkUp(l) => engine.link_up(spec, alloc, l),
                FaultOp::RouterDown(r) => engine.router_down(spec, alloc, r),
                FaultOp::RouterUp(r) => engine.router_up(spec, alloc, r),
                FaultOp::LinkGlitch { link, duration_ns } => {
                    engine.link_glitch(spec, alloc, link, duration_ns)
                }
            };
            (r, true)
        }
    };
    (advanced, report, ok)
}

fn twin_replay(steering: Steering, policy: RepairPolicy, seed: u64) {
    let spec = spec();
    let allocator = Allocator {
        steering,
        ..Allocator::new()
    };
    let mut warm = FaultEngine::with_engine(ChurnEngine::with_allocator(&spec, allocator));
    let cold_routes = Box::new(ColdPerMask::new(spec.topology(), allocator.max_paths));
    let mut cold =
        FaultEngine::with_engine(ChurnEngine::with_route_provider(allocator, cold_routes));
    for e in [&mut warm, &mut cold] {
        e.set_repair_policy(policy);
    }
    let mut warm_alloc = Allocation::empty_for(&spec);
    let mut cold_alloc = Allocation::empty_for(&spec);

    let scenario = scenario(&spec, seed);
    for (i, e) in scenario.events.iter().enumerate() {
        let w = step(&mut warm, &spec, &mut warm_alloc, e.at_ns, &e.op);
        let c = step(&mut cold, &spec, &mut cold_alloc, e.at_ns, &e.op);
        assert_eq!(w, c, "event {i} ({:?}) diverged", e.op);
    }
    let end = scenario.events.last().map_or(0, |e| e.at_ns) + 1_000_000;
    assert_eq!(
        warm.advance_to(&spec, &mut warm_alloc, end),
        cold.advance_to(&spec, &mut cold_alloc, end)
    );

    // The scenario reaches every rung and both refusal kinds.
    let stats = warm.stats();
    assert!(stats.link_downs + stats.router_downs > 0 && stats.escalated > 0);
    assert!(stats.make_before_break > 0 && stats.break_then_make > 0 && stats.dropped > 0);
    assert!(stats.restored > 0);
    let churn = warm.engine().stats();
    assert!(churn.refused_opens + churn.refused_switches > churn.refused_link_down);
    assert_eq!(warm.stats(), cold.stats());
    assert_eq!(warm.engine().stats(), cold.engine().stats());
    assert_eq!(warm.displaced(), cold.displaced());
    for c in spec.connections() {
        assert_eq!(warm_alloc.grant(c.id), cold_alloc.grant(c.id), "{}", c.id);
    }
    for l in spec.topology().links() {
        assert_eq!(warm_alloc.link_table(l), cold_alloc.link_table(l), "{l}");
    }
}

#[test]
fn warm_cache_matches_cold_cache_per_mask_shortest_first_immediate() {
    twin_replay(Steering::ShortestFirst, RepairPolicy::Immediate, 11);
}

#[test]
fn warm_cache_matches_cold_cache_per_mask_shortest_first_deferred() {
    twin_replay(Steering::ShortestFirst, RepairPolicy::Deferred, 12);
}

#[test]
fn warm_cache_matches_cold_cache_per_mask_spare_capacity_immediate() {
    twin_replay(Steering::SpareCapacity, RepairPolicy::Immediate, 13);
}

#[test]
fn warm_cache_matches_cold_cache_per_mask_spare_capacity_deferred() {
    twin_replay(Steering::SpareCapacity, RepairPolicy::Deferred, 14);
}
