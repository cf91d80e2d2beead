//! The churn engine: streaming connection admission over a live
//! allocation, one unified [`submit`](ChurnEngine::submit) entry point
//! and a batched admission round for independent request bursts.

use crate::api::{AdmissionError, AdmissionRequest, AdmissionResponse, RefusalCause};
use aelite_alloc::{
    AdmissionRound, AllocScratch, Allocation, Allocator, FaultMask, RouteCache, RouteProvider,
};
use aelite_spec::churn::ChurnOp;
use aelite_spec::ids::ConnId;
use aelite_spec::SystemSpec;

/// Counters of the work a [`ChurnEngine`] has performed, broken down by
/// request kind so serving layers report refusal and rollback rates
/// without re-deriving them from traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Individual connection setups that succeeded (including those
    /// inside completed use-case switches).
    pub setups: u64,
    /// Individual connection teardowns performed (including the close
    /// side of use-case switches; rollback closes are not counted).
    pub teardowns: u64,
    /// Use-case switches applied end to end.
    pub switches: u64,
    /// Single open requests refused (platform could not admit, or the
    /// connection already held a grant).
    pub refused_opens: u64,
    /// Single close requests refused (the connection held no grant).
    pub refused_closes: u64,
    /// Use-case switches that failed and were rolled back.
    pub refused_switches: u64,
    /// Open-set admissions that had succeeded inside switches and were
    /// undone by rollbacks.
    pub rolled_back_opens: u64,
    /// Refusals (of any kind, already counted in the per-kind counters
    /// above) whose cause was [`RefusalCause::LinkDown`] — admissions
    /// that failed *because of the fault mask*, not because of capacity.
    pub refused_link_down: u64,
}

impl ChurnStats {
    /// Total successful setup + teardown operations — the numerator of
    /// the ops/sec throughput metric.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.setups + self.teardowns
    }

    /// Total refused requests of any kind.
    #[must_use]
    pub fn refusals(&self) -> u64 {
        self.refused_opens + self.refused_closes + self.refused_switches
    }

    /// Field-wise difference `self - before` — the counters accumulated
    /// *since* a snapshot taken earlier from the same engine. Callers
    /// that warm an engine up and then measure a window (the
    /// `aelite-serve` replay pipeline) report this delta rather than the
    /// lifetime totals.
    #[must_use]
    pub fn delta(&self, before: &ChurnStats) -> ChurnStats {
        ChurnStats {
            setups: self.setups - before.setups,
            teardowns: self.teardowns - before.teardowns,
            switches: self.switches - before.switches,
            refused_opens: self.refused_opens - before.refused_opens,
            refused_closes: self.refused_closes - before.refused_closes,
            refused_switches: self.refused_switches - before.refused_switches,
            rolled_back_opens: self.rolled_back_opens - before.rolled_back_opens,
            refused_link_down: self.refused_link_down - before.refused_link_down,
        }
    }
}

/// A high-throughput online reconfiguration engine for one platform.
///
/// The engine owns everything the admission hot path needs to be O(Δ)
/// per request: the [`Allocator`] heuristic, a persistent
/// [`RouteProvider`] (each NI pair's candidate routes are enumerated at
/// most once over the engine's lifetime; the default is the lazy hashed
/// [`RouteCache`], whose memory tracks the pairs actually routed) and an
/// [`AllocScratch`] whose buffers — including recycled grants from
/// earlier teardowns — make the steady-state open/close loop
/// allocation-free.
///
/// Every request is one [`AdmissionRequest`] serviced by
/// [`submit`](Self::submit); [`apply`](Self::apply) replays a borrowed
/// trace operation through the same kernels, and
/// [`submit_batch`](Self::submit_batch) applies a burst of independent
/// requests as one batched admission round, amortising the per-request
/// validation over the burst.
///
/// All specs passed to an engine must describe the same platform
/// (topology and NoC config) it was created for; restricted use-case
/// views of one system ([`SystemSpec::restricted_to`]) are the intended
/// usage. The engine never moves an existing grant: every operation
/// touches only the slots of the connections named in the request — the
/// paper's undisturbed-reconfiguration model, structurally enforced.
#[derive(Debug)]
pub struct ChurnEngine {
    allocator: Allocator,
    routes: Box<dyn RouteProvider>,
    scratch: AllocScratch,
    /// Reusable admission-order buffer for use-case switches.
    order: Vec<ConnId>,
    /// Reusable rollback journal for use-case switches.
    opened: Vec<ConnId>,
    /// Reusable canonical-order buffer for batched rounds.
    batch_order: Vec<usize>,
    /// Bursts at or below this length take the serial per-request path
    /// inside [`submit_batch`](Self::submit_batch) (still canonical
    /// order, so outcomes are bit-identical): round setup is O(1) with
    /// the cached connection-id bound, so a tiny burst no longer
    /// amortises the batch bookkeeping.
    serial_floor: usize,
    stats: ChurnStats,
}

/// How [`ChurnEngine::reroute`] moved a connection onto a fault-free
/// path — the rung of the recovery ladder that succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerouteOutcome {
    /// The replacement was admitted while the old grant's reservations
    /// were still in place: the connection's capacity was handed over as
    /// one delta, never released to third parties in between.
    MakeBeforeBreak,
    /// The old reservations had to be freed before the replacement fit
    /// (the new path reuses slots the old one held).
    BreakThenMake,
}

/// Default burst-size floor below which [`ChurnEngine::submit_batch`]
/// applies requests through the serial per-request path (in the same
/// canonical order — outcomes are identical; only the bookkeeping
/// differs). Measured crossover on the paper platform after the
/// conn-id-bound cache made round setup O(1); see `BENCH_SERVE.json`.
pub const SERIAL_FLOOR: usize = 4;

impl ChurnEngine {
    /// An engine for `spec`'s platform with the default [`Allocator`].
    #[must_use]
    pub fn new(spec: &SystemSpec) -> Self {
        ChurnEngine::with_allocator(spec, Allocator::new())
    }

    /// An engine for `spec`'s platform with a custom admission heuristic.
    #[must_use]
    pub fn with_allocator(spec: &SystemSpec, allocator: Allocator) -> Self {
        let routes = Box::new(RouteCache::new(spec.topology(), allocator.max_paths));
        ChurnEngine::with_route_provider(allocator, routes)
    }

    /// An engine using a caller-supplied [`RouteProvider`] — e.g. a
    /// [`DenseRouteCache`](aelite_alloc::DenseRouteCache) on a small
    /// platform, or a provider pre-warmed by an earlier flow. Admission
    /// outcomes never depend on the provider choice, only lookup cost and
    /// resident memory do.
    ///
    /// # Panics
    ///
    /// Panics if `routes` was built with a different `max_paths` bound
    /// than `allocator` uses.
    #[must_use]
    pub fn with_route_provider(allocator: Allocator, routes: Box<dyn RouteProvider>) -> Self {
        assert_eq!(
            routes.max_paths(),
            allocator.max_paths,
            "route provider was built for a different max_paths bound"
        );
        ChurnEngine {
            allocator,
            routes,
            scratch: AllocScratch::new(),
            order: Vec::new(),
            opened: Vec::new(),
            batch_order: Vec::new(),
            serial_floor: SERIAL_FLOOR,
            stats: ChurnStats::default(),
        }
    }

    /// The engine's route provider (diagnostics: e.g. how many NI pairs
    /// are resident in the cache).
    #[must_use]
    pub fn route_provider(&self) -> &dyn RouteProvider {
        &*self.routes
    }

    /// Sets the burst-size floor below which
    /// [`submit_batch`](Self::submit_batch) takes the serial per-request
    /// path (default [`SERIAL_FLOOR`]). `0` forces every burst through
    /// the batched round; outcomes never depend on the floor, only
    /// throughput does.
    pub fn set_serial_floor(&mut self, floor: usize) {
        self.serial_floor = floor;
    }

    /// The admission heuristic this engine uses.
    #[must_use]
    pub fn allocator(&self) -> &Allocator {
        &self.allocator
    }

    /// Work counters since the engine was created.
    #[must_use]
    pub fn stats(&self) -> &ChurnStats {
        &self.stats
    }

    /// The fault mask admissions are currently filtered against (empty
    /// unless [`set_faults`](Self::set_faults) installed one).
    #[must_use]
    pub fn faults(&self) -> &FaultMask {
        self.routes.faults()
    }

    /// Installs `faults` as the route provider's fault mask: from now on
    /// no admission through this engine can be granted a route that
    /// traverses a down link (see [`RouteProvider::set_faults`]).
    ///
    /// The mask constrains *future* admissions only — grants already in
    /// an allocation are not inspected here. Walking the affected grants
    /// and re-routing them is the recovery sweep of
    /// [`FaultEngine`](crate::fault::FaultEngine).
    pub fn set_faults(&mut self, faults: &FaultMask) {
        self.routes.set_faults(faults);
    }

    /// Re-routes one live connection onto a path admissible under the
    /// current fault mask, preferring **make-before-break**: the old
    /// grant is detached but its slot reservations stay in place while
    /// the replacement is admitted, so the new path never collides with
    /// the old one and the connection's capacity is handed over as one
    /// delta. If that fails (the old reservations may be exactly the
    /// capacity the replacement needs), falls back to break-then-make:
    /// release the old slots first, then retry.
    ///
    /// On refusal of both attempts the connection is left **closed** —
    /// its old grant is *not* restored, because the caller re-routes
    /// precisely when the old path is no longer usable (it traverses a
    /// down link); re-installing it would hand out dead capacity. The
    /// old slots are free again and the grant's buffers recycled.
    ///
    /// Bystander grants are never touched, whatever the outcome.
    ///
    /// # Errors
    ///
    /// [`RefusalCause::UnknownConn`] if `conn` holds no grant; otherwise
    /// the refusal of the final break-then-make attempt.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`submit`](Self::submit).
    pub fn reroute(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        conn: ConnId,
    ) -> Result<RerouteOutcome, AdmissionError> {
        let Some(old) = alloc.detach_grant(conn) else {
            self.stats.refused_closes += 1;
            return Err(AdmissionError {
                conn,
                cause: RefusalCause::UnknownConn,
                rolled_back: 0,
            });
        };
        let round = self.allocator.begin_round(spec, alloc, &*self.routes);
        match self.allocator.admit_in_round(
            &round,
            spec,
            alloc,
            conn,
            &mut *self.routes,
            &mut self.scratch,
        ) {
            Ok(()) => {
                // Make succeeded with the old reservations still held:
                // release them now that the replacement is committed.
                alloc.release_reservations_of(&old);
                self.scratch.recycle(old);
                self.stats.teardowns += 1;
                self.stats.setups += 1;
                Ok(RerouteOutcome::MakeBeforeBreak)
            }
            Err(_) => {
                // Break-then-make: the old slots may be exactly the
                // capacity the replacement needs. Free them and retry.
                alloc.release_reservations_of(&old);
                self.scratch.recycle(old);
                self.stats.teardowns += 1;
                match self.allocator.admit_in_round(
                    &round,
                    spec,
                    alloc,
                    conn,
                    &mut *self.routes,
                    &mut self.scratch,
                ) {
                    Ok(()) => {
                        self.stats.setups += 1;
                        Ok(RerouteOutcome::BreakThenMake)
                    }
                    Err(e) => {
                        let cause: RefusalCause = e.into();
                        self.stats.refused_opens += 1;
                        if matches!(cause, RefusalCause::LinkDown { .. }) {
                            self.stats.refused_link_down += 1;
                        }
                        Err(AdmissionError {
                            conn,
                            cause,
                            rolled_back: 0,
                        })
                    }
                }
            }
        }
    }

    /// Services one admission request: the unified entry point every
    /// other operation delegates to.
    ///
    /// Requests are total — an open of an already-open connection or a
    /// close of a closed one is a structured refusal
    /// ([`RefusalCause::AlreadyOpen`] / [`RefusalCause::UnknownConn`]),
    /// never a panic — and a refusal leaves the allocation exactly as it
    /// was (a refused switch additionally leaves its close set closed;
    /// see [`AdmissionError`]). Grants of connections outside the request
    /// are never touched, whatever the outcome.
    ///
    /// # Errors
    ///
    /// Returns the [`AdmissionError`] naming the connection the request
    /// was refused on, its cause, and any rollback performed.
    ///
    /// # Panics
    ///
    /// Panics only on platform mismatch: `spec`/`alloc` built for a
    /// different table size, per-hop shift or `max_paths` bound than the
    /// engine.
    pub fn submit(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        request: AdmissionRequest,
    ) -> Result<AdmissionResponse, AdmissionError> {
        let round = self.allocator.begin_round(spec, alloc, &*self.routes);
        self.submit_in_round(&round, spec, alloc, &request)
    }

    /// Services a burst of **independent** requests (no connection named
    /// by two of them) as one batched admission round, writing one
    /// verdict per request into `verdicts` (cleared first, arrival
    /// order).
    ///
    /// The burst is applied in the canonical order of
    /// [`canonical_order`]: teardowns first, then switches, then single
    /// opens hardest-first — byte-identical end state and verdicts to
    /// serially [`submit`](Self::submit)ting the requests in that order
    /// (property-tested in `tests/proptest_serve.rs`). What batching buys
    /// is amortisation: the per-request validation and grant-storage
    /// capacity check of [`Allocator::begin_round`] — O(connections) on
    /// every serial submit — runs **once per burst**, and every request
    /// then shares the round's warm [`RouteCache`] and recycled-grant
    /// scratch. Per-request rollback is unchanged: one refused request
    /// never poisons its batch.
    ///
    /// Requests whose connections overlap are still serviced safely (the
    /// round is just a sequence of total requests), but the canonical
    /// reorder then decides which of the conflicting requests sees the
    /// connection first — only independent bursts are order-insensitive.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`submit`](Self::submit).
    pub fn submit_batch(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        requests: &[AdmissionRequest],
        verdicts: &mut Vec<Result<AdmissionResponse, AdmissionError>>,
    ) {
        verdicts.clear();
        // Placeholder overwritten below: canonical_order is a permutation
        // of the arrival indices, so every slot is assigned exactly once.
        verdicts.resize(
            requests.len(),
            Err(AdmissionError {
                conn: ConnId::new(0),
                cause: RefusalCause::UnknownConn,
                rolled_back: 0,
            }),
        );
        let mut order = core::mem::take(&mut self.batch_order);
        canonical_order(spec, requests, &mut order);
        debug_assert_eq!(order.len(), requests.len());
        if requests.len() <= self.serial_floor {
            // Serial fallback: same canonical order, one round per
            // request — bit-identical outcomes (a round carries no state
            // between requests), but no batch bookkeeping to amortise.
            for &i in &order {
                let round = self.allocator.begin_round(spec, alloc, &*self.routes);
                verdicts[i] = self.submit_in_round(&round, spec, alloc, &requests[i]);
            }
        } else {
            let round = self.allocator.begin_round(spec, alloc, &*self.routes);
            for &i in &order {
                verdicts[i] = self.submit_in_round(&round, spec, alloc, &requests[i]);
            }
        }
        self.batch_order = order;
    }

    /// Services the subset `bucket` (arrival indices into `requests`) of
    /// a burst as one batched admission round, appending
    /// `(arrival_index, verdict)` pairs to `verdicts` in canonical
    /// application order. This is the per-shard building block of
    /// [`ShardedEngine`](crate::shard::ShardedEngine): each worker runs
    /// `submit_bucket` over its own bucket against its own slot-table
    /// partition, and the caller scatters the pairs back to arrival
    /// order.
    ///
    /// With `bucket` covering all of `requests`, this is
    /// [`submit_batch`](Self::submit_batch) minus the serial-floor
    /// fallback and the arrival-order scatter.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`submit`](Self::submit), or if
    /// `bucket` contains an out-of-range index.
    pub fn submit_bucket(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        requests: &[AdmissionRequest],
        bucket: &[usize],
        verdicts: &mut Vec<(usize, Result<AdmissionResponse, AdmissionError>)>,
    ) {
        let mut order = core::mem::take(&mut self.batch_order);
        canonical_order_of(spec, requests, bucket, &mut order);
        debug_assert_eq!(order.len(), bucket.len());
        let round = self.allocator.begin_round(spec, alloc, &*self.routes);
        verdicts.reserve(order.len());
        for &i in &order {
            let verdict = self.submit_in_round(&round, spec, alloc, &requests[i]);
            verdicts.push((i, verdict));
        }
        self.batch_order = order;
    }

    /// One request inside an already-validated round.
    fn submit_in_round(
        &mut self,
        round: &AdmissionRound,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        request: &AdmissionRequest,
    ) -> Result<AdmissionResponse, AdmissionError> {
        match request {
            AdmissionRequest::Open(c) => self
                .open_in_round(round, spec, alloc, *c)
                .map(|()| AdmissionResponse::Opened(*c)),
            AdmissionRequest::Close(c) => self.close_one(alloc, *c),
            AdmissionRequest::Switch { close, open } => {
                self.switch_in_round(round, spec, alloc, close, open)
            }
        }
    }

    fn open_in_round(
        &mut self,
        round: &AdmissionRound,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        conn: ConnId,
    ) -> Result<(), AdmissionError> {
        if alloc.grant(conn).is_some() {
            self.stats.refused_opens += 1;
            return Err(AdmissionError {
                conn,
                cause: RefusalCause::AlreadyOpen,
                rolled_back: 0,
            });
        }
        match self.allocator.admit_in_round(
            round,
            spec,
            alloc,
            conn,
            &mut *self.routes,
            &mut self.scratch,
        ) {
            Ok(()) => {
                self.stats.setups += 1;
                Ok(())
            }
            Err(e) => {
                let cause: RefusalCause = e.into();
                self.stats.refused_opens += 1;
                if matches!(cause, RefusalCause::LinkDown { .. }) {
                    self.stats.refused_link_down += 1;
                }
                Err(AdmissionError {
                    conn,
                    cause,
                    rolled_back: 0,
                })
            }
        }
    }

    fn close_one(
        &mut self,
        alloc: &mut Allocation,
        conn: ConnId,
    ) -> Result<AdmissionResponse, AdmissionError> {
        match alloc.take_grant(conn) {
            Some(grant) => {
                self.scratch.recycle(grant);
                self.stats.teardowns += 1;
                Ok(AdmissionResponse::Closed(conn))
            }
            None => {
                self.stats.refused_closes += 1;
                Err(AdmissionError {
                    conn,
                    cause: RefusalCause::UnknownConn,
                    rolled_back: 0,
                })
            }
        }
    }

    fn switch_in_round(
        &mut self,
        round: &AdmissionRound,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        close_set: &[ConnId],
        open_set: &[ConnId],
    ) -> Result<AdmissionResponse, AdmissionError> {
        let mut closed = 0u64;
        for &c in close_set {
            if let Some(grant) = alloc.take_grant(c) {
                self.scratch.recycle(grant);
                closed += 1;
            }
        }

        // Hardest-first admission, matching the batch allocator's order,
        // in a buffer reused across switches.
        self.order.clear();
        self.order.extend_from_slice(open_set);
        aelite_alloc::admission_order(spec, &mut self.order);
        self.opened.clear();
        for i in 0..self.order.len() {
            let conn = self.order[i];
            let outcome = if alloc.grant(conn).is_some() {
                Err(RefusalCause::AlreadyOpen)
            } else {
                self.allocator
                    .admit_in_round(
                        round,
                        spec,
                        alloc,
                        conn,
                        &mut *self.routes,
                        &mut self.scratch,
                    )
                    .map_err(RefusalCause::from)
            };
            match outcome {
                Ok(()) => self.opened.push(conn),
                Err(cause) => {
                    let rolled_back = self.opened.len() as u32;
                    for j in 0..self.opened.len() {
                        let c = self.opened[j];
                        let grant = alloc.take_grant(c).expect("opened this switch");
                        self.scratch.recycle(grant);
                    }
                    self.stats.teardowns += closed;
                    self.stats.refused_switches += 1;
                    if matches!(cause, RefusalCause::LinkDown { .. }) {
                        self.stats.refused_link_down += 1;
                    }
                    self.stats.rolled_back_opens += u64::from(rolled_back);
                    return Err(AdmissionError {
                        conn,
                        cause,
                        rolled_back,
                    });
                }
            }
        }
        self.stats.teardowns += closed;
        self.stats.setups += self.opened.len() as u64;
        self.stats.switches += 1;
        Ok(AdmissionResponse::Switched {
            closed: closed as u32,
            opened: self.opened.len() as u32,
        })
    }

    /// Applies one trace operation (see [`aelite_spec::churn`]),
    /// returning whether it was applied in full (an inadmissible open or
    /// a rolled-back switch returns `false`; a close of an already
    /// closed connection returns `true` — the requested state holds).
    ///
    /// The by-reference twin of [`submit`](Self::submit) for trace
    /// replay: same kernels, same counters, but a switch's sets are
    /// borrowed from the trace instead of moved into a request.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`submit`](Self::submit).
    pub fn apply(&mut self, spec: &SystemSpec, alloc: &mut Allocation, op: &ChurnOp) -> bool {
        match op {
            ChurnOp::Open(c) => {
                let round = self.allocator.begin_round(spec, alloc, &*self.routes);
                self.open_in_round(&round, spec, alloc, *c).is_ok()
            }
            ChurnOp::Close(c) => {
                let _ = self.close_one(alloc, *c);
                true
            }
            ChurnOp::Switch { close, open } => {
                let round = self.allocator.begin_round(spec, alloc, &*self.routes);
                self.switch_in_round(&round, spec, alloc, close, open)
                    .is_ok()
            }
        }
    }
}

/// Writes into `out` (cleared first) the canonical application order of
/// a request burst, as arrival indices into `requests`: closes first (in
/// arrival order — teardowns only free capacity), then switches (arrival
/// order — each is its own close-then-open delta), then single opens in
/// the allocator's hardest-first admission order (most estimated slots,
/// tightest deadline, then connection id, then arrival index).
///
/// [`ChurnEngine::submit_batch`] applies bursts in exactly this order;
/// serially submitting the requests in this order reproduces the batch
/// bit-for-bit, which is what makes batched results pinnable against a
/// canonical serial application.
///
/// # Panics
///
/// Panics if an open request names a connection `spec` does not contain
/// (the difficulty estimate needs its traffic contract).
pub fn canonical_order(spec: &SystemSpec, requests: &[AdmissionRequest], out: &mut Vec<usize>) {
    canonical_order_of_impl(spec, requests, None, out);
}

/// [`canonical_order`] restricted to the subset `bucket` of arrival
/// indices: writes into `out` (cleared first) a permutation of `bucket`
/// in canonical application order. Indices outside `bucket` never
/// appear; with `bucket` covering `0..requests.len()` this is exactly
/// [`canonical_order`].
///
/// # Panics
///
/// Panics if `bucket` contains an index outside `requests`, or (as
/// [`canonical_order`]) if a bucketed open names a connection `spec`
/// does not contain.
pub fn canonical_order_of(
    spec: &SystemSpec,
    requests: &[AdmissionRequest],
    bucket: &[usize],
    out: &mut Vec<usize>,
) {
    canonical_order_of_impl(spec, requests, Some(bucket), out);
}

fn canonical_order_of_impl(
    spec: &SystemSpec,
    requests: &[AdmissionRequest],
    bucket: Option<&[usize]>,
    out: &mut Vec<usize>,
) {
    out.clear();
    let select = |kind: fn(&AdmissionRequest) -> bool, out: &mut Vec<usize>| match bucket {
        Some(b) => out.extend(b.iter().copied().filter(|&i| kind(&requests[i]))),
        None => out.extend((0..requests.len()).filter(|&i| kind(&requests[i]))),
    };
    select(|r| matches!(r, AdmissionRequest::Close(_)), out);
    select(|r| matches!(r, AdmissionRequest::Switch { .. }), out);
    let opens_at = out.len();
    select(|r| matches!(r, AdmissionRequest::Open(_)), out);
    let key = |i: usize| {
        let AdmissionRequest::Open(c) = requests[i] else {
            unreachable!("opens segment holds only opens")
        };
        (
            core::cmp::Reverse(aelite_alloc::estimate_slots(spec, c)),
            spec.connection(c).max_latency_ns,
            c,
            i,
        )
    };
    let opens = &mut out[opens_at..];
    // Always cache the keys: `estimate_slots` walks the connection's
    // traffic contract, so one evaluation per element beats recomputing
    // it on every comparison even for small opens segments — per-shard
    // buckets in particular hit this path with a handful of opens per
    // call, where per-comparison recomputation was measured at ~2x the
    // whole admission cost of the bucket.
    opens.sort_by_cached_key(|&i| key(i));
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_alloc::{allocate, validate_allocation, Grant};
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::churn::{churn_trace, ChurnParams};
    use aelite_spec::generate::paper_workload;
    use aelite_spec::ids::{AppId, NiId};
    use aelite_spec::topology::Topology;
    use aelite_spec::traffic::Bandwidth;
    use aelite_spec::NocConfig;

    #[test]
    fn open_close_roundtrip_keeps_allocation_valid() {
        let spec = paper_workload(42);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        for c in spec.connections().iter().take(20) {
            engine
                .submit(&spec, &mut alloc, AdmissionRequest::Close(c.id))
                .expect("open");
            engine
                .submit(&spec, &mut alloc, AdmissionRequest::Open(c.id))
                .expect("re-admits");
        }
        assert_eq!(engine.stats().ops(), 40);
        assert_eq!(engine.stats().refusals(), 0);
        validate_allocation(&spec, &alloc).expect("valid after churn");
    }

    #[test]
    fn submit_answers_every_request_kind() {
        let spec = paper_workload(42);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        let c = spec.connections()[3].id;
        assert_eq!(
            engine.submit(&spec, &mut alloc, AdmissionRequest::Close(c)),
            Ok(AdmissionResponse::Closed(c))
        );
        assert_eq!(
            engine.submit(&spec, &mut alloc, AdmissionRequest::Open(c)),
            Ok(AdmissionResponse::Opened(c))
        );
        let close: Vec<_> = spec.app_connections(AppId::new(0)).map(|c| c.id).collect();
        let resp = engine
            .submit(
                &spec,
                &mut alloc,
                AdmissionRequest::Switch {
                    close: close.clone(),
                    open: Vec::new(),
                },
            )
            .expect("pure-teardown switch succeeds");
        assert_eq!(
            resp,
            AdmissionResponse::Switched {
                closed: close.len() as u32,
                opened: 0
            }
        );
        assert_eq!(engine.stats().switches, 1);
    }

    #[test]
    fn mismatched_requests_are_refused_not_panics() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        let c = spec.connections()[5].id;

        // Open of an open connection.
        let err = engine
            .submit(&spec, &mut alloc, AdmissionRequest::Open(c))
            .expect_err("already open");
        assert_eq!(err.cause, RefusalCause::AlreadyOpen);
        assert_eq!(err.conn, c);
        assert_eq!(err.rolled_back, 0);
        assert!(err.to_string().contains("already holds a grant"));

        // Close of a closed connection.
        engine
            .submit(&spec, &mut alloc, AdmissionRequest::Close(c))
            .expect("open");
        let err = engine
            .submit(&spec, &mut alloc, AdmissionRequest::Close(c))
            .expect_err("already closed");
        assert_eq!(err.cause, RefusalCause::UnknownConn);
        assert_eq!(engine.stats().refused_opens, 1);
        assert_eq!(engine.stats().refused_closes, 1);
        // The allocation is untouched by refusals.
        validate_allocation(
            &spec.restricted_to_connections(
                &spec
                    .connections()
                    .iter()
                    .map(|c| c.id)
                    .filter(|&id| alloc.grant(id).is_some())
                    .collect::<Vec<_>>(),
            ),
            &alloc,
        )
        .expect("valid after refusals");
    }

    #[test]
    fn close_of_unknown_connection_is_a_noop() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        let c = spec.connections()[5].id;
        let mut close = || engine.submit(&spec, &mut alloc, AdmissionRequest::Close(c));
        assert!(close().is_ok());
        assert!(close().is_err(), "second close is a no-op");
        assert_eq!(engine.stats().teardowns, 1);
        assert_eq!(engine.stats().refused_closes, 1);
    }

    #[test]
    fn switch_moves_one_app_and_disturbs_nobody() {
        let spec = paper_workload(42);
        // Start inside use case {0, 1, 2}.
        let uc1 = spec.restricted_to(&[AppId::new(0), AppId::new(1), AppId::new(2)]);
        let mut alloc = allocate(&uc1).unwrap();
        let mut engine = ChurnEngine::new(&spec);

        let keep: Vec<Grant> = spec
            .connections()
            .iter()
            .filter(|c| c.app == AppId::new(0) || c.app == AppId::new(1))
            .map(|c| alloc.grant(c.id).unwrap().clone())
            .collect();
        let close: Vec<_> = spec.app_connections(AppId::new(2)).map(|c| c.id).collect();
        let open: Vec<_> = spec.app_connections(AppId::new(3)).map(|c| c.id).collect();

        let switch = AdmissionRequest::Switch {
            close: close.clone(),
            open: open.clone(),
        };
        let resp = engine
            .submit(&spec, &mut alloc, switch)
            .expect("the paper workload's use cases co-exist");
        assert_eq!(
            resp,
            AdmissionResponse::Switched {
                closed: close.len() as u32,
                opened: open.len() as u32
            }
        );

        for g in keep {
            assert_eq!(alloc.grant(g.conn).unwrap(), &g, "{} moved", g.conn);
        }
        for c in &close {
            assert!(alloc.grant(*c).is_none());
        }
        for c in &open {
            assert!(alloc.grant(*c).is_some());
        }
        let uc2 = spec.restricted_to(&[AppId::new(0), AppId::new(1), AppId::new(3)]);
        validate_allocation(&uc2, &alloc).expect("valid after switch");
        assert_eq!(engine.stats().switches, 1);
    }

    #[test]
    fn failed_switch_rolls_back_its_opens() {
        // A 2-router platform where one heavy connection fills the link,
        // so a switch opening two more must fail and roll back.
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let a0 = b.add_app("resident");
        let a1 = b.add_app("heavy");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        let resident = b.add_connection(a0, s, d, Bandwidth::from_mbytes_per_sec(400), 10_000);
        let h1 = b.add_connection(a1, s, d, Bandwidth::from_mbytes_per_sec(800), 10_000);
        let h2 = b.add_connection(a1, s, d, Bandwidth::from_mbytes_per_sec(800), 10_000);
        let spec = b.build();

        let uc1 = spec.restricted_to(&[AppId::new(0)]);
        let mut alloc = allocate(&uc1).unwrap();
        let before = alloc.grant(resident).unwrap().clone();
        let mut engine = ChurnEngine::new(&spec);

        let switch = AdmissionRequest::Switch {
            close: vec![],
            open: vec![h1, h2],
        };
        let err = engine
            .submit(&spec, &mut alloc, switch)
            .expect_err("two 800 MB/s flows cannot share one link with a resident");
        assert_eq!(err.rolled_back, 1, "first admission succeeded, then undone");
        assert!(
            matches!(err.cause, RefusalCause::NoSlots { needed, free } if needed > free),
            "expected a structured slot shortage, got {:?}",
            err.cause
        );
        assert!(alloc.grant(h1).is_none() && alloc.grant(h2).is_none());
        assert_eq!(alloc.grant(resident).unwrap(), &before, "resident moved");
        assert_eq!(engine.stats().refused_switches, 1);
        assert_eq!(engine.stats().rolled_back_opens, 1);
        assert!(err.to_string().contains("rolled back"), "{err}");
        validate_allocation(&uc1, &alloc).expect("rollback left a valid state");
    }

    #[test]
    fn trace_replay_from_empty_is_mostly_admitted() {
        let spec = paper_workload(42);
        let mut alloc = Allocation::empty_for(&spec);
        let mut engine = ChurnEngine::new(&spec);
        let trace = churn_trace(
            &spec,
            &ChurnParams {
                events: 2_000,
                switch_weight: 0.005,
                ..ChurnParams::steady(2_000)
            },
            9,
        );
        let mut applied = 0u64;
        for e in &trace.events {
            if engine.apply(&spec, &mut alloc, &e.op) {
                applied += 1;
            }
        }
        // The generator's feasibility-aware draw keeps the pool jointly
        // allocatable, so churning a fraction of it stays admissible.
        assert!(
            applied as f64 >= 0.98 * trace.len() as f64,
            "only {applied}/{} applied",
            trace.len()
        );
        // The end state validates as an allocation of the surviving set.
        let surviving: Vec<_> = alloc.grants().map(|g| g.conn).collect();
        assert!(!surviving.is_empty());
        let view = spec.restricted_to_connections(&surviving);
        validate_allocation(&view, &alloc).expect("valid after trace replay");
        assert!(engine.stats().ops() > 0);
        // The generator's model assumes every open is admitted, so the
        // only refused closes are echoes of refused opens.
        assert!(engine.stats().refused_closes <= engine.stats().refused_opens);
    }

    #[test]
    fn canonical_order_is_closes_switches_then_hardest_opens() {
        let spec = paper_workload(42);
        let ids: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
        let requests = vec![
            AdmissionRequest::Open(ids[0]),
            AdmissionRequest::Close(ids[1]),
            AdmissionRequest::Switch {
                close: vec![ids[2]],
                open: vec![ids[3]],
            },
            AdmissionRequest::Open(ids[4]),
            AdmissionRequest::Close(ids[5]),
        ];
        let mut order = Vec::new();
        canonical_order(&spec, &requests, &mut order);
        // A permutation: closes (1, 4), the switch (2), then the opens.
        assert_eq!(order.len(), requests.len());
        assert_eq!(&order[..3], &[1, 4, 2]);
        let mut opens = order[3..].to_vec();
        opens.sort_unstable();
        assert_eq!(opens, vec![0, 3]);
        // Hardest first among the opens, ties broken by id then arrival.
        let key = |i: usize| {
            let AdmissionRequest::Open(c) = requests[i] else {
                unreachable!()
            };
            (
                core::cmp::Reverse(aelite_alloc::estimate_slots(&spec, c)),
                spec.connection(c).max_latency_ns,
                c,
                i,
            )
        };
        assert!(key(order[3]) <= key(order[4]));
    }

    #[test]
    fn batched_burst_matches_serial_canonical_application() {
        let spec = paper_workload(42);
        // Both sides start from the same live allocation.
        let alloc0 = allocate(&spec).unwrap();
        let ids: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
        // An independent burst: closes, re-opens of previously closed
        // connections, one switch, and a mismatched request.
        let mut engine_a = ChurnEngine::new(&spec);
        let mut prep = allocate(&spec).unwrap();
        let warm = |engine: &mut ChurnEngine, alloc: &mut Allocation| {
            for &c in &ids[..10] {
                engine
                    .submit(&spec, alloc, AdmissionRequest::Close(c))
                    .expect("open");
            }
        };
        warm(&mut engine_a, &mut prep);
        let mut alloc_a = prep.clone();
        let mut alloc_b = prep.clone();
        drop(alloc0);
        let mut engine_b = ChurnEngine::new(&spec);
        warm(&mut engine_b, &mut allocate(&spec).unwrap());

        let requests = vec![
            AdmissionRequest::Open(ids[0]),
            AdmissionRequest::Close(ids[20]),
            AdmissionRequest::Open(ids[1]),
            AdmissionRequest::Open(ids[21]), // already open -> refused
            AdmissionRequest::Close(ids[22]),
            AdmissionRequest::Open(ids[2]),
        ];

        // A: one batched round.
        let mut verdicts_a = Vec::new();
        engine_a.submit_batch(&spec, &mut alloc_a, &requests, &mut verdicts_a);

        // B: serial submits in the canonical order.
        let mut order = Vec::new();
        canonical_order(&spec, &requests, &mut order);
        let mut verdicts_b: Vec<Option<Result<AdmissionResponse, AdmissionError>>> =
            vec![None; requests.len()];
        for &i in &order {
            verdicts_b[i] = Some(engine_b.submit(&spec, &mut alloc_b, requests[i].clone()));
        }

        for (i, v) in verdicts_a.iter().enumerate() {
            assert_eq!(Some(*v), verdicts_b[i], "verdict {i} diverged");
        }
        for &c in &ids {
            assert_eq!(alloc_a.grant(c), alloc_b.grant(c), "{c} diverged");
        }
        assert_eq!(engine_a.stats(), engine_b.stats(), "stats diverged");
        // The refused open really was refused with a matchable cause.
        assert_eq!(verdicts_a[3].unwrap_err().cause, RefusalCause::AlreadyOpen);
    }
}
