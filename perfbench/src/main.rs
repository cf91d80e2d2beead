//! The aelite benchmark: online admission, fault recovery and design-time
//! verification, measured end to end from one single-threaded process.
//!
//! ```text
//! perfbench --workload <admit_churn|fault_storm|design_verify> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every run executes three legs — admission (`admit`), fault recovery
//! (`fault`) and design + verification (`design`) — so every end-to-end
//! metric is measured on every workload. The workload names the leg that
//! runs at full scale and gets most of the run's time; the other two run
//! on smaller companion platforms. Legs take turns, each repeating whole
//! rounds (set-up included) until its share of `--seconds` is spent.
//! Rounds cycle through a few input sets drawn from the seed; timings are
//! aggregated per input set and then averaged over the sets, and every
//! exact count and digest must repeat across the rounds of one set.
//!
//! With `--trace 0` the run prints the end-to-end metrics. With
//! `--trace 1` it traces the second round of each leg — a span around
//! every call into a layer — and runs the rest untraced, writes the spans
//! to `out/<workload>.spans.csv` beside this package's manifest, and
//! prints the per-layer metrics, the layers' self-time shares and the
//! tracing overhead. The last line of standard output is the JSON result;
//! the process exits 1 if any correctness check failed.

mod admit;
mod design;
mod fault;
mod hostref;
mod openloop;
mod stats;
mod trace;

use admit::{AdmitCfg, AdmitRound};
use aelite_alloc::{validate_allocation, Allocation, Steering};
use aelite_spec::generate::{paper_workload, TrafficProfile, WorkloadBuilder};
use aelite_spec::ids::ConnId;
use aelite_spec::SystemSpec;
use design::{DesignCfg, DesignRound};
use fault::{FaultCfg, FaultRound};
use stats::{highest_supported_percentile, iqm, median, Digest, Hist};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const ADMIT_FULL: AdmitCfg = AdmitCfg {
    platform: "8x8 mesh, 4 NIs/router, 1000 connections, 64-slot tables; 500 clients",
    build: |seed| {
        WorkloadBuilder::mesh(8, 8, 4)
            .connections(1000)
            .seed(seed)
            .build()
    },
    clients: 500,
    events_per_client: 667,
    sets: 8,
};

const ADMIT_SMALL: AdmitCfg = AdmitCfg {
    platform: "4x3 mesh, 4 NIs/router, 200 connections (paper Section VII); 50 clients",
    build: paper_workload,
    clients: 50,
    events_per_client: 2667,
    sets: 8,
};

const FAULT_FULL: FaultCfg = FaultCfg {
    platform: "8x8 mesh, 2 NIs/router, 400 connections, hotspot(4), spare-capacity steering",
    build: |seed| {
        WorkloadBuilder::mesh(8, 8, 2)
            .connections(400)
            .apps(6)
            .profile(TrafficProfile::Hotspot { spots: 4 })
            .seed(seed)
            .build()
    },
    steering: Steering::SpareCapacity,
    churn_events: 100_000,
    fault_events: 4_000,
    sets: 8,
};

const FAULT_SMALL: FaultCfg = FaultCfg {
    platform: "8x8 mesh, 2 NIs/router, 200 connections, uniform, shortest-first steering",
    build: |seed| {
        WorkloadBuilder::mesh(8, 8, 2)
            .connections(200)
            .apps(6)
            .seed(seed)
            .build()
    },
    steering: Steering::ShortestFirst,
    churn_events: 40_000,
    fault_events: 1_600,
    sets: 16,
};

const DESIGN_FULL: DesignCfg = DesignCfg {
    platform: "16x16 mesh, 4 NIs/router, 10000 connections, regional mega-profile",
    build: |seed| {
        WorkloadBuilder::mesh(16, 16, 4)
            .mega_traffic()
            .connections(10_000)
            .tiles(8, 8)
            .seed(seed)
            .build()
    },
    sets: 4,
};

const DESIGN_SMALL: DesignCfg = DesignCfg {
    platform: "8x8 mesh, 4 NIs/router, 2500 connections, regional mega-profile",
    build: |seed| {
        WorkloadBuilder::mesh(8, 8, 4)
            .mega_traffic()
            .connections(2_500)
            .tiles(4, 4)
            .seed(seed)
            .build()
    },
    sets: 4,
};

/// Share of the run's time the full-scale leg gets; the two companion
/// legs split the rest.
const MAIN_SHARE: f64 = 0.6;

/// The seed of input set `set` of a run seeded with `seed`.
///
/// Round `r` of a leg runs input set `r % sets` (each leg's config sets
/// its count). Exact outcomes are summed over one round of each set, so a
/// run averages over several platform and scenario draws, and every later
/// round must repeat the first round of its set exactly. Outcome
/// fractions vary with the draw, so the cheap fault companion cycles
/// through the most sets.
fn input_seed(seed: u64, set: usize) -> u64 {
    seed ^ (set as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One workload: a platform per leg, and which leg is at full scale.
struct Workload {
    name: &'static str,
    admit: AdmitCfg,
    fault: FaultCfg,
    design: DesignCfg,
    /// Time share of the admit, fault and design legs.
    shares: [f64; 3],
}

/// The workloads, by the leg each runs at full scale: admit, fault, design.
const WORKLOADS: [&str; 3] = ["admit_churn", "fault_storm", "design_verify"];

fn workload(name: &str) -> Option<Workload> {
    let full = WORKLOADS.iter().position(|&n| n == name)?;
    let mut shares = [(1.0 - MAIN_SHARE) / 2.0; 3];
    shares[full] = MAIN_SHARE;
    Some(Workload {
        name: WORKLOADS[full],
        admit: if full == 0 { ADMIT_FULL } else { ADMIT_SMALL },
        fault: if full == 1 { FAULT_FULL } else { FAULT_SMALL },
        design: if full == 2 { DESIGN_FULL } else { DESIGN_SMALL },
        shares,
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown argument {k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Validates the end state of a churned allocation against the spec
/// restricted to the connections still holding grants.
pub(crate) fn validate_end(spec: &SystemSpec, alloc: &Allocation) -> Result<(), String> {
    trace::span("alloc.validate", 0, || {
        let open: Vec<ConnId> = alloc.grants().map(|g| g.conn).collect();
        validate_allocation(&spec.restricted_to_connections(&open), alloc)
    })
    .map_err(|v| format!("{} violations, first {:?}", v.len(), v.first()))
}

/// Digest of every grant of `alloc`: connection, links and slots.
pub(crate) fn allocation_digest(alloc: &Allocation) -> u64 {
    let mut d = Digest::default();
    for g in alloc.grants() {
        d.push(g.conn.index() as u64);
        d.push(g.links.len() as u64);
        for l in &g.links {
            d.push(l.index() as u64);
        }
        d.push(g.inject_slots.len() as u64);
        for &s in &g.inject_slots {
            d.push(u64::from(s));
        }
    }
    d.value()
}

/// One round's result, with its spans' summary when it was traced.
struct Round<R> {
    result: R,
    spans: Option<SpanSummary>,
}

impl<R> Round<R> {
    fn traced(&self) -> bool {
        self.spans.is_some()
    }
}

/// The spans that time a measured pass; everything outside them is
/// set-up or checking, off the path the end-to-end metrics time.
const TIMED: [&str; 4] = [
    "bench.admit_open",
    "bench.admit_saturated",
    "bench.fault_replay",
    "bench.design_verify",
];

/// What a traced round's spans say: self time per layer inside the timed
/// passes, the passes' wall time, and span durations grouped by
/// `(name, parent name)`.
#[derive(Default)]
struct SpanSummary {
    timed_wall_ns: u64,
    timed_self_ns: BTreeMap<&'static str, u64>,
    durations: BTreeMap<(&'static str, &'static str), Vec<u64>>,
}

impl SpanSummary {
    fn of(spans: &[trace::Span], base: usize) -> Self {
        let mut s = SpanSummary::default();
        // Spans start in index order, so a parent is seen before its
        // children and `timed[parent]` is known when a child needs it.
        let mut timed = vec![false; spans.len()];
        let self_ns = trace::self_times(spans, base);
        for (i, sp) in spans.iter().enumerate() {
            let parent = (sp.parent != trace::ROOT && sp.parent as usize >= base)
                .then(|| sp.parent as usize - base);
            timed[i] = TIMED.contains(&sp.name) || parent.is_some_and(|p| timed[p]);
            if TIMED.contains(&sp.name) {
                s.timed_wall_ns += sp.duration_ns();
            }
            if timed[i] {
                *s.timed_self_ns.entry(trace::layer_of(sp.name)).or_default() += self_ns[i];
            }
            s.durations
                .entry((sp.name, parent.map_or("-", |p| spans[p].name)))
                .or_default()
                .push(sp.duration_ns());
        }
        s
    }

    fn get(&self, name: &'static str, parent: &'static str) -> &[u64] {
        self.durations
            .get(&(name, parent))
            .map_or(&[], Vec::as_slice)
    }

    /// Durations of spans named `name`, whatever their parent.
    fn named(&self, name: &str) -> Vec<u64> {
        self.durations
            .iter()
            .filter(|((n, _), _)| *n == name)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }
}

/// Runs round number `index` of one leg, traced when `traced`.
fn run_round<R>(
    leg: &'static str,
    index: usize,
    traced: bool,
    round: impl FnOnce() -> R,
) -> Round<R> {
    trace::set_enabled(traced);
    let mark = trace::mark();
    let result = trace::span(leg, index as u64, round);
    trace::set_enabled(false);
    let spans = traced.then(|| trace::with_spans_since(mark, SpanSummary::of));
    Round { result, spans }
}

/// Name → (value, unit) of every metric a run reports.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// `{"name": {"value": v, "unit": u}, ...}`; a value that is not
    /// finite (already recorded as a failure) prints as 0.
    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (v, unit))) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { 0.0 };
            write!(
                out,
                "{sep}{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
            .unwrap();
        }
        out.push('}');
        out
    }
}

/// The end-to-end timing metrics scaled to the reference host's nominal
/// speed, and whether each is a time (scaled down on a slow host's
/// reading) or a rate (scaled up).
const HOST_SCALED: [(&str, bool); 8] = [
    ("setup_s", true),
    ("admit_sat_rps", false),
    ("fault_events_per_s", false),
    ("recover_p50_us", true),
    ("recover_p99_us", true),
    ("design_ms", true),
    ("simulate_mcycles_per_s", false),
    ("turbo_mcycles_per_s", false),
];

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn median_u64(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

fn untraced<R>(rounds: &[Round<R>]) -> impl Iterator<Item = &R> + '_ {
    rounds.iter().filter(|r| !r.traced()).map(|r| &r.result)
}

fn traced<R>(rounds: &[Round<R>]) -> impl Iterator<Item = (&R, &SpanSummary)> + '_ {
    rounds
        .iter()
        .filter_map(|r| r.spans.as_ref().map(|s| (&r.result, s)))
}

/// Checks that `key` of every round equals that of the first round of
/// the same input set (`sets` input sets, taken in turn).
fn repeats<R, K: PartialEq + std::fmt::Debug>(
    what: &str,
    rounds: &[Round<R>],
    sets: usize,
    key: impl Fn(&R) -> K,
    failures: &mut Vec<String>,
) {
    for (i, r) in rounds.iter().enumerate().skip(sets) {
        let (first, again) = (key(&rounds[i % sets].result), key(&r.result));
        if first != again {
            failures.push(format!(
                "{what} differs between rounds: {first:?} vs {again:?}"
            ));
            return;
        }
    }
}

/// One round of each input set: the first `sets` rounds.
fn each_set<R>(rounds: &[Round<R>], sets: usize) -> impl Iterator<Item = &R> + '_ {
    rounds[..sets].iter().map(|r| &r.result)
}

/// Combines per-set digests into one.
fn combined(digests: impl Iterator<Item = u64>) -> u64 {
    let mut d = Digest::default();
    digests.for_each(|x| d.push(x));
    d.value()
}

/// A per-round rate or time, aggregated: the interquartile mean over each
/// input set's untraced rounds, then the mean over the sets, so the result
/// does not depend on how many rounds of each set the run fitted in.
fn per_set<R>(rounds: &[Round<R>], sets: usize, value: impl Fn(&R) -> f64) -> f64 {
    let per: Vec<f64> = (0..sets)
        .map(|k| {
            let v: Vec<f64> = rounds
                .iter()
                .skip(k)
                .step_by(sets)
                .filter(|r| !r.traced())
                .map(|r| value(&r.result))
                .collect();
            iqm(&v)
        })
        .collect();
    per.iter().sum::<f64>() / sets as f64
}

/// A percentile of a per-request sample, aggregated like [`per_set`]: the
/// percentile over each input set's pooled untraced rounds, then the mean
/// over the sets. Records a failure when a set's pool cannot support `p`
/// (fewer than ten samples beyond it).
fn per_set_percentile<R>(
    rounds: &[Round<R>],
    sets: usize,
    samples: impl Fn(&R) -> &Hist,
    p: f64,
    what: &str,
    failures: &mut Vec<String>,
) -> f64 {
    let per: Vec<f64> = (0..sets)
        .map(|k| {
            let pool = pooled(
                rounds
                    .iter()
                    .skip(k)
                    .step_by(sets)
                    .filter(|r| !r.traced())
                    .map(|r| samples(&r.result)),
            );
            tail(&pool, p, what, failures) as f64
        })
        .collect();
    per.iter().sum::<f64>() / sets as f64
}

/// One histogram holding every sample of `hists`.
fn pooled<'a>(hists: impl Iterator<Item = &'a Hist>) -> Hist {
    let mut pool = Hist::default();
    hists.for_each(|h| pool.merge(h));
    pool
}

/// Sums `field` over one round of each input set.
fn sum_sets<R>(rounds: &[Round<R>], sets: usize, field: impl Fn(&R) -> u64) -> u64 {
    each_set(rounds, sets).map(field).sum()
}

/// Percentile `p` of `pool`, which needs ten samples beyond it; records
/// a failure when the pool is too small to support it.
fn tail(pool: &Hist, p: f64, what: &str, failures: &mut Vec<String>) -> u64 {
    let n = pool.count() as usize;
    if highest_supported_percentile(n).is_none_or(|hp| hp < p) {
        failures.push(format!("{what}: {n} samples cannot support p{p}"));
    }
    pool.percentile(p)
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs the host has online (not just those this process may use, which
/// `run.py` narrows to one).
fn host_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(0, std::num::NonZero::get))
}

/// The commit the benchmark was built from, when run from a git checkout.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown (not a git checkout)".into()
        } else {
            head.to_string()
        };
    };
    std::fs::read_to_string(root.join(".git").join(r))
        .ok()
        .or_else(|| {
            std::fs::read_to_string(root.join(".git/packed-refs"))
                .ok()?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..l.len() - r.len()].to_string())
        })
        .map_or_else(|| format!("unknown ({r})"), |s| s.trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let seed = args.seed;
    // Every input set runs at least once, and set-up repeats at least
    // three times.
    let sets = [w.admit.sets, w.fault.sets, w.design.sets];
    let min = sets.map(|k| k.max(3));
    let (mut admit, mut fault, mut design) = (Vec::new(), Vec::new(), Vec::new());
    // Legs take turns, each next round going to the leg furthest behind
    // its time share, so every leg samples the host across the whole run.
    let mut used = [Duration::ZERO; 3];
    let (mut reference, mut host_ref) = (hostref::HostRef::default(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    loop {
        let counts = [admit.len(), fault.len(), design.len()];
        let behind = |i: usize| used[i].as_secs_f64() / w.shares[i];
        let Some(i) = (0..3)
            .filter(|&i| counts[i] < min[i] || used[i] < budget.mul_f64(w.shares[i]))
            .min_by(|&a, &b| behind(a).total_cmp(&behind(b)))
        else {
            break;
        };
        // One traced round per leg keeps the span log to a few million.
        let traced = args.trace && counts[i] == 1;
        host_ref.push(reference.time_once() as f64);
        let t = Instant::now();
        match i {
            0 => admit.push(run_round("bench.admit", counts[0], traced, || {
                admit::round(&w.admit, input_seed(seed, counts[0] % sets[0]))
            })),
            1 => fault.push(run_round("bench.fault", counts[1], traced, || {
                fault::round(&w.fault, input_seed(seed, counts[1] % sets[1]))
            })),
            _ => design.push(run_round("bench.design", counts[2], traced, || {
                design::round(&w.design, input_seed(seed, counts[2] % sets[2]))
            })),
        }
        used[i] += t.elapsed();
    }

    let mut failures: Vec<String> = Vec::new();
    for r in &admit {
        failures.extend(r.result.failures.iter().cloned());
    }
    for r in &fault {
        failures.extend(r.result.failures.iter().cloned());
    }
    for r in &design {
        failures.extend(r.result.failures.iter().cloned());
    }
    failures.dedup();
    let [sa, sf, sd] = sets;
    repeats(
        "admission saturated digest",
        &admit,
        sa,
        |r| r.sat_digest,
        &mut failures,
    );
    repeats(
        "admission saturated counters",
        &admit,
        sa,
        |r| (r.sat_stats, r.sat_refused),
        &mut failures,
    );
    repeats("fault end digest", &fault, sf, |r| r.digest, &mut failures);
    repeats(
        "fault counters",
        &fault,
        sf,
        |r| (r.stats, r.churn_refused, r.refused_link_down),
        &mut failures,
    );
    repeats(
        "design allocation digest",
        &design,
        sd,
        |r| r.alloc_digest,
        &mut failures,
    );
    repeats(
        "turbo delivery-log digest",
        &design,
        sd,
        |r| r.log_digest,
        &mut failures,
    );
    repeats(
        "simulated flits",
        &design,
        sd,
        |r| (r.flitsim_flits, r.turbo_flits),
        &mut failures,
    );
    let digests = [
        combined(each_set(&admit, sa).map(|r| r.sat_digest)),
        combined(each_set(&fault, sf).map(|r| r.digest)),
        combined(each_set(&design, sd).map(|r| r.alloc_digest)),
        combined(each_set(&design, sd).map(|r| r.log_digest)),
    ];
    let attempted: u64 = admit.iter().map(|r| 2 * r.result.requests).sum::<u64>()
        + fault.iter().map(|r| r.result.events).sum::<u64>()
        + design
            .iter()
            .map(|r| r.result.design_ns.len() as u64 + 2)
            .sum::<u64>();
    let failed: u64 = design.iter().map(|r| r.result.failed_designs).sum();

    let mut m = Metrics::default();
    if args.trace {
        per_layer(&mut m, w, &admit, &fault, &design, digests, &mut failures);
    } else {
        end_to_end(&mut m, w, &admit, &fault, &design, &mut failures);
    }
    // Host-speed scaling of the end-to-end timings (see hostref.rs); the
    // values as measured go to the provenance line.
    let host_ref_ns = iqm(&host_ref);
    let factor = hostref::NOMINAL_NS / host_ref_ns;
    let mut raw = Metrics::default();
    if args.trace {
        m.put("host.ref_us", host_ref_ns / 1e3, "us");
    } else {
        for (name, is_time) in HOST_SCALED {
            let (v, unit) = m.0.get_mut(name).expect("every scaled metric is reported");
            raw.put(name, *v, unit);
            *v = if is_time { *v * factor } else { *v / factor };
        }
    }
    for (name, (v, _)) in &m.0 {
        if !v.is_finite() {
            failures.push(format!("metric {name} is not finite"));
        }
    }

    let mut prov = String::new();
    write!(
        prov,
        "{{\"provenance\": {{\"git_rev\": {}, \"build_profile\": {}, \"rustc\": {}, \
         \"host_ref_us\": {}, \"host_factor\": {}, \"raw\": {}, \"host_cpus\": {}, \"pinned\": {}, \"threads_used\": 1, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"rounds\": {{\"admit\": {}, \"fault\": {}, \"design\": {}}}, \
         \"platforms\": {{\"admit\": {}, \"fault\": {}, \"design\": {}}}, \
         \"samples\": {{\"admit_latency\": {}, \"fault_events\": {}, \"designs\": {}}}}}}}",
        json_str(&git_rev()),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(env!("PERFBENCH_RUSTC")),
        host_ref_ns / 1e3,
        factor,
        raw.json(),
        host_cpus(),
        json_str(&std::env::var("PERFBENCH_PINNED").unwrap_or_else(|_| "not pinned".into())),
        json_str(w.name),
        seed,
        args.seconds,
        u8::from(args.trace),
        admit.len(),
        fault.len(),
        design.len(),
        json_str(w.admit.platform),
        json_str(w.fault.platform),
        json_str(w.design.platform),
        untraced(&admit).map(|r| r.latency.count()).sum::<u64>(),
        untraced(&fault).map(|r| r.recovery.count()).sum::<u64>(),
        untraced(&design).map(|r| r.design_ns.len()).sum::<usize>(),
    )
    .unwrap();
    println!("{prov}");
    println!(
        "# digests: admit {} fault {} design {} turbo-logs {}",
        digests[0], digests[1], digests[2], digests[3]
    );

    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans.csv", w.name));
        match trace::write_csv(&path, &prov) {
            Ok(n) => eprintln!("perfbench: wrote {n} spans to {}", path.display()),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
    }
    for f in &failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failures.is_empty(),
        m.json()
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// The end-to-end metrics of workload `w`, from the untraced rounds.
fn end_to_end(
    m: &mut Metrics,
    w: &Workload,
    admit: &[Round<AdmitRound>],
    fault: &[Round<FaultRound>],
    design: &[Round<DesignRound>],
    failures: &mut Vec<String>,
) {
    let [sa, sf, sd] = [w.admit.sets, w.fault.sets, w.design.sets];
    let setup = |v: Vec<u64>| median_u64(&v);
    let setup_ns = setup(untraced(admit).map(|r| r.setup_ns).collect())
        + setup(untraced(fault).map(|r| r.setup_ns).collect())
        + setup(untraced(design).map(|r| r.setup_ns).collect());
    m.put("setup_s", setup_ns / 1e9, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");

    let churn_ops = sum_sets(fault, sf, |r| r.churn_ops);
    let refused = sum_sets(admit, sa, |r| r.sat_refused) + sum_sets(fault, sf, |r| r.churn_refused);
    let requests = sum_sets(admit, sa, |r| r.requests) + churn_ops;
    m.put("refused_frac", refused as f64 / requests as f64, "frac");

    m.put(
        "admit_sat_rps",
        per_set(admit, sa, |r| r.requests as f64 / (r.sat_ns as f64 / 1e9)),
        "1/s",
    );
    m.put(
        "fault_events_per_s",
        per_set(fault, sf, |r| r.events as f64 / (r.replay_ns as f64 / 1e9)),
        "1/s",
    );
    for (name, p) in [("recover_p50_us", 50.0), ("recover_p99_us", 99.0)] {
        let v = per_set_percentile(fault, sf, |r| &r.recovery, p, "fault recovery", failures);
        m.put(name, v / 1e3, "us");
    }
    let survived = sum_sets(fault, sf, |r| r.stats.survived());
    let affected = sum_sets(fault, sf, |r| r.stats.affected);
    m.put(
        "survival_frac",
        survived as f64 / affected.max(1) as f64,
        "frac",
    );

    // Per use case across rounds, then averaged over the use cases.
    let use_cases = untraced(design)
        .map(|r| r.design_ns.len())
        .min()
        .unwrap_or(0);
    let per_case: Vec<f64> = (0..use_cases)
        .map(|k| {
            iqm(&untraced(design)
                .map(|r| r.design_ns[k] as f64)
                .collect::<Vec<_>>())
        })
        .collect();
    m.put(
        "design_ms",
        ms(per_case.iter().sum::<f64>() / per_case.len().max(1) as f64),
        "ms",
    );
    let mcps = |ns: fn(&DesignRound) -> u64| {
        per_set(design, sd, |r| design::CYCLES as f64 / ns(r) as f64 * 1e3)
    };
    m.put(
        "simulate_mcycles_per_s",
        mcps(|r| r.simulate_ns),
        "Mcycles/s",
    );
    m.put(
        "turbo_mcycles_per_s",
        mcps(|r| r.turbo_step_ns),
        "Mcycles/s",
    );
}

/// The per-layer metrics of workload `w`: timings from the traced rounds,
/// exact counts summed over one round of each input set, and `digests`.
fn per_layer(
    m: &mut Metrics,
    w: &Workload,
    admit: &[Round<AdmitRound>],
    fault: &[Round<FaultRound>],
    design: &[Round<DesignRound>],
    digests: [u64; 4],
    failures: &mut Vec<String>,
) {
    let [sa, sf, sd] = [w.admit.sets, w.fault.sets, w.design.sets];
    let a0 = &admit[0].result;
    let d0 = &design[0].result;

    // The open loop's latency, from the untraced rounds: ungated, because
    // it does not repeat within any allowed bound (see README.md).
    let lat = pooled(untraced(admit).map(|r| &r.latency));
    for (name, p) in [
        ("admit_p50_us", 50.0),
        ("admit_p90_us", 90.0),
        ("admit_p99_us", 99.0),
    ] {
        m.put(name, us(tail(&lat, p, "admit latency", failures)), "us");
    }

    // serve, on the admission leg.
    let (mut plan_ns, mut sat_requests, mut open_requests, mut open_bursts) = (0, 0, 0, 0);
    let (mut lag, mut wait, mut burst) = (Hist::default(), Hist::default(), Hist::default());
    let (mut busy_ns, mut open_wall_ns, mut sat_submit_ns, mut sat_ops) = (0, 0, 0, 0);
    for (r, s) in traced(admit) {
        plan_ns += s
            .get("serve.plan", "bench.admit_saturated")
            .iter()
            .sum::<u64>();
        sat_requests += r.requests;
        open_requests += r.requests;
        open_bursts += r.open_bursts;
        lag.merge(&r.pickup_lag);
        wait.merge(&r.queue_wait);
        let submits = s.get("online.submit_batch", "bench.admit_open");
        busy_ns += submits.iter().sum::<u64>();
        submits.iter().for_each(|&ns| burst.record(ns));
        open_wall_ns += s.get("bench.admit_open", "bench.admit").iter().sum::<u64>();
        sat_submit_ns += s
            .get("online.submit_batch", "bench.admit_saturated")
            .iter()
            .sum::<u64>();
        sat_ops += r.sat_stats.ops();
    }
    m.put(
        "serve.plan_ns_per_req",
        plan_ns as f64 / sat_requests.max(1) as f64,
        "ns",
    );
    m.put(
        "serve.burst_size_mean",
        open_requests as f64 / open_bursts.max(1) as f64,
        "count",
    );
    m.put(
        "serve.pickup_lag_us_p99",
        us(tail(&lag, 99.0, "pickup lag", failures)),
        "us",
    );
    m.put("serve.queue_wait_us_p50", us(wait.percentile(50.0)), "us");
    m.put(
        "serve.queue_wait_us_p99",
        us(tail(&wait, 99.0, "queue wait", failures)),
        "us",
    );

    // online, on the admission leg.
    m.put(
        "online.submit_batch_us_p50",
        us(burst.percentile(50.0)),
        "us",
    );
    m.put(
        "online.submit_batch_us_p99",
        us(tail(&burst, 99.0, "submit_batch", failures)),
        "us",
    );
    m.put(
        "online.busy_frac",
        busy_ns as f64 / open_wall_ns.max(1) as f64,
        "frac",
    );
    m.put(
        "online.ns_per_op",
        sat_submit_ns as f64 / sat_ops.max(1) as f64,
        "ns",
    );
    for (name, v) in [
        ("online.setups", sum_sets(admit, sa, |r| r.sat_stats.setups)),
        (
            "online.teardowns",
            sum_sets(admit, sa, |r| r.sat_stats.teardowns),
        ),
        (
            "online.switches",
            sum_sets(admit, sa, |r| r.sat_stats.switches),
        ),
        (
            "online.refused_opens",
            sum_sets(admit, sa, |r| r.sat_stats.refused_opens),
        ),
        (
            "online.refused_switches",
            sum_sets(admit, sa, |r| r.sat_stats.refused_switches),
        ),
        (
            "online.rolled_back_opens",
            sum_sets(admit, sa, |r| r.sat_stats.rolled_back_opens),
        ),
    ] {
        m.put(name, v as f64, "count");
    }

    // online.fault, on the fault leg.
    let fault_spans: Vec<&SpanSummary> = traced(fault).map(|(_, s)| s).collect();
    let pool = |name: &str| -> Hist { fault_spans.iter().flat_map(|s| s.named(name)).collect() };
    for (kind, metric) in fault::KINDS.iter().zip([
        "churn_op",
        "link_down",
        "link_up",
        "router_down",
        "router_up",
        "glitch",
    ]) {
        let v = pool(kind);
        m.put(
            &format!("online.fault.{metric}_us_p50"),
            us(v.percentile(50.0)),
            "us",
        );
        if *kind == fault::KINDS[0] {
            let p99 = tail(&v, 99.0, "fault churn op", failures);
            m.put("online.fault.churn_op_us_p99", us(p99), "us");
        }
    }
    m.put(
        "online.fault.advance_us_p50",
        us(pool("online.fault.advance").percentile(50.0)),
        "us",
    );
    for (name, v) in [
        ("affected", sum_sets(fault, sf, |r| r.stats.affected)),
        (
            "make_before_break",
            sum_sets(fault, sf, |r| r.stats.make_before_break),
        ),
        (
            "break_then_make",
            sum_sets(fault, sf, |r| r.stats.break_then_make),
        ),
        ("dropped", sum_sets(fault, sf, |r| r.stats.dropped)),
        ("restored", sum_sets(fault, sf, |r| r.stats.restored)),
        ("escalated", sum_sets(fault, sf, |r| r.stats.escalated)),
        (
            "glitch_expiries",
            sum_sets(fault, sf, |r| r.stats.glitch_expiries),
        ),
        (
            "refused_link_down",
            sum_sets(fault, sf, |r| r.refused_link_down),
        ),
    ] {
        m.put(&format!("online.fault.{name}"), v as f64, "count");
    }

    // alloc: design-time kernels, route memory and fragmentation.
    let design_spans: Vec<&SpanSummary> = traced(design).map(|(_, s)| s).collect();
    let dpool = |name: &'static str| -> Vec<u64> {
        design_spans
            .iter()
            .flat_map(|s| s.get(name, "bench.design_verify").iter().copied())
            .collect()
    };
    m.put(
        "alloc.allocate_ms",
        ms(median_u64(&dpool("alloc.allocate"))),
        "ms",
    );
    m.put(
        "alloc.validate_ms",
        ms(median_u64(&dpool("alloc.validate"))),
        "ms",
    );
    m.put("alloc.route_pairs_resident", a0.route_pairs as f64, "count");
    m.put("alloc.util_mean", a0.util_mean, "frac");
    m.put("alloc.util_peak", a0.util_peak, "frac");
    m.put("alloc.largest_free_run_p50", a0.free_run_p50, "slots");

    // noc and analysis, on the design leg.
    m.put(
        "noc.flitsim_ms",
        ms(median_u64(&dpool("noc.flitsim"))),
        "ms",
    );
    m.put(
        "noc.turbo_build_ms",
        ms(median_u64(&dpool("noc.turbo_build"))),
        "ms",
    );
    m.put(
        "noc.turbo_step_ms",
        ms(median_u64(&dpool("noc.turbo_step"))),
        "ms",
    );
    m.put(
        "noc.flits_delivered",
        sum_sets(design, sd, |r| r.turbo_flits) as f64,
        "count",
    );
    m.put(
        "analysis.verify_ms",
        ms(median_u64(&dpool("analysis.verify_service"))),
        "ms",
    );
    m.put("analysis.bound_ratio_max", d0.bound_ratio_max, "ratio");

    // spec: build time per round of every leg, summed over legs.
    let spec_build = |spans: Vec<&SpanSummary>| {
        median_u64(
            &spans
                .iter()
                .map(|s| s.named("spec.build").iter().sum::<u64>())
                .collect::<Vec<_>>(),
        )
    };
    let spec_ms = spec_build(traced(admit).map(|(_, s)| s).collect())
        + spec_build(fault_spans.clone())
        + spec_build(design_spans.clone());
    m.put("spec.build_ms", ms(spec_ms), "ms");

    // Behaviour digests: must repeat exactly for a seed.
    for (name, d) in ["admit_alloc", "fault_alloc", "design_alloc", "turbo_logs"]
        .into_iter()
        .zip(digests)
    {
        m.put(&format!("digest.{name}"), d as f64, "hash");
    }

    // Layer self-time shares over the timed passes of all traced rounds,
    // and coverage: the share of each round's timed wall time that the
    // program's layers (not the harness) account for.
    let all: Vec<&SpanSummary> = admit
        .iter()
        .filter_map(|r| r.spans.as_ref())
        .chain(fault.iter().filter_map(|r| r.spans.as_ref()))
        .chain(design.iter().filter_map(|r| r.spans.as_ref()))
        .collect();
    let wall: u64 = all.iter().map(|s| s.timed_wall_ns).sum();
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &all {
        for (l, ns) in &s.timed_self_ns {
            *layers.entry(l).or_default() += ns;
        }
    }
    for layer in LAYERS {
        let ns = layers.get(layer).copied().unwrap_or(0);
        m.put(
            &format!("self_frac.{layer}"),
            ns as f64 / wall.max(1) as f64,
            "frac",
        );
    }
    let coverage = all
        .iter()
        .map(|s| {
            let bench = s.timed_self_ns.get("bench").copied().unwrap_or(0);
            1.0 - bench as f64 / s.timed_wall_ns.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min);
    m.put("trace.coverage_min", coverage, "frac");
    if coverage < 0.9 {
        failures.push(format!(
            "layer self times cover only {:.1}% of a traced round's timed wall time",
            coverage * 100.0
        ));
    }
    if let Some(l) = all
        .iter()
        .flat_map(|s| s.durations.keys())
        .map(|(n, _)| trace::layer_of(n))
        .find(|l| !LAYERS.contains(l))
    {
        failures.push(format!("span layer {l} is not in the reported layer list"));
    }

    // Tracing overhead: the traced round's work time (open-loop idle
    // excluded) over the median of the untraced rounds of the same input
    // set, or of all untraced rounds when the run fitted in no other round
    // of that set; summed over legs.
    let admit_work = |r: &AdmitRound| r.sat_ns + r.open_work_ns;
    let design_work = |d: &DesignRound| {
        d.design_ns.iter().sum::<u64>() + d.simulate_ns + d.turbo_build_ns + d.turbo_step_ns
    };
    let [(ta, ua), (tf, uf), (td, ud)] = [
        traced_vs_untraced(admit, sa, admit_work),
        traced_vs_untraced(fault, sf, |r| r.replay_ns),
        traced_vs_untraced(design, sd, design_work),
    ];
    m.put(
        "trace.overhead_frac",
        (ta + tf + td) / (ua + uf + ud) - 1.0,
        "frac",
    );
}

/// Work time of a leg's traced round, and the median of the untraced
/// rounds of its input set (all untraced rounds when there are none).
fn traced_vs_untraced<R>(rounds: &[Round<R>], sets: usize, work: impl Fn(&R) -> u64) -> (f64, f64) {
    let Some(t) = rounds.iter().position(Round::traced) else {
        return (0.0, 0.0);
    };
    let same_set: Vec<f64> = rounds
        .iter()
        .skip(t % sets)
        .step_by(sets)
        .filter(|r| !r.traced())
        .map(|r| work(&r.result) as f64)
        .collect();
    let base = if same_set.is_empty() {
        median(&untraced(rounds).map(|r| work(r) as f64).collect::<Vec<_>>())
    } else {
        median(&same_set)
    };
    (work(&rounds[t].result) as f64, base)
}

/// Every layer a span may belong to, `bench` being the harness itself.
const LAYERS: [&str; 9] = [
    "bench",
    "spec",
    "serve",
    "online",
    "online.fault",
    "alloc",
    "noc",
    "core",
    "analysis",
];
