//! In-process replay of the served jobs, in the order the server ran
//! them, for the per-layer ledger. Three passes run the same job
//! sequence, each with a memo cache of its own, fresh at the start and
//! of the server's size, so every job sees the cache state it saw on
//! the server. The passes are interleaved per job (job k runs plain,
//! then with the sink, then traced, before job k+1), so a slow stretch
//! of the host lands on all three runs of a job alike instead of on one
//! whole pass:
//!
//! * `Plain`: `Guoq::optimize`, no sink — the base of
//!   `observe.overhead_ratio`;
//! * `Sink`: `optimize_events` with a sink that does the server's
//!   per-improvement encoding work;
//! * `Traced`: the sink plus transparent timing wrappers around every
//!   fast transformation and the cost function (they forward every call
//!   and draw no RNG, so the trajectory is unchanged).
//!
//! The replay guard: a job counts only if its replay ends with the
//! served DONE circuit bit for bit, so the ledger always describes the
//! program that was timed.

use crate::spans::{Tracer, ROOT};
use crate::workload::{CACHE_GATES, CHECKPOINT_EVERY, GATE_SET};
use guoq::cost::{CostFn, GateCount};
use guoq::transform::{
    CleanupPass, CommutationPass, FusionPass, PatchApplied, ResynthPass, RulePass, SearchCtx,
    Transformation,
};
use guoq::{Applied, Budget, Family, Guoq, GuoqOpts, OptEvent, QCache};
use qcache::CacheStats;
use qcir::delta::CircuitDelta;
use qcir::{qasm, Circuit, Patch};
use qserve::protocol::Frame;
use qsynth::{shared_resynthesizer, ResynthProfile};
use rand::rngs::SmallRng;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// One served job as the server ran it.
pub struct ReplayJob {
    pub id: u64,
    pub input: Circuit,
    pub iters: u64,
    pub seed: u64,
    pub eps: f64,
    pub certify: bool,
    /// For an EDIT continuation: the client's edit script, across which
    /// the latest certificate is rebased into the continuation's prior.
    pub edit: Option<CircuitDelta>,
    /// The served DONE QASM (`None` when the job failed on the server).
    pub expected: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Sink,
    Traced,
}

/// The four fast families the wrappers time, in metric-name order.
pub const FAST_FAMILIES: [(Family, &str); 4] = [
    (Family::Rule, "rule"),
    (Family::Fusion, "fusion"),
    (Family::Commutation, "commutation"),
    (Family::Cleanup, "cleanup"),
];

#[derive(Default)]
struct CallStats {
    calls: AtomicU64,
    fires: AtomicU64,
    ns: AtomicU64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Calls {
    pub calls: u64,
    pub fires: u64,
    pub s: f64,
}

impl CallStats {
    fn read(&self) -> Calls {
        Calls {
            calls: self.calls.load(Relaxed),
            fires: self.fires.load(Relaxed),
            s: self.ns.load(Relaxed) as f64 / 1e9,
        }
    }
}

fn minus(a: Calls, b: Calls) -> Calls {
    Calls {
        calls: a.calls - b.calls,
        fires: a.fires - b.fires,
        s: a.s - b.s,
    }
}

thread_local! {
    /// Set when a timed fast transformation proposes a patch; consumed
    /// by the cost wrapper's next `delta`. A `delta` without it comes
    /// from a slow move, inside the driver's slow span.
    static FAST_PROPOSAL: Cell<bool> = const { Cell::new(false) };
    /// Set by a `delta` of a slow move; consumed by the sink, whose
    /// improvement (if any) is then also inside the slow span.
    static SLOW_ACCEPT: Cell<bool> = const { Cell::new(false) };
}

/// Forwards every call to the wrapped transformation and times
/// `apply_patch`, the only entry the incremental engine calls.
struct Timed {
    inner: Box<dyn Transformation>,
    stats: Arc<CallStats>,
}

impl Transformation for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }
    fn family(&self) -> Family {
        self.inner.family()
    }
    fn apply(&self, circuit: &Circuit, rng: &mut SmallRng) -> Option<Applied> {
        self.inner.apply(circuit, rng)
    }
    fn supports_patches(&self) -> bool {
        self.inner.supports_patches()
    }
    fn apply_patch(&self, ctx: &mut SearchCtx, rng: &mut SmallRng) -> Option<PatchApplied> {
        let t0 = Instant::now();
        let out = self.inner.apply_patch(ctx, rng);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.calls.fetch_add(1, Relaxed);
        self.stats.ns.fetch_add(ns, Relaxed);
        if out.is_some() {
            self.stats.fires.fetch_add(1, Relaxed);
            FAST_PROPOSAL.with(|f| f.set(true));
        }
        out
    }
}

/// The gate-count objective with every call counted and timed.
struct TimedCost {
    delta: CallStats,
    /// `delta` nanoseconds spent inside slow spans.
    slow_ns: AtomicU64,
}

impl CostFn for TimedCost {
    fn cost(&self, circuit: &Circuit) -> f64 {
        GateCount.cost(circuit)
    }
    fn name(&self) -> &'static str {
        GateCount.name()
    }
    fn delta(&self, circuit: &Circuit, patch: &Patch) -> f64 {
        let t0 = Instant::now();
        let d = GateCount.delta(circuit, patch);
        let ns = t0.elapsed().as_nanos() as u64;
        self.delta.calls.fetch_add(1, Relaxed);
        self.delta.ns.fetch_add(ns, Relaxed);
        let fast = FAST_PROPOSAL.with(|f| f.replace(false));
        SLOW_ACCEPT.with(|s| s.set(!fast));
        if !fast {
            self.slow_ns.fetch_add(ns, Relaxed);
        }
        d
    }
}

/// The server's per-improvement work, minus the I/O: a DELTA frame
/// with the encoded edit script, or every `CHECKPOINT_EVERY`-th
/// improvement a full SNAPSHOT.
struct BenchSink {
    id: u64,
    since_checkpoint: u64,
    seq: u64,
    improvements: u64,
    ns: u64,
    /// Sink nanoseconds inside slow spans (improvements by resynthesis).
    slow_ns: u64,
}

impl BenchSink {
    fn on_event(&mut self, ev: &OptEvent, best: &Circuit) {
        let OptEvent::Improved {
            delta,
            cost,
            epsilon,
            iterations,
            seconds,
        } = ev
        else {
            return;
        };
        let t0 = Instant::now();
        self.improvements += 1;
        self.since_checkpoint += 1;
        let frame = if self.since_checkpoint >= CHECKPOINT_EVERY {
            self.since_checkpoint = 0;
            Frame::Snapshot {
                id: self.id,
                cost: *cost,
                epsilon: *epsilon,
                iterations: *iterations,
                seconds: *seconds,
                qasm: qasm::to_qasm_line(best),
            }
        } else {
            self.seq += 1;
            Frame::Delta {
                id: self.id,
                seq: self.seq,
                cost: *cost,
                epsilon: *epsilon,
                iterations: *iterations,
                seconds: *seconds,
                delta: delta.encode(),
            }
        };
        std::hint::black_box(frame.encode());
        let ns = t0.elapsed().as_nanos() as u64;
        self.ns += ns;
        if SLOW_ACCEPT.with(|s| s.replace(false)) {
            self.slow_ns += ns;
        }
    }
}

/// One job's replay in one pass.
#[derive(Debug, Default, Clone)]
pub struct JobReplay {
    pub matched: bool,
    pub seconds: f64,
    /// Improvements the engine published (the sink passes).
    pub improvements: u64,
    pub sink_s: f64,
    pub sink_slow_s: f64,
    pub fast: [Calls; 4],
    pub cost: Calls,
    pub cost_slow_s: f64,
    pub accepts: [u64; qtrace::FAMILY_COUNT],
    pub rejects: u64,
    pub driver_fast_s: f64,
    pub slow_s: f64,
    pub slow_calls: u64,
    pub slow_successes: u64,
    pub cache: CacheStats,
}

fn opts(job: &ReplayJob, cache: &Arc<QCache>, prior: Option<qcert::Certificate>) -> GuoqOpts {
    GuoqOpts {
        budget: Budget::Iterations(job.iters),
        eps_total: job.eps,
        seed: job.seed,
        certify: job.certify,
        cert_prior: prior,
        cache: Some(Arc::clone(cache)),
        ..Default::default()
    }
}

/// The fast pool of `Guoq::for_gate_set`, in the same order (the
/// driver draws transformations by index), each wrapped for timing.
fn timed_fast_pool(stats: &[Arc<CallStats>; 4]) -> Vec<Box<dyn Transformation>> {
    let mut inner: Vec<Box<dyn Transformation>> = Vec::new();
    for rule in qrewrite::shared_rules_for(GATE_SET).iter() {
        inner.push(Box::new(RulePass::new(rule.clone())));
    }
    inner.push(Box::new(FusionPass::new(GATE_SET)));
    inner.push(Box::new(CommutationPass));
    inner.push(Box::new(CleanupPass));
    inner
        .into_iter()
        .map(|t| {
            let i = FAST_FAMILIES
                .iter()
                .position(|(f, _)| *f == t.family())
                .expect("fast passes belong to the four fast families");
            Box::new(Timed {
                inner: t,
                stats: Arc::clone(&stats[i]),
            }) as Box<dyn Transformation>
        })
        .collect()
}

/// The slow pool of `Guoq::for_gate_set` (same ε share, width, cache).
fn slow_pool(o: &GuoqOpts) -> Vec<ResynthPass> {
    let eps = (o.eps_total / 8.0).max(1e-12);
    let rs = shared_resynthesizer(GATE_SET, ResynthProfile::Fast);
    vec![ResynthPass::new(rs, o.max_subcircuit_qubits, eps).with_cache(o.cache.clone())]
}

/// What one pass carries from job to job.
struct Pass {
    mode: Mode,
    span: &'static str,
    cache: Arc<QCache>,
    /// The certificate the server would read from the job's side file:
    /// the latest one any segment of this pass wrote.
    last_cert: Option<qcert::Certificate>,
    out: Vec<JobReplay>,
}

/// Runs every job in order under each mode, interleaved per job.
/// Returns the plain, sink and traced replays.
pub fn run_interleaved(jobs: &[ReplayJob], tr: &mut Tracer) -> [Vec<JobReplay>; 3] {
    let fast_stats: [Arc<CallStats>; 4] = Default::default();
    let cost = TimedCost {
        delta: CallStats::default(),
        slow_ns: AtomicU64::new(0),
    };
    let mut passes = [
        (Mode::Plain, "replay.plain"),
        (Mode::Sink, "replay.sink"),
        (Mode::Traced, "replay.traced"),
    ]
    .map(|(mode, span)| Pass {
        mode,
        span,
        cache: Arc::new(QCache::with_gate_budget(CACHE_GATES)),
        last_cert: None,
        out: Vec::with_capacity(jobs.len()),
    });
    for job in jobs {
        for pass in &mut passes {
            let r = tr.time(pass.span, job.id, ROOT, || {
                replay_job(job, pass, &fast_stats, &cost)
            });
            pass.out.push(r);
        }
    }
    passes.map(|p| p.out)
}

fn replay_job(
    job: &ReplayJob,
    pass: &mut Pass,
    fast_stats: &[Arc<CallStats>; 4],
    cost: &TimedCost,
) -> JobReplay {
    let mut r = JobReplay::default();
    let prior = match (&job.edit, &pass.last_cert) {
        (Some(script), Some(cert)) => Some(cert.rebase(script.ops(), qcert::CERT_PAD)),
        _ => None,
    };
    let cache = &pass.cache;
    let o = opts(job, cache, prior);
    let fast0 = fast_stats.each_ref().map(|s| s.read());
    let cost0 = cost.delta.read();
    let cost_slow0 = cost.slow_ns.load(Relaxed);
    let cache0 = cache.stats();
    let mut sink = BenchSink {
        id: job.id,
        since_checkpoint: 0,
        seq: 0,
        improvements: 0,
        ns: 0,
        slow_ns: 0,
    };
    let t0 = Instant::now();
    let result = match pass.mode {
        Mode::Plain => Guoq::for_gate_set(GATE_SET, o).optimize(&job.input, &GateCount),
        Mode::Sink => Guoq::for_gate_set(GATE_SET, o).optimize_events(
            &job.input,
            &GateCount,
            &mut |ev, best| sink.on_event(ev, best),
        ),
        Mode::Traced => {
            let slow = slow_pool(&o);
            Guoq::new(timed_fast_pool(fast_stats), slow, o).optimize_events(
                &job.input,
                cost,
                &mut |ev, best| sink.on_event(ev, best),
            )
        }
    };
    r.seconds = t0.elapsed().as_secs_f64();
    r.matched = job
        .expected
        .as_deref()
        .is_some_and(|q| qasm::to_qasm_line(&result.circuit) == q);
    r.improvements = sink.improvements;
    r.sink_s = sink.ns as f64 / 1e9;
    r.sink_slow_s = sink.slow_ns as f64 / 1e9;
    let fast1 = fast_stats.each_ref().map(|s| s.read());
    for i in 0..4 {
        r.fast[i] = minus(fast1[i], fast0[i]);
    }
    r.cost = minus(cost.delta.read(), cost0);
    r.cost_slow_s = (cost.slow_ns.load(Relaxed) - cost_slow0) as f64 / 1e9;
    for f in qtrace::Family::ALL {
        r.accepts[f.index()] = result.profile.families[f.index()].accepts;
        r.rejects += result.profile.families[f.index()].rejects;
    }
    r.driver_fast_s = result.profile.fast_seconds();
    r.slow_s = result.profile.slow_seconds();
    r.slow_calls = result.cache_hits + result.cache_misses;
    r.slow_successes = result.resynth_hits;
    r.cache = stats_minus(cache.stats(), cache0);
    if let Some(cert) = result.certificate {
        pass.last_cert = Some(cert);
    }
    r
}

fn stats_minus(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits - b.hits,
        negative_hits: a.negative_hits - b.negative_hits,
        misses: a.misses - b.misses,
        verify_rejects: a.verify_rejects - b.verify_rejects,
        inserts: a.inserts - b.inserts,
        evictions: a.evictions - b.evictions,
        entries: a.entries,
        gates: a.gates,
    }
}
