//! The single-shard search driver: Algorithm 1's mutable state and
//! acceptance rule, shared by every engine.
//!
//! Before this module existed, the sync and async optimizers each
//! carried their own copy of the Metropolis/budget loop (and the legacy
//! clone–rebuild engine a third). A [`ShardDriver`] is the one
//! implementation: it owns the working circuit (inside a
//! [`SearchCtx`]), the running cost/ε tallies, best-so-far tracking and
//! the history trace, and exposes the loop as composable pieces —
//! [`step`](ShardDriver::step) for a full Algorithm-1 iteration,
//! [`fast_move`](ShardDriver::fast_move)/[`offer_resynth`](ShardDriver::offer_resynth)
//! for the async driver's interleaving, and [`run`](ShardDriver::run)
//! for the plain budget loop.
//!
//! The same driver powers the sharded parallel engine: each worker
//! constructs a `ShardDriver` over its shard circuit with a per-slice
//! iteration budget and a per-epoch ε allowance, which is exactly the
//! "single-shard driver" role the name comes from.

use crate::cost::CostFn;
use crate::guoq::{Budget, GuoqOpts, GuoqResult, HistoryPoint};
use crate::observe::{CancelToken, EventSink, OptEvent};
use crate::transform::{Applied, PatchApplied, ResynthPass, SearchCtx, Transformation};
use qcir::delta::CircuitDelta;
use qcir::edit::Patch;
use qcir::Circuit;
use qrewrite::MatchScratch;
use qtrace::{Family, FamilyStats, Profile, FAMILY_COUNT};
use rand::rngs::SmallRng;
use rand::Rng;
use std::time::Instant;

/// Upper bound on the accepted-op backlog kept between two strict
/// improvements. Plateau accepts are the common case, so a long
/// non-improving stretch would otherwise grow the backlog without
/// bound; past the cap the journal stops recording and the next strict
/// improvement re-anchors it (and, with a sink installed, packages a
/// before/after [`CircuitDelta::diff`] instead of the op chain) —
/// O(circuit) once per improvement, instead of O(backlog) memory
/// forever.
const PENDING_OPS_CAP: usize = 4096;

/// Upper bound on the whole best-journal. Past it, the best-prefix is
/// folded into the base circuit: no clone, and no extra work — every
/// journaled op is replayed onto the base exactly once, at a fold or
/// in [`ShardDriver::finish`]. A long run of small improvements so
/// keeps the journal under this many patches without ever leaving
/// journal mode.
const BEST_JOURNAL_CAP: usize = 2 * PENDING_OPS_CAP;

/// Iteration period of the [`OptEvent::Stats`] heartbeat (sent only
/// with an event sink installed). A power of two so the check is one mask per iteration; at the
/// incremental engine's ~800k iters/sec this is a stats frame every
/// ~0.3s — frequent enough to watch a fast/slow split move, rare enough
/// to be free.
const STATS_EVERY_ITERS: u64 = 1 << 18;

/// How the driver remembers its best-so-far circuit: a patch journal.
///
/// Snapshotting the working circuit on every strict improvement would
/// be an O(circuit) cost in the incremental engine's accept path, and
/// improvements cluster early in a search — exactly when the circuit is
/// largest. The driver instead journals every accepted patch and
/// remembers *how many* of them lead to the best: the best circuit is
/// materialized once, in [`ShardDriver::finish`], by replaying that
/// prefix onto the base snapshot. At every strict improvement the
/// working circuit *is* the best, so an event sink is handed the
/// working circuit, and the `Improved` delta is the journal's suffix
/// past the previous best.
struct BestJournal {
    /// `base` + `ops[..ops_at_best]` replays to the best circuit; while
    /// `live`, `base` + `ops[..]` replays to the current working
    /// circuit, so a strict improvement is recorded by bumping
    /// `ops_at_best` — O(1) instead of O(circuit).
    base: Circuit,
    ops: Vec<Patch>,
    ops_at_best: usize,
    /// Cleared when the op trail stops tracking the working circuit
    /// (a backlog past [`PENDING_OPS_CAP`], or a wholesale circuit
    /// replacement whose edit has no patch form). The best-prefix stays
    /// valid; journaling resumes at the next strict improvement via an
    /// O(circuit) re-anchor.
    live: bool,
}

impl BestJournal {
    fn new(base: Circuit) -> Self {
        BestJournal {
            base,
            ops: Vec::new(),
            ops_at_best: 0,
            live: true,
        }
    }

    /// Records an accepted patch (a no-op once the trail is dead).
    fn record(&mut self, op: Patch) {
        if !self.live {
            return;
        }
        if self.ops.len() - self.ops_at_best >= PENDING_OPS_CAP {
            self.invalidate();
            return;
        }
        if self.ops.len() >= BEST_JOURNAL_CAP {
            // The backlog past the best is under PENDING_OPS_CAP, so
            // folding the best-prefix into the base frees almost all of
            // the journal while the trail stays live.
            for op in self.ops.drain(..self.ops_at_best) {
                self.base.apply_patch(&op);
            }
            self.ops_at_best = 0;
        }
        self.ops.push(op);
    }

    /// Stops the op trail (it no longer replays to the working
    /// circuit); the best-prefix stays valid.
    fn invalidate(&mut self) {
        self.ops.truncate(self.ops_at_best);
        self.live = false;
    }

    /// The accepted ops since the best, when the trail still has them.
    fn since_best(&self) -> Option<&[Patch]> {
        self.live.then(|| &self.ops[self.ops_at_best..])
    }

    /// Marks `working` — the current working circuit — as the best: one
    /// store while the trail is live, an O(circuit) re-anchor otherwise.
    fn mark_best(&mut self, working: &Circuit) {
        if self.live {
            self.ops_at_best = self.ops.len();
        } else {
            *self = BestJournal::new(working.clone());
        }
    }

    /// Materializes the best circuit without consuming the journal
    /// (O(circuit): the before side of a diffed `Improved` delta).
    fn best(&self) -> Circuit {
        replay(self.base.clone(), &self.ops[..self.ops_at_best])
    }

    /// Materializes the best circuit (consuming the journal).
    fn into_best(self) -> Circuit {
        replay(self.base, &self.ops[..self.ops_at_best])
    }
}

fn replay(mut c: Circuit, ops: &[Patch]) -> Circuit {
    for op in ops {
        c.apply_patch(op);
    }
    c
}

/// Lines 10–12 of Algorithm 1: accept every cost-non-increasing move,
/// and a worsening one with probability `exp(−t·cost′/cost)`. The single
/// source of truth for every engine's acceptance rule.
pub fn metropolis_accepts(
    cost_new: f64,
    cost_curr: f64,
    temperature: f64,
    rng: &mut SmallRng,
) -> bool {
    if cost_new <= cost_curr {
        true
    } else if cost_curr > 0.0 {
        let p = (-temperature * cost_new / cost_curr).exp();
        rng.random::<f64>() < p
    } else {
        false
    }
}

/// Algorithm 1's mutable search state over one circuit (a whole circuit
/// for the serial engines, one shard for the parallel engine): the
/// [`SearchCtx`] plus cost/ε accounting, acceptance, and best-so-far
/// tracking.
///
/// The tracked cost is updated by [`CostFn::delta`] per accepted patch
/// instead of a full recompute; the differential tests assert it never
/// drifts from the recomputed cost.
pub struct ShardDriver<'c> {
    ctx: SearchCtx,
    cost: &'c dyn CostFn,
    cost_curr: f64,
    err_curr: f64,
    eps_budget: f64,
    best: BestJournal,
    /// Length of the best circuit — the base of the next `Improved`
    /// delta's op chain.
    best_len: usize,
    cost_best: f64,
    err_best: f64,
    iterations: u64,
    accepted: u64,
    resynth_hits: u64,
    history: Vec<HistoryPoint>,
    temperature: f64,
    resynth_probability: f64,
    record_history: bool,
    /// Take the incremental patch path (the default); the clone–rebuild
    /// baseline clears this and pays the materializing
    /// [`Transformation::apply`] instead.
    use_patches: bool,
    started: Instant,
    /// Cooperative cancellation, checked between iterations in
    /// [`run`](Self::run) (taken from [`GuoqOpts::cancel`]).
    cancel: Option<CancelToken>,
    /// Event sink: receives an [`OptEvent::Improved`] each time the
    /// best-so-far cost strictly decreases (the event-sourced API's
    /// streaming hook), alongside the working circuit — which is the
    /// new best at that instant.
    on_event: Option<&'c mut EventSink<'c>>,
    /// Whether telemetry clock reads are live ([`qtrace::enabled`],
    /// sampled once at construction so the hot loop branches on a local
    /// bool, not a global atomic).
    instrument: bool,
    /// This driver's own construction instant — the denominator of the
    /// fast/slow time split (`started` can be a global anchor shared
    /// across shards, so it cannot serve as per-driver busy time).
    t_init: Instant,
    /// Nanoseconds spent inside slow (resynthesis) moves. Fast time is
    /// derived at finish as `total − slow`: slow moves are rare and
    /// expensive, so only they pay the two clock reads — the fast path
    /// at ~1.2µs/iter could not afford per-iteration timing.
    slow_ns: u64,
    /// Per-family accept/reject/accepted-cost-delta tallies. Plain
    /// (non-atomic) adds, tallied unconditionally — only clock reads
    /// are gated on `instrument`.
    fam: [FamilyStats; FAMILY_COUNT],
    /// Certification armed ([`Self::with_certification`]): a
    /// [`qcert::CertMap`] is installed on the context and the run loop
    /// may sweep, stamp, and terminate early.
    certifying: bool,
    /// The sweep covered the circuit: [`Self::finish`] attaches the
    /// certificate and [`Self::run`] has stopped.
    certified: bool,
    /// Gates per certification window ([`GuoqOpts::cert_window`]).
    cert_window: usize,
    /// Probe attempts per window ([`GuoqOpts::cert_probes`]).
    cert_probes: u64,
    /// Iterations without a strict best-cost improvement before a
    /// sweep starts ([`GuoqOpts::cert_plateau`]).
    cert_plateau: u64,
    /// Stamp coverage fraction that ends the run early
    /// ([`GuoqOpts::cert_coverage`]).
    cert_coverage: f64,
    /// Iteration index of the last strict best-cost improvement — the
    /// plateau clock. Equal-cost Metropolis accepts are the common case
    /// on a plateau, so the clock keys on strict improvements, never on
    /// accepts.
    last_improve_iter: u64,
}

impl<'c> ShardDriver<'c> {
    /// Creates a driver owning `circuit`, configured from `opts`
    /// (temperature, ε budget, resynthesis probability, anchor bias,
    /// history recording). `started` anchors history timestamps — pass
    /// the search's global start so shard histories are coherent.
    pub fn new(circuit: Circuit, cost: &'c dyn CostFn, opts: &GuoqOpts, started: Instant) -> Self {
        Self::with_scratch(circuit, cost, opts, started, MatchScratch::new())
    }

    /// Like [`Self::new`], reusing an existing matcher scratch — shard
    /// workers recycle one scratch across every task they process so
    /// its buffers stay grown.
    pub fn with_scratch(
        circuit: Circuit,
        cost: &'c dyn CostFn,
        opts: &GuoqOpts,
        started: Instant,
        scratch: MatchScratch,
    ) -> Self {
        let c0 = cost.cost(&circuit);
        let mut history = Vec::new();
        if opts.record_history {
            history.push(HistoryPoint {
                seconds: 0.0,
                iteration: 0,
                best_cost: c0,
                best_two_qubit: circuit.two_qubit_count(),
            });
        }
        ShardDriver {
            best: BestJournal::new(circuit.clone()),
            best_len: circuit.len(),
            cost,
            ctx: SearchCtx::with_scratch(circuit, opts.dirty_window_bias, scratch),
            cost_curr: c0,
            err_curr: 0.0,
            eps_budget: opts.eps_total,
            cost_best: c0,
            err_best: 0.0,
            iterations: 0,
            accepted: 0,
            resynth_hits: 0,
            history,
            temperature: opts.temperature,
            resynth_probability: opts.resynth_probability,
            record_history: opts.record_history,
            use_patches: true,
            started,
            cancel: opts.cancel.clone(),
            on_event: None,
            instrument: qtrace::enabled(),
            t_init: Instant::now(),
            slow_ns: 0,
            fam: [FamilyStats::default(); FAMILY_COUNT],
            certifying: false,
            certified: false,
            cert_window: opts.cert_window.max(1),
            cert_probes: opts.cert_probes.max(1),
            cert_plateau: opts.cert_plateau.max(1),
            cert_coverage: opts.cert_coverage,
            last_improve_iter: 0,
        }
    }

    /// Overrides the ε budget (the sharded engine hands each shard an
    /// allowance carved from the global budget).
    pub fn with_eps_budget(mut self, eps_budget: f64) -> Self {
        self.eps_budget = eps_budget;
        self
    }

    /// Selects the candidate-production path: `true` (default) for the
    /// incremental patch path, `false` for the materializing
    /// clone–rebuild baseline.
    pub fn with_use_patches(mut self, use_patches: bool) -> Self {
        self.use_patches = use_patches;
        self
    }

    /// Arms certification ([`GuoqOpts::certify`]): installs the window
    /// certificate map — seeded from [`GuoqOpts::cert_prior`] when one
    /// is present — so the anchor sampler redraws away from certified
    /// spans and the run loop can sweep and stamp once the search
    /// plateaus. Requires the incremental patch path (certificates are
    /// invalidated per accepted patch); a no-op when `opts.certify` is
    /// unset or the driver materializes candidates. Call after
    /// [`Self::with_use_patches`].
    pub fn with_certification(mut self, opts: &GuoqOpts) -> Self {
        if !(opts.certify && self.use_patches) {
            return self;
        }
        let len = self.ctx.circuit().len();
        let map = match &opts.cert_prior {
            Some(prior) => qcert::CertMap::seed(len, prior),
            None => qcert::CertMap::new(),
        };
        self.ctx.set_cert_map(map);
        self.certifying = true;
        self
    }

    /// Installs an event sink (see [`crate::observe`]): the driver
    /// emits an [`OptEvent::Improved`] — with its delta from the
    /// previous best — on every strict best-cost improvement. The best
    /// stays journaled either way; the sink is handed the working
    /// circuit, which equals the best at every `Improved`.
    pub fn with_event_sink(mut self, on_event: Option<&'c mut EventSink<'c>>) -> Self {
        self.on_event = on_event;
        self
    }

    /// Pins anchor-bias windows on the underlying [`SearchCtx`] (the
    /// sharded engine seeds its boundary-qubit windows here with
    /// [`GuoqOpts::boundary_bias`]).
    pub fn with_pinned_windows(mut self, windows: Vec<(usize, usize)>, bias: f64) -> Self {
        self.ctx.pin_windows(windows, bias);
        self
    }

    /// True once the driver's cancellation token (if any) was raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// The current working circuit.
    pub fn circuit(&self) -> &Circuit {
        self.ctx.circuit()
    }

    /// Iterations performed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// True when a transformation declaring `eps` still fits the budget
    /// (line 6 of Algorithm 1).
    pub fn can_afford(&self, eps: f64) -> bool {
        self.err_curr + eps <= self.eps_budget
    }

    /// Counts an iteration. [`Self::step`] does this itself; the async
    /// driver calls it once per loop cycle before interleaving.
    pub fn begin_iteration(&mut self) {
        self.iterations += 1;
    }

    /// One full Algorithm-1 iteration: pick a transformation (slow with
    /// probability `resynth_probability`, a uniform fast one otherwise),
    /// attempt it, and run the acceptance rule.
    ///
    /// Returns `false` when there is no transformation to try at all
    /// (both pools empty) — the caller should stop looping.
    pub fn step(
        &mut self,
        fast: &[Box<dyn Transformation>],
        slow: &[ResynthPass],
        rng: &mut SmallRng,
    ) -> bool {
        if fast.is_empty() && slow.is_empty() {
            // Nothing to try: report it without charging a phantom
            // iteration (the coordinator's stall guard keys on zero
            // iterations per epoch).
            return false;
        }
        self.begin_iteration();
        // Line 5: randomly select a transformation.
        let use_slow =
            !slow.is_empty() && !fast.is_empty() && rng.random::<f64>() < self.resynth_probability
                || fast.is_empty();
        if use_slow && !slow.is_empty() {
            let t = &slow[rng.random_range(0..slow.len())];
            // Line 6: the declared ε must fit in the remaining budget.
            if !self.can_afford(Transformation::epsilon(t)) {
                return true;
            }
            // Slow moves are rare and expensive, so the span's two
            // clock reads are amortized to nothing; the fast path
            // carries no per-iteration timing at all.
            let t0 = self.instrument.then(Instant::now);
            if self.use_patches {
                if let Some(pa) = Transformation::apply_patch(t, &mut self.ctx, rng) {
                    self.resynth_hits += 1;
                    self.consider_patch(pa, Family::Resynth, rng);
                }
            } else if let Some(applied) = t.apply(self.ctx.circuit(), rng) {
                self.resynth_hits += 1;
                self.consider_full(applied, Family::Resynth, rng);
            }
            if let Some(t0) = t0 {
                self.slow_ns += t0.elapsed().as_nanos() as u64;
            }
        } else {
            self.fast_move(fast, rng);
        }
        true
    }

    /// Attempts one uniformly-chosen fast transformation and runs the
    /// acceptance rule (the async driver's rewrite interleaving).
    pub fn fast_move(&mut self, fast: &[Box<dyn Transformation>], rng: &mut SmallRng) {
        let t = &fast[rng.random_range(0..fast.len())];
        if self.use_patches && t.supports_patches() {
            if let Some(pa) = t.apply_patch(&mut self.ctx, rng) {
                let fam = t.family();
                self.consider_patch(pa, fam, rng);
            }
        } else if let Some(applied) = t.apply(self.ctx.circuit(), rng) {
            // Patch-less transformation (or the clone–rebuild baseline):
            // fall back to the materializing API for this move.
            let fam = t.family();
            self.consider_full(applied, fam, rng);
        }
    }

    /// Offers an asynchronously-produced resynthesis result: counts the
    /// hit and runs the acceptance rule. Accepting replaces the whole
    /// working circuit (discarding interim rewrite edits, as §5.3
    /// prescribes).
    pub fn offer_resynth(&mut self, applied: Applied, rng: &mut SmallRng) {
        self.resynth_hits += 1;
        self.consider_full(applied, Family::Resynth, rng);
    }

    /// The plain budget loop: [`Self::step`] until `budget` is
    /// exhausted (against the driver's start instant), the optional
    /// wall-clock `deadline` passes (shard workers stop mid-slice when
    /// the global time budget runs out), or no transformation exists.
    ///
    /// A certification-armed driver ([`Self::with_certification`]) adds
    /// a fourth exit: once the best cost plateaus, the loop sweeps the
    /// circuit window by window and stops early — with a certificate —
    /// when stamped coverage reaches the target.
    pub fn run(
        &mut self,
        fast: &[Box<dyn Transformation>],
        slow: &[ResynthPass],
        rng: &mut SmallRng,
        budget: Budget,
        deadline: Option<Instant>,
    ) {
        while !budget.exhausted(self.started, self.iterations)
            && deadline.is_none_or(|d| Instant::now() < d)
            && !self.is_cancelled()
        {
            if !self.step(fast, slow, rng) {
                break;
            }
            if self.iterations & (STATS_EVERY_ITERS - 1) == 0 && self.on_event.is_some() {
                self.emit_stats();
            }
            // Certification trigger: a long strict-improvement drought
            // while the working circuit sits at the best cost (an
            // equal-cost excursion above it would certify the wrong
            // circuit — wait for the walk to come back down).
            if self.certifying
                && self.iterations - self.last_improve_iter >= self.cert_plateau
                && self.cost_curr <= self.cost_best
                && self.certification_sweep(fast, slow, rng, budget, deadline)
            {
                break;
            }
        }
    }

    /// One certification sweep: walk the uncertified spans window by
    /// window, probing each under a focused anchor sampler with fast
    /// rewrites plus (ε budget permitting) one resynthesis attempt. A
    /// window with no strictly-improving probe earns its stamp; a
    /// strict improvement is committed through the normal accept path
    /// and aborts the sweep — the plateau is over. Returns `true` when
    /// the whole circuit was swept and stamped coverage reached the
    /// target, with [`OptEvent::Certified`] emitted: the caller stops
    /// early.
    fn certification_sweep(
        &mut self,
        fast: &[Box<dyn Transformation>],
        slow: &[ResynthPass],
        rng: &mut SmallRng,
        budget: Budget,
        deadline: Option<Instant>,
    ) -> bool {
        loop {
            let len = self.ctx.circuit().len();
            // The probe window is clamped to the uncertified *span*,
            // not just the circuit: overrunning into a seeded stamp
            // would double-certify its gates.
            let Some((lo, span_hi)) = self.ctx.cert_map().and_then(|m| m.uncertified_span(0, len))
            else {
                break;
            };
            let hi = (lo + self.cert_window).min(span_hi);
            self.ctx.set_focus(Some((lo, hi)));
            for probe in 0..self.cert_probes {
                if budget.exhausted(self.started, self.iterations)
                    || deadline.is_some_and(|d| Instant::now() >= d)
                    || self.is_cancelled()
                {
                    self.ctx.set_focus(None);
                    return false;
                }
                self.begin_iteration();
                if self.cert_probe(fast, slow, probe + 1 == self.cert_probes, rng) {
                    // Not locally optimal after all: the improvement is
                    // committed and the plateau clock reset — back to
                    // the ordinary search.
                    self.ctx.set_focus(None);
                    return false;
                }
            }
            self.ctx.set_focus(None);
            if let Some(m) = self.ctx.cert_map_mut() {
                m.stamp(lo, hi, self.cert_probes);
            }
        }
        let len = self.ctx.circuit().len();
        let coverage = if len == 0 {
            1.0
        } else {
            self.ctx
                .cert_map()
                .map_or(0.0, |m| m.certified_gates() as f64 / len as f64)
        };
        if coverage < self.cert_coverage {
            return false;
        }
        // Equal-cost plateau accepts may have drifted the working
        // circuit away from the recorded best. The certificate describes
        // the working circuit, so pin it as the best — same cost — via
        // the one equal-cost publication the stream contract allows.
        if !self.best_is_current() {
            self.publish_best();
        }
        self.certified = true;
        if self.on_event.is_some() {
            let event = OptEvent::Certified {
                coverage,
                windows: self.ctx.cert_map().map_or(0, |m| m.windows()),
                budget: self.cert_probes,
                iterations: self.iterations,
                seconds: self.started.elapsed().as_secs_f64(),
            };
            // Pinned just above: the working circuit is the best.
            if let Some(obs) = self.on_event.as_mut() {
                obs(&event, self.ctx.circuit());
            }
        }
        true
    }

    /// One probe attempt against the focused window. Returns `true`
    /// when a strictly-improving candidate was found and committed.
    fn cert_probe(
        &mut self,
        fast: &[Box<dyn Transformation>],
        slow: &[ResynthPass],
        last: bool,
        rng: &mut SmallRng,
    ) -> bool {
        // Spend the window's final probe on resynthesis when the ε
        // budget still allows one — rewrites alone would stamp windows
        // a cheap resynthesis could still shrink.
        if last && !slow.is_empty() {
            let t = &slow[rng.random_range(0..slow.len())];
            if !self.can_afford(Transformation::epsilon(t)) {
                return false;
            }
            let t0 = self.instrument.then(Instant::now);
            let improved = match Transformation::apply_patch(t, &mut self.ctx, rng) {
                Some(pa) => {
                    self.resynth_hits += 1;
                    self.commit_if_improving(pa, Family::Resynth)
                }
                None => false,
            };
            if let Some(t0) = t0 {
                self.slow_ns += t0.elapsed().as_nanos() as u64;
            }
            return improved;
        }
        if fast.is_empty() {
            return false;
        }
        let t = &fast[rng.random_range(0..fast.len())];
        if !t.supports_patches() {
            return false;
        }
        match t.apply_patch(&mut self.ctx, rng) {
            Some(pa) => {
                let fam = t.family();
                self.commit_if_improving(pa, fam)
            }
            None => false,
        }
    }

    /// The certification probe's acceptance rule: strict improvement
    /// only. Metropolis equal-cost accepts would walk the circuit out
    /// from under its fresh stamps without ending the plateau.
    fn commit_if_improving(&mut self, pa: PatchApplied, fam: Family) -> bool {
        let cost_new = self.cost_curr + self.cost.delta(self.ctx.circuit(), &pa.patch);
        if cost_new >= self.cost_curr {
            self.fam[fam.index()].rejects += 1;
            return false;
        }
        self.ctx.commit(&pa.patch);
        self.record_accept(cost_new, pa.epsilon, fam, Some(pa.patch));
        true
    }

    /// True when the recorded best-so-far replays to the working
    /// circuit (no accepts since the last publication).
    fn best_is_current(&self) -> bool {
        self.best.since_best().is_some_and(|ops| ops.is_empty())
    }

    /// Emits an [`OptEvent::Stats`] heartbeat carrying the current
    /// profile snapshot (event sink installed only). Side-channel only: it
    /// never touches the RNG, the cost tallies, or the delta stream.
    fn emit_stats(&mut self) {
        let event = OptEvent::Stats {
            profile: self.profile_snapshot(),
        };
        if let Some(obs) = self.on_event.as_mut() {
            obs(&event, self.ctx.circuit());
        }
    }

    /// The fast/slow time split and per-family tallies so far. Fast
    /// time is everything the driver has been alive minus the measured
    /// slow spans; with instrumentation off, all times are zero (the
    /// tallies still count).
    fn profile_snapshot(&self) -> Profile {
        let total_ns = if self.instrument {
            self.t_init.elapsed().as_nanos() as u64
        } else {
            0
        };
        let slow_ns = self.slow_ns.min(total_ns);
        Profile {
            fast_ns: total_ns - slow_ns,
            slow_ns,
            total_ns,
            families: self.fam,
        }
    }

    /// Lines 10–18 of Algorithm 1 for a candidate patch: the cost change
    /// comes from [`CostFn::delta`] (O(edit span)), and only an accepted
    /// edit is committed — a rejected candidate is simply dropped, no
    /// clone, apply, or revert required.
    fn consider_patch(&mut self, pa: PatchApplied, fam: Family, rng: &mut SmallRng) {
        let cost_new = self.cost_curr + self.cost.delta(self.ctx.circuit(), &pa.patch);
        if !metropolis_accepts(cost_new, self.cost_curr, self.temperature, rng) {
            self.fam[fam.index()].rejects += 1;
            return;
        }
        // The accepted patch *is* the best-journal op (and so the
        // raw material of the next `Improved` delta).
        self.ctx.commit(&pa.patch);
        self.record_accept(cost_new, pa.epsilon, fam, Some(pa.patch));
    }

    /// Acceptance for a fully materialized candidate (patch-less
    /// transformations, the clone–rebuild baseline, and async
    /// resynthesis results): replaces the working circuit wholesale.
    /// There is no local op to journal — a whole-circuit replacement
    /// per accept would make the next delta O(accepts × circuit) — so
    /// the op trail is abandoned and the next `Improved` packages a
    /// single before/after diff instead (one op, never larger than a
    /// full snapshot).
    fn consider_full(&mut self, applied: Applied, fam: Family, rng: &mut SmallRng) {
        let cost_new = self.cost.cost(&applied.circuit);
        if !metropolis_accepts(cost_new, self.cost_curr, self.temperature, rng) {
            self.fam[fam.index()].rejects += 1;
            return;
        }
        self.best.invalidate();
        self.ctx.replace_circuit(applied.circuit);
        self.record_accept(cost_new, applied.epsilon, fam, None);
    }

    fn record_accept(&mut self, cost_new: f64, epsilon: f64, fam: Family, op: Option<Patch>) {
        self.accepted += 1;
        let fs = &mut self.fam[fam.index()];
        fs.accepts += 1;
        // Positive delta = improvement (cost went down by this much).
        fs.accepted_cost_delta += self.cost_curr - cost_new;
        self.cost_curr = cost_new;
        self.err_curr += epsilon;
        if let Some(op) = op {
            self.best.record(op);
        }
        if self.cost_curr < self.cost_best {
            self.last_improve_iter = self.iterations;
            self.publish_best();
        }
    }

    /// Re-anchors the best-so-far on the working circuit and publishes
    /// it — the strict-improvement tail of [`Self::record_accept`],
    /// also invoked by a completed certification sweep to pin the
    /// certified working circuit as the result. Requires
    /// `cost_curr <= cost_best`; the certification path is the one
    /// caller where equality (an equal-cost `Improved` event) occurs.
    fn publish_best(&mut self) {
        self.cost_best = self.cost_curr;
        self.err_best = self.err_curr;
        if self.record_history {
            // The working circuit and the best coincide at every
            // strict improvement, so its cached counts serve.
            self.history.push(HistoryPoint {
                seconds: self.started.elapsed().as_secs_f64(),
                iteration: self.iterations,
                best_cost: self.cost_best,
                best_two_qubit: self.ctx.circuit().two_qubit_count(),
            });
        }
        // The delta is built against the *previous* best: the ops
        // journaled since it while the trail is live, else a
        // before/after diff against the journal's best-prefix.
        let delta = self
            .on_event
            .is_some()
            .then(|| match self.best.since_best() {
                Some(ops) => CircuitDelta::from_ops(self.best_len, ops.to_vec()),
                None => CircuitDelta::diff(&self.best.best(), self.ctx.circuit()),
            });
        self.best.mark_best(self.ctx.circuit());
        self.best_len = self.ctx.circuit().len();
        if let Some(delta) = delta {
            let event = OptEvent::Improved {
                delta,
                cost: self.cost_best,
                epsilon: self.err_best,
                iterations: self.iterations,
                seconds: self.started.elapsed().as_secs_f64(),
            };
            if let Some(obs) = self.on_event.as_mut() {
                obs(&event, self.ctx.circuit());
            }
        }
    }

    /// Credits externally measured slow-span nanoseconds (the async
    /// engine's resynthesis runs on a worker thread, outside
    /// [`step`](Self::step)'s span).
    pub(crate) fn add_slow_ns(&mut self, ns: u64) {
        self.slow_ns += ns;
    }

    /// Finalizes the search: the best circuit found with its cost, ε,
    /// and counters.
    pub fn finish(self) -> GuoqResult {
        self.finish_recycling().0
    }

    /// [`Self::finish`], also yielding the matcher scratch so the
    /// caller can feed it to the next driver.
    pub fn finish_recycling(self) -> (GuoqResult, MatchScratch) {
        let profile = self.profile_snapshot();
        // A completed sweep pinned best == working, so the stamps index
        // the result circuit; an incomplete one describes whatever the
        // working circuit drifted to, which is nothing to hand out.
        let certificate = self
            .certified
            .then(|| {
                self.ctx
                    .cert_map()
                    .map(|m| m.to_certificate(self.ctx.circuit().len(), self.cert_probes))
            })
            .flatten();
        // One registry flush per driver lifetime — the global
        // `guoq_*_total` series accumulate across jobs/shards while the
        // per-result `Profile` stays a per-run delta.
        profile.flush_to_registry();
        let result = GuoqResult {
            // The best is materialized exactly once, here: the base
            // snapshot replayed through the best-prefix ops.
            circuit: self.best.into_best(),
            cost: self.cost_best,
            epsilon: self.err_best,
            iterations: self.iterations,
            accepted: self.accepted,
            resynth_hits: self.resynth_hits,
            // Cache traffic is tallied on the passes (shared across
            // engines and clones); `Guoq::dispatch` fills these in.
            cache_hits: 0,
            cache_misses: 0,
            history: self.history,
            worker_stats: Vec::new(),
            profile,
            certificate,
        };
        (result, self.ctx.into_scratch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::GateCount;
    use crate::guoq::{Budget, Guoq};
    use qcir::{Gate, Instruction};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Leading `H q0` pairs (what [`Cancel`] removes), then `FILLER`
    /// single-qubit gates on q1 (what [`Toggle`] rewrites).
    const PAIRS: usize = 60;
    const FILLER: usize = 40;

    fn input() -> Circuit {
        let mut c = Circuit::new(2);
        for _ in 0..2 * PAIRS {
            c.push(Gate::H, &[0]);
        }
        for _ in 0..FILLER {
            c.push(Gate::X, &[1]);
        }
        c
    }

    /// A cost-neutral move that still changes the circuit: flips one
    /// filler gate between `X` and `Z`. Always accepted, so it fills
    /// the journal between improvements.
    struct Toggle;

    impl Transformation for Toggle {
        fn name(&self) -> &str {
            "toggle"
        }
        fn epsilon(&self) -> f64 {
            0.0
        }
        fn apply(&self, _: &Circuit, _: &mut SmallRng) -> Option<Applied> {
            None
        }
        fn supports_patches(&self) -> bool {
            true
        }
        fn apply_patch(&self, ctx: &mut SearchCtx, rng: &mut SmallRng) -> Option<PatchApplied> {
            let c = ctx.circuit();
            let p = rng.random_range(c.len() - FILLER..c.len());
            let flipped = match c.instruction(p).gate {
                Gate::X => Gate::Z,
                _ => Gate::X,
            };
            Some(PatchApplied {
                patch: Patch::new(vec![p], vec![Instruction::new(flipped, &[1])], p),
                epsilon: 0.0,
            })
        }
    }

    /// Removes the leading `H H` pair on the calls `fires` picks — a
    /// patch when `patches`, else a whole replacement circuit (the
    /// driver's `consider_full` path).
    struct Cancel {
        calls: AtomicU64,
        fires: fn(u64) -> bool,
        patches: bool,
    }

    impl Cancel {
        fn fire(&self, c: &Circuit) -> bool {
            let n = self.calls.fetch_add(1, Relaxed);
            (self.fires)(n) && c.len() > FILLER
        }
    }

    impl Transformation for Cancel {
        fn name(&self) -> &str {
            "cancel"
        }
        fn epsilon(&self) -> f64 {
            0.0
        }
        fn apply(&self, c: &Circuit, _: &mut SmallRng) -> Option<Applied> {
            self.fire(c).then(|| Applied {
                circuit: c.with_patch(&Patch::new(vec![0, 1], Vec::new(), 0)),
                epsilon: 0.0,
            })
        }
        fn supports_patches(&self) -> bool {
            self.patches
        }
        fn apply_patch(&self, ctx: &mut SearchCtx, _: &mut SmallRng) -> Option<PatchApplied> {
            self.fire(ctx.circuit()).then(|| PatchApplied {
                patch: Patch::new(vec![0, 1], Vec::new(), 0),
                epsilon: 0.0,
            })
        }
    }

    /// Runs the scripted search with and without a sink, checks at
    /// every `Improved` that the sink's circuit equals the replay of
    /// every delta so far, and returns the op count of each delta with
    /// the iteration gap since the previous improvement.
    fn replayed_improvements(cancel: Cancel, iterations: u64) -> Vec<(usize, u64)> {
        let guoq = |cancel| {
            let fast: Vec<Box<dyn Transformation>> = vec![Box::new(Toggle), Box::new(cancel)];
            let opts = GuoqOpts {
                budget: Budget::Iterations(iterations),
                seed: 5,
                ..Default::default()
            };
            Guoq::new(fast, Vec::new(), opts)
        };
        let c = input();
        let mut replay = c.clone();
        let mut last_iter = 0;
        let mut seen = Vec::new();
        let fires = cancel.fires;
        let patches = cancel.patches;
        let observed = guoq(cancel).optimize_events(&c, &GateCount, &mut |ev, best| {
            if let OptEvent::Improved {
                delta, iterations, ..
            } = ev
            {
                delta
                    .apply(&mut replay)
                    .expect("delta applies to the prior best");
                assert_eq!(&replay, best, "sink circuit diverged from the delta replay");
                seen.push((delta.ops().len(), iterations - last_iter));
                last_iter = *iterations;
            }
        });
        assert_eq!(replay, observed.circuit);
        let direct = guoq(Cancel {
            calls: AtomicU64::new(0),
            fires,
            patches,
        })
        .optimize(&c, &GateCount);
        assert_eq!(
            observed.circuit, direct.circuit,
            "the sink perturbed the search"
        );
        assert_eq!(observed.accepted, direct.accepted);
        seen
    }

    #[test]
    fn sink_circuit_matches_delta_replay_across_overflow_and_compaction() {
        // Quick improvements (op-chain deltas), one long plateau past
        // PENDING_OPS_CAP (a diffed delta), then ~700 accepts per
        // improvement until the journal passes BEST_JOURNAL_CAP and
        // compacts.
        let cancel = Cancel {
            calls: AtomicU64::new(0),
            fires: |n| n < 40 && n % 5 == 4 || n == 6000 || n > 6000 && n % 700 == 0,
            patches: true,
        };
        let seen = replayed_improvements(cancel, 90_000);
        assert!(
            seen.iter().any(|&(ops, _)| ops > 1),
            "no op-chain delta: {seen:?}"
        );
        assert!(
            seen.iter()
                .any(|&(ops, gap)| ops == 1 && gap > 2 * PENDING_OPS_CAP as u64),
            "no diffed delta after an overflowing plateau: {seen:?}"
        );
        assert_eq!(seen.len(), PAIRS, "every pair is cancelled: {seen:?}");
    }

    #[test]
    fn sink_circuit_matches_delta_replay_after_whole_circuit_accepts() {
        // The improving move has no patch form: each accept replaces
        // the working circuit, kills the op trail, and the next
        // `Improved` diffs against the journal's best-prefix.
        let cancel = Cancel {
            calls: AtomicU64::new(0),
            fires: |n| n % 50 == 49,
            patches: false,
        };
        let seen = replayed_improvements(cancel, 4_000);
        assert!(seen.len() > 10, "{seen:?}");
        assert!(seen.iter().all(|&(ops, _)| ops == 1), "{seen:?}");
    }
}

#[cfg(test)]
mod journal_tests {
    use super::*;
    use qcir::{Gate, Instruction};

    #[test]
    fn journal_compacts_past_its_cap_and_still_replays_the_best() {
        // Every op appends a distinct gate, so a fold that dropped or
        // reordered any op would change the replayed best.
        let mut working = Circuit::new(1);
        let mut journal = BestJournal::new(working.clone());
        let mut best = working.clone();
        for n in 0..BEST_JOURNAL_CAP + 5000 {
            let g = Instruction::new(Gate::Rz(n as f64), &[0]);
            let op = Patch::new(vec![], vec![g], working.len());
            working.apply_patch(&op);
            journal.record(op);
            if n % 1000 == 999 {
                journal.mark_best(&working);
                best = working.clone();
            }
            assert!(journal.live, "the backlog stays under PENDING_OPS_CAP");
        }
        assert!(
            journal.ops.len() < BEST_JOURNAL_CAP,
            "the journal never compacted"
        );
        assert_eq!(journal.best(), best);
        let tail = (BEST_JOURNAL_CAP + 5000) % 1000;
        assert_eq!(journal.since_best().map(<[Patch]>::len), Some(tail));
        assert_eq!(journal.into_best(), best);
    }
}
