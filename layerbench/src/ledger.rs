//! Metric definitions, their computation from a run, and the output:
//! a human-readable table and the final JSON line.

use crate::calib;
use crate::check::{self, StreamTally, DISTANCE_FLOOR, MAX_AUDIT_QUBITS};
use crate::probe;
use crate::replay::{self, JobReplay, ReplayJob, FAST_FAMILIES};
use crate::spans::Tracer;
use crate::Served;
use qcir::{qasm, Circuit};
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, from the untraced run: (name, unit). Every
/// time is scaled to the host's reference speed (`calib::scaled`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("iters_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("gate_reduction", "ratio"),
    ("twoq_reduction", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("codec.bytes_in", "bytes"),
    ("codec.bytes_out", "bytes"),
    ("codec.frames_in", "count"),
    ("codec.encode_s", "s"),
    ("codec.parse_s", "s"),
    ("serve.overhead_s_p50", "s"),
    ("serve.start_ms_p50", "ms"),
    ("stream.improvements", "count"),
    ("stream.resyncs", "count"),
    ("stream.delta_bytes_per_improvement", "bytes"),
    ("serve.busy_cpus", "cpus"),
    ("journal.bytes", "bytes"),
    ("journal.fsyncs", "count"),
    ("journal.append_s", "s"),
    ("journal.fsync_s", "s"),
    ("journal.replay_s", "s"),
    ("qcir.qasm_parse_s", "s"),
    ("qcir.delta_apply_s", "s"),
    ("qcir.materialize_s", "s"),
    ("fast.rule.calls", "count"),
    ("fast.rule.fires", "count"),
    ("fast.rule.s", "s"),
    ("fast.fusion.calls", "count"),
    ("fast.fusion.fires", "count"),
    ("fast.fusion.s", "s"),
    ("fast.commutation.calls", "count"),
    ("fast.commutation.fires", "count"),
    ("fast.commutation.s", "s"),
    ("fast.cleanup.calls", "count"),
    ("fast.cleanup.fires", "count"),
    ("fast.cleanup.s", "s"),
    ("fast.fire_ratio", "ratio"),
    ("cost.delta_calls", "count"),
    ("cost.delta_s", "s"),
    ("driver.accepts.rule", "count"),
    ("driver.accepts.fusion", "count"),
    ("driver.accepts.commutation", "count"),
    ("driver.accepts.cleanup", "count"),
    ("driver.accepts.resynth", "count"),
    ("driver.accept_ratio", "ratio"),
    ("driver.fast_s", "s"),
    ("driver.self_s", "s"),
    ("observe.sink_s", "s"),
    ("observe.overhead_ratio", "ratio"),
    ("slow.calls", "count"),
    ("slow.success_ratio", "ratio"),
    ("slow.s", "s"),
    ("slow.s_per_call", "s"),
    ("slow.region_s_per_call", "s"),
    ("slow.synth_cold_s_per_call", "s"),
    ("slow.synth_warm_s_per_call", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.negative_hits", "count"),
    ("cache.verify_rejects", "count"),
    ("cache.inserts", "count"),
    ("cache.evictions", "count"),
    ("cert.coverage", "ratio"),
    ("cert.windows", "count"),
    ("cert.invalidated", "count"),
    ("cert.skips", "count"),
    ("cert.iters_saved", "count"),
    ("cert.rebase_s", "s"),
    ("trace.replay_mismatches", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest whole percentile with at least ten samples beyond it
/// (nearest rank): `(percentile, value, n)`, or `None` below 20 samples.
fn tail(v: &[f64]) -> Option<(u32, f64, usize)> {
    let n = v.len();
    if n < 20 {
        return None;
    }
    let pct = (100 * (n - 10) / n) as u32;
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Some((pct, s[rank - 1], n))
}

/// 1 − geomean of output/input over (input, output) pairs with a
/// nonzero input.
fn reduction(pairs: impl Iterator<Item = (usize, usize)>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for (a, b) in pairs.filter(|(a, _)| *a > 0) {
        sum += (b as f64 / a as f64).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        1.0 - (sum / n as f64).exp()
    }
}

pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_s: f64,
    pub iters_per_s: f64,
    pub job_s_p50: f64,
    pub job_s_tail: Option<(u32, f64, usize)>,
    pub gate_reduction: f64,
    pub twoq_reduction: f64,
    pub peak_rss_mb: f64,
    pub attempted: usize,
    pub failed: usize,
    /// The same times unscaled, as measured (printed, not in the JSON).
    pub raw: RawTimes,
}

pub struct RawTimes {
    pub setup_s: f64,
    pub wall_s: f64,
    pub job_s_p50: f64,
    /// Median calibration kernel seconds over the jobs' samples.
    pub kernel_s: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<f64> {
        vec![
            self.setup_s,
            self.wall_s,
            self.iters_per_s,
            self.job_s_p50,
            self.gate_reduction,
            self.twoq_reduction,
            self.peak_rss_mb,
        ]
    }
}

/// Summed job time (SUBMIT/EDIT written → DONE parsed). In a traced
/// invocation, where two servers take turns job by job, this is each
/// serve's own share of the wall time.
fn job_seconds(served: &Served) -> f64 {
    served.jobs.iter().map(|j| j.rec.seconds()).sum()
}

/// Average busy CPUs of the server and the client together while jobs
/// ran.
fn busy_cpus(served: &Served) -> f64 {
    ratio(
        served.server_cpu_s + served.client_cpu_s,
        job_seconds(served),
    )
}

pub fn end_to_end(served: &Served, verdicts: &[Result<Circuit, String>]) -> EndToEnd {
    let jobs = &served.jobs;
    let iters: u64 = jobs
        .iter()
        .filter_map(|j| j.rec.summary.as_ref())
        .map(|s| s.iterations)
        .sum();
    let job_s: Vec<f64> = jobs.iter().map(|j| j.rec.seconds()).collect();
    let mut kernel_s: Vec<f64> = jobs.iter().map(|j| j.kernel_s).collect();
    kernel_s.push(served.kernel_end_s);
    let scaled_job_s = calib::scaled(&job_s, &kernel_s);
    // The jobs run back to back; the calibration between them is left
    // out of the wall time.
    let wall_s: f64 = scaled_job_s.iter().sum();
    let outs = || {
        jobs.iter()
            .zip(verdicts)
            .filter_map(|(j, v)| v.as_ref().ok().map(|out| (&j.input, out)))
    };
    EndToEnd {
        setup_s: median(&calib::scaled(&served.setup_s, &served.setup_kernel_s)),
        wall_s,
        iters_per_s: ratio(iters as f64, wall_s),
        job_s_p50: median(&scaled_job_s),
        job_s_tail: tail(&scaled_job_s),
        gate_reduction: reduction(outs().map(|(i, o)| (i.len(), o.len()))),
        twoq_reduction: reduction(outs().map(|(i, o)| (i.two_qubit_count(), o.two_qubit_count()))),
        peak_rss_mb: served.peak_rss_mb,
        attempted: jobs.len() + served.unsent,
        failed: verdicts.iter().filter(|v| v.is_err()).count() + served.unsent,
        raw: RawTimes {
            setup_s: median(&served.setup_s),
            wall_s: job_s.iter().sum(),
            job_s_p50: median(&job_s),
            kernel_s: median(&kernel_s),
        },
    }
}

pub fn print_end_to_end(
    e: &EndToEnd,
    served: &Served,
    verdicts: &[Result<Circuit, String>],
    tally: &StreamTally,
) {
    println!(
        "end-to-end (untraced run, closed loop, 1 client, --workers 1; times scaled \
         to the reference kernel speed, {:.6} s):",
        calib::REF_KERNEL_S
    );
    for ((name, unit), v) in END_TO_END.iter().zip(e.metrics()) {
        println!("  {name:<16} {v:>14.6} {unit}");
    }
    println!(
        "  raw (unscaled): setup_s {:.6} s, wall_s {:.6} s, job_s_p50 {:.6} s; \
         kernel median {:.6} s",
        e.raw.setup_s, e.raw.wall_s, e.raw.job_s_p50, e.raw.kernel_s
    );
    match e.job_s_tail {
        Some((p, v, n)) => println!("  job_s_tail       {v:>14.6} s  (p{p}, n={n})"),
        None => println!(
            "  job_s_tail       omitted: {} jobs leave fewer than 10 beyond any percentile",
            served.jobs.len()
        ),
    }
    println!(
        "  fail_ratio       {:>14.6} ratio  ({} of {} jobs failed)",
        ratio(e.failed as f64, e.attempted as f64),
        e.failed,
        e.attempted
    );
    println!(
        "  busy_cpus        {:>14.6} cpus   (server {:.3} s + client {:.3} s CPU over job time)",
        busy_cpus(served),
        served.server_cpu_s,
        served.client_cpu_s
    );
    println!(
        "  checks: native gates + qubit count + stream reconstruction on every job; \
         distance audit on {} jobs of <= {MAX_AUDIT_QUBITS} qubits, worst (measured - eps) {:e} (floor {DISTANCE_FLOOR:e})",
        tally.audited, tally.worst_margin
    );
    println!(
        "  per job: name, gates in>out, 2q in>out, iters, seconds, cache hits/misses, \
         server run/fast/slow ms, kernel ms before"
    );
    for (j, v) in served.jobs.iter().zip(verdicts) {
        match (v, &j.rec.summary) {
            (Ok(out), Some(s)) => println!(
                "    {:<16} {:>6}>{:<6} {:>5}>{:<5} {:>7} {:>9.4} {}/{} {}/{}/{} {:.3}",
                j.name,
                j.input.len(),
                out.len(),
                j.input.two_qubit_count(),
                out.two_qubit_count(),
                s.iterations,
                j.rec.seconds(),
                s.cache_hits,
                s.cache_misses,
                s.run_ms,
                s.fast_ms,
                s.slow_ms,
                j.kernel_s * 1e3
            ),
            (Err(problem), _) => println!("  FAILED {} (id {}): {problem}", j.name, j.rec.id),
            (Ok(_), None) => unreachable!("a passing job has a DONE frame"),
        }
    }
    if served.unsent > 0 {
        println!(
            "  FAILED {} edits never sent: the edited job failed",
            served.unsent
        );
    }
}

pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn metrics(&self) -> Vec<f64> {
        PER_LAYER
            .iter()
            .map(|(n, _)| {
                *self
                    .0
                    .get(*n)
                    .unwrap_or_else(|| panic!("metric {n} not computed"))
            })
            .collect()
    }
}

/// The replay jobs, warm-up first, in the order the server ran them.
fn replay_jobs(served: &Served) -> Vec<ReplayJob> {
    let (wreq, wrec) = &served.warmup;
    let mut out = vec![ReplayJob {
        id: wreq.id,
        input: qasm::from_qasm(&wreq.qasm).expect("warm-up QASM parses"),
        iters: wreq.iters,
        seed: wreq.seed,
        eps: wreq.eps,
        certify: wreq.certify,
        edit: None,
        expected: wrec.summary.as_ref().map(|s| s.qasm.clone()),
    }];
    for j in &served.jobs {
        let (input, iters, seed, eps, certify, expected) = match &j.request {
            Some(r) => (
                qasm::from_qasm(&r.qasm).unwrap_or_else(|_| j.input.clone()),
                r.iters,
                r.seed,
                r.eps,
                r.certify,
                j.rec.summary.as_ref().map(|s| s.qasm.clone()),
            ),
            // The server's continuation request is unknown: the job
            // cannot be replayed and counts as a mismatch.
            None => (j.input.clone(), 1, 0, 0.0, false, None),
        };
        out.push(ReplayJob {
            id: j.rec.id,
            input,
            iters,
            seed,
            eps,
            certify,
            edit: j.edit.clone(),
            expected,
        });
    }
    out
}

pub fn per_layer(
    served: &Served,
    verdicts: &[Result<Circuit, String>],
    tally: &StreamTally,
    untraced: &Served,
    scratch: &Path,
    seed: u64,
    tr: &mut Tracer,
) -> Layers {
    let untraced_s = job_seconds(untraced);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    m.insert("serve.busy_cpus".into(), busy_cpus(untraced));
    let jobs = &served.jobs;
    let rjobs = replay_jobs(served);
    let [plain, sink, traced] = replay::run_interleaved(&rjobs, tr);
    // Index 0 is the warm-up job; a workload job counts only when all
    // three passes reproduced its DONE circuit.
    let ok: Vec<bool> = (1..rjobs.len())
        .map(|k| plain[k].matched && sink[k].matched && traced[k].matched)
        .collect();
    let good = || (1..rjobs.len()).filter(|k| ok[k - 1]);
    let sum = |f: &dyn Fn(&JobReplay) -> f64| good().map(|k| f(&traced[k])).sum::<f64>();

    // Codec and transport (client side).
    let recs = || jobs.iter().map(|j| &j.rec);
    let spans = tr.summary();
    let span_s = |name: &str| spans.get(name).map_or(0.0, |s| s.1);
    m.insert(
        "codec.bytes_in".into(),
        recs().map(|r| r.bytes_in as f64).sum(),
    );
    m.insert(
        "codec.bytes_out".into(),
        recs().map(|r| r.bytes_out as f64).sum(),
    );
    m.insert(
        "codec.frames_in".into(),
        recs().map(|r| r.frames_in as f64).sum(),
    );
    m.insert("codec.encode_s".into(), span_s("client.encode"));
    m.insert("codec.parse_s".into(), recs().map(|r| r.parse_s).sum());

    // Admission and the improvement stream.
    let overhead: Vec<f64> = recs()
        .filter_map(|r| {
            r.summary
                .as_ref()
                .map(|s| r.seconds() - s.run_ms as f64 / 1e3)
        })
        .collect();
    // DONE's `queue_ms` is 0 in a closed loop with one worker; the time
    // to the job's first frame covers admission, queue wait and start.
    let start_ms: Vec<f64> = recs()
        .map(|r| r.first_at.duration_since(r.sent).as_secs_f64() * 1e3)
        .collect();
    m.insert("serve.overhead_s_p50".into(), median(&overhead));
    m.insert("serve.start_ms_p50".into(), median(&start_ms));
    m.insert("stream.improvements".into(), tally.improvements as f64);
    // Improvements the server dropped under backpressure (and made up
    // for with a resync SNAPSHOT): those the replayed engine published
    // minus those the client received, over replay-matched jobs.
    m.insert(
        "stream.resyncs".into(),
        good()
            .map(|k| {
                let received = check::received_improvements(&jobs[k - 1].rec);
                traced[k].improvements as f64 - received as f64
            })
            .sum(),
    );
    m.insert(
        "stream.delta_bytes_per_improvement".into(),
        ratio(tally.delta_bytes as f64, tally.delta_frames as f64),
    );

    // Journal: the received frames through the server's journal code.
    let pairs: Vec<_> = jobs
        .iter()
        .filter_map(|j| j.request.clone().map(|r| (r, &j.rec)))
        .collect();
    let jdir = scratch.join("probe-journal");
    let jp = probe::journal(&jdir, &pairs, tr);
    m.insert("journal.bytes".into(), jp.bytes as f64);
    m.insert("journal.fsyncs".into(), jp.fsyncs as f64);
    m.insert("journal.append_s".into(), jp.append_s);
    m.insert("journal.fsync_s".into(), jp.fsync_s);
    m.insert("journal.replay_s".into(), jp.replay_s);

    // qcir: client-side parse/apply, and the arena probe.
    let inputs: Vec<Circuit> = jobs.iter().map(|j| j.input.clone()).collect();
    let sp = probe::slow_path(&inputs, seed, tr);
    m.insert("qcir.qasm_parse_s".into(), span_s("check.qasm_parse"));
    m.insert("qcir.delta_apply_s".into(), span_s("check.delta_apply"));
    m.insert("qcir.materialize_s".into(), sp.materialize_s_per_call);

    // Fast path, cost function and driver (traced replay).
    let (mut calls, mut fires) = (0.0, 0.0);
    for (i, (_, fam)) in FAST_FAMILIES.iter().enumerate() {
        let c = sum(&|r| r.fast[i].calls as f64);
        let f = sum(&|r| r.fast[i].fires as f64);
        calls += c;
        fires += f;
        m.insert(format!("fast.{fam}.calls"), c);
        m.insert(format!("fast.{fam}.fires"), f);
        m.insert(format!("fast.{fam}.s"), sum(&|r| r.fast[i].s));
    }
    m.insert("fast.fire_ratio".into(), ratio(fires, calls));
    m.insert("cost.delta_calls".into(), sum(&|r| r.cost.calls as f64));
    m.insert("cost.delta_s".into(), sum(&|r| r.cost.s));
    let accepts: Vec<f64> = qtrace::Family::ALL
        .iter()
        .map(|f| sum(&|r| r.accepts[f.index()] as f64))
        .collect();
    for (f, a) in qtrace::Family::ALL.iter().zip(&accepts) {
        m.insert(format!("driver.accepts.{}", f.label()), *a);
    }
    let total_accepts: f64 = accepts.iter().sum();
    m.insert(
        "driver.accept_ratio".into(),
        ratio(total_accepts, total_accepts + sum(&|r| r.rejects as f64)),
    );
    m.insert("driver.fast_s".into(), sum(&|r| r.driver_fast_s));
    m.insert(
        "driver.self_s".into(),
        sum(&|r| {
            let fast: f64 = r.fast.iter().map(|c| c.s).sum();
            r.seconds - fast - (r.cost.s - r.cost_slow_s) - (r.sink_s - r.sink_slow_s) - r.slow_s
        }),
    );

    // Event sink.
    m.insert("observe.sink_s".into(), sum(&|r| r.sink_s));
    let plain_s: f64 = good().map(|k| plain[k].seconds).sum();
    let sink_s: f64 = good().map(|k| sink[k].seconds).sum();
    m.insert("observe.overhead_ratio".into(), ratio(sink_s, plain_s));

    // Slow path.
    let slow_calls = sum(&|r| r.slow_calls as f64);
    let slow_s = sum(&|r| r.slow_s);
    m.insert("slow.calls".into(), slow_calls);
    m.insert(
        "slow.success_ratio".into(),
        ratio(sum(&|r| r.slow_successes as f64), slow_calls),
    );
    m.insert("slow.s".into(), slow_s);
    m.insert("slow.s_per_call".into(), ratio(slow_s, slow_calls));
    m.insert("slow.region_s_per_call".into(), sp.region_s_per_call);
    m.insert(
        "slow.synth_cold_s_per_call".into(),
        sp.synth_cold_s_per_call,
    );
    m.insert(
        "slow.synth_warm_s_per_call".into(),
        sp.synth_warm_s_per_call,
    );

    // Memo cache.
    let hits = sum(&|r| r.cache.hits as f64);
    let neg = sum(&|r| r.cache.negative_hits as f64);
    let misses = sum(&|r| r.cache.misses as f64);
    let rejects = sum(&|r| r.cache.verify_rejects as f64);
    m.insert("cache.hits".into(), hits);
    m.insert("cache.misses".into(), misses);
    m.insert(
        "cache.hit_ratio".into(),
        ratio(hits + neg, hits + neg + misses + rejects),
    );
    m.insert("cache.negative_hits".into(), neg);
    m.insert("cache.verify_rejects".into(), rejects);
    m.insert("cache.inserts".into(), sum(&|r| r.cache.inserts as f64));
    m.insert("cache.evictions".into(), sum(&|r| r.cache.evictions as f64));

    // Certificates: coverage from CERTIFIED frames, counts from STATS.
    let cov: Vec<f64> = recs().filter_map(|r| r.certified.map(|c| c.0)).collect();
    m.insert(
        "cert.coverage".into(),
        ratio(cov.iter().sum(), cov.len() as f64),
    );
    let stat = |f: &dyn Fn(&qserve::protocol::StatsSnapshot) -> u64| -> f64 {
        jobs.iter()
            .filter_map(|j| j.stats.as_ref())
            .map(|(a, b)| f(b).saturating_sub(f(a)) as f64)
            .sum()
    };
    m.insert("cert.windows".into(), stat(&|s| s.cert_windows));
    m.insert("cert.invalidated".into(), stat(&|s| s.cert_invalidated));
    m.insert("cert.skips".into(), stat(&|s| s.cert_skips));
    m.insert(
        "cert.iters_saved".into(),
        jobs.iter()
            .filter_map(|j| {
                let r = j.request.as_ref().filter(|r| r.certify)?;
                let s = j.rec.summary.as_ref()?;
                Some(r.iters.saturating_sub(s.iterations) as f64)
            })
            .sum(),
    );
    let recs_all: Vec<_> = recs().collect();
    m.insert("cert.rebase_s".into(), probe::cert_rebase(&recs_all, tr));

    // Tracing itself.
    let traced_wall = job_seconds(served);
    let mismatches = ok.iter().filter(|o| !**o).count();
    m.insert("trace.replay_mismatches".into(), mismatches as f64);
    m.insert("trace.wall_s".into(), traced_wall);
    m.insert("trace.overhead_s".into(), traced_wall - untraced_s);

    print_layers(&m, served, verdicts, &traced, &ok, &jp, untraced_s);
    Layers(m)
}

fn print_layers(
    m: &BTreeMap<String, f64>,
    served: &Served,
    verdicts: &[Result<Circuit, String>],
    traced: &[JobReplay],
    ok: &[bool],
    jp: &probe::JournalProbe,
    untraced_s: f64,
) {
    println!("per-layer ledger (traced run; engine numbers over replay-matched jobs):");
    for (name, unit) in PER_LAYER {
        println!("  {name:<36} {:>16.6} {unit}", m[*name]);
    }
    let expected: u64 = (1..traced.len())
        .filter(|k| ok[k - 1])
        .map(|k| traced[k].improvements)
        .sum();
    println!(
        "  improvements published by the replayed engine: {expected}; \
         tracing overhead {:+.3} s on {untraced_s:.3} s of untraced job time",
        m["trace.overhead_s"]
    );
    if jp.replay_mismatches > 0 {
        println!(
            "  WARNING: {} journal replays did not rebuild the DONE circuit",
            jp.replay_mismatches
        );
    }
    for (j, (v, o)) in served.jobs.iter().zip(verdicts.iter().zip(ok)) {
        if let Err(problem) = v {
            println!(
                "  FAILED {} (id {}, traced run): {problem}",
                j.name, j.rec.id
            );
        }
        if !o {
            println!("  replay mismatch: {} (id {})", j.name, j.rec.id);
        }
    }
}

pub fn print_spans(tr: &Tracer) {
    println!("spans (name, count, total s, self s):");
    for (name, (n, total, own)) in tr.summary() {
        println!("  {name:<24} {n:>8} {total:>12.6} {own:>12.6}");
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

/// The final output line.
pub fn result_json(
    attempted: usize,
    failed: usize,
    values: &[f64],
    names: &[(&str, &str)],
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((n, u), v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        metrics.join(", ")
    )
}
