//! Direct probes of layers the replay cannot split: the slow path's
//! region and synthesis steps on the workload's own circuits after a
//! one-gate edit, and the journal fed with the frames the client
//! received.

use crate::client::JobRecord;
use crate::spans::{Tracer, ROOT};
use crate::workload::{CACHE_GATES, EPS, GATE_SET};
use guoq::transform::ResynthPass;
use guoq::QCache;
use qcir::{Circuit, Gate, Instruction, Patch};
use qserve::journal::{self, JobJournal};
use qserve::protocol::{Frame, JobRequest};
use qsynth::{shared_resynthesizer, CacheOutcome, ResynthProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

/// Slow-path probes per workload (each runs one cold instantiation).
const SLOW_PROBES: usize = 12;

#[derive(Debug, Default)]
pub struct SlowProbe {
    pub materialize_s_per_call: f64,
    pub region_s_per_call: f64,
    pub synth_cold_s_per_call: f64,
    pub synth_warm_s_per_call: f64,
}

/// Inserts one gate at a random position: the arena's positional view
/// is invalidated, as after any accepted edit in the search.
fn one_gate_edit(c: &mut Circuit, rng: &mut SmallRng) {
    let at = rng.random_range(0..=c.len());
    let q = rng.random_range(0..c.num_qubits() as u32);
    c.apply_patch(&Patch::new(
        Vec::new(),
        vec![Instruction::new(Gate::X, &[q])],
        at,
    ));
}

/// Times `Circuit::instructions` (the arena re-materialization),
/// `ResynthPass::region_at` + `Region::extract` +
/// `Region::replacement_patch`, and `resynthesize_cached` against a
/// cold and then a warm cache, each right after a one-gate edit.
pub fn slow_path(circuits: &[Circuit], seed: u64, tr: &mut Tracer) -> SlowProbe {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5105);
    let rs = shared_resynthesizer(GATE_SET, ResynthProfile::Fast);
    let eps = EPS / 8.0;
    let pass = ResynthPass::new(rs.clone(), 3, eps);
    let (mut mat, mut region, mut cold, mut warm) = (0.0, 0.0, 0.0, 0.0);
    let (mut n_mat, mut n_region) = (0usize, 0usize);
    let mut probes = 0;
    let mut attempts = 0;
    while probes < SLOW_PROBES && attempts < SLOW_PROBES * 20 && !circuits.is_empty() {
        attempts += 1;
        let mut c = circuits[attempts % circuits.len()].clone();
        if c.is_empty() {
            continue;
        }
        one_gate_edit(&mut c, &mut rng);
        let t0 = Instant::now();
        std::hint::black_box(c.instructions().len());
        let t1 = Instant::now();
        tr.record("probe.materialize", 0, ROOT, t0, t1);
        mat += (t1 - t0).as_secs_f64();
        n_mat += 1;

        one_gate_edit(&mut c, &mut rng);
        let anchor = rng.random_range(0..c.len());
        let t0 = Instant::now();
        let Some(r) = pass.region_at(&c, anchor) else {
            continue;
        };
        let sub = r.extract(&c);
        let t_region = t0.elapsed().as_secs_f64();
        let fresh = QCache::with_gate_budget(CACHE_GATES);
        let mut synth_rng = SmallRng::seed_from_u64(rng.random());
        let t0 = Instant::now();
        let (got, outcome) = rs.resynthesize_cached(&sub, eps, &mut synth_rng, Some(&fresh));
        let t1 = Instant::now();
        tr.record("probe.synth_cold", 0, ROOT, t0, t1);
        let (_, warm_outcome) = rs.resynthesize_cached(&sub, eps, &mut synth_rng, Some(&fresh));
        let t2 = Instant::now();
        tr.record("probe.synth_warm", 0, ROOT, t1, t2);
        debug_assert_eq!(outcome, CacheOutcome::Miss);
        debug_assert!(matches!(
            warm_outcome,
            CacheOutcome::Hit | CacheOutcome::NegativeHit
        ));
        cold += (t1 - t0).as_secs_f64();
        warm += (t2 - t1).as_secs_f64();
        let t_patch = match got {
            Some(out) => {
                let t0 = Instant::now();
                std::hint::black_box(r.replacement_patch(&c, &out.circuit));
                t0.elapsed().as_secs_f64()
            }
            None => 0.0,
        };
        region += t_region + t_patch;
        n_region += 1;
        probes += 1;
    }
    let per = |s: f64, n: usize| if n == 0 { 0.0 } else { s / n as f64 };
    SlowProbe {
        materialize_s_per_call: per(mat, n_mat),
        region_s_per_call: per(region, n_region),
        synth_cold_s_per_call: per(cold, probes),
        synth_warm_s_per_call: per(warm, probes),
    }
}

/// Certification window of the probe certificates (the optimizer's
/// default `cert_window`).
const CERT_WINDOW: usize = 24;

/// Seconds spent rebasing a full-coverage certificate (one stamp per
/// 24-gate window) across every received DELTA's edit script — the
/// work a certificate that follows the served stream would do.
pub fn cert_rebase(recs: &[&JobRecord], tr: &mut Tracer) -> f64 {
    let mut total = 0.0;
    for rec in recs {
        for inc in &rec.stream {
            let Frame::Delta { delta, .. } = &inc.frame else {
                continue;
            };
            let Ok(script) = qcir::delta::CircuitDelta::decode(delta) else {
                continue;
            };
            let len = script.base_len();
            let mut map = qcert::CertMap::new();
            for lo in (0..len).step_by(CERT_WINDOW) {
                map.stamp(lo, (lo + CERT_WINDOW).min(len), 1);
            }
            let cert = map.to_certificate(len, 1);
            let t0 = Instant::now();
            std::hint::black_box(cert.rebase(script.ops(), qcert::CERT_PAD));
            let t1 = Instant::now();
            tr.record("probe.cert_rebase", rec.id, ROOT, t0, t1);
            total += (t1 - t0).as_secs_f64();
        }
    }
    total
}

#[derive(Debug, Default)]
pub struct JournalProbe {
    pub bytes: u64,
    pub fsyncs: u64,
    pub append_s: f64,
    pub fsync_s: f64,
    pub replay_s: f64,
    /// Jobs whose journal replay did not rebuild the DONE circuit.
    pub replay_mismatches: u64,
}

/// Writes each job's received frames through the server's journal
/// (`append` for DELTAs, `append_synced` for SNAPSHOTs and DONE, as the
/// server does) under `dir`, then replays every journal.
pub fn journal(dir: &Path, jobs: &[(JobRequest, &JobRecord)], tr: &mut Tracer) -> JournalProbe {
    let mut p = JournalProbe::default();
    for (k, (req, rec)) in jobs.iter().enumerate() {
        let Some(done) = &rec.summary else { continue };
        let id = k as u64 + 1;
        let t0 = Instant::now();
        let Ok(mut j) = JobJournal::create_overwriting(dir, id, req) else {
            continue;
        };
        p.fsync_s += t0.elapsed().as_secs_f64();
        p.fsyncs += 1;
        let mut ok = true;
        for inc in &rec.stream {
            let t0 = Instant::now();
            let res = match &inc.frame {
                Frame::Delta { .. } => j.append(&inc.frame),
                _ => j.append_synced(&inc.frame),
            };
            let t1 = Instant::now();
            ok &= res.is_ok();
            if matches!(inc.frame, Frame::Delta { .. }) {
                p.append_s += (t1 - t0).as_secs_f64();
                tr.record("probe.journal_append", rec.id, ROOT, t0, t1);
            } else {
                p.fsync_s += (t1 - t0).as_secs_f64();
                p.fsyncs += 1;
                tr.record("probe.journal_fsync", rec.id, ROOT, t0, t1);
            }
        }
        let t0 = Instant::now();
        ok &= j.append_synced(&Frame::Done(done.clone())).is_ok();
        p.fsync_s += t0.elapsed().as_secs_f64();
        p.fsyncs += 1;
        drop(j);
        let path = journal::journal_path(dir, id);
        p.bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let t0 = Instant::now();
        let replayed = journal::replay(dir, id);
        let t1 = Instant::now();
        tr.record("probe.journal_replay", rec.id, ROOT, t0, t1);
        p.replay_s += (t1 - t0).as_secs_f64();
        let rebuilt = replayed.is_ok_and(|r| qcir::qasm::to_qasm_line(&r.best) == done.qasm);
        if !(ok && rebuilt) {
            p.replay_mismatches += 1;
        }
    }
    p
}
