//! Output checks, run on every job of every run after the measured
//! window closes. A failed check marks the job failed; it never aborts
//! the run and is never skipped.

use crate::client::JobRecord;
use crate::spans::Tracer;
use crate::workload::GATE_SET;
use qcir::delta::CircuitDelta;
use qcir::{qasm, Circuit};
use qserve::protocol::Frame;

/// Widest circuit whose dense unitary is built for the distance check.
pub const MAX_AUDIT_QUBITS: usize = 10;

/// Numerical floor of the distance check: float error of building and
/// comparing two dense unitaries of a few thousand gates stays orders
/// of magnitude below this.
pub const DISTANCE_FLOOR: f64 = 1e-9;

/// Client-side stream and codec work found while checking.
#[derive(Debug, Default, Clone)]
pub struct StreamTally {
    /// Improvements received (see [`received_improvements`]).
    pub improvements: u64,
    pub delta_frames: u64,
    pub delta_bytes: u64,
    /// Largest measured distance minus the DONE frame's ε, over the
    /// audited jobs (≤ the floor when every job passes).
    pub worst_margin: f64,
    pub audited: u64,
}

/// Checks one job (the distance audit only when `audit`). Returns the
/// DONE circuit when every check passed, or the first problem found.
pub fn check_job(
    input: &Circuit,
    rec: &JobRecord,
    audit: bool,
    tally: &mut StreamTally,
    tr: &mut Tracer,
) -> Result<Circuit, String> {
    let id = rec.id;
    let done = match (&rec.summary, &rec.error) {
        (Some(s), _) => s,
        (None, Some(e)) => return Err(format!("ERROR frame: {e}")),
        (None, None) => return Err("no DONE frame".into()),
    };
    if done.cancelled {
        return Err("DONE carries cancelled=1".into());
    }
    let output = tr
        .time("check.qasm_parse", id, rec.span, || {
            qasm::from_qasm(&done.qasm)
        })
        .map_err(|e| format!("DONE QASM does not parse: {e}"))?;
    if output.num_qubits() != input.num_qubits() {
        return Err(format!(
            "output has {} qubits, input {}",
            output.num_qubits(),
            input.num_qubits()
        ));
    }
    if let Some(ins) = output.iter().find(|i| !GATE_SET.contains(i.gate)) {
        return Err(format!("output uses non-native gate {:?}", ins.gate));
    }
    tally.improvements += received_improvements(rec);
    reconstruct(rec, &done.qasm, tally, tr)?;
    if audit && input.num_qubits() <= MAX_AUDIT_QUBITS {
        let dist = tr.time("check.distance", id, rec.span, || {
            qmath::dist::accurate_hs_distance(&input.unitary(), &output.unitary())
        });
        tally.audited += 1;
        tally.worst_margin = tally.worst_margin.max(dist - done.epsilon);
        if dist > done.epsilon + DISTANCE_FLOOR {
            return Err(format!(
                "measured distance {dist:e} exceeds reported eps {:e} + floor {DISTANCE_FLOOR:e}",
                done.epsilon
            ));
        }
    }
    Ok(output)
}

/// Improvements the client received for a job: every DELTA, and every
/// SNAPSHOT after the first (a checkpoint or resync SNAPSHOT carries
/// the improvement it was sent for).
pub fn received_improvements(rec: &JobRecord) -> u64 {
    let snapshots = rec
        .stream
        .iter()
        .filter(|i| matches!(i.frame, Frame::Snapshot { .. }))
        .count() as u64;
    rec.stream.len() as u64 - snapshots + snapshots.saturating_sub(1)
}

/// Rebuilds the served best from the v2 stream — SNAPSHOTs set it,
/// DELTAs edit it, a `seq` gap discards it until the next SNAPSHOT —
/// and requires it to equal the DONE QASM byte for byte. A checkpoint
/// SNAPSHOT carries an improvement of its own (it replaces that
/// improvement's DELTA), so only the final state can be compared.
fn reconstruct(
    rec: &JobRecord,
    done_qasm: &str,
    tally: &mut StreamTally,
    tr: &mut Tracer,
) -> Result<(), String> {
    let id = rec.id;
    let mut recon: Option<Circuit> = None;
    let mut last_seq = 0u64;
    for inc in &rec.stream {
        match &inc.frame {
            Frame::Snapshot { qasm: text, .. } => {
                let c = tr
                    .time("check.qasm_parse", id, rec.span, || qasm::from_qasm(text))
                    .map_err(|e| format!("SNAPSHOT QASM does not parse: {e}"))?;
                recon = Some(c);
            }
            Frame::Delta { seq, delta, .. } => {
                tally.delta_frames += 1;
                tally.delta_bytes += inc.bytes as u64;
                if *seq != last_seq + 1 {
                    recon = None;
                }
                last_seq = *seq;
                if let Some(c) = recon.as_mut() {
                    tr.time("check.delta_apply", id, rec.span, || {
                        CircuitDelta::decode(delta)
                            .map_err(|e| format!("DELTA does not decode: {e}"))
                            .and_then(|d| {
                                d.apply(c).map_err(|e| format!("DELTA does not apply: {e}"))
                            })
                    })?;
                }
            }
            _ => {}
        }
    }
    match recon {
        Some(c) if qasm::to_qasm_line(&c) == done_qasm => Ok(()),
        Some(_) => Err("stream reconstruction differs from the DONE QASM".into()),
        None => Err("stream ended without a usable reconstruction".into()),
    }
}
