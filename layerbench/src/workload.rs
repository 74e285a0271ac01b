//! The three seeded workloads. Each is a deterministic function of
//! (seed, seconds): the server only ever sees the QASM and edit deltas
//! generated here.

use qcir::delta::CircuitDelta;
use qcir::rebase::rebase;
use qcir::{Circuit, Gate, GateSet, Instruction, Patch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::generators as gen;

/// The gate set every workload is native to and the server runs with.
pub const GATE_SET: GateSet = GateSet::Nam;

/// Approximation budget sent with every job (the optimizer's default
/// ε_f; resynthesis calls run at ε_f/8).
pub const EPS: f64 = 1e-8;

/// Gate budget of the server's shared resynthesis memo cache (its
/// default, passed explicitly) and of every replay pass's cache.
pub const CACHE_GATES: usize = 65_536;

/// Improvements between full SNAPSHOT checkpoints in the server's v2
/// stream (its default, passed explicitly) and in the replay's sink.
pub const CHECKPOINT_EVERY: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NisqSuite,
    LargeStream,
    EditLoop,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "nisq_suite" => Some(Workload::NisqSuite),
            "large_stream" => Some(Workload::LargeStream),
            "edit_loop" => Some(Workload::EditLoop),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::NisqSuite => "nisq_suite",
            Workload::LargeStream => "large_stream",
            Workload::EditLoop => "edit_loop",
        }
    }

    /// Only `edit_loop` runs a journaled server (EDIT needs journals).
    pub fn journaled(self) -> bool {
        self == Workload::EditLoop
    }
}

/// One SUBMIT: a circuit with its iteration budget and search seed.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub name: String,
    pub circuit: Circuit,
    pub iters: u64,
    pub seed: u64,
    pub certify: bool,
}

/// A workload instance: the SUBMITs in order, then (for `edit_loop`)
/// this many EDITs of the last submitted job.
pub struct Plan {
    pub jobs: Vec<JobSpec>,
    pub edits: usize,
}

/// SplitMix64: per-job seeds derived from the workload seed.
pub fn splitmix(seed: u64, index: u64) -> u64 {
    let mut x = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Scales a per-10-seconds amount to the requested run length.
fn scaled(per_10s: f64, seconds: u64) -> u64 {
    ((per_10s * seconds as f64 / 10.0).round() as u64).max(1)
}

fn native(c: &Circuit) -> Circuit {
    rebase(c, GATE_SET).expect("generator circuits rebase into the Nam gate set")
}

pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    match workload {
        // The paper's own traffic: every circuit of the default suite,
        // one iteration-budgeted job each. `tof_*` is left out: its
        // Toffolis are mirrored, so the input is the identity and every
        // job deletes it to zero gates, which would inflate the
        // reduction figures.
        Workload::NisqSuite => {
            let iters = scaled(NISQ_ITERS_PER_10S, seconds);
            let jobs = workloads::suite(GATE_SET, workloads::SuiteScale::Default)
                .into_iter()
                .filter(|b| !b.name.starts_with("tof_"))
                .enumerate()
                .map(|(i, b)| JobSpec {
                    name: b.name,
                    circuit: relabeled(&b.circuit, splitmix(seed, i as u64)),
                    iters,
                    seed: splitmix(SEARCH_SEED, i as u64),
                    certify: false,
                })
                .collect();
            Plan { jobs, edits: 0 }
        }
        // Large tiled circuits whose improvement opportunities (a
        // mergeable rotation per tile, a cancellable CX pair every
        // fourth tile) occur at a size-independent rate, so each job
        // streams hundreds of improvements as v2 deltas. All jobs have
        // the same size, so `job_s_p50` is a median over like jobs
        // (with one job per size it was a single job's time, and moved
        // 27-34% between runs where `wall_s` moved 13%). The jobs
        // differ in their search seeds. The workload seed relabels the
        // qubits, the same way for every job: with a relabeling per job,
        // how many windows one job left in the memo cache for the next
        // changed from seed to seed.
        Workload::LargeStream => {
            let iters = scaled(LARGE_ITERS_PER_10S, seconds);
            let tiled = native(&guoq_bench::tiled_workload(LARGE_GATES));
            let circuit = relabeled(&tiled, seed);
            let jobs = (0..LARGE_JOBS)
                .map(|i| JobSpec {
                    name: format!("tiled_{}k_{i}", LARGE_GATES / 1000),
                    circuit: circuit.clone(),
                    iters,
                    seed: splitmix(SEARCH_SEED, i),
                    certify: false,
                })
                .collect();
            Plan { jobs, edits: 0 }
        }
        // One certified job on a ~1.5k-gate suite-family circuit, then
        // small client edits, each re-optimized from the rebased
        // certificate.
        Workload::EditLoop => {
            let c = native(&gen::heisenberg_trotter(6, 10, 6006));
            Plan {
                jobs: vec![JobSpec {
                    name: "heisenberg_06".into(),
                    circuit: relabeled(&c, seed),
                    iters: EDIT_ITERS,
                    seed: splitmix(SEARCH_SEED, 0),
                    certify: true,
                }],
                edits: scaled(EDITS_PER_10S, seconds) as usize,
            }
        }
    }
}

/// Base of the per-job search seeds and of the edit sequence. They, and
/// the job order, are fixed rather than drawn from the workload seed: a
/// job's run time is set by how many cold numerical instantiations its
/// trajectory meets (tens of ms each), so seeded trajectories spread
/// `wall_s` 15% across seeds, and a seeded order or seeded edits let
/// the memo cache move those misses between jobs, so `job_s_p50`
/// jumped. The workload seed relabels the qubits of every input.
const SEARCH_SEED: u64 = 0x5EED_F00D;

/// `c` with its qubits renamed by a seeded permutation.
fn relabeled(c: &Circuit, seed: u64) -> Circuit {
    let mut perm: Vec<u32> = (0..c.num_qubits() as u32).collect();
    let mut rng = SmallRng::seed_from_u64(splitmix(seed, 0x5A_FF1E));
    for k in (1..perm.len()).rev() {
        perm.swap(k, rng.random_range(0..=k));
    }
    let mut out = Circuit::new(c.num_qubits());
    out.extend_mapped(c, &perm);
    out
}

/// Iteration budget per `nisq_suite` job at `--seconds 10`.
const NISQ_ITERS_PER_10S: f64 = 300.0;
/// Size, count and iteration budget (at `--seconds 10`) of the
/// `large_stream` jobs.
const LARGE_GATES: usize = 24_000;
const LARGE_JOBS: u64 = 7;
const LARGE_ITERS_PER_10S: f64 = 6_000.0;
/// Iteration budget of the `edit_loop` job and of every EDIT
/// continuation (certification usually ends them early).
const EDIT_ITERS: u64 = 200_000;
/// EDITs per `edit_loop` run at `--seconds 10`.
const EDITS_PER_10S: f64 = 36.0;

/// A small client edit of `c`: a new ZZ-coupling term
/// `CX(a,b) · Rz(θ)_b · CX(a,b)` inserted right after a randomly chosen
/// CX on the same pair (a coupling added to a pair that already
/// interacts). The re-optimization can cancel the adjacent CX pair it
/// creates, so every edit job has a comparable amount to recover.
/// Returns the delta and the edited circuit.
pub fn random_edit(c: &Circuit, rng: &mut SmallRng) -> (CircuitDelta, Circuit) {
    let cxs: Vec<usize> = (0..c.len())
        .filter(|&i| c.instruction(i).gate == Gate::Cx)
        .collect();
    let (at, a, b) = if cxs.is_empty() {
        let n = c.num_qubits() as u32;
        let a = rng.random_range(0..n);
        (
            rng.random_range(0..=c.len()),
            a,
            (a + rng.random_range(1..n)) % n,
        )
    } else {
        let p = cxs[rng.random_range(0..cxs.len())];
        let q = c.instruction(p);
        (p + 1, q.qubits()[0], q.qubits()[1])
    };
    // Couplings come from a menu of multiples of π/8, as from an
    // editor's angle picker.
    let k = rng.random_range(1..=4) as f64 * if rng.random::<bool>() { 1.0 } else { -1.0 };
    let theta = k * std::f64::consts::FRAC_PI_8;
    let instrs = vec![
        Instruction::new(Gate::Cx, &[a, b]),
        Instruction::new(Gate::Rz(theta), &[b]),
        Instruction::new(Gate::Cx, &[a, b]),
    ];
    let delta = CircuitDelta::from_ops(c.len(), vec![Patch::new(Vec::new(), instrs, at)]);
    let mut edited = c.clone();
    delta
        .apply(&mut edited)
        .expect("an insertion within bounds always applies");
    (delta, edited)
}

/// The RNG that draws the edit sequence. Fixed, like the search seeds:
/// with seeded edits, how many cold instantiations each edit job met
/// moved `job_s_p50` between discrete levels from seed to seed. The
/// edits' qubits follow the seed's relabeling of the circuit.
pub fn edit_rng() -> SmallRng {
    SmallRng::seed_from_u64(splitmix(SEARCH_SEED, 0xED17))
}

/// A tiny fixed circuit for the one-iteration warm-up job that makes
/// the server build its rule corpus and resynthesizer.
pub fn warmup_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.push(Gate::H, &[0]);
    c.push(Gate::Cx, &[0, 1]);
    c.push(Gate::Rz(0.3), &[1]);
    c.push(Gate::Cx, &[0, 1]);
    c.push(Gate::Cx, &[1, 2]);
    c.push(Gate::H, &[0]);
    c
}
