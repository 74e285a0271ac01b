//! layerbench: the served-job benchmark.
//!
//! ```text
//! layerbench --workload nisq_suite|large_stream|edit_loop --seed N
//!            --seconds S --trace 0|1 --qserve PATH --run-dir DIR
//! ```
//!
//! Drives a real `qserve --stdio` child over protocol v2 with one
//! closed-loop client, checks every output, and prints one JSON line
//! last: the end-to-end metrics (`--trace 0`) or the per-layer ledger
//! (`--trace 1`). NOTES.md describes the workloads, every metric, and
//! the trace file.

mod calib;
mod check;
mod client;
mod ledger;
mod probe;
mod replay;
mod spans;
mod workload;

use client::{cold_start, fresh_dir, JobRecord, ServerConfig, ServerProc};
use qcir::delta::CircuitDelta;
use qcir::{qasm, Circuit};
use qserve::protocol::{EngineSel, Frame, JobRequest, Objective, StatsSnapshot};
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Plan, Workload, EPS};

/// Job id of the setup warm-up job; workload jobs count up from 2.
pub const WARMUP_ID: u64 = 1;
const FIRST_JOB_ID: u64 = 2;
/// Cold starts per measured run; `setup_s` is their median. (A cold
/// start takes a few milliseconds; one sample moved by 20-40% between
/// runs.)
const SETUP_SAMPLES: usize = 25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    qserve: PathBuf,
    run_dir: PathBuf,
    /// The client gives up on a wedged server here, so a run always
    /// ends within the 180 s a run may take.
    deadline: Instant,
}

fn parse_args() -> Result<Args, String> {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut qserve = None;
    let mut run_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad {flag} value `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => trace = Some(num(&value)? != 0),
            "--qserve" => qserve = Some(PathBuf::from(value)),
            "--run-dir" => run_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        qserve: qserve.ok_or("--qserve is required")?,
        run_dir: run_dir.ok_or("--run-dir is required")?,
        deadline: started + Duration::from_secs(170),
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        // Counted before pinning, which leaves one CPU available.
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Before the first server starts: it inherits the pinning.
        let cpu = calib::pin_to_one_cpu()?;
        run(&args, host_cpus, cpu)
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One served job: what was sent, the circuit the server optimized,
/// and everything the client received.
pub struct ServedJob {
    pub name: String,
    /// The request the server ran: as sent for a SUBMIT; for an EDIT,
    /// the continuation the server journaled (filled in after the run).
    pub request: Option<JobRequest>,
    /// The client's edit script, for an EDIT.
    pub edit: Option<CircuitDelta>,
    pub input: Circuit,
    pub rec: JobRecord,
    /// STATS before and after the job (traced runs only).
    pub stats: Option<(StatsSnapshot, StatsSnapshot)>,
    /// Calibration kernel seconds right before the job.
    pub kernel_s: f64,
}

pub struct Served {
    /// Raw seconds of each cold start.
    pub setup_s: Vec<f64>,
    /// Calibration kernel seconds before the first cold start and
    /// after each (see `calib::scaled`).
    pub setup_kernel_s: Vec<f64>,
    /// CPU seconds the server and the client used while jobs ran
    /// (SUBMIT/EDIT written → DONE parsed, summed over jobs).
    pub server_cpu_s: f64,
    pub client_cpu_s: f64,
    pub warmup: (JobRequest, JobRecord),
    pub jobs: Vec<ServedJob>,
    /// EDITs never sent because the job they edit had failed.
    pub unsent: usize,
    pub peak_rss_mb: f64,
    /// Calibration kernel seconds after the last job.
    pub kernel_end_s: f64,
}

fn request(id: u64, c: &Circuit, iters: u64, seed: u64, certify: bool) -> JobRequest {
    JobRequest {
        id,
        engine: EngineSel::Serial,
        iters,
        time_ms: 0,
        seed,
        eps: EPS,
        objective: Objective::GateCount,
        overwrite: false,
        certify,
        qasm: qasm::to_qasm_line(c),
    }
}

/// The SUBMITs a journal holds, in order: the original request, then
/// one continuation per EDIT the server re-optimized.
fn journaled_requests(dir: &Path, id: u64) -> Vec<JobRequest> {
    std::fs::read_to_string(qserve::journal::journal_path(dir, id))
        .unwrap_or_default()
        .lines()
        .filter_map(|l| match Frame::parse(l) {
            Ok(Frame::Submit(r)) => Some(r),
            _ => None,
        })
        .collect()
}

/// One server and what it served: its cold starts, then its jobs.
struct Session {
    server: ServerProc,
    tr: Tracer,
    setup_s: Vec<f64>,
    setup_kernel_s: Vec<f64>,
    warmup: (JobRequest, JobRecord),
    journal_dir: Option<PathBuf>,
    jobs: Vec<ServedJob>,
    unsent: usize,
    server_cpu_s: f64,
    client_cpu_s: f64,
}

impl Session {
    /// Cold-starts the server `cold_starts` times, keeping the last.
    fn start(args: &Args, dir: &Path, cold_starts: usize, mut tr: Tracer) -> Result<Self, String> {
        fresh_dir(dir)?;
        let warmup_req = request(WARMUP_ID, &workload::warmup_circuit(), 1, 1, false);
        let warmup_frame = Frame::Submit(warmup_req.clone());
        let mut setup_s = Vec::with_capacity(cold_starts);
        let mut setup_kernel_s = vec![calib::sample()];
        for i in 0..cold_starts {
            let cfg = ServerConfig {
                qserve: args.qserve.clone(),
                journal_dir: args
                    .workload
                    .journaled()
                    .then(|| dir.join(format!("journal-{i}"))),
                stderr_log: dir.join(format!("qserve-{i}.log")),
                deadline: args.deadline,
            };
            let (server, secs, warm) = cold_start(&cfg, &warmup_frame, &mut tr)?;
            setup_s.push(secs);
            setup_kernel_s.push(calib::sample());
            if i + 1 < cold_starts {
                server.shutdown(&mut tr)?;
                continue;
            }
            return Ok(Session {
                server,
                tr,
                setup_s,
                setup_kernel_s,
                warmup: (warmup_req, warm),
                journal_dir: cfg.journal_dir,
                jobs: Vec::new(),
                unsent: 0,
                server_cpu_s: 0.0,
                client_cpu_s: 0.0,
            });
        }
        Err("no cold start".into())
    }

    /// Runs one SUBMIT or EDIT to its DONE, with a STATS round trip
    /// before and after it when traced.
    fn run(
        &mut self,
        frame: &Frame,
        id: u64,
        name: String,
        request: Option<JobRequest>,
        edit: Option<CircuitDelta>,
        input: Circuit,
    ) -> Result<(), String> {
        let kernel_s = calib::sample();
        let tr = &mut self.tr;
        let before = tr.on().then(|| self.server.stats(id, tr)).transpose()?;
        let cpu0 = (self.server.cpu_seconds(), client::cpu_seconds("self"));
        let rec = self.server.run_job(frame, id, tr)?;
        self.server_cpu_s += self.server.cpu_seconds() - cpu0.0;
        self.client_cpu_s += client::cpu_seconds("self") - cpu0.1;
        let after = tr.on().then(|| self.server.stats(id, tr)).transpose()?;
        self.jobs.push(ServedJob {
            name,
            request,
            edit,
            input,
            rec,
            stats: before.zip(after),
            kernel_s,
        });
        Ok(())
    }

    /// Shuts the server down; for an EDIT sequence, fills in the
    /// continuation requests the server journaled for job `edited`.
    fn finish(mut self, edited: Option<u64>) -> Result<(Served, Tracer), String> {
        let peak_rss_mb = self.server.peak_rss_mb()?;
        let kernel_end_s = calib::sample();
        self.server.shutdown(&mut self.tr)?;
        if let (Some(dir), Some(edited)) = (&self.journal_dir, edited) {
            let reqs = journaled_requests(dir, edited);
            let edited_jobs: Vec<&mut ServedJob> = self
                .jobs
                .iter_mut()
                .filter(|j| j.rec.id == edited)
                .collect();
            if reqs.len() == edited_jobs.len() {
                for (job, req) in edited_jobs.into_iter().zip(reqs) {
                    job.request = Some(req);
                }
            }
        }
        let served = Served {
            setup_s: self.setup_s,
            setup_kernel_s: self.setup_kernel_s,
            server_cpu_s: self.server_cpu_s,
            client_cpu_s: self.client_cpu_s,
            warmup: self.warmup,
            jobs: self.jobs,
            unsent: self.unsent,
            peak_rss_mb,
            kernel_end_s,
        };
        Ok((served, self.tr))
    }
}

/// Runs the plan in a closed loop on every session in lockstep: each
/// job goes to every session before the next job goes to any, so a slow
/// stretch of the host lands on all runs of a job alike. Returns the
/// id of the job the EDITs edit, if any.
fn serve(plan: &Plan, sessions: &mut [Session]) -> Result<Option<u64>, String> {
    let mut id = FIRST_JOB_ID;
    for spec in &plan.jobs {
        let req = request(id, &spec.circuit, spec.iters, spec.seed, spec.certify);
        let input = qasm::from_qasm(&req.qasm).map_err(|e| format!("generated QASM: {e}"))?;
        let frame = Frame::Submit(req.clone());
        for s in sessions.iter_mut() {
            let (name, req) = (spec.name.clone(), Some(req.clone()));
            s.run(&frame, id, name, req, None, input.clone())?;
        }
        id += 1;
    }
    if plan.edits == 0 {
        return Ok(None);
    }
    let edited_id = id - 1;
    let mut rng = workload::edit_rng();
    for k in 0..plan.edits {
        // The edits follow the first session's results; every session
        // must reach the same ones (the checks compare them).
        let last = sessions[0]
            .jobs
            .last()
            .expect("edit_loop submits a job first");
        let Some(prev) = last
            .rec
            .summary
            .as_ref()
            .and_then(|s| qasm::from_qasm(&s.qasm).ok())
        else {
            for s in sessions.iter_mut() {
                s.unsent = plan.edits - k;
            }
            break;
        };
        let (delta, edited) = workload::random_edit(&prev, &mut rng);
        let frame = Frame::Edit {
            id: edited_id,
            delta: delta.encode(),
        };
        for s in sessions.iter_mut() {
            let name = format!("edit_{:03}", k + 1);
            s.run(
                &frame,
                edited_id,
                name,
                None,
                Some(delta.clone()),
                edited.clone(),
            )?;
        }
    }
    Ok(Some(edited_id))
}

/// Checks every job; returns each job's verdict and the stream tally.
/// With `reference` (the traced run checked against the untraced run of
/// the same seed), each DONE circuit must equal the reference's byte
/// for byte instead of being audited for distance a second time: the
/// jobs are deterministic, and the reference passed or failed the audit
/// already.
fn check_all(
    served: &Served,
    reference: Option<&Served>,
    tr: &mut Tracer,
) -> (Vec<Result<Circuit, String>>, check::StreamTally) {
    let mut tally = check::StreamTally::default();
    let done = |s: &Served, k: usize| {
        s.jobs
            .get(k)
            .and_then(|j| j.rec.summary.as_ref())
            .map(|d| d.qasm.clone())
    };
    let verdicts = served
        .jobs
        .iter()
        .enumerate()
        .map(|(k, j)| {
            let audit = reference.is_none();
            let out = check::check_job(&j.input, &j.rec, audit, &mut tally, tr)?;
            match reference {
                Some(r) if done(r, k) != done(served, k) => {
                    Err("the traced run's DONE differs from the untraced run's".into())
                }
                _ => Ok(out),
            }
        })
        .collect();
    (verdicts, tally)
}

fn run(args: &Args, host_cpus: usize, cpu: usize) -> Result<String, String> {
    let plan = workload::plan(args.workload, args.seed, args.seconds);
    let scratch = args.run_dir.join(format!(
        "{}-seed{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    println!(
        "layerbench {} seed={} seconds={} trace={} host_cpus={host_cpus} pinned_cpu={cpu} jobs={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        plan.jobs.len() + plan.edits,
    );

    let line = if !args.trace {
        let mut session = Session::start(
            args,
            &scratch.join("untraced"),
            SETUP_SAMPLES,
            Tracer::new(false),
        )?;
        let edited = serve(&plan, std::slice::from_mut(&mut session))?;
        let (untraced, mut off) = session.finish(edited)?;
        let (verdicts, tally) = check_all(&untraced, None, &mut off);
        let e2e = ledger::end_to_end(&untraced, &verdicts);
        ledger::print_end_to_end(&e2e, &untraced, &verdicts, &tally);
        ledger::result_json(
            e2e.attempted,
            e2e.failed,
            &e2e.metrics(),
            ledger::END_TO_END,
        )
    } else {
        // An untraced and a traced server, fed job by job in lockstep,
        // so the tracing overhead compares runs of the same job made
        // seconds apart. One cold start each: set-up is not reported.
        let mut sessions = [
            Session::start(args, &scratch.join("untraced"), 1, Tracer::new(false))?,
            Session::start(args, &scratch.join("traced"), 1, Tracer::new(true))?,
        ];
        let edited = serve(&plan, &mut sessions)?;
        let [untraced, traced] = sessions;
        let (untraced, mut off) = untraced.finish(edited)?;
        let (traced, mut tr) = traced.finish(edited)?;
        let (verdicts, _) = check_all(&untraced, None, &mut off);
        let (t_verdicts, t_tally) = check_all(&traced, Some(&untraced), &mut tr);
        let layers = ledger::per_layer(
            &traced,
            &t_verdicts,
            &t_tally,
            &untraced,
            &scratch,
            args.seed,
            &mut tr,
        );
        let trace_path = args.run_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tr.write_jsonl(&trace_path)
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        ledger::print_spans(&tr);
        println!("trace file: {}", trace_path.display());
        // Both served runs' checks count in the traced result.
        let e2e = ledger::end_to_end(&untraced, &verdicts);
        let t_e2e = ledger::end_to_end(&traced, &t_verdicts);
        ledger::result_json(
            e2e.attempted + t_e2e.attempted,
            e2e.failed + t_e2e.failed,
            &layers.metrics(),
            ledger::PER_LAYER,
        )
    };
    std::fs::remove_dir_all(&scratch)
        .map_err(|e| format!("cannot remove {}: {e}", scratch.display()))?;
    Ok(line)
}
