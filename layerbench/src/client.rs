//! The `qserve --stdio` child and its one closed-loop client
//! connection: the next SUBMIT/EDIT goes out only after the previous
//! DONE. A dedicated reader thread drains the server's stdout as fast
//! as it arrives, so the server's lossy improvement stream never backs
//! up and drops frames. The reader only splits lines and stamps their
//! arrival; frames are parsed on the client's main thread, a job's
//! stream frames after its DONE, so that while a job runs the client
//! adds at most one busy thread (the reader, copying bytes).

use crate::spans::{Tracer, ROOT};
use qserve::protocol::{Frame, JobSummary, StatsSnapshot};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Instant;

/// One line from the server as read, with its arrival time.
struct Line {
    bytes: Vec<u8>,
    at: Instant,
}

/// Frames that a job streams before its terminal frame. The reader
/// batches them and hands a batch over only with the next other line
/// (DONE, ERROR or a reply), so the main thread wakes once per job.
const STREAM_PREFIXES: [&[u8]; 4] = [b"ACCEPTED ", b"SNAPSHOT ", b"DELTA ", b"CERTIFIED "];

/// One frame from the server, with its size on the wire.
pub struct Incoming {
    pub frame: Frame,
    pub bytes: usize,
}

/// Everything the client saw of one job, SUBMIT/EDIT to DONE.
pub struct JobRecord {
    pub id: u64,
    pub sent: Instant,
    /// When the DONE (or ERROR) frame had been parsed.
    pub done_at: Instant,
    /// Arrival of the job's first frame.
    pub first_at: Instant,
    /// SNAPSHOT and DELTA frames, in arrival order.
    pub stream: Vec<Incoming>,
    pub summary: Option<JobSummary>,
    pub error: Option<String>,
    /// (coverage, windows, budget) of the job's CERTIFIED frame.
    pub certified: Option<(f64, u64, u64)>,
    pub bytes_in: u64,
    pub frames_in: u64,
    pub parse_s: f64,
    /// Size of the SUBMIT/EDIT line.
    pub bytes_out: u64,
    /// The job's root span (0 when untraced).
    pub span: u32,
}

impl JobRecord {
    pub fn seconds(&self) -> f64 {
        self.done_at.duration_since(self.sent).as_secs_f64()
    }
}

pub struct ServerConfig {
    pub qserve: PathBuf,
    pub journal_dir: Option<PathBuf>,
    pub stderr_log: PathBuf,
    /// When the client stops waiting for the server and fails the run
    /// (a wedged server must not hold the benchmark past its limit).
    pub deadline: Instant,
}

pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    rx: Receiver<Result<Vec<Line>, String>>,
    reader: Option<JoinHandle<()>>,
    deadline: Instant,
    pub bytes_out: u64,
}

fn parse_line(line: &Line) -> Result<Frame, String> {
    std::str::from_utf8(&line.bytes)
        .map_err(|e| format!("server frame is not UTF-8: {e}"))
        .and_then(|s| {
            Frame::parse(s.trim_end_matches('\n'))
                .map_err(|e| format!("unparsable server frame: {e}"))
        })
}

/// CPU seconds (user + system) a process has used so far, its exited
/// threads included. `/proc` counts in USER_HZ ticks, 100 per second
/// on Linux.
pub fn cpu_seconds(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            // Fields after the parenthesized command name; utime and
            // stime are the 14th and 15th fields of the line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

impl ServerProc {
    /// Spawns `qserve --stdio` with one worker slot, the serial engine
    /// (chosen per SUBMIT), a wall cap far above any job so the
    /// watchdog never cancels an iteration-budgeted job, and the
    /// benchmark's memo-cache size and checkpoint cadence.
    pub fn spawn(cfg: &ServerConfig) -> Result<ServerProc, String> {
        let log = std::fs::File::create(&cfg.stderr_log)
            .map_err(|e| format!("cannot create {}: {e}", cfg.stderr_log.display()))?;
        let mut cmd = Command::new(&cfg.qserve);
        cmd.args([
            "--stdio",
            "--workers",
            "1",
            "--max-queued",
            "4",
            "--max-time-ms",
            "3600000",
            "--gateset",
            "nam",
            "--cache-gates",
        ]);
        cmd.arg(crate::workload::CACHE_GATES.to_string());
        cmd.arg("--checkpoint-every")
            .arg(crate::workload::CHECKPOINT_EVERY.to_string());
        if let Some(dir) = &cfg.journal_dir {
            cmd.arg("--journal-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.qserve.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take();
        let (tx, rx) = channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::with_capacity(1 << 16, stdout);
            let mut batch = Vec::new();
            loop {
                let mut bytes = Vec::new();
                match r.read_until(b'\n', &mut bytes) {
                    Ok(0) => {
                        if !batch.is_empty() {
                            let _ = tx.send(Ok(batch));
                        }
                        return;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        let _ = tx.send(Err(format!("reading server output: {e}")));
                        return;
                    }
                }
                let streamed = STREAM_PREFIXES.iter().any(|p| bytes.starts_with(p));
                batch.push(Line {
                    bytes,
                    at: Instant::now(),
                });
                if !streamed && tx.send(Ok(std::mem::take(&mut batch))).is_err() {
                    return;
                }
            }
        });
        Ok(ServerProc {
            child,
            stdin,
            rx,
            reader: Some(reader),
            deadline: cfg.deadline,
            bytes_out: 0,
        })
    }

    fn send(&mut self, frame: &Frame, job: u64, tr: &mut Tracer) -> Result<(), String> {
        let t0 = Instant::now();
        let line = frame.encode();
        let t1 = Instant::now();
        tr.record("client.encode", job, ROOT, t0, t1);
        let stdin = self.stdin.as_mut().ok_or("server stdin already closed")?;
        let t2 = Instant::now();
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to server: {e}"))?;
        tr.record("client.write", job, ROOT, t2, Instant::now());
        self.bytes_out += line.len() as u64;
        Ok(())
    }

    /// The next batch of lines: any stream frames, then one other line.
    fn recv(&mut self) -> Result<Vec<Line>, String> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(left) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => Err("the run's time limit passed".into()),
            Err(RecvTimeoutError::Disconnected) => Err("server closed its output".into()),
        }
    }

    /// One request whose reply is a single frame.
    fn round_trip(&mut self, frame: &Frame, job: u64, tr: &mut Tracer) -> Result<Frame, String> {
        self.send(frame, job, tr)?;
        let lines = self.recv()?;
        match lines.as_slice() {
            [line] => parse_line(line),
            _ => Err(format!("{} stream frames outside a job", lines.len() - 1)),
        }
    }

    /// Negotiates protocol v2.
    pub fn hello(&mut self, tr: &mut Tracer) -> Result<(), String> {
        match self.round_trip(&Frame::Hello { version: 2 }, 0, tr)? {
            Frame::Hello { version: 2 } => Ok(()),
            other => Err(format!("expected HELLO version=2, got {other:?}")),
        }
    }

    /// One STATS round trip (out of band; the loop is closed, so no
    /// job frame can interleave).
    pub fn stats(&mut self, job: u64, tr: &mut Tracer) -> Result<StatsSnapshot, String> {
        let t0 = Instant::now();
        let got = self.round_trip(&Frame::Stats, job, tr)?;
        tr.record("client.stats", job, ROOT, t0, Instant::now());
        match got {
            Frame::StatsReply(s) => Ok(s),
            other => Err(format!("expected STATSOK, got {other:?}")),
        }
    }

    /// Sends one SUBMIT or EDIT for job `id` and waits for its terminal
    /// DONE (or ERROR), which is parsed at once: the job's time ends
    /// when its DONE is parsed. The job's stream frames, held as raw
    /// lines until then, are parsed after it.
    pub fn run_job(
        &mut self,
        frame: &Frame,
        id: u64,
        tr: &mut Tracer,
    ) -> Result<JobRecord, String> {
        let first_span = tr.len();
        let sent = Instant::now();
        let out0 = self.bytes_out;
        self.send(frame, id, tr)?;
        let mut lines = self.recv()?;
        let last = lines.pop().expect("a batch ends with its non-stream line");
        let t0 = Instant::now();
        let terminal = parse_line(&last)?;
        let done_at = Instant::now();
        tr.record("client.parse", id, ROOT, t0, done_at);
        let mut rec = JobRecord {
            id,
            sent,
            done_at,
            first_at: lines.first().unwrap_or(&last).at,
            stream: Vec::new(),
            summary: None,
            error: None,
            certified: None,
            bytes_in: last.bytes.len() as u64,
            frames_in: 1,
            parse_s: (done_at - t0).as_secs_f64(),
            bytes_out: self.bytes_out - out0,
            span: ROOT,
        };
        match terminal {
            Frame::Done(s) if s.id == id => rec.summary = Some(s),
            Frame::Error {
                id: fid, message, ..
            } if fid == id || fid == 0 => rec.error = Some(message),
            other => return Err(format!("unexpected frame for job {id}: {other:?}")),
        }
        for line in lines {
            let t0 = Instant::now();
            let frame = parse_line(&line)?;
            let t1 = Instant::now();
            tr.record("client.parse", id, ROOT, t0, t1);
            rec.parse_s += (t1 - t0).as_secs_f64();
            rec.bytes_in += line.bytes.len() as u64;
            rec.frames_in += 1;
            match &frame {
                Frame::Accepted { id: fid, .. } if *fid == id => {}
                Frame::Snapshot { id: fid, .. } | Frame::Delta { id: fid, .. } if *fid == id => {
                    rec.stream.push(Incoming {
                        frame,
                        bytes: line.bytes.len(),
                    });
                }
                Frame::Certified {
                    id: fid,
                    coverage,
                    windows,
                    budget,
                } if *fid == id => rec.certified = Some((*coverage, *windows, *budget)),
                other => return Err(format!("unexpected frame for job {id}: {other:?}")),
            }
        }
        rec.span = tr.record("job", id, ROOT, rec.sent, rec.done_at);
        tr.adopt(first_span, id, rec.span);
        Ok(rec)
    }

    /// CPU seconds the server process has used so far.
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds(&self.child.id().to_string())
    }

    /// The server's peak resident set (VmHWM), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Sends SHUTDOWN, closes stdin, and waits for the process and the
    /// reader thread to end.
    pub fn shutdown(mut self, tr: &mut Tracer) -> Result<(), String> {
        let sent = self.send(&Frame::Shutdown, 0, tr);
        self.stdin = None;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for server: {e}"))?;
        if let Some(h) = self.reader.take() {
            h.join().map_err(|_| "reader thread panicked".to_string())?;
        }
        sent?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Only reached without a clean shutdown (an error path): make
        // sure no server outlives the benchmark.
        self.stdin = None;
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Spawn → HELLO → one 1-iteration warm-up job's DONE: the time until
/// a fresh server has built its rule corpus and resynthesizer.
pub fn cold_start(
    cfg: &ServerConfig,
    warmup: &Frame,
    tr: &mut Tracer,
) -> Result<(ServerProc, f64, JobRecord), String> {
    let t0 = Instant::now();
    let mut s = ServerProc::spawn(cfg)?;
    s.hello(tr)?;
    let rec = s.run_job(warmup, crate::WARMUP_ID, tr)?;
    if rec.summary.is_none() {
        return Err(format!("warm-up job failed: {:?}", rec.error));
    }
    Ok((s, t0.elapsed().as_secs_f64(), rec))
}

/// A fresh, empty directory (removing a stale one first).
pub fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path)
            .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}
