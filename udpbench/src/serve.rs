//! The serve workloads: a closed loop of jobs through an in-process
//! `udp-serve` runtime, from one client thread.

use crate::kernels::Kernel;
use crate::trace::Tracer;
use std::path::Path;
use std::time::{Duration, Instant};
use udp_serve::{
    JobOutcome, JobResult, JobSpec, ServeConfig, ServeHandle, ServeRuntime, ServeStats,
};
use udp_sim::ExecBackend;

pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// `ServeConfig::default()` with the backend pinned.
pub fn config() -> ServeConfig {
    ServeConfig {
        backend: Some(ExecBackend::Compiled),
        ..ServeConfig::default()
    }
}

/// A job's payload and the output the csv kernel must return for it.
pub struct Job {
    pub payload: Vec<u8>,
    pub expect: Vec<u8>,
}

pub fn make_jobs(payloads: Vec<Vec<u8>>) -> Vec<Job> {
    payloads
        .into_iter()
        .map(|payload| Job {
            expect: udp_compilers::csv::baseline_framing(&payload),
            payload,
        })
        .collect()
}

fn spec(i: usize, job: &Job) -> JobSpec {
    JobSpec::new(TENANTS[i % TENANTS.len()], "csv", job.payload.clone())
}

/// Whether a result is the clean, correct output for `job`.
pub fn result_ok(res: &JobResult, job: &Job) -> bool {
    matches!(res, Ok(out) if out.outcome == JobOutcome::Clean && out.output == job.expect)
}

pub struct Round {
    /// Submit-to-result latency of each job, seconds.
    pub latencies: Vec<f64>,
    pub wall: Duration,
    pub bytes: u64,
    pub failed: u64,
    pub clean: u64,
    pub modeled_cycles: u64,
    pub stats: ServeStats,
}

/// Runs every job once, `in_flight` at a time: the client submits a
/// batch of `in_flight` jobs while dispatch is paused, so the batch
/// reaches the scheduler whole, and waits for every reply before the
/// next batch. Each batch is then exactly one wave, whichever thread
/// the host runs first. Job specs are built before the clock starts and
/// outputs are checked after it stops.
pub fn round(
    tr: &mut Tracer,
    req_base: u64,
    handle: &ServeHandle,
    jobs: &[Job],
    in_flight: usize,
) -> Round {
    let before = handle.stats();
    let specs: Vec<JobSpec> = jobs.iter().enumerate().map(|(i, j)| spec(i, j)).collect();
    let mut specs = specs.into_iter().enumerate().peekable();
    let mut results: Vec<Option<JobResult>> = (0..jobs.len()).map(|_| None).collect();
    let mut latencies = Vec::with_capacity(jobs.len());
    let mut pending = Vec::with_capacity(in_flight);
    let t0 = Instant::now();
    while specs.peek().is_some() {
        handle.pause();
        for (i, spec) in specs.by_ref().take(in_flight) {
            let sent = Instant::now();
            match tr.span("serve.submit", req_base + i as u64, |_| handle.submit(spec)) {
                Ok(ticket) => pending.push((i, sent, ticket)),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        handle.resume();
        for (i, sent, ticket) in pending.drain(..) {
            let res = tr.span("serve.wait", req_base + i as u64, |_| ticket.wait());
            if res.is_ok() {
                latencies.push(sent.elapsed().as_secs_f64());
            }
            results[i] = Some(res);
        }
    }
    let wall = t0.elapsed();
    let stats = handle.stats();
    let mut out = Round {
        latencies,
        wall,
        bytes: jobs.iter().map(|j| j.payload.len() as u64).sum(),
        failed: 0,
        clean: 0,
        modeled_cycles: 0,
        stats: delta(&stats, &before),
    };
    for (res, job) in results.iter().zip(jobs) {
        let res = res.as_ref().expect("every job has a result");
        if let Ok(o) = res {
            out.modeled_cycles += o.cycles;
            out.clean += u64::from(o.outcome == JobOutcome::Clean);
        }
        if !result_ok(res, job) {
            out.failed += 1;
        }
    }
    out
}

fn delta(a: &ServeStats, b: &ServeStats) -> ServeStats {
    ServeStats {
        submitted: a.submitted - b.submitted,
        accepted: a.accepted - b.accepted,
        completed: a.completed - b.completed,
        shed_overload: a.shed_overload - b.shed_overload,
        shed_deadline: a.shed_deadline - b.shed_deadline,
        rejected_quota: a.rejected_quota - b.rejected_quota,
        rejected_quarantined: a.rejected_quarantined - b.rejected_quarantined,
        rejected_other: a.rejected_other - b.rejected_other,
        quarantined_jobs: a.quarantined_jobs - b.quarantined_jobs,
        waves: a.waves - b.waves,
        cycles: a.cycles - b.cycles,
        ..*a
    }
}

pub fn refused(s: &ServeStats) -> u64 {
    s.shed_overload + s.shed_deadline + s.rejected_quota + s.rejected_quarantined + s.rejected_other
}

/// Registers every kernel by artifact; csv gets its reference fallback.
pub fn register(
    tr: &mut Tracer,
    req: u64,
    handle: &ServeHandle,
    kernels: &[Kernel],
) -> Result<(), String> {
    for k in kernels {
        let fallback = (k.name == "csv").then(crate::kernels::csv_fallback);
        tr.span("serve.register", req, |_| {
            handle.register_artifact(k.name.clone(), &k.artifact, fallback)
        })
        .map_err(|e| format!("register {}: {e}", k.name))?;
    }
    Ok(())
}

/// Starts an unjournaled runtime with `kernels` registered.
pub fn start(tr: &mut Tracer, req: u64, kernels: &[Kernel]) -> Result<ServeRuntime, String> {
    let rt = tr
        .span("serve.start", req, |_| ServeRuntime::start(config()))
        .map_err(|e| format!("serve start: {e}"))?;
    register(tr, req, &rt.handle(), kernels)?;
    Ok(rt)
}

/// Starts a journaled runtime on `journal`, replaying what it holds.
pub fn start_journaled(
    tr: &mut Tracer,
    req: u64,
    journal: &Path,
    store: &udp_store::ArtifactStore,
) -> Result<ServeRuntime, String> {
    tr.span("serve.start_journaled", req, |_| {
        ServeRuntime::start_journaled(config(), journal, store)
    })
    .map_err(|e| format!("journaled start: {e}"))
}

/// Submits `job` and returns once the service has admitted it; the
/// result is waited for and checked by [`finish_admitted`].
pub fn admit(
    tr: &mut Tracer,
    req: u64,
    handle: &ServeHandle,
    job: &Job,
) -> Result<udp_serve::JobTicket, String> {
    let spec = spec(0, job);
    tr.span("serve.submit", req, |_| handle.submit(spec))
        .map_err(|e| format!("first job refused: {e}"))
}

pub fn finish_admitted(ticket: udp_serve::JobTicket, job: &Job) -> Result<(), String> {
    let res = ticket.wait();
    if result_ok(&res, job) {
        Ok(())
    } else {
        Err(format!(
            "first job after start returned a wrong result: {:?}",
            res.map(|o| o.outcome)
        ))
    }
}
