//! The layer probe of the traced run: single-layer calls timed in
//! isolation, the same on every workload.
//!
//! * The per-run fixed costs a small serve wave pays: compiling for the
//!   compiled backend, predecoding, allocating a device, and one
//!   4 × 256 B csv wave per backend.
//! * One `etl-batch` request run pooled and sequential, for the stage
//!   split and the pool speed-up.
//! * A short journaled csv session, for the serve and journal layers on
//!   workloads that do not pass through them.

use crate::etl;
use crate::kernels::{self, Kernel};
use crate::mix;
use crate::serve::{self, Round};
use crate::trace::{Tracer, PROBE_JOB_REQ, PROBE_REQ, PROBE_SEQ_REQ};
use std::hint::black_box;
use std::path::Path;
use udp_sim::engine::Staging;
use udp_sim::{ExecBackend, Udp, UdpRunReport};

const FIXED_REPS: u64 = 200;
const STAGE_REPS: u64 = 5;
const SESSION_JOBS: usize = 256;

pub const WAVES: [(&str, bool, ExecBackend); 3] = [
    ("probe.wave.interp_seq", false, ExecBackend::Interpreter),
    ("probe.wave.compiled_seq", false, ExecBackend::Compiled),
    ("probe.wave.compiled_par", true, ExecBackend::Compiled),
];

/// The fixed-cost table.
pub fn fixed_costs(tr: &mut Tracer, csv: &Kernel, seed: u64) -> Result<(), String> {
    let image = &csv.artifact.image;
    let decoded = &csv.artifact.decoded;
    let payloads: Vec<Vec<u8>> = (0..4)
        .map(|i| {
            let mut p = udp_workloads::crimes_csv(256, mix(seed, 5, i));
            let end = p
                .iter()
                .take(256)
                .rposition(|&b| b == b'\n')
                .map_or(p.len(), |i| i + 1);
            p.truncate(end);
            p
        })
        .collect();
    let inputs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let run = |udp: &mut Udp, parallel: bool, backend: ExecBackend| {
        udp.try_run_data_parallel_shared(
            image,
            decoded,
            &inputs,
            &Staging::default(),
            &csv.opts(parallel, backend),
        )
        .map_err(|e| format!("small wave: {e}"))
    };
    let want = run(&mut Udp::new(), false, ExecBackend::Interpreter)?;
    for i in 0..FIXED_REPS {
        let req = PROBE_REQ + i;
        tr.span("probe.compile", req, |_| {
            black_box(udp_sim::compiled_decline_reason(image))
        });
        tr.span("probe.predecode", req, |_| black_box(image.predecode()));
        tr.span("probe.device_new", req, |_| black_box(Udp::new()));
        for (name, parallel, backend) in WAVES {
            let mut udp = Udp::new();
            let got = tr.span(name, req, |_| run(&mut udp, parallel, backend))?;
            if got != want {
                return Err(format!("{name}: report differs from the interpreter's"));
            }
        }
    }
    Ok(())
}

/// One request through the three stages, pooled then sequential,
/// `STAGE_REPS` times; every report must equal the oracle run's.
pub fn stages(
    tr: &mut Tracer,
    kernels: &[Kernel],
    input: &etl::RequestInput,
    want: &[UdpRunReport],
) -> Result<(), String> {
    for i in 0..STAGE_REPS {
        for (base, parallel) in [(PROBE_REQ, true), (PROBE_SEQ_REQ, false)] {
            let got = etl::request(
                tr,
                base + i,
                kernels,
                input,
                parallel,
                ExecBackend::Compiled,
            )
            .map_err(|e| format!("probe request: {e}"))?;
            if got != want {
                return Err("probe request differs from the interpreter's".into());
            }
        }
    }
    Ok(())
}

/// The `etl-batch` kernels, one request and its oracle reports.
pub struct EtlFixture {
    pub kernels: Vec<Kernel>,
    pub inputs: etl::Inputs,
    pub refs: Vec<Vec<UdpRunReport>>,
}

/// Builds the `etl-batch` kernels in `dir` for any workload. Untraced:
/// it is the probe's own set-up.
pub fn etl_fixture(seed: u64, dir: &Path) -> Result<EtlFixture, String> {
    let mut off = Tracer::new(false);
    let inputs = etl::generate(mix(seed, 6, 0), 1, etl::BLOCKS);
    let store = kernels::open_store(&mut off, 0, dir)?;
    let tree = &inputs.tree;
    let kernels = kernels::prepare(&mut off, 0, || etl::translate(tree), &store)?;
    let refs = etl::reference(&kernels, &inputs)?;
    Ok(EtlFixture {
        kernels,
        inputs,
        refs,
    })
}

pub struct Session {
    pub round: Round,
    pub jobs: usize,
    pub bytes_per_job: f64,
    pub records: u64,
}

/// A journaled csv service on a fresh journal in `dir`: one round of
/// 2 KB jobs, 64 in flight, then a drain and a journal replay.
pub fn session(tr: &mut Tracer, seed: u64, dir: &Path) -> Result<Session, String> {
    let mut off = Tracer::new(false);
    let store = kernels::open_store(&mut off, 0, dir)?;
    let csv = kernels::prepare(
        &mut off,
        0,
        || vec![("csv".into(), udp_compilers::csv::csv_to_udp())],
        &store,
    )?;
    let journal = dir.join("probe.journal");
    let rt = serve::start_journaled(&mut off, 0, &journal, &store)?;
    serve::register(&mut off, 0, &rt.handle(), &csv)?;
    let jobs = serve::make_jobs(
        (0..SESSION_JOBS)
            .map(|i| udp_workloads::crimes_csv(2048, mix(seed, 7, i as u64)))
            .collect(),
    );
    let before = std::fs::metadata(&journal).map_or(0, |m| m.len());
    let round = serve::round(tr, PROBE_JOB_REQ, &rt.handle(), &jobs, 64);
    rt.shutdown(udp_serve::Shutdown::Drain);
    let after = std::fs::metadata(&journal).map_or(0, |m| m.len());
    let replay = tr
        .span("journal.replay", PROBE_JOB_REQ, |_| {
            udp_serve::journal::replay(&journal)
        })
        .map_err(|e| format!("journal replay: {e}"))?;
    if round.failed > 0 {
        return Err(format!("{} probe job(s) failed", round.failed));
    }
    Ok(Session {
        round,
        jobs: SESSION_JOBS,
        bytes_per_job: (after - before) as f64 / SESSION_JOBS as f64,
        records: replay.records.len() as u64,
    })
}
