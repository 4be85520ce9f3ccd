//! The three workloads behind one interface: set up, run a round of a
//! fixed number of requests, restart.

use crate::etl;
use crate::kernels::{self, Kernel};
use crate::serve::{self, Job};
use crate::trace::{Tracer, RESTART_REQ, SETUP_REQ};
use crate::{mix, Measure};
use std::path::{Path, PathBuf};
use std::time::Instant;
use udp_serve::{ServeRuntime, Shutdown};
use udp_sim::{ExecBackend, UdpRunReport};

/// `etl-batch` requests per round.
pub const ETL_ROUND: usize = 100;
/// Jobs per serve round.
pub const SERVE_ROUND: usize = 2048;

pub trait Bench {
    /// One full set-up, from generated inputs to the first request
    /// admitted; returns its duration in seconds.
    fn setup(&mut self, tr: &mut Tracer, k: u64) -> Result<f64, String>;
    /// Runs one round of requests and checks every output.
    fn round(&mut self, tr: &mut Tracer, r: u64, m: &mut Measure) -> Result<(), String>;
    /// Restarts from what set-up persisted, until a request is admitted.
    fn restart(&mut self, tr: &mut Tracer, r: u64, m: &mut Measure) -> Result<(), String>;
    /// The csv kernel, for the layer probe.
    fn csv(&self) -> &Kernel;
    /// Kernels with a resource certificate.
    fn certified(&self) -> u64;
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Makes `dir` the current set-up directory and removes the one it
/// replaces, so repeated set-ups keep one store on disk.
fn replace_dir(current: &mut PathBuf, dir: PathBuf) {
    if !current.as_os_str().is_empty() && *current != dir {
        let _ = std::fs::remove_dir_all(&*current);
    }
    *current = dir;
}

fn certified(kernels: &[Kernel]) -> u64 {
    kernels.iter().filter(|k| k.certified).count() as u64
}

pub struct EtlBench {
    pub inputs: etl::Inputs,
    pub kernels: Vec<Kernel>,
    refs: Vec<Vec<UdpRunReport>>,
    work: PathBuf,
    store_dir: PathBuf,
}

impl EtlBench {
    pub fn new(seed: u64, work: &Path) -> Self {
        EtlBench {
            inputs: etl::generate(seed, etl::SETS, etl::BLOCKS),
            kernels: Vec::new(),
            refs: Vec::new(),
            work: work.to_path_buf(),
            store_dir: PathBuf::new(),
        }
    }
}

impl Bench for EtlBench {
    fn setup(&mut self, tr: &mut Tracer, k: u64) -> Result<f64, String> {
        let dir = self.work.join(format!("setup-{k}"));
        fresh_dir(&dir)?;
        let req = SETUP_REQ + k;
        let t0 = Instant::now();
        let store = kernels::open_store(tr, req, &dir)?;
        let tree = &self.inputs.tree;
        let built = kernels::prepare(tr, req, || etl::translate(tree), &store)?;
        let secs = t0.elapsed().as_secs_f64();
        if self.refs.is_empty() {
            self.refs = etl::reference(&built, &self.inputs)?;
        }
        self.kernels = built;
        replace_dir(&mut self.store_dir, dir);
        Ok(secs)
    }

    fn round(&mut self, tr: &mut Tracer, r: u64, m: &mut Measure) -> Result<(), String> {
        let mut latencies = Vec::with_capacity(ETL_ROUND);
        let mut wall = 0.0;
        let mut cycles = 0;
        for j in 0..ETL_ROUND {
            let req = r * ETL_ROUND as u64 + j as u64;
            let set = req as usize % self.inputs.sets.len();
            let input = &self.inputs.sets[set];
            let t0 = Instant::now();
            let res = etl::request(tr, req, &self.kernels, input, true, ExecBackend::Compiled);
            let secs = t0.elapsed().as_secs_f64();
            wall += secs;
            m.attempted += 1;
            m.bytes += input.bytes;
            match res {
                Ok(reports) if reports == self.refs[set] => {
                    latencies.push(secs);
                    for rep in &reports {
                        m.clean += rep.health.clean();
                        m.chunks += rep.health.outcomes.len() as u64;
                        cycles += rep.wall_cycles;
                    }
                }
                Ok(_) => m.failed += 1,
                Err(e) => {
                    eprintln!("etl-batch request {req}: {e}");
                    m.failed += 1;
                }
            }
        }
        // One request in flight: the round's time is the sum of its
        // requests' times, which leaves the oracle checks out.
        m.round_s.push(wall);
        m.add_round_latencies(&latencies);
        m.modeled_cycles.push(cycles);
        Ok(())
    }

    fn restart(&mut self, tr: &mut Tracer, r: u64, m: &mut Measure) -> Result<(), String> {
        let req = RESTART_REQ + r;
        let t0 = Instant::now();
        let store = kernels::open_store(tr, req, &self.store_dir)?;
        self.kernels = kernels::reload(tr, req, &store, &self.kernels)?;
        m.restart_s.push(t0.elapsed().as_secs_f64());
        Ok(())
    }

    fn csv(&self) -> &Kernel {
        &self.kernels[1]
    }

    fn certified(&self) -> u64 {
        certified(&self.kernels)
    }
}

/// `serve-interactive` (unjournaled, 8 jobs in flight) and
/// `serve-ingest` (journaled with fsync, all corpus kernels registered,
/// 64 jobs in flight).
pub struct ServeBench {
    journaled: bool,
    in_flight: usize,
    jobs: Vec<Job>,
    kernels: Vec<Kernel>,
    rt: Option<ServeRuntime>,
    work: PathBuf,
    store_dir: PathBuf,
}

impl ServeBench {
    pub fn interactive(seed: u64, work: &Path) -> Self {
        let payloads = (0..SERVE_ROUND)
            .map(|i| udp_workloads::lineitem_csv(250, mix(seed, 2, i as u64)))
            .collect();
        ServeBench::new(false, 8, serve::make_jobs(payloads), work)
    }

    pub fn ingest(seed: u64, work: &Path) -> Self {
        let payloads = (0..SERVE_ROUND)
            .map(|i| udp_workloads::crimes_csv(2048, mix(seed, 3, i as u64)))
            .collect();
        ServeBench::new(true, 64, serve::make_jobs(payloads), work)
    }

    fn new(journaled: bool, in_flight: usize, jobs: Vec<Job>, work: &Path) -> Self {
        ServeBench {
            journaled,
            in_flight,
            jobs,
            kernels: Vec::new(),
            rt: None,
            work: work.to_path_buf(),
            store_dir: PathBuf::new(),
        }
    }

    fn journal(&self) -> PathBuf {
        self.store_dir.join("serve.journal")
    }

    fn stop(&mut self) {
        if let Some(rt) = self.rt.take() {
            rt.shutdown(Shutdown::Drain);
        }
    }

    /// A journaled runtime on an empty journal with every kernel
    /// registered.
    fn start_fresh_journal(
        &self,
        tr: &mut Tracer,
        req: u64,
        store: &udp_store::ArtifactStore,
    ) -> Result<ServeRuntime, String> {
        let journal = self.journal();
        if journal.exists() {
            std::fs::remove_file(&journal).map_err(|e| format!("remove journal: {e}"))?;
        }
        let rt = serve::start_journaled(tr, req, &journal, store)?;
        serve::register(tr, req, &rt.handle(), &self.kernels)?;
        Ok(rt)
    }
}

impl Bench for ServeBench {
    fn setup(&mut self, tr: &mut Tracer, k: u64) -> Result<f64, String> {
        self.stop();
        let dir = self.work.join(format!("setup-{k}"));
        fresh_dir(&dir)?;
        replace_dir(&mut self.store_dir, dir);
        let req = SETUP_REQ + k;
        let t0 = Instant::now();
        let store = kernels::open_store(tr, req, &self.store_dir)?;
        self.kernels = if self.journaled {
            kernels::prepare(tr, req, udp_compilers::corpus::corpus, &store)?
        } else {
            kernels::prepare(
                tr,
                req,
                || vec![("csv".into(), udp_compilers::csv::csv_to_udp())],
                &store,
            )?
        };
        let rt = if self.journaled {
            self.start_fresh_journal(tr, req, &store)?
        } else {
            serve::start(tr, req, &self.kernels)?
        };
        let ticket = serve::admit(tr, req, &rt.handle(), &self.jobs[0])?;
        let secs = t0.elapsed().as_secs_f64();
        self.rt = Some(rt);
        serve::finish_admitted(ticket, &self.jobs[0])?;
        Ok(secs)
    }

    fn round(&mut self, tr: &mut Tracer, r: u64, m: &mut Measure) -> Result<(), String> {
        if self.journaled {
            // Every round starts from an empty journal, so each restart
            // replays the same number of records.
            self.stop();
            let was_on = tr.is_on();
            tr.set_on(false);
            let rt = kernels::open_store(tr, 0, &self.store_dir)
                .and_then(|store| self.start_fresh_journal(tr, 0, &store));
            tr.set_on(was_on);
            self.rt = Some(rt?);
        }
        let rt = self.rt.as_ref().ok_or("no running service")?;
        let before = journal_len(&self.journal());
        let out = serve::round(
            tr,
            r * SERVE_ROUND as u64,
            &rt.handle(),
            &self.jobs,
            self.in_flight,
        );
        if self.journaled {
            self.stop();
            let grown = journal_len(&self.journal()) - before;
            m.journal_bytes_per_job
                .push(grown as f64 / self.jobs.len() as f64);
        }
        m.add_serve_round(&out, self.jobs.len());
        Ok(())
    }

    fn restart(&mut self, tr: &mut Tracer, r: u64, m: &mut Measure) -> Result<(), String> {
        let req = RESTART_REQ + r;
        self.stop();
        let journal = self.journal();
        if self.journaled && tr.is_on() {
            let replay = tr
                .span("journal.replay", req, |_| {
                    udp_serve::journal::replay(&journal)
                })
                .map_err(|e| format!("journal replay: {e}"))?;
            m.journal_records.push(replay.records.len() as u64);
        }
        let t0 = Instant::now();
        let store = kernels::open_store(tr, req, &self.store_dir)?;
        let rt = if self.journaled {
            serve::start_journaled(tr, req, &journal, &store)?
        } else {
            self.kernels = kernels::reload(tr, req, &store, &self.kernels)?;
            serve::start(tr, req, &self.kernels)?
        };
        let ticket = serve::admit(tr, req, &rt.handle(), &self.jobs[0])?;
        m.restart_s.push(t0.elapsed().as_secs_f64());
        let dropped = rt.handle().stats().kernels_dropped;
        self.rt = Some(rt);
        serve::finish_admitted(ticket, &self.jobs[0])?;
        if dropped > 0 {
            return Err(format!("{dropped} kernel(s) dropped at restart"));
        }
        if self.journaled && tr.is_on() {
            // The warm loads `start_journaled` makes, timed one by one.
            kernels::reload(tr, req, &store, &self.kernels)?;
        }
        Ok(())
    }

    fn csv(&self) -> &Kernel {
        self.kernels
            .iter()
            .find(|k| k.name == "csv")
            .expect("every serve workload registers csv")
    }

    fn certified(&self) -> u64 {
        certified(&self.kernels)
    }
}

impl Drop for ServeBench {
    fn drop(&mut self) {
        self.stop();
    }
}

fn journal_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
