//! End-to-end and per-layer benchmark of the UDP reproduction.
//!
//! ```text
//! udpbench --workload <etl-batch|serve-interactive|serve-ingest|all>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `README.md` next to this crate for the workloads, the metrics
//! and how to read them. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod etl;
mod kernels;
mod ledger;
mod serve;
mod trace;
mod workloads;

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workloads::{Bench, EtlBench, ServeBench};

const WORKLOADS: [&str; 3] = ["etl-batch", "serve-interactive", "serve-ingest"];
/// Fewest set-ups per run.
const MIN_SETUPS: usize = 5;
/// Seconds between set-ups: one runs between rounds whenever this long
/// has passed since the last, so the set-ups sample the whole run and
/// not the host's state in its first moment.
const SETUP_EVERY_S: f64 = 0.5;
/// Fewest measured rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Traced rounds per traced run: enough requests for every per-layer
/// median, few enough that the span log stays a few MB.
const TRACED_ROUNDS: usize = 8;

/// Mixes the workload seed with a stream and an index into the seed of
/// one generated input.
pub fn mix(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the rounds of one run measured.
#[derive(Default)]
pub struct Measure {
    pub attempted: u64,
    pub failed: u64,
    pub bytes: u64,
    /// Per round, the p50 and p99 of its successful requests' latency.
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    /// Seconds per round (request phase only).
    pub round_s: Vec<f64>,
    pub restart_s: Vec<f64>,
    pub clean: u64,
    pub chunks: u64,
    /// Modeled device cycles per round.
    pub modeled_cycles: Vec<u64>,
    pub jobs_per_wave: Vec<f64>,
    pub cycles_per_job: Vec<f64>,
    pub refused: u64,
    pub submit_rounds: u64,
    pub journal_bytes_per_job: Vec<f64>,
    pub journal_records: Vec<u64>,
}

impl Measure {
    pub fn add_serve_round(&mut self, out: &serve::Round, jobs: usize) {
        self.attempted += jobs as u64;
        self.failed += out.failed;
        self.bytes += out.bytes;
        self.add_round_latencies(&out.latencies);
        self.round_s.push(out.wall.as_secs_f64());
        self.clean += out.clean;
        self.chunks += jobs as u64;
        self.modeled_cycles.push(out.modeled_cycles);
        self.refused += serve::refused(&out.stats);
        self.submit_rounds += 1;
        if out.stats.waves > 0 && out.stats.completed > 0 {
            self.jobs_per_wave
                .push(out.stats.completed as f64 / out.stats.waves as f64);
            self.cycles_per_job
                .push(out.stats.cycles as f64 / out.stats.completed as f64);
        }
    }

    /// Adds one round's request latencies (seconds) as its p50 and p99.
    pub fn add_round_latencies(&mut self, latencies: &[f64]) {
        if !latencies.is_empty() {
            self.p50s.push(percentile(latencies, 0.50));
            self.p99s.push(percentile(latencies, 0.99));
        }
    }

    /// Modeled cycles must repeat exactly from round to round: every
    /// round runs the same inputs.
    fn cycles_repeat(&self) -> bool {
        self.modeled_cycles.windows(2).all(|w| w[0] == w[1])
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("udpbench: {e}");
        std::process::exit(2);
    });
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    if args.workload == "serve-interactive" {
        // Before any thread starts, so every thread inherits the mask.
        if let Err(e) = pin_to_one_cpu() {
            eprintln!("udpbench: could not pin to one CPU: {e}");
            std::process::exit(1);
        }
    }
    let work = PathBuf::from(".udpbench-work").join(format!("run-{}", std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("udpbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// Keeps this process, and every thread it starts from now on, on the
/// lowest-numbered CPU it may use. `serve-interactive` runs this way:
/// its waves are too small to gain from a second core, and with two its
/// tail latency measured how fast the host woke the other virtual CPU.
/// The runtime's pool sizes itself from the mask, so it runs one worker.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable CPU set of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU set")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable CPU set of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Result<(), String> {
    Err("CPU affinity is only set on Linux".into())
}

/// Runs every workload in its own process, so each reports its own
/// peak memory, and forwards their output.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("udpbench: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("udpbench: {w} failed: {status:?}");
            code = 1;
        }
    }
    code
}

/// One workload: set up, run rounds, print the metrics. Returns whether
/// every output was correct.
fn run(args: &Args, work: &Path) -> Result<bool, String> {
    let mut bench: Box<dyn Bench> = match args.workload.as_str() {
        "etl-batch" => Box::new(EtlBench::new(args.seed, work)),
        "serve-interactive" => Box::new(ServeBench::interactive(args.seed, work)),
        _ => Box::new(ServeBench::ingest(args.seed, work)),
    };
    let mut tr = Tracer::new(args.trace);
    let mut setup_s = vec![bench.setup(&mut tr, 0)?];
    tr.set_on(false);

    // Warm-up: one untimed round, so caches fill and lazy set-up ends.
    let mut warm = Measure::default();
    bench.round(&mut tr, 0, &mut warm)?;
    bench.restart(&mut tr, 0, &mut warm)?;

    // Measured rounds until `--seconds` have passed. A traced run starts
    // by alternating untraced and traced rounds, so drift on the host
    // hits both alike and their ratio is the tracing overhead. Warm-up
    // requests are checked like the rest and count as attempted.
    let mut plain = Measure {
        attempted: warm.attempted,
        failed: warm.failed,
        ..Measure::default()
    };
    let mut traced = Measure::default();
    let t0 = Instant::now();
    let mut last_setup = t0;
    let mut r = 1;
    while plain.round_s.len() < MIN_ROUNDS
        || (args.trace && traced.round_s.len() < MIN_ROUNDS)
        || t0.elapsed().as_secs_f64() < args.seconds
    {
        let on = args.trace && r % 2 == 0 && traced.round_s.len() < TRACED_ROUNDS;
        tr.set_on(on);
        let m = if on { &mut traced } else { &mut plain };
        bench.round(&mut tr, r, m)?;
        bench.restart(&mut tr, r, m)?;
        r += 1;
        if setup_s.len() < MIN_SETUPS || last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            tr.set_on(args.trace);
            setup_s.push(bench.setup(&mut tr, setup_s.len() as u64)?);
            last_setup = Instant::now();
        }
    }

    let (m, metrics) = if args.trace {
        tr.set_on(true);
        let metrics = layer_metrics(&mut tr, bench.as_ref(), args, work, &plain, &traced)?;
        let dir = PathBuf::from(".udpbench-work").join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| tr.write_jsonl(&path)) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tr.span_count(),
                path.display()
            ),
            Err(e) => eprintln!("udpbench: could not write {}: {e}", path.display()),
        }
        let mut m = plain;
        m.attempted += traced.attempted;
        m.failed += traced.failed;
        m.modeled_cycles.extend(traced.modeled_cycles);
        (m, metrics)
    } else {
        let metrics = end_to_end(&plain, &setup_s);
        (plain, metrics)
    };

    let mut correct = m.failed == 0;
    if !m.cycles_repeat() || m.modeled_cycles.first() != warm.modeled_cycles.first() {
        eprintln!("udpbench: modeled cycles differ between identical rounds");
        correct = false;
    }
    print_result(&args.workload, correct, m.attempted, m.failed, &metrics);
    Ok(correct)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Where a per-layer value comes from: the workload's own spans or
    /// the layer probe.
    source: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
        source: "workload",
    }
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The share of a run's samples (rounds, set-ups, restarts) below the
/// value an end-to-end timing reports: its lower decile. The shared host
/// only ever adds time, in stretches of seconds that cover a varying
/// share of a run, and a run's faster samples are the ones it left
/// alone; a median moves with that share, the lower decile much less.
const SUMMARY_Q: f64 = 0.10;

fn end_to_end(m: &Measure, setup_s: &[f64]) -> Vec<Metric> {
    let low = |v: &[f64]| percentile(v, SUMMARY_Q);
    // Every round carries the same bytes, so the decile round time gives
    // the decile round throughput.
    let round_bytes = m.bytes as f64 / m.round_s.len() as f64;
    // Latency percentiles are taken per round, then summarised over the
    // rounds.
    let (p50, p99) = (low(&m.p50s), low(&m.p99s));
    vec![
        metric(
            "throughput_mbps",
            round_bytes / 1e6 / low(&m.round_s),
            "MB/s",
            m.round_s.len(),
        ),
        metric("p50_ms", p50 * 1e3, "ms", m.p50s.len()),
        metric("p99_ms", p99 * 1e3, "ms", m.p99s.len()),
        metric(
            "success_rate",
            (m.attempted - m.failed) as f64 / m.attempted as f64,
            "ratio",
            m.attempted as usize,
        ),
        metric("setup_s", low(setup_s), "s", setup_s.len()),
        metric("restart_s", low(&m.restart_s), "s", m.restart_s.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ]
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A span-timed metric: name, span names, request ids, request ids to
/// fall back on, unit.
type SpanRow = (
    String,
    Vec<&'static str>,
    Range<u64>,
    Option<Range<u64>>,
    &'static str,
);

/// The per-layer metrics of a traced run. `plain` and `traced` are the
/// untraced and traced rounds of the same process.
fn layer_metrics(
    tr: &mut Tracer,
    bench: &dyn Bench,
    args: &Args,
    work: &Path,
    plain: &Measure,
    traced: &Measure,
) -> Result<Vec<Metric>, String> {
    use trace::{
        PROBE_JOB_RANGE, PROBE_RANGE, PROBE_SEQ_RANGE, REQUEST_RANGE, RESTART_RANGE, SETUP_RANGE,
    };

    // The layer probe, traced.
    ledger::fixed_costs(tr, bench.csv(), args.seed)?;
    let etl = ledger::etl_fixture(args.seed, &work.join("probe-etl"))?;
    ledger::stages(tr, &etl.kernels, &etl.inputs.sets[0], &etl.refs[0])?;
    // Workloads without a journal of their own get the journaled session.
    let session = if traced.journal_records.is_empty() {
        Some(ledger::session(tr, args.seed, &work.join("probe-serve"))?)
    } else {
        None
    };

    // Each span-timed metric is the median over requests of the summed
    // self time of its spans; a workload without such spans falls back on
    // the probe's.
    let mut rows: Vec<SpanRow> = vec![
        (
            "compilers.translate_ms".into(),
            vec!["compilers.translate"],
            SETUP_RANGE,
            None,
            "ms",
        ),
        (
            "asm.assemble_ms".into(),
            vec!["asm.assemble", "asm.emit"],
            SETUP_RANGE,
            None,
            "ms",
        ),
        (
            "verify.verify_ms".into(),
            vec!["verify.verify"],
            SETUP_RANGE,
            None,
            "ms",
        ),
        (
            "store.build_ms".into(),
            vec!["store.open", "store.build"],
            SETUP_RANGE,
            None,
            "ms",
        ),
        (
            "store.load_ms".into(),
            vec!["store.load"],
            RESTART_RANGE,
            None,
            "ms",
        ),
        (
            "journal.replay_ms".into(),
            vec!["journal.replay"],
            RESTART_RANGE,
            Some(PROBE_JOB_RANGE),
            "ms",
        ),
        (
            "serve.submit_us".into(),
            vec!["serve.submit"],
            REQUEST_RANGE,
            Some(PROBE_JOB_RANGE),
            "us",
        ),
        (
            "sim.compile_us".into(),
            vec!["probe.compile"],
            PROBE_RANGE,
            None,
            "us",
        ),
        (
            "asm.predecode_us".into(),
            vec!["probe.predecode"],
            PROBE_RANGE,
            None,
            "us",
        ),
        (
            "sim.device_new_us".into(),
            vec!["probe.device_new"],
            PROBE_RANGE,
            None,
            "us",
        ),
    ];
    for (name, _, _) in ledger::WAVES {
        let metric = name.replace("probe.wave.", "sim.small_wave_us.");
        rows.push((metric, vec![name], PROBE_RANGE, None, "us"));
    }
    for stage in etl::STAGES {
        let metric = stage.replace("sim.stage.", "sim.stage_ms.");
        rows.push((metric, vec![stage], REQUEST_RANGE, Some(PROBE_RANGE), "ms"));
    }
    let mut out = Vec::new();
    for (name, names, reqs, fallback, unit) in rows {
        let mut source = if reqs == PROBE_RANGE {
            "probe"
        } else {
            "workload"
        };
        let mut v = tr.per_request(&names, reqs);
        if let (true, Some(f)) = (v.is_empty(), fallback) {
            v = tr.per_request(&names, f);
            source = "probe";
        }
        let scale = if unit == "ms" { 1e6 } else { 1e3 };
        out.push(Metric {
            source,
            ..metric(&name, median(&v) / scale, unit, v.len())
        });
    }

    let seq = tr.per_request(&etl::STAGES, PROBE_SEQ_RANGE);
    let pooled = tr.per_request(&etl::STAGES, PROBE_RANGE);
    out.push(Metric {
        source: "probe",
        ..metric(
            "sim.pool_speedup",
            median(&seq) / median(&pooled),
            "ratio",
            seq.len(),
        )
    });

    // Serve and journal counts: the workload's own when it has them.
    let probe_serve;
    let (serve_m, serve_src) = match &session {
        Some(s) if traced.submit_rounds == 0 => {
            let mut m = Measure::default();
            m.add_serve_round(&s.round, s.jobs);
            probe_serve = m;
            (&probe_serve, "probe")
        }
        _ => (traced, "workload"),
    };
    let with = |m: Metric, source| Metric { source, ..m };
    out.push(with(
        metric(
            "serve.jobs_per_wave",
            median(&serve_m.jobs_per_wave),
            "jobs/wave",
            serve_m.jobs_per_wave.len(),
        ),
        serve_src,
    ));
    out.push(with(
        metric(
            "serve.refused",
            serve_m.refused as f64,
            "count",
            serve_m.submit_rounds as usize,
        ),
        serve_src,
    ));
    out.push(with(
        metric(
            "serve.cycles_per_job",
            median(&serve_m.cycles_per_job),
            "cycles",
            serve_m.cycles_per_job.len(),
        ),
        serve_src,
    ));
    let (records, bytes_per_job, journal_src) = match &session {
        Some(s) => (vec![s.records as f64], vec![s.bytes_per_job], "probe"),
        None => (
            traced.journal_records.iter().map(|&r| r as f64).collect(),
            traced.journal_bytes_per_job.clone(),
            "workload",
        ),
    };
    out.push(with(
        metric("journal.records", median(&records), "count", records.len()),
        journal_src,
    ));
    out.push(with(
        metric(
            "journal.bytes_per_job",
            median(&bytes_per_job),
            "bytes/job",
            bytes_per_job.len(),
        ),
        journal_src,
    ));

    out.push(metric(
        "sim.clean_ratio",
        traced.clean as f64 / traced.chunks as f64,
        "ratio",
        traced.chunks as usize,
    ));
    out.push(metric(
        "sim.modeled_cycles",
        traced.modeled_cycles.first().copied().unwrap_or(0) as f64,
        "cycles",
        traced.modeled_cycles.len(),
    ));
    out.push(metric(
        "verify.certified",
        bench.certified() as f64,
        "count",
        1,
    ));
    // The untraced rounds that alternated with the traced ones.
    let paired = &plain.round_s[..plain.round_s.len().min(traced.round_s.len())];
    out.push(metric(
        "trace.overhead",
        median(&traced.round_s) / median(paired),
        "ratio",
        traced.round_s.len(),
    ));
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

fn print_result(workload: &str, correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{workload} {:<34} {:>16.6} {:<10} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.source
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
