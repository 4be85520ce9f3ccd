//! Service-level chaos: tries to break the `udp-serve` runtime's
//! invariant (DESIGN.md §10.6) the same way [`crate::harness`] tries to
//! break the device stack's:
//!
//! > **Hostile load surfaces only as typed [`ServeError`] values — the
//! > runtime never panics and never hangs a client.**
//!
//! Five service chaos modes, deliberately *not* added to
//! [`crate::FaultMode::ALL`] (that enum's cycling order is load-bearing
//! for the device-level plans and benchmarks):
//!
//! * [`ServeChaosMode::OverloadBurst`] — more submissions than the
//!   bounded queues hold, plus already-expired deadlines. Load must
//!   shed *only* as `Overloaded` / `DeadlineExceeded`, and every
//!   accepted job must still complete correctly.
//! * [`ServeChaosMode::ClientDisconnect`] — clients hang up mid-job
//!   (dropped tickets). The runtime must finish or shed the work,
//!   count the undeliverable results, and keep serving everyone else.
//! * [`ServeChaosMode::StalledReader`] — a socket peer opens a frame
//!   and stalls. The connection must time out without pinning the
//!   server; a concurrent well-behaved client must be served normally.
//! * [`ServeChaosMode::PoisonTenant`] — one tenant's jobs carry
//!   persistent chaos on a fallback-less kernel, so they quarantine.
//!   Only that tenant may be quarantined; its clean-tenant neighbors'
//!   outputs must match the software reference byte for byte.
//! * [`ServeChaosMode::KillMidJournal`] — a journaled service is
//!   killed (abort shutdown) and its write-ahead journal torn at a
//!   random byte before restart. The restart must succeed, replay the
//!   surviving prefix, and serve probes with typed outcomes only.
//!
//! Every wait goes through [`JobTicket::wait_timeout`], so a hang is
//! detected as a typed `ResultTimeout` violation instead of wedging the
//! fuzzer. The `serve_fuzz` binary in `udp-bench` runs seeded
//! iterations of the plan on both execution backends; `scripts/ci.sh`
//! gates on zero violations.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use udp_codecs::fallback::CsvFramingFallback;
use udp_serve::{
    ChaosSpec, JobOutcome, JobSpec, JobTicket, OverloadScope, ServeConfig, ServeError,
    ServeRuntime, ServeStats, Shutdown, TenantQuota,
};
use udp_sim::ReferenceFallback;
use udp_workloads::lineitem_csv;

/// Upper bound on any single result wait — the hang detector. Far
/// above any real wave time; only a wedged runtime reaches it.
const HANG_LIMIT: Duration = Duration::from_secs(30);

/// The service-level chaos modes (separate from [`crate::FaultMode`];
/// see the module docs for why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeChaosMode {
    /// Saturate the bounded queues and submit expired deadlines.
    OverloadBurst,
    /// Drop job tickets mid-flight (client hangs up).
    ClientDisconnect,
    /// Open a socket frame and stall (socket transport only).
    StalledReader,
    /// One tenant's jobs persistently poison lanes and must be
    /// quarantined without collateral damage.
    PoisonTenant,
    /// A journaled service dies mid-append; its journal is torn at a
    /// random byte and the restart must recover the surviving prefix.
    KillMidJournal,
}

impl ServeChaosMode {
    /// Every mode, in plan cycling order.
    pub const ALL: [ServeChaosMode; 5] = [
        ServeChaosMode::OverloadBurst,
        ServeChaosMode::ClientDisconnect,
        ServeChaosMode::StalledReader,
        ServeChaosMode::PoisonTenant,
        ServeChaosMode::KillMidJournal,
    ];

    /// Stable kebab-case name (summaries, JSON).
    pub fn name(self) -> &'static str {
        match self {
            ServeChaosMode::OverloadBurst => "overload-burst",
            ServeChaosMode::ClientDisconnect => "client-disconnect",
            ServeChaosMode::StalledReader => "stalled-reader",
            ServeChaosMode::PoisonTenant => "poison-tenant",
            ServeChaosMode::KillMidJournal => "kill-mid-journal",
        }
    }
}

/// Per-mode counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeModeStats {
    /// Cases executed.
    pub runs: u64,
    /// Invariant violations (panics, hangs, wrong outputs, collateral
    /// quarantines, untyped shedding).
    pub violations: u64,
    /// Jobs that completed with an output across the mode's cases.
    pub completed: u64,
    /// Requests shed with typed `Overloaded` / `DeadlineExceeded`.
    pub shed: u64,
    /// Jobs quarantined by the supervisor ladder.
    pub quarantined: u64,
    /// Results dropped because the client had hung up.
    pub dropped: u64,
}

/// Aggregate result of a service-chaos fuzzing run.
#[derive(Debug, Clone)]
pub struct ServeFuzzSummary {
    /// Plan seed.
    pub seed: u64,
    /// Cases executed across modes.
    pub iters: u64,
    /// Counters per mode, indexed like [`ServeChaosMode::ALL`].
    pub stats: Vec<(ServeChaosMode, ServeModeStats)>,
    /// Human-readable description of every violation.
    pub violations: Vec<String>,
}

impl ServeFuzzSummary {
    /// Total invariant violations.
    pub fn panics(&self) -> u64 {
        self.violations.len() as u64
    }
}

impl std::fmt::Display for ServeFuzzSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve_fuzz seed={:#x} iters={} panics={}",
            self.seed,
            self.iters,
            self.panics()
        )?;
        for (mode, s) in &self.stats {
            writeln!(
                f,
                "mode={} runs={} violations={} completed={} shed={} \
                 quarantined={} dropped={}",
                mode.name(),
                s.runs,
                s.violations,
                s.completed,
                s.shed,
                s.quarantined,
                s.dropped
            )?;
        }
        for v in &self.violations {
            writeln!(f, "violation {v}")?;
        }
        Ok(())
    }
}

/// The reference implementation the serve checks compare against —
/// identical to the `csv` builtin kernel's fallback rung.
fn csv_reference() -> Arc<dyn ReferenceFallback> {
    Arc::new(CsvFramingFallback {
        delimiter: b',',
        quote: b'"',
        field_sep: udp_compilers::FIELD_SEP,
        record_sep: udp_compilers::RECORD_SEP,
    })
}

fn expect_output(reference: &dyn ReferenceFallback, input: &[u8]) -> Vec<u8> {
    reference
        .reference_output(input)
        .unwrap_or_else(|e| panic!("reference refused clean input: {e}"))
}

/// A fuzz-sized runtime. Queue bounds are small so overload is cheap to
/// provoke; `parallel` is drawn per case so both pool paths see chaos.
fn fuzz_runtime(rng: &mut SmallRng, queue_capacity: usize) -> Result<ServeRuntime, ServeError> {
    ServeRuntime::start_with_builtin_kernels(ServeConfig {
        queue_capacity,
        max_wave: 8,
        parallel: rng.gen::<bool>(),
        default_quota: TenantQuota {
            max_queued: 4,
            cycle_budget: None,
        },
        quarantine_strikes: 1,
        ..ServeConfig::default()
    })
}

/// Collects a ticket with the hang detector, pushing a violation string
/// for a hang or a runtime teardown.
fn settle(
    ticket: JobTicket,
    mode: ServeChaosMode,
    what: &str,
    violations: &mut Vec<String>,
) -> Option<Result<udp_serve::JobOutput, ServeError>> {
    match ticket.wait_timeout(HANG_LIMIT) {
        Err(ServeError::ResultTimeout { waited_ms }) => {
            violations.push(format!(
                "mode={} {what}: HUNG (no result after {waited_ms} ms)",
                mode.name()
            ));
            None
        }
        Err(ServeError::RuntimeGone) => {
            violations.push(format!(
                "mode={} {what}: runtime dropped the job without a result",
                mode.name()
            ));
            None
        }
        other => Some(other),
    }
}

/// One `OverloadBurst` case: saturate the queue while dispatch is
/// paused, mix in already-expired deadlines, then resume and demand
/// that every accepted job completes correctly and every refusal was
/// typed.
fn run_overload_burst(seed: u64, stats: &mut ServeModeStats, violations: &mut Vec<String>) {
    let mode = ServeChaosMode::OverloadBurst;
    let mut rng = SmallRng::seed_from_u64(seed);
    let reference = csv_reference();
    let rt = match fuzz_runtime(&mut rng, 6) {
        Ok(rt) => rt,
        Err(e) => {
            violations.push(format!("mode={} runtime failed to start: {e}", mode.name()));
            return;
        }
    };
    let handle = rt.handle();
    handle.pause();
    let mut accepted: Vec<(JobTicket, Vec<u8>)> = Vec::new();
    let mut expired: Vec<JobTicket> = Vec::new();
    let mut shed = 0u64;
    let burst = 16 + rng.gen_range(0..8usize);
    for i in 0..burst {
        let tenant = format!("t{}", i % 5);
        let payload = format!("r{i},{seed}\n").into_bytes();
        let mut spec = JobSpec::new(tenant, "csv", payload.clone());
        // A slice of the burst carries an effectively-expired deadline:
        // it must shed as DeadlineExceeded at dispatch, never execute
        // into a late delivery.
        let expires = rng.gen_range(0..4u32) == 0;
        if expires {
            spec = spec.with_deadline(Duration::from_millis(1));
        }
        match handle.submit(spec) {
            Ok(ticket) if expires => expired.push(ticket),
            Ok(ticket) => accepted.push((ticket, payload)),
            Err(ServeError::Overloaded {
                scope,
                queued,
                capacity,
            }) => {
                shed += 1;
                let plausible = match scope {
                    OverloadScope::Queue => queued >= capacity,
                    OverloadScope::Tenant => queued >= capacity,
                };
                if !plausible {
                    violations.push(format!(
                        "mode={} overload shed with queued={queued} < capacity={capacity}",
                        mode.name()
                    ));
                }
            }
            Err(other) => violations.push(format!(
                "mode={} untyped/unexpected admission refusal: {other}",
                mode.name()
            )),
        }
    }
    if shed == 0 {
        violations.push(format!(
            "mode={} burst of {burst} against capacity 6 shed nothing",
            mode.name()
        ));
    }
    // Let the expired deadlines actually expire before dispatch runs.
    std::thread::sleep(Duration::from_millis(5));
    handle.resume();
    for (ticket, payload) in accepted {
        match settle(ticket, mode, "accepted burst job", violations) {
            Some(Ok(out)) => {
                stats.completed += 1;
                let expect = expect_output(reference.as_ref(), &payload);
                if out.output != expect {
                    violations.push(format!(
                        "mode={} burst job output diverges from the reference",
                        mode.name()
                    ));
                }
            }
            Some(Err(ServeError::DeadlineExceeded { .. })) => shed += 1,
            Some(Err(e)) => violations.push(format!(
                "mode={} accepted job failed untypically: {e}",
                mode.name()
            )),
            None => {}
        }
    }
    for ticket in expired {
        match settle(ticket, mode, "expired-deadline job", violations) {
            Some(Err(ServeError::DeadlineExceeded { .. })) => shed += 1,
            // The scheduler may still beat a 1 ms deadline when the
            // pause window was short; a correct on-time result is fine.
            Some(Ok(_)) => stats.completed += 1,
            Some(Err(e)) => violations.push(format!(
                "mode={} expired job shed untypically: {e}",
                mode.name()
            )),
            None => {}
        }
    }
    let final_stats = rt.shutdown(Shutdown::Drain);
    stats.shed += shed;
    check_clean_service(mode, &final_stats, violations);
}

/// One `ClientDisconnect` case: drop a random half of the tickets
/// before the scheduler runs; survivors must complete correctly and the
/// runtime must account the undeliverable results without erroring.
fn run_client_disconnect(seed: u64, stats: &mut ServeModeStats, violations: &mut Vec<String>) {
    let mode = ServeChaosMode::ClientDisconnect;
    let mut rng = SmallRng::seed_from_u64(seed);
    let reference = csv_reference();
    let rt = match fuzz_runtime(&mut rng, 64) {
        Ok(rt) => rt,
        Err(e) => {
            violations.push(format!("mode={} runtime failed to start: {e}", mode.name()));
            return;
        }
    };
    let handle = rt.handle();
    handle.pause();
    let mut kept: Vec<(JobTicket, Vec<u8>)> = Vec::new();
    let mut dropped = 0u64;
    for i in 0..12 {
        let tenant = format!("t{}", i % 3);
        let payload = format!("d{i},{seed}\n").into_bytes();
        match handle.submit(JobSpec::new(tenant, "csv", payload.clone())) {
            Ok(ticket) => {
                if rng.gen::<bool>() {
                    drop(ticket); // the client hangs up mid-job
                    dropped += 1;
                } else {
                    kept.push((ticket, payload));
                }
            }
            Err(e) => violations.push(format!(
                "mode={} submission refused unexpectedly: {e}",
                mode.name()
            )),
        }
    }
    handle.resume();
    for (ticket, payload) in kept {
        match settle(ticket, mode, "surviving client", violations) {
            Some(Ok(out)) => {
                stats.completed += 1;
                if out.output != expect_output(reference.as_ref(), &payload) {
                    violations.push(format!(
                        "mode={} surviving client got a wrong output",
                        mode.name()
                    ));
                }
            }
            Some(Err(e)) => {
                violations.push(format!("mode={} surviving client failed: {e}", mode.name()))
            }
            None => {}
        }
    }
    let final_stats = rt.shutdown(Shutdown::Drain);
    if final_stats.results_dropped < dropped {
        violations.push(format!(
            "mode={} dropped {dropped} tickets but results_dropped={}",
            mode.name(),
            final_stats.results_dropped
        ));
    }
    stats.dropped += final_stats.results_dropped;
    check_clean_service(mode, &final_stats, violations);
}

/// One `StalledReader` case (socket transport): a peer writes half a
/// length prefix and stalls. The server's read timeout must reclaim the
/// handler, and a well-behaved client must be served concurrently.
#[cfg(unix)]
fn run_stalled_reader(seed: u64, stats: &mut ServeModeStats, violations: &mut Vec<String>) {
    use std::io::Write;

    let mode = ServeChaosMode::StalledReader;
    let mut rng = SmallRng::seed_from_u64(seed);
    let reference = csv_reference();
    let rt = match fuzz_runtime(&mut rng, 64) {
        Ok(rt) => rt,
        Err(e) => {
            violations.push(format!("mode={} runtime failed to start: {e}", mode.name()));
            return;
        }
    };
    let sock_path = std::env::temp_dir().join(format!(
        "udp-serve-fuzz-{}-{seed:x}.sock",
        std::process::id()
    ));
    let server = match udp_serve::SocketServer::bind(
        &sock_path,
        rt.handle(),
        udp_serve::SocketConfig {
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_millis(200),
            ..udp_serve::SocketConfig::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!("mode={} socket bind failed: {e}", mode.name()));
            return;
        }
    };
    // The stalled peer: half a length prefix, then silence.
    let staller = std::os::unix::net::UnixStream::connect(&sock_path);
    match &staller {
        Ok(s) => {
            let mut s = s;
            let _ = s.write_all(&[0x04, 0x00]); // half of a u32 length
        }
        Err(e) => violations.push(format!("mode={} staller connect failed: {e}", mode.name())),
    }
    // A well-behaved client must be served while the staller squats.
    let payload = format!("s,{seed}\n").into_bytes();
    match udp_serve::ServeClient::connect(&sock_path, HANG_LIMIT) {
        Ok(mut client) => match client.submit(JobSpec::new("good", "csv", payload.clone())) {
            Ok(Ok(out)) => {
                stats.completed += 1;
                if out.output != expect_output(reference.as_ref(), &payload) {
                    violations.push(format!(
                        "mode={} well-behaved client got a wrong output",
                        mode.name()
                    ));
                }
            }
            Ok(Err(remote)) => violations.push(format!(
                "mode={} well-behaved client refused: code={} {}",
                mode.name(),
                remote.code,
                remote.message
            )),
            Err(e) => violations.push(format!(
                "mode={} well-behaved client transport error: {e}",
                mode.name()
            )),
        },
        Err(e) => violations.push(format!("mode={} client connect failed: {e}", mode.name())),
    }
    // Give the server's read timeout room to reclaim the stalled
    // handler, then confirm the service is still healthy end to end.
    std::thread::sleep(Duration::from_millis(250));
    match udp_serve::ServeClient::connect(&sock_path, HANG_LIMIT) {
        Ok(mut client) => {
            if let Err(e) = client.call(&udp_serve::Request::Ping) {
                violations.push(format!("mode={} ping after stall failed: {e}", mode.name()));
            }
        }
        Err(e) => violations.push(format!(
            "mode={} reconnect after stall failed: {e}",
            mode.name()
        )),
    }
    drop(staller);
    server.stop();
    let final_stats = rt.shutdown(Shutdown::Drain);
    check_clean_service(mode, &final_stats, violations);
}

#[cfg(not(unix))]
fn run_stalled_reader(_seed: u64, _stats: &mut ServeModeStats, _violations: &mut Vec<String>) {}

/// One `PoisonTenant` case: the poison tenant's jobs carry persistent
/// chaos on a fallback-less kernel and must quarantine — the tenant
/// after its first strike — while clean tenants' outputs stay
/// reference-identical and their tenancy untouched.
fn run_poison_tenant(seed: u64, stats: &mut ServeModeStats, violations: &mut Vec<String>) {
    let mode = ServeChaosMode::PoisonTenant;
    let mut rng = SmallRng::seed_from_u64(seed);
    let reference = csv_reference();
    let rt = match fuzz_runtime(&mut rng, 64) {
        Ok(rt) => rt,
        Err(e) => {
            violations.push(format!("mode={} runtime failed to start: {e}", mode.name()));
            return;
        }
    };
    let handle = rt.handle();
    // The poison kernel: same CSV image, no reference fallback — the
    // ladder's second rung is missing, so persistent chaos quarantines.
    match udp_serve::csv_kernel() {
        Ok((image, _)) => {
            if let Err(e) = handle.register_kernel("csv-raw", image, None) {
                violations.push(format!(
                    "mode={} poison kernel registration failed: {e}",
                    mode.name()
                ));
                return;
            }
        }
        Err(e) => {
            violations.push(format!("mode={} csv kernel failed: {e}", mode.name()));
            return;
        }
    }
    handle.pause();
    // Clean tenants: small payloads, far below the chaos point.
    let mut clean: Vec<(JobTicket, Vec<u8>, String)> = Vec::new();
    for i in 0..4 {
        let tenant = format!("clean{i}");
        let payload = format!("c{i},{seed}\n").into_bytes();
        match handle.submit(JobSpec::new(tenant.clone(), "csv", payload.clone())) {
            Ok(t) => clean.push((t, payload, tenant)),
            Err(e) => violations.push(format!(
                "mode={} clean submission refused: {e}",
                mode.name()
            )),
        }
    }
    // The poison job: a long payload whose cycle count crosses the
    // chaos point; persistent, so replays re-fault, and with no
    // fallback the ladder ends in quarantine.
    let long = lineitem_csv(1024, seed);
    let chaos = ChaosSpec {
        fault_at: Some(200 + rng.gen_range(0..200u64)),
        panic_at: None,
        transient: false,
    };
    let mut poison_spec = JobSpec::new("poison", "csv-raw", long);
    poison_spec.chaos = Some(chaos);
    let poison_ticket = match handle.submit(poison_spec) {
        Ok(t) => Some(t),
        Err(e) => {
            violations.push(format!(
                "mode={} poison submission refused: {e}",
                mode.name()
            ));
            None
        }
    };
    handle.resume();
    if let Some(ticket) = poison_ticket {
        match settle(ticket, mode, "poison job", violations) {
            Some(Err(ServeError::JobQuarantined { fault })) => {
                stats.quarantined += 1;
                if fault != "chaos-injected" {
                    violations.push(format!(
                        "mode={} poison quarantined with unexpected fault {fault}",
                        mode.name()
                    ));
                }
            }
            Some(Ok(_)) => violations.push(format!(
                "mode={} poison job completed instead of quarantining",
                mode.name()
            )),
            Some(Err(e)) => violations.push(format!(
                "mode={} poison job failed untypically: {e}",
                mode.name()
            )),
            None => {}
        }
    }
    // The offender must now be tenant-quarantined...
    match handle.submit(JobSpec::new("poison", "csv", b"x,y\n".to_vec())) {
        Err(ServeError::TenantQuarantined { strikes }) if strikes >= 1 => {}
        other => violations.push(format!(
            "mode={} poison tenant re-admitted after quarantine: {other:?}",
            mode.name()
        )),
    }
    // ...and only the offender: clean tenants keep full service.
    for (ticket, payload, tenant) in clean {
        match settle(ticket, mode, "clean neighbor", violations) {
            Some(Ok(out)) => {
                stats.completed += 1;
                if out.outcome != JobOutcome::Clean {
                    violations.push(format!(
                        "mode={} clean neighbor {tenant} came through {:?}",
                        mode.name(),
                        out.outcome
                    ));
                }
                if out.output != expect_output(reference.as_ref(), &payload) {
                    violations.push(format!(
                        "mode={} clean neighbor {tenant} output diverges",
                        mode.name()
                    ));
                }
            }
            Some(Err(e)) => violations.push(format!(
                "mode={} clean neighbor {tenant} failed: {e}",
                mode.name()
            )),
            None => {}
        }
        match handle.submit(JobSpec::new(tenant.clone(), "csv", payload)) {
            Ok(t) => match settle(t, mode, "clean resubmission", violations) {
                Some(Ok(_)) => stats.completed += 1,
                Some(Err(e)) => violations.push(format!(
                    "mode={} clean resubmission by {tenant} failed: {e}",
                    mode.name()
                )),
                None => {}
            },
            Err(e) => violations.push(format!(
                "mode={} clean tenant {tenant} lost service: {e}",
                mode.name()
            )),
        }
    }
    let final_stats = rt.shutdown(Shutdown::Drain);
    if final_stats.tenants_quarantined != 1 {
        violations.push(format!(
            "mode={} expected exactly 1 quarantined tenant, stats say {}",
            mode.name(),
            final_stats.tenants_quarantined
        ));
    }
}

/// One `KillMidJournal` case: a journaled service registers its
/// kernels from the artifact store, runs jobs, quarantines a tenant —
/// then dies (abort) and has its journal torn at a random byte. The
/// restart must replay the surviving prefix and keep serving: a probe
/// job either completes reference-identically or is refused with the
/// typed `UnknownKernel` (its registration record was in the torn
/// tail). Anything else — a failed restart, a panic, a hang — is a
/// violation.
fn run_kill_mid_journal(seed: u64, stats: &mut ServeModeStats, violations: &mut Vec<String>) {
    let mode = ServeChaosMode::KillMidJournal;
    let mut rng = SmallRng::seed_from_u64(seed);
    let reference = csv_reference();
    let root =
        std::env::temp_dir().join(format!("udp-serve-killj-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = match udp_store::ArtifactStore::open_with(root.join("store"), false) {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!("mode={} store failed to open: {e}", mode.name()));
            return;
        }
    };
    let journal = root.join("serve.journal");
    let parallel = rng.gen::<bool>();
    let config = || ServeConfig {
        queue_capacity: 64,
        max_wave: 8,
        parallel,
        default_quota: TenantQuota {
            max_queued: 8,
            cycle_budget: None,
        },
        quarantine_strikes: 1,
        journal_sync: false,
        ..ServeConfig::default()
    };
    let rt = match ServeRuntime::start_journaled(config(), &journal, &store) {
        Ok(rt) => rt,
        Err(e) => {
            violations.push(format!("mode={} runtime failed to start: {e}", mode.name()));
            return;
        }
    };
    let handle = rt.handle();
    let registered = udp_serve::csv_kernel_artifact(&store).and_then(|(artifact, fallback)| {
        handle.register_artifact("csv", &artifact, Some(fallback))?;
        handle.register_artifact("csv-raw", &artifact, None)
    });
    if let Err(e) = registered {
        violations.push(format!(
            "mode={} artifact registration failed: {e}",
            mode.name()
        ));
        return;
    }
    // Pre-kill history: clean work plus a quarantined tenant, so the
    // journal holds registers, charges, a strike, and a quarantine. The
    // clean jobs queue under pause and run as one wave, so their charges
    // are one multi-record commit the tear below can land inside.
    handle.pause();
    let mut tickets = Vec::new();
    for i in 0..3 {
        let payload = format!("k{i},{seed}\n").into_bytes();
        match handle.submit(JobSpec::new(format!("t{}", i % 2), "csv", payload)) {
            Ok(t) => tickets.push(t),
            Err(e) => violations.push(format!(
                "mode={} pre-kill submission refused: {e}",
                mode.name()
            )),
        }
    }
    handle.resume();
    for t in tickets {
        match settle(t, mode, "pre-kill job", violations) {
            Some(Ok(_)) => stats.completed += 1,
            Some(Err(e)) => {
                violations.push(format!("mode={} pre-kill job failed: {e}", mode.name()))
            }
            None => {}
        }
    }
    let mut poison = JobSpec::new("poison", "csv-raw", lineitem_csv(1024, seed));
    poison.chaos = Some(ChaosSpec {
        fault_at: Some(200 + rng.gen_range(0..200u64)),
        panic_at: None,
        transient: false,
    });
    match handle.submit(poison) {
        Ok(t) => match settle(t, mode, "poison job", violations) {
            Some(Err(ServeError::JobQuarantined { .. })) => stats.quarantined += 1,
            Some(other) => violations.push(format!(
                "mode={} poison job did not quarantine: {other:?}",
                mode.name()
            )),
            None => {}
        },
        Err(e) => violations.push(format!(
            "mode={} poison submission refused: {e}",
            mode.name()
        )),
    }
    // The kill: abort, then tear the journal at a random byte.
    rt.shutdown(Shutdown::Abort);
    let len = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    if len == 0 {
        violations.push(format!(
            "mode={} journal is empty before the tear",
            mode.name()
        ));
    }
    let cut = rng.gen_range(0..=len);
    if let Err(e) = std::fs::OpenOptions::new()
        .write(true)
        .open(&journal)
        .and_then(|f| f.set_len(cut))
    {
        violations.push(format!("mode={} journal tear failed: {e}", mode.name()));
    }
    // The restart: must come up from the torn journal, no exceptions.
    let rt2 = match ServeRuntime::start_journaled(config(), &journal, &store) {
        Ok(rt) => rt,
        Err(e) => {
            violations.push(format!(
                "mode={} restart from torn journal failed: {e}",
                mode.name()
            ));
            return;
        }
    };
    let probe_payload = format!("probe,{seed}\n").into_bytes();
    match rt2
        .handle()
        .submit(JobSpec::new("prober", "csv", probe_payload.clone()))
    {
        Ok(t) => match settle(t, mode, "post-restart probe", violations) {
            Some(Ok(out)) => {
                stats.completed += 1;
                if out.output != expect_output(reference.as_ref(), &probe_payload) {
                    violations.push(format!(
                        "mode={} post-restart probe output diverges",
                        mode.name()
                    ));
                }
            }
            Some(Err(e)) => violations.push(format!(
                "mode={} post-restart probe failed untypically: {e}",
                mode.name()
            )),
            None => {}
        },
        // The cut may have torn away the registration record itself —
        // a typed refusal naming the kernel is the correct prefix
        // semantics, not a violation.
        Err(ServeError::UnknownKernel { .. }) => {}
        Err(e) => violations.push(format!(
            "mode={} post-restart probe refused untypically: {e}",
            mode.name()
        )),
    }
    rt2.shutdown(Shutdown::Drain);
    let _ = std::fs::remove_dir_all(&root);
}

/// Post-case sanity shared by the non-quarantine modes: no job was
/// quarantined and no tenant collaterally isolated.
fn check_clean_service(mode: ServeChaosMode, s: &ServeStats, violations: &mut Vec<String>) {
    if s.quarantined_jobs != 0 || s.tenants_quarantined != 0 {
        violations.push(format!(
            "mode={} collateral quarantine: jobs={} tenants={}",
            mode.name(),
            s.quarantined_jobs,
            s.tenants_quarantined
        ));
    }
}

/// Runs `iters` service-chaos cases, cycling [`ServeChaosMode::ALL`],
/// with the default panic hook silenced (deliberate chaos panics inside
/// lanes would otherwise spray backtraces). Deterministic per
/// `(seed, iters)` up to wall-clock racing on deadline expiry, which
/// the checks treat as either-typed-outcome-is-fine.
pub fn run_serve_plan(seed: u64, iters: u64) -> ServeFuzzSummary {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut stats: Vec<(ServeChaosMode, ServeModeStats)> = ServeChaosMode::ALL
        .iter()
        .map(|&m| (m, ServeModeStats::default()))
        .collect();
    let mut violations = Vec::new();
    for i in 0..iters {
        let mode = ServeChaosMode::ALL[(i % ServeChaosMode::ALL.len() as u64) as usize];
        let case_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let entry = stats.iter_mut().find(|(m, _)| *m == mode).map(|(_, s)| s);
        let Some(s) = entry else { continue };
        s.runs += 1;
        let before = violations.len();
        match mode {
            ServeChaosMode::OverloadBurst => run_overload_burst(case_seed, s, &mut violations),
            ServeChaosMode::ClientDisconnect => {
                run_client_disconnect(case_seed, s, &mut violations)
            }
            ServeChaosMode::StalledReader => run_stalled_reader(case_seed, s, &mut violations),
            ServeChaosMode::PoisonTenant => run_poison_tenant(case_seed, s, &mut violations),
            ServeChaosMode::KillMidJournal => run_kill_mid_journal(case_seed, s, &mut violations),
        }
        s.violations += (violations.len() - before) as u64;
    }
    std::panic::set_hook(prev_hook);
    ServeFuzzSummary {
        seed,
        iters,
        stats,
        violations,
    }
}

/// The CI smoke scenario: one mixed batch — clean tenants, an overload
/// burst, and a poison tenant — through one runtime. Gates on zero
/// violations; returns the joined violation text otherwise.
pub fn run_smoke(seed: u64) -> Result<ServeFuzzSummary, String> {
    let summary = run_serve_plan(seed, ServeChaosMode::ALL.len() as u64);
    if summary.panics() == 0 {
        Ok(summary)
    } else {
        Err(summary.violations.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cycle_of_every_mode_is_violation_free() {
        let summary = run_serve_plan(0x5EEDED, ServeChaosMode::ALL.len() as u64);
        assert_eq!(
            summary.panics(),
            0,
            "violations:\n{}",
            summary.violations.join("\n")
        );
        for (_, s) in &summary.stats {
            assert_eq!(s.runs, 1);
        }
        let text = summary.to_string();
        assert!(text.starts_with("serve_fuzz seed=0x5eeded iters=5 panics=0"));
        assert!(text.contains("mode=overload-burst "));
        assert!(text.contains("mode=poison-tenant "));
        assert!(text.contains("mode=kill-mid-journal "));
    }

    #[test]
    fn smoke_gate_passes_at_the_ci_seed() {
        let summary = run_smoke(0xC1).expect("smoke must be violation-free");
        assert_eq!(summary.panics(), 0);
    }
}
