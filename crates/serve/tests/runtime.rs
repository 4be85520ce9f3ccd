//! Service-runtime contracts (DESIGN.md §10): typed admission control,
//! quota enforcement, deadline shedding, per-tenant quarantine, and the
//! exactly-once delivery guarantee through drain and abort shutdowns.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use udp_serve::journal::{self, JournalRecord};
use udp_serve::{
    csv_kernel_artifact, ChaosSpec, JobOutcome, JobSpec, OverloadScope, ServeConfig, ServeError,
    ServeRuntime, Shutdown, TenantQuota,
};
use udp_sim::SimError;
use udp_store::ArtifactStore;

fn small_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 4,
        max_wave: 4,
        parallel: false,
        default_quota: TenantQuota {
            max_queued: 2,
            cycle_budget: None,
        },
        ..ServeConfig::default()
    }
}

fn csv_job(tenant: &str, payload: &[u8]) -> JobSpec {
    JobSpec::new(tenant, "csv", payload.to_vec())
}

#[test]
fn jobs_complete_with_kernel_output() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    let t = handle.submit(csv_job("alice", b"a,b\n")).unwrap();
    let out = t.wait().unwrap();
    assert_eq!(out.output, b"a\x1fb\x1f\x1e");
    assert_eq!(out.outcome, JobOutcome::Clean);
    assert!(out.cycles > 0);
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.accepted, 1);
}

#[test]
fn unknown_kernel_and_post_shutdown_submissions_are_typed() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    match handle.submit(csv_job("alice", b"x").kernel("nope")) {
        Err(ServeError::UnknownKernel { name }) => assert_eq!(name, "nope"),
        other => panic!("expected UnknownKernel, got {other:?}"),
    }
    handle.begin_shutdown(Shutdown::Drain);
    match handle.submit(csv_job("alice", b"x,y\n")) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

trait SpecExt {
    fn kernel(self, k: &str) -> JobSpec;
}

impl SpecExt for JobSpec {
    fn kernel(mut self, k: &str) -> JobSpec {
        self.kernel = k.to_string();
        self
    }
}

#[test]
fn bounded_queues_shed_with_typed_overload() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    handle.pause();
    // Tenant bound (2) fires first for a single tenant.
    let _a = handle.submit(csv_job("greedy", b"1\n")).unwrap();
    let _b = handle.submit(csv_job("greedy", b"2\n")).unwrap();
    match handle.submit(csv_job("greedy", b"3\n")) {
        Err(ServeError::Overloaded {
            scope: OverloadScope::Tenant,
            queued: 2,
            capacity: 2,
        }) => {}
        other => panic!("expected tenant Overloaded, got {other:?}"),
    }
    // Fill the global queue (capacity 4) with other tenants.
    let _c = handle.submit(csv_job("t1", b"4\n")).unwrap();
    let _d = handle.submit(csv_job("t2", b"5\n")).unwrap();
    match handle.submit(csv_job("t3", b"6\n")) {
        Err(ServeError::Overloaded {
            scope: OverloadScope::Queue,
            queued: 4,
            capacity: 4,
        }) => {}
        other => panic!("expected queue Overloaded, got {other:?}"),
    }
    handle.resume();
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.shed_overload, 2);
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.completed, 4);
}

#[test]
fn cycle_quota_exhausts_and_refills() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    // The csv kernel is certified, so admission reserves the certified
    // worst case up front: a budget covering exactly one job admits the
    // first submission and refuses the second by forecast.
    let cert = handle.kernel_cert("csv").expect("csv kernel is certified");
    let bound = cert.cycle_bound(4).expect("complete certificate");
    let budget = bound + 1;
    handle.set_quota(
        "metered",
        TenantQuota {
            max_queued: 8,
            cycle_budget: Some(budget),
        },
    );
    handle
        .submit(csv_job("metered", b"a,b\n"))
        .unwrap()
        .wait()
        .unwrap();
    let used = match handle.submit(csv_job("metered", b"c,d\n")) {
        Err(ServeError::QuotaExhausted { used, budget: b }) if b == budget => used,
        other => panic!("expected QuotaExhausted, got {other:?}"),
    };
    // Actual usage is charged, and it respects the certified bound.
    assert!(used >= 1);
    assert!(used <= bound);
    // An operator refill restores service.
    handle.refill_quota("metered", used);
    handle
        .submit(csv_job("metered", b"c,d\n"))
        .unwrap()
        .wait()
        .unwrap();
    rt.shutdown(Shutdown::Drain);
}

#[test]
fn expired_deadlines_shed_and_outputs_are_never_delivered_late() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    handle.pause();
    let doomed = handle
        .submit(csv_job("d", b"x,y\n").with_deadline(Duration::from_millis(1)))
        .unwrap();
    let healthy = handle
        .submit(csv_job("d", b"x,y\n").with_deadline(Duration::from_secs(60)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    handle.resume();
    match doomed.wait() {
        Err(ServeError::DeadlineExceeded { waited_ms }) => assert!(waited_ms >= 1),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(healthy.wait().unwrap().output, b"x\x1fy\x1f\x1e");
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.shed_deadline, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn deadline_shedding_is_not_a_tenant_strike() {
    let rt = ServeRuntime::start_with_builtin_kernels(ServeConfig {
        quarantine_strikes: 1,
        ..small_config()
    })
    .unwrap();
    let handle = rt.handle();
    handle.pause();
    let doomed = handle
        .submit(csv_job("hurried", b"x,y\n").with_deadline(Duration::from_millis(1)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    handle.resume();
    assert!(matches!(
        doomed.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    // The tenant keeps full service: a missed deadline is the queue's
    // fault, not a poison kernel.
    let out = handle.submit(csv_job("hurried", b"x,y\n")).unwrap().wait();
    assert_eq!(out.unwrap().output, b"x\x1fy\x1f\x1e");
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.tenants_quarantined, 0);
}

#[test]
fn poison_tenant_quarantines_alone() {
    let rt = ServeRuntime::start_with_builtin_kernels(ServeConfig {
        quarantine_strikes: 1,
        ..small_config()
    })
    .unwrap();
    let handle = rt.handle();
    // A fallback-less copy of the kernel: persistent chaos has no
    // second rung, so the ladder ends in quarantine.
    let (image, _) = udp_serve::csv_kernel().unwrap();
    handle.register_kernel("csv-raw", image, None).unwrap();
    handle.pause();
    let clean = handle.submit(csv_job("innocent", b"k,v\n")).unwrap();
    let long = udp_workloads::lineitem_csv(1024, 7);
    let mut poison = JobSpec::new("poison", "csv-raw", long);
    poison.chaos = Some(ChaosSpec {
        fault_at: Some(300),
        panic_at: None,
        transient: false,
    });
    let poison_ticket = handle.submit(poison).unwrap();
    handle.resume();

    match poison_ticket.wait() {
        Err(ServeError::JobQuarantined { fault }) => assert_eq!(fault, "chaos-injected"),
        other => panic!("expected JobQuarantined, got {other:?}"),
    }
    assert_eq!(clean.wait().unwrap().output, b"k\x1fv\x1f\x1e");
    // The offender is out...
    match handle.submit(csv_job("poison", b"x,y\n")) {
        Err(ServeError::TenantQuarantined { strikes: 1 }) => {}
        other => panic!("expected TenantQuarantined, got {other:?}"),
    }
    // ...until an operator releases it.
    handle.release_quarantine("poison");
    let out = handle.submit(csv_job("poison", b"x,y\n")).unwrap().wait();
    assert_eq!(out.unwrap().output, b"x\x1fy\x1f\x1e");
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.quarantined_jobs, 1);
    assert_eq!(stats.tenants_quarantined, 0, "released");
}

#[test]
fn transient_chaos_recovers_on_the_retry_rung() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    let long = udp_workloads::lineitem_csv(1024, 9);
    let mut spec = JobSpec::new("flaky", "csv", long);
    spec.chaos = Some(ChaosSpec {
        fault_at: Some(300),
        panic_at: None,
        transient: true,
    });
    match rt.handle().submit(spec).unwrap().wait() {
        Ok(out) => assert!(matches!(out.outcome, JobOutcome::Recovered { .. })),
        other => panic!("expected a recovered output, got {other:?}"),
    }
    // The tenant is unscathed.
    assert!(handle.submit(csv_job("flaky", b"x,y\n")).is_ok());
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.tenants_quarantined, 0);
}

#[test]
fn drain_completes_queued_jobs_and_abort_sheds_them() {
    // Drain: queued jobs still execute.
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    handle.pause();
    let t1 = handle.submit(csv_job("a", b"1,2\n")).unwrap();
    let t2 = handle.submit(csv_job("b", b"3,4\n")).unwrap();
    handle.begin_shutdown(Shutdown::Drain);
    assert_eq!(t1.wait().unwrap().output, b"1\x1f2\x1f\x1e");
    assert_eq!(t2.wait().unwrap().output, b"3\x1f4\x1f\x1e");
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.completed, 2);

    // Abort: queued jobs complete with ShuttingDown — typed, never
    // hung, exactly once.
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    handle.pause();
    let t1 = handle.submit(csv_job("a", b"1,2\n")).unwrap();
    let t2 = handle.submit(csv_job("b", b"3,4\n")).unwrap();
    let stats = rt.shutdown(Shutdown::Abort);
    assert!(matches!(t1.wait(), Err(ServeError::ShuttingDown)));
    assert!(matches!(t2.wait(), Err(ServeError::ShuttingDown)));
    assert_eq!(stats.completed, 0);
}

#[test]
fn dropped_tickets_are_counted_not_fatal() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    handle.pause();
    drop(handle.submit(csv_job("gone", b"1,2\n")).unwrap());
    let kept = handle.submit(csv_job("here", b"3,4\n")).unwrap();
    handle.resume();
    assert_eq!(kept.wait().unwrap().output, b"3\x1f4\x1f\x1e");
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.results_dropped, 1);
    assert_eq!(stats.completed, 2, "the abandoned job still executed");
}

#[test]
fn invalid_supervisor_template_fails_startup() {
    let cfg = ServeConfig {
        supervisor: udp_sim::SupervisorOptions {
            backoff_base_ms: 10,
            backoff_cap_ms: 1,
            ..udp_sim::SupervisorOptions::default()
        },
        ..ServeConfig::default()
    };
    match ServeRuntime::start(cfg).map(|_| ()) {
        Err(ServeError::Sim(SimError::SupervisorConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: 1,
        })) => {}
        other => panic!("expected SupervisorConfig rejection, got {other:?}"),
    }
}

#[test]
fn kernel_registration_refuses_non_executable_images() {
    let rt = ServeRuntime::start(ServeConfig::default()).unwrap();
    let handle = rt.handle();
    let (image, _) = udp_serve::csv_kernel().unwrap();
    // A size-model-only layout is refused at registration — a service
    // never loads what the simulator would reject at dispatch.
    let mut broken = (*image).clone();
    broken.executable = false;
    match handle.register_kernel("bad", Arc::new(broken), None) {
        Err(ServeError::Sim(SimError::NotExecutable)) => {}
        other => panic!("expected Sim(NotExecutable), got {other:?}"),
    }
    handle.register_kernel("good", image, None).unwrap();
    rt.shutdown(Shutdown::Abort);
}

#[test]
fn stats_account_for_bytes_and_cycles() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    let out = handle
        .submit(csv_job("t", b"a,b\n"))
        .unwrap()
        .wait()
        .unwrap();
    let stats = handle.stats();
    assert_eq!(stats.bytes_in, 4);
    assert_eq!(stats.cycles, out.cycles);
    assert!(stats.waves >= 1);
    assert_eq!(
        (stats.journal_records, stats.journal_syncs),
        (0, 0),
        "an unjournaled runtime commits nothing"
    );
    rt.shutdown(Shutdown::Drain);
}

/// Per-tenant sum of the `Charge` records in the journal at `path`.
fn journaled_charges(path: &std::path::Path) -> HashMap<String, u64> {
    let mut sums = HashMap::new();
    for rec in journal::replay(path).unwrap().records {
        if let JournalRecord::Charge { tenant, cycles } = rec {
            *sums.entry(tenant).or_insert(0) += cycles;
        }
    }
    sums
}

#[test]
fn a_wave_is_one_journal_commit_made_durable_before_delivery() {
    let dir = std::env::temp_dir().join(format!("udp-serve-group-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open_with(dir.join("store"), false).unwrap();
    let path = dir.join("serve.journal");
    let config = ServeConfig {
        queue_capacity: 64,
        max_wave: 64,
        parallel: false,
        journal_sync: true,
        ..ServeConfig::default()
    };
    let rt = ServeRuntime::start_journaled(config, &path, &store).unwrap();
    let handle = rt.handle();
    let (artifact, fallback) = csv_kernel_artifact(&store).unwrap();
    handle
        .register_artifact("csv", &artifact, Some(fallback))
        .unwrap();
    let before = handle.stats();
    assert_eq!(
        (before.journal_records, before.journal_syncs),
        (1, 1),
        "an operator action is one synced commit"
    );

    // Eight jobs from two tenants, queued under pause: one wave.
    handle.pause();
    let tickets: Vec<(&str, _)> = (0..8)
        .map(|i| {
            let tenant = ["alice", "bob"][i % 2];
            let payload = format!("{i},{tenant}\n");
            (
                tenant,
                handle.submit(csv_job(tenant, payload.as_bytes())).unwrap(),
            )
        })
        .collect();
    handle.resume();

    // Durability before delivery: whenever a result arrives, the
    // journal already covers the cycles of every result delivered so
    // far. Group commit makes the whole wave durable before the first.
    let mut delivered: HashMap<String, u64> = HashMap::new();
    let mut seen = Vec::new();
    for (tenant, ticket) in tickets {
        let out = ticket.wait().unwrap();
        *delivered.entry(tenant.to_string()).or_insert(0) += out.cycles;
        let journaled = journaled_charges(&path);
        for (t, cycles) in &delivered {
            assert!(
                journaled.get(t).copied().unwrap_or(0) >= *cycles,
                "{t}: {cycles} cycles delivered before they were journaled"
            );
        }
        seen.push(journaled);
    }
    for journaled in &seen {
        assert_eq!(journaled, &delivered, "the wave's charges commit together");
    }

    let after = handle.stats();
    assert_eq!(after.waves - before.waves, 1);
    assert_eq!(after.journal_records - before.journal_records, 8);
    assert_eq!(
        after.journal_syncs - before.journal_syncs,
        1,
        "one sync per wave"
    );
    rt.shutdown(Shutdown::Drain);
    let _ = std::fs::remove_dir_all(&dir);
}
