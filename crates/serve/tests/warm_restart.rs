//! Warm-restart property (DESIGN.md §11.3): a service restarted from
//! its write-ahead journal is indistinguishable — bit-identical
//! outputs, cycles, and admission decisions — from one that never
//! stopped, on both execution backends.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use udp_serve::{
    csv_kernel_artifact, ChaosSpec, JobOutcome, JobSpec, JobTicket, ServeConfig, ServeError,
    ServeHandle, ServeRuntime, Shutdown, TenantQuota,
};
use udp_sim::ExecBackend;
use udp_store::ArtifactStore;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "udp-warm-restart-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(compiled: bool, parallel: bool) -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        max_wave: 64,
        parallel,
        default_quota: TenantQuota {
            max_queued: 8,
            cycle_budget: None,
        },
        quarantine_strikes: 1,
        backend: Some(if compiled {
            ExecBackend::Compiled
        } else {
            ExecBackend::Interpreter
        }),
        journal_sync: false, // this test churns services; tmpfs-speed appends
        ..ServeConfig::default()
    }
}

/// Registers the two kernels every service in this test speaks: `csv`
/// (with its reference fallback) and `csv-raw` (fallback-less, so
/// persistent chaos ends in quarantine).
fn register_kernels(handle: &ServeHandle, store: &ArtifactStore) {
    let (artifact, fallback) = csv_kernel_artifact(store).unwrap();
    handle
        .register_artifact("csv", &artifact, Some(fallback))
        .unwrap();
    handle
        .register_artifact("csv-raw", &artifact, None)
        .unwrap();
}

/// Drives one deterministic service history: clean jobs for `alice`,
/// a poison job that quarantines `mallory`, then a quota clamp on
/// `alice`. Identical histories must leave identical durable state.
/// `batched` queues the clean jobs under pause so they run as one wave
/// and their charges land in one multi-record journal commit; otherwise
/// each job is its own wave.
fn run_history(handle: &ServeHandle, payloads: &[Vec<u8>], poison_seed: u64, batched: bool) {
    let submit = |p: &Vec<u8>| {
        handle
            .submit(JobSpec::new("alice", "csv", p.clone()))
            .unwrap()
    };
    let wait = |t: JobTicket| t.wait_timeout(Duration::from_secs(30)).unwrap();
    let outs: Vec<_> = if batched {
        handle.pause();
        let tickets: Vec<_> = payloads.iter().map(submit).collect();
        handle.resume();
        tickets.into_iter().map(wait).collect()
    } else {
        payloads.iter().map(|p| wait(submit(p))).collect()
    };
    for out in outs {
        assert_eq!(out.outcome, JobOutcome::Clean);
    }
    let mut poison = JobSpec::new(
        "mallory",
        "csv-raw",
        udp_workloads::lineitem_csv(1024, poison_seed),
    );
    poison.chaos = Some(ChaosSpec {
        fault_at: Some(350),
        panic_at: None,
        transient: false,
    });
    match handle.submit(poison).unwrap().wait() {
        Err(ServeError::JobQuarantined { .. }) => {}
        other => panic!("expected JobQuarantined, got {other:?}"),
    }
    // Clamp alice's budget below her already-charged cycles: every
    // subsequent submission must be refused with her exact usage.
    handle.set_quota(
        "alice",
        TenantQuota {
            max_queued: 8,
            cycle_budget: Some(1),
        },
    );
}

/// The phase-2 probe outcomes we compare across services, as plain
/// values (no timestamps, no stats counters — admission behavior only).
#[derive(Debug, PartialEq, Eq)]
struct Probe {
    alice_refusal: Result<(), ServeError>,
    mallory_refusal: Result<(), ServeError>,
    bob_output: Vec<u8>,
    bob_cycles: u64,
    bob_outcome: JobOutcome,
    alice_after_refill: Result<(Vec<u8>, u64), ServeError>,
}

fn probe(handle: &ServeHandle, probe_payload: &[u8]) -> Probe {
    let alice_refusal = handle
        .submit(JobSpec::new("alice", "csv", probe_payload.to_vec()))
        .map(|_| panic!("alice must be refused by quota"));
    let mallory_refusal = handle
        .submit(JobSpec::new("mallory", "csv-raw", probe_payload.to_vec()))
        .map(|_| panic!("mallory must stay quarantined"));
    let bob = handle
        .submit(JobSpec::new("bob", "csv", probe_payload.to_vec()))
        .unwrap()
        .wait_timeout(Duration::from_secs(30))
        .unwrap();
    // Refill alice's spent-cycle account and lift the clamp: both are
    // journaled operator actions, and both services must agree that
    // she is admitted again afterwards.
    handle.refill_quota("alice", u64::MAX / 2);
    handle.set_quota(
        "alice",
        TenantQuota {
            max_queued: 8,
            cycle_budget: None,
        },
    );
    let alice_after_refill = handle
        .submit(JobSpec::new("alice", "csv", probe_payload.to_vec()))
        .and_then(|t| t.wait_timeout(Duration::from_secs(30)))
        .map(|o| (o.output, o.cycles));
    Probe {
        alice_refusal,
        mallory_refusal,
        bob_output: bob.output,
        bob_cycles: bob.cycles,
        bob_outcome: bob.outcome,
        alice_after_refill,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two services run the same history. One drains, stops, and is
    /// restarted from its journal; the other keeps running. Their
    /// subsequent admission decisions, refusal details (exact cycles
    /// used, strikes), and job results must be bit-identical.
    #[test]
    fn restarted_service_is_bit_identical_to_uninterrupted(
        fields in proptest::collection::vec((0u8..100, 0u8..100), 1..4),
        poison_seed in 0u64..1000,
        compiled in proptest::bool::ANY,
        parallel in proptest::bool::ANY,
        batched in proptest::bool::ANY,
    ) {
        let payloads: Vec<Vec<u8>> = fields
            .iter()
            .map(|(a, b)| format!("{a},{b}\n").into_bytes())
            .collect();
        let probe_payload = b"p,q\n".to_vec();

        let root = temp_dir("case");
        let store = ArtifactStore::open_with(root.join("store"), false).unwrap();

        // Service A: journaled, runs the history, drains, restarts.
        let rt_a = ServeRuntime::start_journaled(
            config(compiled, parallel),
            root.join("a.journal"),
            &store,
        )
        .unwrap();
        register_kernels(&rt_a.handle(), &store);
        run_history(&rt_a.handle(), &payloads, poison_seed, batched);
        let stats_a = rt_a.shutdown(Shutdown::Drain);
        prop_assert_eq!(stats_a.tenants_quarantined, 1);

        let rt_a2 = ServeRuntime::start_journaled(
            config(compiled, parallel),
            root.join("a.journal"),
            &store,
        )
        .unwrap();
        prop_assert_eq!(rt_a2.handle().stats().kernels_dropped, 0);

        // Service C: same history, never stops.
        let rt_c = ServeRuntime::start_journaled(
            config(compiled, parallel),
            root.join("c.journal"),
            &store,
        )
        .unwrap();
        register_kernels(&rt_c.handle(), &store);
        run_history(&rt_c.handle(), &payloads, poison_seed, batched);

        let got_a = probe(&rt_a2.handle(), &probe_payload);
        let got_c = probe(&rt_c.handle(), &probe_payload);
        prop_assert_eq!(&got_a, &got_c);

        // The refusals are the *typed* ones, with state intact.
        prop_assert!(matches!(
            got_a.alice_refusal,
            Err(ServeError::QuotaExhausted { used: _, budget: 1 })
        ));
        prop_assert!(matches!(
            got_a.mallory_refusal,
            Err(ServeError::TenantQuarantined { strikes: 1 })
        ));
        prop_assert_eq!(got_a.bob_outcome, JobOutcome::Clean);
        prop_assert_eq!(&got_a.bob_output, b"p\x1fq\x1f\x1e");
        prop_assert!(got_a.alice_after_refill.is_ok());

        rt_a2.shutdown(Shutdown::Drain);
        rt_c.shutdown(Shutdown::Drain);
        let _ = std::fs::remove_dir_all(&root);
    }
}
