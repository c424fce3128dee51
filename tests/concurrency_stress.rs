//! Concurrency stress: many threads issuing `Caesura::query` against one
//! shared catalog of `Arc`-shared tables, with perception dispatch fanned out
//! over several workers, must produce exactly the results of serial sequential
//! execution — no data races (the columns are immutable behind `Arc`; the
//! scoped worker pools never outlive a dispatch) and no cross-query
//! interference (execution configuration is pinned per thread via a scoped
//! override, not global mutation).

use caesura::engine::parallel::{self, ExecConfig};
use caesura::prelude::*;
use std::sync::Arc;
use std::thread;

const QUERIES: &[&str] = &[
    "For every team, what is the highest number of points they scored in a game?",
    "For each conference, how many teams are there?",
];

#[test]
fn concurrent_queries_over_one_shared_catalog_match_serial_results() {
    let data = generate_rotowire(&RotowireConfig::small());

    // Serial reference under the sequential configuration.
    let reference_session = Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()));
    let expected: Vec<QueryOutput> = parallel::with_config(ExecConfig::sequential(), || {
        QUERIES
            .iter()
            .map(|q| reference_session.query(q).expect("serial query failed"))
            .collect()
    });

    // One session (and therefore one catalog of Arc-shared tables) shared by
    // every thread; several workers per query fan perception batches out
    // while the queries race each other.
    let config = CaesuraConfig {
        exec: Some(ExecConfig::new(4)),
        ..CaesuraConfig::default()
    };
    let session = Caesura::with_config(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()), config);

    // The shared lake really is shared: the session's catalog holds the same
    // Arc-backed tables as the reference session's.
    for name in data.lake.catalog().table_names() {
        assert!(Arc::ptr_eq(
            session.lake().catalog().table(&name).unwrap(),
            reference_session.lake().catalog().table(&name).unwrap(),
        ));
    }

    thread::scope(|scope| {
        for _ in 0..8 {
            let session = &session;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..3 {
                    for (query, expected_output) in QUERIES.iter().zip(expected) {
                        let output = session
                            .query(query)
                            .unwrap_or_else(|e| panic!("query '{query}' failed: {e}"));
                        assert_eq!(
                            &output, expected_output,
                            "round {round}: concurrent result diverged for '{query}'"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_queries_through_a_shared_perception_cache_match_serial_results() {
    // The session-scoped perception answer cache is shared by every query of
    // one session — here 8 threads race the same multi-modal query through
    // it, including a tiny capacity that forces constant concurrent eviction.
    // Answers are a deterministic function of the (input, question) key, so
    // no interleaving of hits, inserts, and evictions may change a result.
    use caesura::modal::CacheConfig;

    let data = generate_rotowire(&RotowireConfig::small());
    let query = QUERIES[0];
    let reference_session = Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()));
    let expected = parallel::with_config(ExecConfig::sequential(), || {
        reference_session.query(query).expect("serial query failed")
    });

    for capacity in [2usize, 4096] {
        let config = CaesuraConfig {
            exec: Some(ExecConfig::new(4)),
            perception_cache: Some(CacheConfig::new(capacity)),
            ..CaesuraConfig::default()
        };
        let session =
            Caesura::with_config(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()), config);
        thread::scope(|scope| {
            for _ in 0..8 {
                let (session, expected) = (&session, &expected);
                scope.spawn(move || {
                    for round in 0..3 {
                        let output = session
                            .query(query)
                            .unwrap_or_else(|e| panic!("query failed: {e}"));
                        assert_eq!(
                            &output, expected,
                            "capacity {capacity}, round {round}: cached result diverged"
                        );
                    }
                });
            }
        });
        let cache = session.perception_cache().expect("cache is enabled");
        assert!(
            cache.len() <= capacity,
            "capacity bound violated under concurrency: {} > {capacity}",
            cache.len()
        );
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "24 identical queries must hit the shared cache"
        );
        if capacity == 2 {
            assert!(stats.evictions > 0, "a tiny cache must evict under load");
        }
    }
}

#[test]
fn racing_submitters_and_cancellers_at_queue_capacity_stay_consistent() {
    // The serving scheduler under adversarial load: 8 threads hammer one
    // session through `submit` (blocking backpressure at a tiny queue bound)
    // while half the submissions are cancelled immediately. Invariants:
    // no deadlock, every handle resolves, cancelled handles resolve to
    // either `CoreError::Cancelled` (with the Recovery trace event) or a
    // normal completion that raced the flag, non-cancelled handles are
    // byte-identical to the serial reference, and the counters balance.
    use caesura::core::Phase;

    let data = generate_rotowire(&RotowireConfig::small());
    let reference_session = Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()));
    let expected: Vec<QueryOutput> = parallel::with_config(ExecConfig::sequential(), || {
        QUERIES
            .iter()
            .map(|q| reference_session.query(q).expect("serial query failed"))
            .collect()
    });

    let config = CaesuraConfig {
        exec: Some(ExecConfig::new(2)),
        session_workers: Some(2),
        session_queue: Some(4),
        ..CaesuraConfig::default()
    };
    let session = Caesura::with_config(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()), config);

    const SUBMITTERS: usize = 8;
    const ROUNDS: usize = 3;
    thread::scope(|scope| {
        for submitter in 0..SUBMITTERS {
            let (session, expected) = (&session, &expected);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for (index, (query, expected_output)) in
                        QUERIES.iter().zip(expected).enumerate()
                    {
                        let handle = session.submit(query);
                        let cancel = (submitter + round + index) % 2 == 0;
                        if cancel {
                            handle.cancel();
                        }
                        let run = handle.wait();
                        if run.cancelled() {
                            assert!(cancel, "only cancelled submissions may be cancelled");
                            assert!(
                                run.trace
                                    .events_of(Phase::Recovery)
                                    .iter()
                                    .any(|e| e.label == "cancelled"),
                                "cancelled run lacks its Recovery trace event"
                            );
                        } else {
                            let output = run
                                .output
                                .unwrap_or_else(|e| panic!("query '{query}' failed: {e}"));
                            assert_eq!(
                                &output, expected_output,
                                "round {round}: concurrent result diverged for '{query}'"
                            );
                        }
                    }
                }
            });
        }
    });

    let stats = session.serving_stats();
    assert_eq!(stats.completed, SUBMITTERS * ROUNDS * QUERIES.len());
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.in_flight, 0);
    assert!(stats.cancelled <= stats.completed);
}

#[test]
fn tenant_submitters_with_typed_admission_keep_per_tenant_counters_balanced() {
    // The PR 8 control plane under the same adversarial load: 8 threads each
    // submit under their own tenant through the non-blocking `submit_with`
    // (retrying typed `QueueFull` declines at a tiny queue bound) while half
    // the submissions are cancelled immediately. Invariants: no deadlock,
    // every admitted handle resolves, every decline observed by a submitter
    // is on the books as a rejection, and the per-tenant counters balance —
    // each tenant's completed count equals its admissions, nothing remains
    // queued or in flight, and the per-tenant breakdown sums to the global
    // [`ServingStats`].
    use caesura::core::{AdmissionError, Phase, SubmitOptions};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let data = generate_rotowire(&RotowireConfig::small());
    let reference_session = Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()));
    let expected: Vec<QueryOutput> = parallel::with_config(ExecConfig::sequential(), || {
        QUERIES
            .iter()
            .map(|q| reference_session.query(q).expect("serial query failed"))
            .collect()
    });

    let config = CaesuraConfig {
        exec: Some(ExecConfig::new(2)),
        session_workers: Some(2),
        session_queue: Some(2),
        ..CaesuraConfig::default()
    };
    let session = Caesura::with_config(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()), config);

    const SUBMITTERS: usize = 8;
    const ROUNDS: usize = 3;
    let declines_seen = AtomicUsize::new(0);
    thread::scope(|scope| {
        for submitter in 0..SUBMITTERS {
            let (session, expected, declines_seen) = (&session, &expected, &declines_seen);
            scope.spawn(move || {
                let tenant = format!("tenant-{submitter}");
                // Half the tenants submit at batch priority: tier membership
                // must not affect any balance invariant.
                let options = if submitter % 2 == 0 {
                    SubmitOptions::for_tenant(&tenant)
                } else {
                    SubmitOptions::for_tenant(&tenant).batch()
                };
                for round in 0..ROUNDS {
                    for (index, (query, expected_output)) in
                        QUERIES.iter().zip(expected).enumerate()
                    {
                        let handle = loop {
                            match session.submit_with(query, options.clone()) {
                                Ok(handle) => break handle,
                                Err(AdmissionError::QueueFull { .. }) => {
                                    declines_seen.fetch_add(1, Ordering::Relaxed);
                                    thread::yield_now();
                                }
                                Err(other) => panic!("unexpected admission error: {other}"),
                            }
                        };
                        let cancel = (submitter + round + index) % 2 == 0;
                        if cancel {
                            handle.cancel();
                        }
                        let run = handle.wait();
                        if run.cancelled() {
                            assert!(cancel, "only cancelled submissions may be cancelled");
                            assert!(
                                run.trace
                                    .events_of(Phase::Recovery)
                                    .iter()
                                    .any(|e| e.label == "cancelled"),
                                "cancelled run lacks its Recovery trace event"
                            );
                        } else {
                            let output = run
                                .output
                                .unwrap_or_else(|e| panic!("query '{query}' failed: {e}"));
                            assert_eq!(
                                &output, expected_output,
                                "round {round}: concurrent result diverged for '{query}'"
                            );
                        }
                    }
                }
            });
        }
    });

    let stats = session.serving_stats();
    assert_eq!(stats.completed, SUBMITTERS * ROUNDS * QUERIES.len());
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.rejected, declines_seen.load(Ordering::Relaxed));
    assert!(stats.cancelled <= stats.completed);

    let tenants = session.tenant_stats();
    assert_eq!(tenants.len(), SUBMITTERS, "one stats row per tenant");
    for tenant in &tenants {
        assert_eq!(
            tenant.completed,
            ROUNDS * QUERIES.len(),
            "tenant {} lost or duplicated a completion",
            tenant.tenant
        );
        assert_eq!(tenant.queued, 0);
        assert_eq!(tenant.in_flight, 0);
        assert!(tenant.cancelled <= tenant.completed);
    }
    assert_eq!(
        tenants.iter().map(|t| t.completed).sum::<usize>(),
        stats.completed
    );
    assert_eq!(
        tenants.iter().map(|t| t.cancelled).sum::<usize>(),
        stats.cancelled
    );
    assert_eq!(
        tenants.iter().map(|t| t.rejected).sum::<usize>(),
        stats.rejected
    );
}

#[test]
fn per_thread_exec_overrides_do_not_leak_across_threads() {
    // Two threads pin different configurations simultaneously; each must see
    // its own, and the spawning thread's default must be untouched.
    let before = parallel::exec_config();
    thread::scope(|scope| {
        for threads in [2usize, 8] {
            scope.spawn(move || {
                let pinned = ExecConfig::new(threads);
                parallel::with_config(pinned, || {
                    for _ in 0..50 {
                        assert_eq!(parallel::exec_config(), pinned);
                        std::thread::yield_now();
                    }
                });
            });
        }
    });
    assert_eq!(parallel::exec_config(), before);
}
