//! Concurrent session serving: the submit / handle API (PR 5).
//!
//! One CAESURA session serves many in-flight queries over one lake, one
//! retriever index, and one perception cache. This example shows the three
//! serving primitives:
//!
//! 1. **Concurrent submission** — several queries enqueued up front via
//!    `submit`, running on the session's scheduler pool while the main
//!    thread does other work.
//! 2. **Streamed trace events** — `subscribe` delivers one query's trace
//!    events live, as the planner works, instead of only after completion.
//! 3. **Cooperative cancellation** — `cancel` stops a query at its next
//!    checkpoint (between plan steps / before any LLM dispatch, or mid-
//!    dispatch for cancellation-aware transports); a query cancelled while
//!    still queued never runs at all.
//! 4. **Priorities and tenants** (PR 8) — `submit_with` tags submissions
//!    with a tenant and a priority; the scheduler dequeues interactive work
//!    ahead of any queued batch work, and `tenant_stats` breaks the serving
//!    counters out per tenant.
//!
//! Run with: `cargo run --example concurrent_serving`

use caesura::prelude::*;
use std::sync::Arc;

fn main() {
    let data = generate_artwork(&ArtworkConfig::default());
    // Four scheduler workers and a bounded submission queue. Without these
    // fields the session uses hardware parallelism and a queue of 64.
    let config = CaesuraConfig {
        session_workers: Some(4),
        session_queue: Some(8),
        ..CaesuraConfig::default()
    };
    let caesura = Caesura::with_config(data.lake, Arc::new(SimulatedLlm::gpt4()), config);

    // -- 1. Concurrent submission -----------------------------------------
    let queries = [
        "How many paintings are in the museum?",
        "For each movement, how many paintings are there?",
        "How many paintings depict Madonna and Child?",
        "List the titles of all paintings that depict a horse.",
    ];
    let handles: Vec<QueryHandle> = queries.iter().map(|q| caesura.submit(q)).collect();
    let stats = caesura.serving_stats();
    println!(
        "submitted {} queries to {} workers (queue depth {})\n",
        queries.len(),
        stats.workers,
        stats.queue_depth
    );

    // -- 2. A live trace stream for one more query -------------------------
    let streamed = caesura
        .submit("Plot the number of paintings depicting Madonna and Child for each century!");
    let events = streamed.subscribe();
    let printer = std::thread::spawn(move || {
        // The channel disconnects when the query finishes, ending the loop.
        for event in events {
            let preview: String = event.detail.chars().take(60).collect();
            println!(
                "  [live {} / {}] {}",
                event.phase,
                event.label,
                preview.replace('\n', " ")
            );
        }
    });

    // -- 3. Cooperative cancellation ---------------------------------------
    let doomed = caesura.submit("For each genre, how many paintings depict a skull?");
    doomed.cancel();

    // Collect everything.
    for (query, handle) in queries.iter().zip(handles) {
        let run = handle.wait();
        match &run.output {
            Ok(output) => println!("{query}\n  -> {} in {:.1?}", output.kind(), run.latency()),
            Err(error) => println!("{query}\n  -> failed: {error}"),
        }
    }
    printer.join().expect("trace printer thread");
    let streamed = streamed.wait();
    println!(
        "\nstreamed query finished: {} ({} trace events)",
        if streamed.succeeded() { "ok" } else { "failed" },
        streamed.trace.events().len()
    );

    let doomed = streamed_or_cancelled(doomed.wait());
    println!("cancelled query outcome: {doomed}");

    let stats = caesura.serving_stats();
    println!(
        "\nserving stats: {} completed ({} cancelled), {} queued, {} in flight",
        stats.completed, stats.cancelled, stats.queued, stats.in_flight
    );

    // -- 4. Two tenants: interactive vs batch ------------------------------
    // A fresh single-worker session makes the scheduling decision visible:
    // tenant "nightly" floods six batch-priority reports, then tenant
    // "dashboard" submits one interactive query — which the scheduler
    // dequeues ahead of the entire remaining batch backlog.
    let config = CaesuraConfig {
        session_workers: Some(1),
        session_queue: Some(16),
        ..CaesuraConfig::default()
    };
    let caesura = Caesura::with_config(
        generate_artwork(&ArtworkConfig::default()).lake,
        Arc::new(SimulatedLlm::gpt4()),
        config,
    );
    let nightly: Vec<QueryHandle> = (0..6)
        .map(|_| {
            caesura
                .submit_with(
                    "For each movement, how many paintings are there?",
                    SubmitOptions::for_tenant("nightly").batch(),
                )
                .expect("queue sized for the whole batch")
        })
        .collect();
    let dashboard = caesura
        .submit_with(
            "How many paintings are in the museum?",
            SubmitOptions::for_tenant("dashboard"),
        )
        .expect("queue sized for the whole batch");

    let run = dashboard.wait();
    println!(
        "\ndashboard (interactive) answered in {:.1?} end to end, \
         jumping the nightly backlog",
        run.trace.timings().end_to_end()
    );
    if let Some(info) = run.trace.scheduling() {
        println!(
            "  scheduled as: tenant '{}', priority {}",
            info.tenant, info.priority
        );
    }
    for handle in nightly {
        handle.wait();
    }
    println!("\nper-tenant serving stats:");
    for tenant in caesura.tenant_stats() {
        println!(
            "  {:<10} {} completed, {} rejected, total queue wait {:.1?}",
            tenant.tenant, tenant.completed, tenant.rejected, tenant.total_queue_wait
        );
    }
}

fn streamed_or_cancelled(run: QueryRun) -> &'static str {
    if run.cancelled() {
        "cancelled before completion (CoreError::Cancelled)"
    } else {
        // Cancellation raced completion and lost: the answer was already done.
        "completed before the cancel checkpoint"
    }
}
