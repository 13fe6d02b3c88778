//! The ingest-floor CI gate: a release-profile throughput floor on the
//! end-to-end record+verdict path through one ledger with its default
//! online monitor, so a regression in the ingest fast path fails fast.
//!
//! The floor is conservative on purpose: wall-clock throughput is
//! machine-dependent, so the gate asserts the ledger stays at or above
//! the ~450 k events/s this repo's BENCH trajectory recorded before
//! batch-amortized dirty sets landed, not the multiple the bench
//! artifact reports. Like `tests/obs_overhead.rs`, the timing test is
//! `#[ignore]`d by default and CI runs it explicitly in the release
//! profile.

use std::time::Instant;

use xability::core::Event;
use xability::services::Ledger;
use xability::sim::SimTime;
use xability_bench::n_retried_requests;

/// End-to-end record+verdict through one ledger: batched records, an
/// online verdict every `VERDICT_EVERY` batches, a final verdict.
/// Returns events/s.
fn ledger_events_per_sec(mut ledger: Ledger, events: &[Event]) -> f64 {
    const BATCH: usize = 1024;
    const VERDICT_EVERY: usize = 32;
    let start = Instant::now();
    for (k, batch) in events.chunks(BATCH).enumerate() {
        ledger.record_batch(batch, SimTime::ZERO, "svc");
        if k % VERDICT_EVERY == VERDICT_EVERY - 1 {
            // Online verdicts while ingesting — the end-to-end posture.
            // Mid-stream prefixes may end inside a request, so only the
            // final verdict's value is asserted; this one is just forced
            // to be materialized.
            let verdict = ledger.monitor_verdict().expect("monitor attached");
            let _ = std::hint::black_box(verdict);
        }
    }
    let final_verdict = ledger.monitor_verdict().expect("monitor attached");
    let elapsed = start.elapsed();
    assert!(
        final_verdict.is_xable(),
        "workload is x-able by construction, got {final_verdict}"
    );
    events.len() as f64 / elapsed.as_secs_f64()
}

/// Release-profile throughput gate: the ledger (record + online verdict,
/// one thread) must hold the pre-batch-amortization number, ~450 k
/// events/s — a conservative multiple below the measured numbers so
/// scheduler noise cannot flake it.
#[test]
#[ignore = "release-profile CI smoke (ingest throughput); run with --ignored"]
fn ledger_sustains_the_single_thread_floor() {
    const FLOOR_EVENTS_PER_SEC: f64 = 450_000.0;
    const REQUESTS: usize = 100_000; // × 3 events per request

    let (h, ops) = n_retried_requests(REQUESTS);
    let events: Vec<Event> = h.iter().cloned().collect();
    let requests: Vec<xability::core::Request> = ops
        .iter()
        .map(|(a, iv)| xability::core::Request::new(a.clone(), iv.clone()))
        .collect();

    let mut ledger = Ledger::new();
    ledger.declare_requests(&requests);
    let rate = ledger_events_per_sec(ledger, &events);

    eprintln!("ingest floor: {rate:.0} events/s (floor {FLOOR_EVENTS_PER_SEC:.0})");
    assert!(
        rate >= FLOOR_EVENTS_PER_SEC,
        "end-to-end throughput {rate:.0} events/s fell below the floor \
         {FLOOR_EVENTS_PER_SEC:.0}"
    );
}
