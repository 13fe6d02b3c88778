//! The scenarios every workload is generated from, and why they look the
//! way they do.
//!
//! **Fault mix** (long-run and the recorded streams): one replica crash,
//! 15% transient service failures, 5% message duplication and 10%
//! message reordering (up to 5 ms late). Crashes and transient failures
//! drive the protocol's interesting paths — failure detection, round
//! changes, cancellation of failed undoable rounds, cleaning — and
//! duplication and reordering drive the service's at-most-once filter
//! and the checker's deduplication rules.
//!
//! **No message loss.** At 1% loss the client stalls: a 200-request run
//! completes only 130 requests by a 600 s horizon. A stalled run measures
//! the horizon, not the system, and its requests would all count as
//! failed. The stall is a known protocol issue, left for its own fix.
//!
//! **Which replica crashes.** Any of the three, drawn from the seed, in
//! the long run and in the short runs alike. When the primary (replica 0)
//! crashes while one of its service invocations is in flight,
//! `RunReport::quiescent` stays false for the rest of the run — the
//! harness counts a crashed replica's pending invocations, which nothing
//! can clear — although `is_correct()` holds (7 of the first 32 seeds of
//! the long run). The long run checks `quiescent` and counts such a run's
//! requests as failed, so it is held out of `BENCHMARK.json` until the
//! flag is fixed; it stays runnable by name. The short runs behind the
//! recorded streams check `is_correct()`.

use xability_harness::{Scenario, Scheme, Workload};
use xability_services::FailurePlan;
use xability_sim::{NetFaultConfig, SimDuration, SimTime};

use crate::stats::mix;

/// Simulated time one request takes under the fault mix (measured: about
/// 31 ms per request at 500 to 1500 requests).
const SIM_MS_PER_REQUEST: u64 = 31;

/// Requests in the long run. Long enough that the per-tick scans over
/// past requests and consensus instances show (a 1000-request run costs
/// about 2.2 times as much per request as a 250-request one), short enough
/// to be steady on a shared host: run back to back on a 2-core VM, the
/// median pass times of 20 s windows spread 26% (IQR/median) at 1000
/// requests and 18% at 400.
pub const LONG_RUN_REQUESTS: usize = 500;

/// Requests per short run behind the recorded streams.
pub const SHORT_RUN_REQUESTS: usize = 20;

/// Short runs per recorded stream (kinds rotate bank, reservation, KV).
pub const STREAM_RUNS: usize = 300;

fn with_fault_mix(s: Scenario, seed: u64, crash: usize, crash_at: SimTime) -> Scenario {
    s.seed(seed)
        .service_failures(FailurePlan::probabilistic(0.15))
        .net_faults(NetFaultConfig {
            drop_prob: 0.0,
            dup_prob: 0.05,
            reorder_prob: 0.10,
            reorder_max_extra: SimDuration::from_millis(5),
        })
        .crash(crash, crash_at)
}

/// A crash instant inside the middle half of a run of `requests`.
fn crash_at(requests: usize, salt: u64) -> SimTime {
    let span_ms = requests as u64 * SIM_MS_PER_REQUEST;
    SimTime::from_millis(span_ms / 4 + salt % (span_ms / 2).max(1))
}

/// The horizon for a run of `requests`: three times the expected span, so
/// no run is cut off (the default 60 s horizon cuts a 2000-request run).
fn horizon(requests: usize) -> SimTime {
    SimTime::from_millis((requests as u64 * SIM_MS_PER_REQUEST * 3).max(60_000))
}

/// The long run for `seed` with `requests` sequential bank transfers.
pub fn long_run(seed: u64, requests: usize) -> Scenario {
    let s = Scenario::new(
        Scheme::XAble,
        Workload::BankTransfers {
            count: requests,
            amount: 5,
        },
    )
    .horizon(horizon(requests));
    let crash = (mix(seed, 1) % 3) as usize;
    with_fault_mix(s, mix(seed, 2), crash, crash_at(requests, mix(seed, 3)))
}

/// Short run `k` of the recorded stream for `seed`.
pub fn short_run(seed: u64, k: usize) -> Scenario {
    let n = SHORT_RUN_REQUESTS;
    let workload = match k % 3 {
        0 => Workload::BankTransfers {
            count: n,
            amount: 5,
        },
        1 => Workload::Reservations { count: n, seats: 1 },
        _ => Workload::KvPuts { count: n },
    };
    let k = k as u64;
    let s = Scenario::new(Scheme::XAble, workload).horizon(horizon(n));
    let crash = (mix(seed, 10 + 3 * k) % 3) as usize;
    with_fault_mix(
        s,
        mix(seed, 11 + 3 * k),
        crash,
        crash_at(n, mix(seed, 12 + 3 * k)),
    )
}

/// The explorer's base: the sound two-reservation scenario the repository's
/// explorer tests and benches use, with its 5 s horizon.
pub fn explore_base() -> Scenario {
    Scenario::new(Scheme::XAble, Workload::Reservations { count: 2, seats: 1 })
        .horizon(SimTime::from_secs(5))
}
