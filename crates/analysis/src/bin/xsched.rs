//! The `xsched` driver: exhaustively explore every interleaving model,
//! verify the enumeration counts and the broken-variant catches, and
//! write `BENCH_analysis.json` so the explorer's coverage is tracked
//! like the perf benches.
//!
//! ```text
//! cargo run -p xability-analysis --bin xsched
//! ```

use std::process::ExitCode;
use std::time::Instant;

use xability_analysis::sched::dirty::DirtyModel;
use xability_analysis::sched::intern::{BrokenInterner, InternModel, ShadowInterner};
use xability_analysis::sched::seglog::{BrokenLog, SeglogModel, ShadowLog};
use xability_analysis::sched::{binomial, explore, Explored, Interleave};

/// One explored model plus its wall time and expectation.
struct ModelRun {
    explored: Explored,
    wall_ms: f64,
    /// `true` for deliberately broken variants, whose *job* is to be
    /// caught (violations > 0); correct models must be clean.
    expect_caught: bool,
}

fn run<M: Interleave, F: FnMut() -> M>(name: &str, fresh: F, expect_caught: bool) -> ModelRun {
    let start = Instant::now();
    let explored = explore(name, fresh);
    ModelRun {
        explored,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        expect_caught,
    }
}

fn json_entry(run: &ModelRun) -> String {
    let e = &run.explored;
    format!(
        "    {{ \"model\": \"{}\", \"ops\": [{}, {}], \"schedules\": {}, \"states\": {}, \
         \"violations\": {}, \"wall_ms\": {:.2} }}",
        e.model, e.ops.0, e.ops.1, e.schedules, e.states, e.violations, run.wall_ms
    )
}

fn main() -> ExitCode {
    let runs = vec![
        run(
            "seglog-snapshot-vs-append",
            SeglogModel::<ShadowLog>::standard,
            false,
        ),
        run(
            "interner-insert-vs-probe",
            InternModel::<ShadowInterner>::standard,
            false,
        ),
        run(
            "dirty-aggregate-push-vs-verdict",
            DirtyModel::standard,
            false,
        ),
        run(
            "seglog-broken-missing-cow",
            SeglogModel::<BrokenLog>::standard,
            true,
        ),
        run(
            "interner-broken-live-reader",
            InternModel::<BrokenInterner>::standard,
            true,
        ),
    ];

    let mut failed = false;
    for r in &runs {
        let e = &r.explored;
        let (a, b) = e.ops;
        let expected = binomial((a + b) as u64, a as u64);
        let exhaustive = e.schedules == expected;
        let verdict_ok = if r.expect_caught {
            e.violations > 0 && e.violations < e.schedules
        } else {
            e.violations == 0
        };
        println!(
            "xsched: {:34} {:4} schedules ({} expected), {:5} states, {:3} violations, {:7.2} ms {}",
            e.model,
            e.schedules,
            expected,
            e.states,
            e.violations,
            r.wall_ms,
            if exhaustive && verdict_ok { "ok" } else { "FAILED" }
        );
        if let (false, Some(v)) = (r.expect_caught, &e.first_violation) {
            eprintln!("xsched: {}: {v}", e.model);
        }
        if !(exhaustive && verdict_ok) {
            failed = true;
        }
    }

    let (correct, broken): (Vec<&ModelRun>, Vec<&ModelRun>) =
        runs.iter().partition(|r| !r.expect_caught);
    let provenance = xability_bench::bench_provenance("analysis");
    let json = format!(
        "{{\n  \"bench\": \"analysis\",\n  {provenance},\n  \
         \"explorer\": \"xsched exhaustive 2-thread interleaving enumeration\",\n  \
         \"models\": [\n{}\n  ],\n  \"broken_variants\": [\n{}\n  ]\n}}\n",
        correct
            .iter()
            .map(|r| json_entry(r))
            .collect::<Vec<_>>()
            .join(",\n"),
        broken
            .iter()
            .map(|r| json_entry(r))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    if let Err(err) = std::fs::write("BENCH_analysis.json", &json) {
        eprintln!("xsched: cannot write BENCH_analysis.json: {err}");
        return ExitCode::from(2);
    }
    let total_schedules: u64 = runs.iter().map(|r| r.explored.schedules).sum();
    let total_states: u64 = runs.iter().map(|r| r.explored.states).sum();
    println!(
        "xsched: wrote BENCH_analysis.json ({total_schedules} schedules, {total_states} states across {} models)",
        runs.len()
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
