//! The three workloads, each in an untraced form (end-to-end metrics) and
//! a traced form (per-layer metrics). All are closed loops on one thread:
//! the next operation starts when the previous one has returned.

use std::path::Path;
use std::time::Instant;

use xability_core::xable::Verdict;
use xability_harness::explore::run_violation_class;
use xability_harness::{Explorer, ExplorerConfig, RunReport, Scenario};

use crate::probe::{Probe, Series};
use crate::scenarios::{self, LONG_RUN_REQUESTS, STREAM_RUNS};
use crate::stats::{median, mix, quantile, repeat, secs, timed, Outcome};
use crate::stream::{self, Stream};
use crate::traced::{self, LayerTimes, RunCounts};

// Set-up: every workload sets up once for its passes and, in an untraced
// run, again before each pass (verify-stream: each third pass), so that
// the set-up times sample the same stretch of time as the passes;
// `setup_s` is their median. A traced run reports no set-up time and sets
// up once. An untraced run times every
// set-up and pass with the host-speed probe (`probe.rs`) and reports the
// calibrated times; the wall-clock ones are printed beside them.

/// Requests in the long run's warm-up, part of its set-up.
const WARMUP_REQUESTS: usize = 100;
/// Explorer campaigns per pass, each with its own master seed, and runs
/// per campaign: one campaign's cost depends on how many of its plans
/// stall into the horizon, which many independent campaigns average. Over
/// 192 master seeds one campaign's time had a standard deviation of 20%
/// of its mean; resampled from those, the passes of ten workload seeds
/// spread about 8% (IQR/median) by their inputs alone at twelve campaigns
/// a pass, and about 4% at 48.
const EXPLORE_CAMPAIGNS: u64 = 48;
const EXPLORE_RUNS: usize = 80;
/// Runs of the base scenario in the set-up's warm-up, each with a seed of
/// its own: the base runs fault-free, so the warm-up's cost does not
/// depend on the workload seed as a campaign's does.
const EXPLORE_WARMUP_RUNS: u64 = 48;
/// The stream's set-up (recording 300 runs) takes longer than a pass, so
/// an untraced verify-stream run sets up again before every third pass
/// only.
const VERIFY_SETUP_EVERY: usize = 3;
/// Prefixes at which online verdicts are held to the batch checker.
const SAMPLED_PREFIXES: usize = 24;
/// How far the traced layers' self times may sum away from the untraced
/// end-to-end time, as a share of it (the `throughput_per_s` bound).
pub const LAYER_SUM_TOLERANCE: f64 = 0.25;

pub struct Config<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub tmp: &'a Path,
    pub probe: &'a Probe,
}

/// The simulated submit-to-result latencies of `report`, in ms.
fn sim_ms(report: &RunReport) -> Vec<f64> {
    report
        .latencies
        .iter()
        .map(|d| d.as_micros() as f64 / 1000.0)
        .collect()
}

/// The 50th and 99th percentiles of simulated latencies `ms`.
fn sim_percentiles(ms: &[f64]) -> (f64, f64) {
    if ms.is_empty() {
        (0.0, 0.0)
    } else {
        (quantile(ms, 0.5), quantile(ms, 0.99))
    }
}

fn sim_latency_layers(out: &mut Outcome, ms: &[f64]) {
    let (p50, p99) = sim_percentiles(ms);
    out.metric("protocol.sim_latency_ms_p50", p50, "sim_ms");
    out.metric("protocol.sim_latency_ms_p99", p99, "sim_ms");
}

/// Checks of one long-run report: every request done, R1–R4 and
/// exactly-once hold, and no invocation is left in flight.
fn check_long_run(out: &mut Outcome, report: &RunReport) {
    let total = report.total_requests as u64;
    let done = report.completed_requests as u64;
    out.attempted += total;
    out.check(
        "long-run: every request completed",
        done == total,
        total - done,
    );
    out.check("long-run: is_correct()", report.is_correct(), done);
    out.check("long-run: quiescent", report.quiescent, done);
}

// ---------------------------------------------------------------------------
// long-run

pub fn long_run(cfg: &Config, trace: bool, out: &mut Outcome) -> std::io::Result<()> {
    let setup = || {
        scenarios::long_run(cfg.seed, WARMUP_REQUESTS).run();
        scenarios::long_run(cfg.seed, LONG_RUN_REQUESTS)
    };
    let mut setups = Series::default();
    let scenario = setups.time(cfg.probe, setup);
    out.inputs.push(("requests", LONG_RUN_REQUESTS as u64));
    if trace {
        return long_run_traced(cfg, &scenario, out);
    }
    let mut passes = Series::default();
    let mut latency: Option<(f64, f64)> = None;
    repeat(cfg.seconds, |rep| {
        setups.time(cfg.probe, setup);
        let report = passes.time(cfg.probe, || scenario.run());
        check_long_run(out, &report);
        let p = sim_percentiles(&sim_ms(&report));
        let first = *latency.get_or_insert(p);
        out.check(
            format!("long-run: simulated latencies repeat (rep {rep})"),
            first == p,
            0,
        );
        if rep == 0 {
            out.inputs.push(("events", report.history_len as u64));
        }
    });
    timings(out, LONG_RUN_REQUESTS, &setups, &passes);
    Ok(())
}

fn long_run_traced(cfg: &Config, scenario: &Scenario, out: &mut Outcome) -> std::io::Result<()> {
    let (mut overhead, mut layer_sum) = (Vec::new(), Vec::new());
    let mut runs: Vec<LayerTimes> = Vec::new();
    let mut first: Option<(RunReport, traced::TracedRun)> = None;
    repeat(cfg.seconds / 2.0, |rep| {
        // Alternate which of the pair runs first, so that neither side
        // always inherits the other's heap and caches.
        let (run, (report, wall)) = if rep % 2 == 0 {
            let run = traced::run(scenario);
            (run, timed(|| scenario.run()))
        } else {
            let untraced = timed(|| scenario.run());
            (traced::run(scenario), untraced)
        };
        overhead.push(run.times.total - wall);
        layer_sum.push(run.times.self_sum() / wall);
        out.check(
            format!("long-run traced: same events and snapshot as Scenario::run (rep {rep})"),
            traced::equivalent(&run, &report),
            0,
        );
        runs.push(run.times);
        match &first {
            None => {
                check_long_run(out, &report);
                out.inputs.push(("events", report.history_len as u64));
                first = Some((report, run));
            }
            Some((_, first)) => {
                out.check(
                    format!("long-run traced: counts repeat (rep {rep})"),
                    first.counts == run.counts,
                    0,
                );
            }
        }
    });
    let (report, run) = first.expect("at least one repetition");
    scenario_layers(out, &median_times(&runs), &run.counts);
    sim_latency_layers(out, &sim_ms(&report));
    tracing_overhead(out, median(&overhead), median(&layer_sum));
    let mut stream = Stream::default();
    stream.push_run(&run.events, &report.submitted);
    stream::layers(&stream, cfg.seconds / 2.0, cfg.tmp, out)
}

/// Per-field medians of the repetitions' layer times.
fn median_times(runs: &[LayerTimes]) -> LayerTimes {
    let m = |f: fn(&LayerTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    LayerTimes {
        build: m(|t| t.build),
        sim_self: m(|t| t.sim_self),
        replica_timer: m(|t| t.replica_timer),
        replica_message: m(|t| t.replica_message),
        client: m(|t| t.client),
        service: m(|t| t.service),
        evaluate: m(|t| t.evaluate),
        total: m(|t| t.total),
    }
}

/// The sim, protocol, consensus and scenario-harness layer metrics.
fn scenario_layers(out: &mut Outcome, t: &LayerTimes, c: &RunCounts) {
    let per_request = |n: u64| n as f64 / c.completed.max(1) as f64;
    out.metric("sim.self_s", t.sim_self, "s");
    out.metric("sim.events_processed", c.sim_events as f64, "count");
    out.metric(
        "sim.messages_per_request",
        per_request(c.messages_sent),
        "ratio",
    );
    out.metric("sim.timers_fired", c.timers_fired as f64, "count");
    out.metric("protocol.replica_timer_s", t.replica_timer, "s");
    out.metric("protocol.replica_message_s", t.replica_message, "s");
    out.metric("protocol.client_s", t.client, "s");
    out.metric("protocol.service_s", t.service, "s");
    out.metric(
        "protocol.rounds_per_request",
        per_request(c.rounds_owned),
        "ratio",
    );
    out.metric("protocol.cancels", c.cancels as f64, "count");
    out.metric("protocol.cleanings", c.cleanings as f64, "count");
    out.metric(
        "protocol.invoke_retransmits",
        c.invoke_retransmits as f64,
        "count",
    );
    out.metric(
        "consensus.decides_per_request",
        per_request(c.decides),
        "ratio",
    );
    out.metric("harness.build_s", t.build, "s");
    out.metric("harness.evaluate_s", t.evaluate, "s");
}

/// The traced runs' overhead over untraced runs of the same scenarios made
/// next to them, and the check that the layers' self times add up to the
/// untraced end-to-end time (`layer_sum` is a share of it).
fn tracing_overhead(out: &mut Outcome, overhead: f64, layer_sum: f64) {
    out.metric("bench.trace_overhead_s", overhead, "s");
    out.metric("bench.layer_sum_ratio", layer_sum, "ratio");
    out.check(
        format!("traced layer self times sum to the untraced time (ratio {layer_sum:.4})"),
        (layer_sum - 1.0).abs() <= LAYER_SUM_TOLERANCE,
        0,
    );
}

/// Reports `setup_s`, the median calibrated set-up time, and
/// `throughput_per_s`, `work` items per calibrated second of the median
/// pass (each pass does the same work), with their wall-clock values and
/// the probe's median scale as notes.
fn timings(out: &mut Outcome, work: usize, setups: &Series, passes: &Series) {
    out.metric("setup_s", median(&setups.calibrated), "s");
    out.metric(
        "throughput_per_s",
        work as f64 / median(&passes.calibrated),
        "1/s",
    );
    out.note("setup_s (wall clock)", median(&setups.wall), "s");
    out.note(
        "throughput_per_s (wall clock)",
        work as f64 / median(&passes.wall),
        "1/s",
    );
    let scale: Vec<f64> = (setups.calibrated.iter().zip(&setups.wall))
        .chain(passes.calibrated.iter().zip(&passes.wall))
        .map(|(c, w)| c / w)
        .collect();
    out.note("calibrated / wall clock (median)", median(&scale), "ratio");
}

// ---------------------------------------------------------------------------
// verify-stream

/// Records the canonical stream for `seed`: `STREAM_RUNS` short faulty
/// runs, each checked with `is_correct()` (a failed run's requests count
/// as failed).
fn record_stream(seed: u64, out: &mut Outcome) -> Stream {
    let mut stream = Stream::default();
    let mut failed = Vec::new();
    for k in 0..STREAM_RUNS {
        let report = scenarios::short_run(seed, k).run();
        if !report.is_correct() {
            failed.push((k, report.total_requests as u64));
        }
        let events: Vec<_> = report.ledger.borrow().recorded_events().collect();
        stream.push_run(&events, &report.submitted);
    }
    let requests: u64 = failed.iter().map(|f| f.1).sum();
    out.attempted += stream.requests.len() as u64;
    out.check(
        format!("stream: every recorded run is_correct() (failed runs: {failed:?})"),
        failed.is_empty(),
        requests,
    );
    stream
}

fn stream_inputs(out: &mut Outcome, stream: &Stream) {
    out.inputs.push(("runs", stream.runs as u64));
    out.inputs.push(("requests", stream.requests.len() as u64));
    out.inputs.push(("events", stream.events.len() as u64));
    out.inputs.push(("groups", stream.groups.len() as u64));
}

pub fn verify_stream(cfg: &Config, trace: bool, out: &mut Outcome) -> std::io::Result<()> {
    let mut setups = Series::default();
    let stream = setups.time(cfg.probe, || record_stream(cfg.seed, out));
    let picks = stream.sample_groups(SAMPLED_PREFIXES);
    let reference = stream.batch_verdicts(&picks);
    stream_inputs(out, &stream);
    let last_xable = reference.last().is_some_and(Verdict::is_xable);
    out.check(
        "verify-stream: the final batch verdict is Xable",
        last_xable,
        0,
    );
    if trace {
        return stream::layers(&stream, cfg.seconds, cfg.tmp, out);
    }
    let groups = stream.groups.len() as u64;
    let mut passes = Series::default();
    repeat(cfg.seconds, |rep| {
        if rep % VERIFY_SETUP_EVERY == 0 {
            let again = setups.time(cfg.probe, || {
                record_stream(cfg.seed, &mut Outcome::default())
            });
            out.check(
                format!("verify-stream: the set-up records the same stream again (pass {rep})"),
                again.events == stream.events && again.requests == stream.requests,
                0,
            );
        }
        let pass = passes.time(cfg.probe, || stream::verify_pass(&stream, true, &picks));
        out.attempted += groups;
        let agree = pass.sampled == reference;
        out.check(
            format!("verify-stream: online verdicts equal batch verdicts at sampled prefixes (pass {rep})"),
            agree,
            groups,
        );
    });
    timings(out, stream.events.len(), &setups, &passes);
    Ok(())
}

// ---------------------------------------------------------------------------
// explore-campaign

pub fn explore_campaign(cfg: &Config, trace: bool, out: &mut Outcome) -> std::io::Result<()> {
    let setup = || {
        let base = scenarios::explore_base();
        for k in 0..EXPLORE_WARMUP_RUNS {
            base.clone().seed(mix(cfg.seed, 200 + k)).run();
        }
        base
    };
    let mut setups = Series::default();
    let base = setups.time(cfg.probe, setup);
    out.inputs.push(("campaigns", EXPLORE_CAMPAIGNS));
    out.inputs
        .push(("runs", EXPLORE_CAMPAIGNS * EXPLORE_RUNS as u64));
    let configs: Vec<ExplorerConfig> = (0..EXPLORE_CAMPAIGNS)
        .map(|c| ExplorerConfig::new(base.clone(), mix(cfg.seed, 100 + c), EXPLORE_RUNS))
        .collect();
    if trace {
        return explore_traced(cfg, &configs, out);
    }
    let mut passes = Series::default();
    let mut signatures = Vec::new();
    repeat(cfg.seconds, |rep| {
        setups.time(cfg.probe, setup);
        let reports = passes.time(cfg.probe, || {
            configs
                .iter()
                .map(|c| Explorer::new(c.clone()).run())
                .collect::<Vec<_>>()
        });
        let counts: Vec<usize> = reports.iter().map(|r| r.signatures).collect();
        if signatures.is_empty() {
            signatures = counts.clone();
        }
        for (report, first) in reports.iter().zip(&signatures) {
            let runs = report.runs as u64;
            out.attempted += runs;
            out.check(
                format!("explore-campaign: no violations (pass {rep})"),
                report.violations.is_empty(),
                runs,
            );
            out.check(
                format!("explore-campaign: signature count repeats (pass {rep})"),
                report.signatures == *first,
                runs,
            );
        }
    });
    timings(
        out,
        EXPLORE_CAMPAIGNS as usize * EXPLORE_RUNS,
        &setups,
        &passes,
    );
    Ok(())
}

fn explore_traced(
    cfg: &Config,
    configs: &[ExplorerConfig],
    out: &mut Outcome,
) -> std::io::Result<()> {
    let (mut scenario_s, mut oracle_s) = (0.0, 0.0);
    let (mut runs, mut signatures) = (0, 0);
    let mut times = LayerTimes::default();
    let mut counts = RunCounts::default();
    let mut stream = Stream::default();
    let mut latencies = Vec::new();
    let mut equivalent = true;
    for config in configs {
        let report = Explorer::new(config.clone()).run();
        runs += report.runs;
        signatures += report.signatures;
        out.attempted += report.runs as u64;
        out.check(
            "explore-campaign traced: no violations",
            report.violations.is_empty(),
            report.runs as u64,
        );
        for entry in &report.corpus {
            let scenario = entry.plan.apply(&config.base);
            let start = Instant::now();
            let run = scenario.run();
            scenario_s += secs(start);
            let start = Instant::now();
            let class = run_violation_class(&run, config.tier_check_max_events);
            oracle_s += secs(start);
            out.check(
                "explore-campaign traced: corpus replays without violation",
                class.is_none(),
                1,
            );
            let traced = traced::run(&scenario);
            equivalent &= traced::equivalent(&traced, &run);
            times.add(&traced.times);
            counts.add(&traced.counts);
            stream.push_run(&traced.events, &run.submitted);
            latencies.extend(sim_ms(&run));
        }
    }
    out.check(
        "explore-campaign traced: same events and snapshots as Scenario::run",
        equivalent,
        0,
    );
    tracing_overhead(out, times.total - scenario_s, times.self_sum() / scenario_s);
    out.metric("harness.explore.scenario_s", scenario_s, "s");
    out.metric("harness.explore.oracle_s", oracle_s, "s");
    out.metric("harness.explore.signatures", signatures as f64, "count");
    out.metric(
        "harness.explore.new_signature_ratio",
        signatures as f64 / runs.max(1) as f64,
        "ratio",
    );
    scenario_layers(out, &times, &counts);
    sim_latency_layers(out, &latencies);
    stream::layers(&stream, cfg.seconds / 2.0, cfg.tmp, out)
}
