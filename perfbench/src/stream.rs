//! Recorded event streams and the passes that replay them through the
//! services, store and core layers.
//!
//! A stream is the concatenation of the ledger streams of several
//! protocol runs. Each run's `req-i` keys are rewritten into a run-unique
//! namespace and its instants shifted past the previous run's, so the
//! concatenation is one well-formed history over one request sequence.
//! Events are fed in groups that share one recorded instant and service,
//! as the services record them; a request is declared with the group that
//! carries its first event.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use xability_core::xable::{Checker, FastChecker, IncrementalState, Verdict};
use xability_core::{Event, Request, Value};
use xability_obs::Obs;
use xability_services::{Ledger, RecordedEvent};
use xability_sim::{SimDuration, SimTime};
use xability_store::{recover_store, Codec, TierConfig, TieredStore, TraceStore};

use crate::stats::{median, quantile, repeat, Outcome};

/// The spill configuration of a default ledger with the LZ codec.
pub fn spill_config() -> TierConfig {
    TierConfig::with_codec(Codec::Lz)
}

#[derive(Debug, Clone)]
pub struct Group {
    pub range: Range<usize>,
    pub at: SimTime,
    pub service: usize,
    /// Requests declared once this group is handed over (a prefix length
    /// of `Stream::requests`).
    pub declared: usize,
}

#[derive(Debug, Clone, Default)]
pub struct Stream {
    pub events: Vec<Event>,
    pub groups: Vec<Group>,
    pub services: Vec<String>,
    pub requests: Vec<Request>,
    pub runs: usize,
}

/// Rewrites every `req-*` string inside `v` into run `run`'s namespace.
fn namespaced(v: &Value, run: usize) -> Value {
    match v {
        Value::Str(s) if s.starts_with("req-") => Value::Str(format!("r{run}.{s}")),
        Value::List(items) => Value::List(items.iter().map(|x| namespaced(x, run)).collect()),
        Value::Pair(p) => Value::pair(namespaced(&p.0, run), namespaced(&p.1, run)),
        other => other.clone(),
    }
}

/// The request key a start event's input carries: the key itself, or the
/// key of a round-stamped `(key, round)` input.
fn start_key(event: &Event) -> Option<&Value> {
    let Event::Start(_, input) = event else {
        return None;
    };
    match input {
        Value::Pair(p) => Some(&p.0),
        key => Some(key),
    }
}

impl Stream {
    /// Appends one run: its recorded events and the requests it submitted.
    pub fn push_run(&mut self, events: &[RecordedEvent], submitted: &[Request]) {
        let run = self.runs;
        self.runs += 1;
        let offset = self
            .groups
            .last()
            .map_or(SimTime::ZERO, |g| g.at + SimDuration::from_millis(1));
        let base = self.requests.len();
        let index: BTreeMap<Value, usize> = submitted
            .iter()
            .enumerate()
            .map(|(i, r)| (namespaced(r.input(), run), base + i))
            .collect();
        self.requests.extend(
            submitted
                .iter()
                .map(|r| Request::new(r.action().clone(), namespaced(r.input(), run))),
        );
        let mut declared = self.groups.last().map_or(0, |g| g.declared);
        for rec in events {
            let event = match &rec.event {
                Event::Start(a, v) => Event::Start(a.clone(), namespaced(v, run)),
                Event::Complete(a, v) => Event::Complete(a.clone(), namespaced(v, run)),
            };
            if let Some(&i) = start_key(&event).and_then(|k| index.get(k)) {
                declared = declared.max(i + 1);
            }
            let service = match self.services.iter().position(|s| *s == rec.service) {
                Some(i) => i,
                None => {
                    self.services.push(rec.service.clone());
                    self.services.len() - 1
                }
            };
            let at = offset + rec.at.since(SimTime::ZERO);
            let at_event = self.events.len();
            self.events.push(event);
            match self.groups.last_mut() {
                Some(g) if g.at == at && g.service == service && g.range.end == at_event => {
                    g.range.end += 1;
                    g.declared = declared;
                }
                _ => self.groups.push(Group {
                    range: at_event..at_event + 1,
                    at,
                    service,
                    declared,
                }),
            }
        }
        // A submitted request without events (one still in flight when
        // its run ended) is declared with the last group.
        if let Some(g) = self.groups.last_mut() {
            g.declared = self.requests.len();
        }
    }

    fn slice(&self, g: &Group) -> &[Event] {
        &self.events[g.range.clone()]
    }

    /// Indices of `n` groups spread evenly over the stream, the last group
    /// included.
    pub fn sample_groups(&self, n: usize) -> Vec<usize> {
        let len = self.groups.len();
        let mut picks: Vec<usize> = (1..=n).map(|i| i * len / n - 1).collect();
        picks.dedup();
        picks
    }

    /// The batch checker's verdict at the end of each sampled group, over
    /// the prefix and the requests declared by then — the reference the
    /// online verdicts are held to.
    pub fn batch_verdicts(&self, picks: &[usize]) -> Vec<Verdict> {
        let mut store = TraceStore::new();
        let mut out = Vec::new();
        let mut next = picks.iter().peekable();
        for (i, g) in self.groups.iter().enumerate() {
            store.push_batch(self.slice(g));
            if next.peek() == Some(&&i) {
                next.next();
                out.push(
                    FastChecker::default()
                        .check_requests_source(&store.view(), &self.requests[..g.declared]),
                );
            }
        }
        out
    }
}

/// One pass of the verify posture: a default ledger (online monitor on),
/// optionally with a metrics registry attached, fed group by group with a
/// verdict after every group.
pub struct VerifyPass {
    pub total: f64,
    pub declare: f64,
    pub record: f64,
    pub verdict: f64,
    /// Seconds from handing each group to `record_batch` until its verdict
    /// returned.
    pub latencies: Vec<f64>,
    /// The verdicts after the groups in `picks`.
    pub sampled: Vec<Verdict>,
}

pub fn verify_pass(stream: &Stream, with_obs: bool, picks: &[usize]) -> VerifyPass {
    let start = Instant::now();
    let mut ledger = Ledger::new();
    if with_obs {
        ledger.attach_obs(&Obs::new());
    }
    let mut pass = VerifyPass {
        total: 0.0,
        declare: 0.0,
        record: 0.0,
        verdict: 0.0,
        latencies: Vec::with_capacity(stream.groups.len()),
        sampled: Vec::with_capacity(picks.len()),
    };
    let mut next = picks.iter().peekable();
    let mut declared = 0;
    for (i, g) in stream.groups.iter().enumerate() {
        if g.declared > declared {
            let t = Instant::now();
            ledger.declare_requests(&stream.requests[..g.declared]);
            pass.declare += t.elapsed().as_secs_f64();
            declared = g.declared;
        }
        let t_record = Instant::now();
        ledger.record_batch(stream.slice(g), g.at, &stream.services[g.service]);
        let t_verdict = Instant::now();
        let verdict = ledger
            .monitor_verdict()
            .expect("a default ledger has a monitor");
        let end = Instant::now();
        pass.record += (t_verdict - t_record).as_secs_f64();
        pass.verdict += (end - t_verdict).as_secs_f64();
        pass.latencies.push((end - t_record).as_secs_f64());
        if next.peek() == Some(&&i) {
            next.next();
            pass.sampled.push(verdict);
        }
    }
    pass.total = start.elapsed().as_secs_f64();
    pass
}

/// One pass of the spill posture: record the stream through a default
/// ledger spilling to `dir`, flush, drop the ledger, reopen the directory
/// and take one verdict.
pub struct SpillPass {
    /// `attach_spill` through `flush_spill`.
    pub spill: f64,
    pub flush: f64,
    /// `reopen_spill` through the verdict.
    pub recover: f64,
    pub reopen: f64,
    pub verdict: Verdict,
    pub flushed: usize,
    /// Events the recovery report and the reopened ledger hold.
    pub recovered: (usize, usize),
    pub quarantined: usize,
}

pub fn spill_pass(stream: &Stream, dir: &Path) -> std::io::Result<SpillPass> {
    let t_spill = Instant::now();
    let mut ledger = Ledger::new();
    ledger.attach_spill(dir, spill_config())?;
    for g in &stream.groups {
        ledger.record_batch(stream.slice(g), g.at, &stream.services[g.service]);
    }
    let t_flush = Instant::now();
    let flushed = ledger.flush_spill()?;
    let flush = t_flush.elapsed().as_secs_f64();
    let spill = t_spill.elapsed().as_secs_f64();
    drop(ledger);

    let t_recover = Instant::now();
    let (mut ledger, report) = Ledger::reopen_spill(dir)?;
    let reopen = t_recover.elapsed().as_secs_f64();
    ledger.declare_requests(&stream.requests);
    let verdict = ledger
        .monitor_verdict()
        .expect("a reopened ledger has a monitor");
    let recover = t_recover.elapsed().as_secs_f64();
    let recovered = (report.events_recovered, ledger.event_count());
    std::fs::remove_dir_all(dir)?;
    Ok(SpillPass {
        spill,
        flush,
        recover,
        reopen,
        verdict,
        flushed,
        recovered,
        quarantined: report.quarantined.len(),
    })
}

/// Per-repetition samples of the stream layers.
#[derive(Default)]
struct Samples {
    services: [Vec<f64>; 5],
    latency: [Vec<f64>; 2],
    rates: [Vec<f64>; 2],
    store: [Vec<f64>; 3],
    core: [Vec<f64>; 4],
    obs_ratio: Vec<f64>,
    /// Byte, segment and decided-verdict counts of each repetition.
    counts: Vec<(usize, u64, usize, usize)>,
    /// Whether each spill pass flushed and recovered every event,
    /// quarantined nothing, and reopened to the in-memory final verdict.
    spill_ok: Vec<bool>,
}

/// The services, store, core and obs layers, each timed alone on
/// `stream`, repeated for `seconds` (medians reported). Spill
/// directories go under `tmp`.
pub fn layers(stream: &Stream, seconds: f64, tmp: &Path, out: &mut Outcome) -> std::io::Result<()> {
    let mut s = Samples::default();
    let mut result = Ok(());
    repeat(seconds, |rep| {
        if result.is_ok() {
            result = layers_once(stream, &tmp.join(format!("layers-{rep}")), &mut s);
        }
    });
    result?;
    let first = s.counts[0];
    out.check(
        "stream layers: byte, segment and verdict counts repeat",
        s.counts.iter().all(|c| *c == first),
        0,
    );
    let events = stream.events.len() as u64;
    for (rep, ok) in s.spill_ok.iter().enumerate() {
        out.attempted += events;
        out.check(
            format!("spill pass {rep}: every event recovered, nothing quarantined, same verdict"),
            *ok,
            events,
        );
    }
    let (bytes, disk_bytes, segments, decided) = first;
    let n = stream.events.len().max(1) as f64;
    let names = [
        "services.declare_s",
        "services.record_s",
        "services.verdict_s",
        "services.flush_spill_s",
        "services.reopen_spill_s",
    ];
    for (name, samples) in names.iter().zip(&s.services) {
        out.metric(name, median(samples), "s");
    }
    out.metric(
        "services.verdict_latency_us_p50",
        median(&s.latency[0]),
        "us",
    );
    out.metric(
        "services.verdict_latency_us_p99",
        median(&s.latency[1]),
        "us",
    );
    out.metric("services.spill_events_per_s", median(&s.rates[0]), "1/s");
    out.metric("services.recover_events_per_s", median(&s.rates[1]), "1/s");
    out.metric("store.push_batch_s", median(&s.store[0]), "s");
    out.metric("store.bytes_per_event", bytes as f64 / n, "B");
    out.metric("store.tier_push_s", median(&s.store[1]), "s");
    out.metric("store.recover_s", median(&s.store[2]), "s");
    out.metric("store.disk_bytes_per_event", disk_bytes as f64 / n, "B");
    out.metric("store.segments", segments as f64, "count");
    out.metric("core.declare_s", median(&s.core[0]), "s");
    out.metric("core.observe_batch_s", median(&s.core[1]), "s");
    out.metric("core.verdict_over_s", median(&s.core[2]), "s");
    out.metric("core.fast_check_s", median(&s.core[3]), "s");
    let verdicts = stream.groups.len().max(1) as f64;
    out.metric("core.decided_ratio", decided as f64 / verdicts, "ratio");
    out.metric("obs.overhead_ratio", median(&s.obs_ratio), "ratio");
    Ok(())
}

fn layers_once(stream: &Stream, dir: &Path, s: &mut Samples) -> std::io::Result<()> {
    let n = stream.events.len() as f64;
    // services: the verify posture with and without a registry, and the
    // spill posture.
    let last = stream.groups.len() - 1;
    let with = verify_pass(stream, true, &[last]);
    let without = verify_pass(stream, false, &[]);
    s.obs_ratio.push(with.total / without.total);
    s.latency[0].push(quantile(&with.latencies, 0.5) * 1e6);
    s.latency[1].push(quantile(&with.latencies, 0.99) * 1e6);
    s.services[0].push(with.declare);
    s.services[1].push(with.record);
    s.services[2].push(with.verdict);
    let spilled = spill_pass(stream, &dir.join("ledger"))?;
    s.services[3].push(spilled.flush);
    s.services[4].push(spilled.reopen);
    s.rates[0].push(n / spilled.spill);
    s.rates[1].push(n / spilled.recover);
    let len = stream.events.len();
    s.spill_ok.push(
        spilled.flushed == len
            && spilled.recovered == (len, len)
            && spilled.quarantined == 0
            && with.sampled == [spilled.verdict],
    );

    // store: the in-memory store, then the tiered store and its recovery.
    let t = Instant::now();
    let mut plain = TraceStore::new();
    for g in &stream.groups {
        plain.push_batch(stream.slice(g));
    }
    s.store[0].push(t.elapsed().as_secs_f64());
    let bytes = plain.approx_bytes();
    let tier_dir = dir.join("tier");
    let t = Instant::now();
    let mut tier = TieredStore::create(&tier_dir, spill_config())?;
    for g in &stream.groups {
        tier.push_batch(stream.slice(g))?;
    }
    tier.flush()?;
    s.store[1].push(t.elapsed().as_secs_f64());
    let (disk_bytes, segments) = (tier.disk_bytes(), tier.segments().len());
    drop(tier);
    let t = Instant::now();
    let (recovered, _) = recover_store(&tier_dir)?;
    s.store[2].push(t.elapsed().as_secs_f64());
    std::fs::remove_dir_all(dir)?;

    // core: the batch checker over the recovered view, then the online
    // state over a growing store view, a verdict after every group.
    let t = Instant::now();
    let verdict = FastChecker::default().check_requests_source(&recovered.view(), &stream.requests);
    s.core[3].push(t.elapsed().as_secs_f64());
    let _ = std::hint::black_box(verdict);
    let (mut declare, mut observe, mut verdict, mut decided) = (0.0, 0.0, 0.0, 0usize);
    let mut state = IncrementalState::new();
    let mut view = TraceStore::new();
    let mut declared = 0;
    for g in &stream.groups {
        let t = Instant::now();
        for r in &stream.requests[declared..g.declared] {
            state.declare_request(r);
        }
        declared = declared.max(g.declared);
        let t_observe = Instant::now();
        state.observe_batch(stream.slice(g));
        let t_push = Instant::now();
        view.push_batch(stream.slice(g));
        let t_verdict = Instant::now();
        let v = state.verdict_over(&view.view());
        let end = Instant::now();
        declare += (t_observe - t).as_secs_f64();
        observe += (t_push - t_observe).as_secs_f64();
        verdict += (end - t_verdict).as_secs_f64();
        decided += usize::from(!v.is_unknown());
    }
    s.core[0].push(declare);
    s.core[1].push(observe);
    s.core[2].push(verdict);
    s.counts.push((bytes, disk_bytes, segments, decided));
    Ok(())
}
