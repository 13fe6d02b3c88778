//! The traced scenario runner: `Scenario::run` rebuilt from the public
//! parts of the sim, protocol and services crates, with every actor
//! wrapped in [`Timed`] so each callback is timed from outside.
//!
//! The runner must stay observationally identical to `Scenario::run`:
//! same process layout and names, same construction order, same RNG
//! draws. [`equivalent`] holds it to that on every traced run — the
//! recorded event stream and the `MetricsSnapshot` JSON must match the
//! untraced run byte for byte.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use xability_core::{ActionId, ActionName, Request, Value};
use xability_harness::scenario::r3_violation_for;
use xability_harness::{RunReport, Scenario, Scheme, Workload};
use xability_obs::{MetricsSnapshot, Obs};
use xability_protocol::{Client, LogicalRequest, ProtoMsg, ServiceActor, XReplica, XReplicaConfig};
use xability_services::catalog::{Bank, Reservation};
use xability_services::{
    shared_ledger, BusinessLogic, RecordedEvent, ServiceConfig, ServiceCore, SharedLedger,
};
use xability_sim::{
    Actor, Context, Metrics as SimMetrics, ProcessId, SimConfig, SimDuration, TimerId, World,
};

/// Callback time buckets, one per protocol-layer metric.
#[derive(Debug, Clone, Copy)]
enum Slot {
    ReplicaTimer = 0,
    ReplicaMessage = 1,
    Client = 2,
    Service = 3,
}

const SLOTS: usize = 4;

type Clock = Rc<[Cell<Duration>; SLOTS]>;

/// An actor wrapper that adds the wall time of each callback of `inner`
/// to a shared clock slot. Replica timer callbacks go to their own slot;
/// every other callback of a replica (message, start, suspicion) goes to
/// the message slot.
struct Timed<A> {
    inner: A,
    clock: Clock,
    timer_slot: Slot,
    other_slot: Slot,
}

impl<A> Timed<A> {
    fn new(inner: A, clock: &Clock, timer_slot: Slot, other_slot: Slot) -> Self {
        Timed {
            inner,
            clock: Rc::clone(clock),
            timer_slot,
            other_slot,
        }
    }

    fn charge(&self, slot: Slot, start: Instant) {
        let cell = &self.clock[slot as usize];
        cell.set(cell.get() + start.elapsed());
    }
}

impl<A: Actor<ProtoMsg>> Actor<ProtoMsg> for Timed<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let start = Instant::now();
        self.inner.on_start(ctx);
        self.charge(self.other_slot, start);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: ProcessId, msg: ProtoMsg) {
        let start = Instant::now();
        self.inner.on_message(ctx, from, msg);
        self.charge(self.other_slot, start);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, timer: TimerId) {
        let start = Instant::now();
        self.inner.on_timer(ctx, timer);
        self.charge(self.timer_slot, start);
    }

    fn on_suspicion(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        subject: ProcessId,
        suspected: bool,
    ) {
        let start = Instant::now();
        self.inner.on_suspicion(ctx, subject, suspected);
        self.charge(self.other_slot, start);
    }
}

/// Wall-clock seconds per layer of one traced run. The fields partition
/// the run: `total` is their sum up to the cost of reading the clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Building the world, the processes and the fault schedule.
    pub build: f64,
    /// `World::run_while` + settle, minus the actor callbacks.
    pub sim_self: f64,
    pub replica_timer: f64,
    pub replica_message: f64,
    pub client: f64,
    /// The service actor, including the ledger and its online monitor.
    pub service: f64,
    /// Exactly-once, R3 and R4 evaluation after the run.
    pub evaluate: f64,
    pub total: f64,
}

impl LayerTimes {
    pub fn self_sum(&self) -> f64 {
        self.build
            + self.sim_self
            + self.replica_timer
            + self.replica_message
            + self.client
            + self.service
            + self.evaluate
    }

    pub fn add(&mut self, other: &LayerTimes) {
        self.build += other.build;
        self.sim_self += other.sim_self;
        self.replica_timer += other.replica_timer;
        self.replica_message += other.replica_message;
        self.client += other.client;
        self.service += other.service;
        self.evaluate += other.evaluate;
        self.total += other.total;
    }
}

/// Protocol and simulator counts of one run (all deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    pub completed: u64,
    pub sim_events: u64,
    pub messages_sent: u64,
    pub timers_fired: u64,
    pub rounds_owned: u64,
    pub cancels: u64,
    pub cleanings: u64,
    pub invoke_retransmits: u64,
    pub decides: u64,
}

impl RunCounts {
    pub fn add(&mut self, o: &RunCounts) {
        self.completed += o.completed;
        self.sim_events += o.sim_events;
        self.messages_sent += o.messages_sent;
        self.timers_fired += o.timers_fired;
        self.rounds_owned += o.rounds_owned;
        self.cancels += o.cancels;
        self.cleanings += o.cleanings;
        self.invoke_retransmits += o.invoke_retransmits;
        self.decides += o.decides;
    }
}

/// Everything a traced run yields.
pub struct TracedRun {
    pub times: LayerTimes,
    pub counts: RunCounts,
    pub events: Vec<RecordedEvent>,
    pub metrics: MetricsSnapshot,
}

/// Counts of `report` in the traced runner's terms, for comparing a
/// traced run with an untraced one.
pub fn report_counts(report: &RunReport) -> RunCounts {
    counts_of(
        report.completed_requests,
        &report.sim,
        &report.replica_metrics,
        &report.metrics,
    )
}

fn counts_of(
    completed: usize,
    sim: &SimMetrics,
    replicas: &xability_protocol::ReplicaMetrics,
    metrics: &MetricsSnapshot,
) -> RunCounts {
    RunCounts {
        completed: completed as u64,
        sim_events: sim.events_processed,
        messages_sent: sim.messages_sent,
        timers_fired: sim.timers_fired,
        rounds_owned: replicas.rounds_owned,
        cancels: replicas.cancels,
        cleanings: replicas.cleanings,
        invoke_retransmits: replicas.invoke_retransmits,
        decides: metrics
            .spans
            .iter()
            .filter(|s| s.scope == "consensus.decide")
            .count() as u64,
    }
}

/// The request plan of `workload`, as `Scenario::run` builds it.
fn requests(workload: &Workload, service: ProcessId) -> Vec<LogicalRequest> {
    let (count, action, payload) = match *workload {
        Workload::BankTransfers { count, amount } => (
            count,
            ActionName::undoable("transfer"),
            Value::list([
                Value::pair(Value::from("from"), Value::from("src")),
                Value::pair(Value::from("to"), Value::from("dst")),
                Value::pair(Value::from("amount"), Value::from(amount)),
            ]),
        ),
        Workload::Reservations { count, seats } => (
            count,
            ActionName::undoable("reserve"),
            Value::list([Value::pair(Value::from("seats"), Value::from(seats))]),
        ),
        other => panic!("the traced runner covers bank and reservation scenarios, not {other:?}"),
    };
    (0..count)
        .map(|i| LogicalRequest::new(format!("req-{i}"), action.clone(), payload.clone(), service))
        .collect()
}

/// The service logic of `workload`, as `Scenario::run` builds it.
fn logic(workload: &Workload) -> Box<dyn BusinessLogic> {
    match *workload {
        Workload::BankTransfers { count, amount } => Box::new(Bank::new([
            ("src".to_owned(), count as i64 * amount + 1_000),
            ("dst".to_owned(), 0),
        ])),
        Workload::Reservations { count, seats } => {
            Box::new(Reservation::new(count as i64 * seats + 10))
        }
        other => panic!("the traced runner covers bank and reservation scenarios, not {other:?}"),
    }
}

/// Runs `s` like `Scenario::run`, timing each layer. Only the x-able
/// scheme without a client crash or a planted weakness is covered — the
/// only scenarios the benchmark runs.
pub fn run(s: &Scenario) -> TracedRun {
    assert!(
        s.scheme == Scheme::XAble && s.client_crash.is_none() && !s.weakened_retry,
        "the traced runner covers plain x-able scenarios"
    );
    let clock: Clock = Rc::new(Default::default());
    let t_build = Instant::now();
    let ledger = shared_ledger();
    let obs = Obs::new();
    let mut world: World<ProtoMsg> = World::new(SimConfig {
        seed: s.seed,
        latency: s.latency,
        fd: s.fd,
        faults: s.net_faults,
    });
    world.attach_obs(&obs);
    ledger.borrow_mut().attach_obs(&obs);

    let replica_ids: Vec<ProcessId> = (0..s.replicas).map(ProcessId).collect();
    let service_id = ProcessId(s.replicas);
    let client_id = ProcessId(s.replicas + 1);
    for &id in &replica_ids {
        // Bound before wrapping: `World::actor_as` cannot reach through
        // the wrapper. Binding registers the same counters either way.
        let mut replica = XReplica::new(id, replica_ids.clone(), XReplicaConfig::default());
        replica.attach_obs(&obs);
        let actor = Timed::new(replica, &clock, Slot::ReplicaTimer, Slot::ReplicaMessage);
        let added = world.add_process(format!("replica{}", id.0), Box::new(actor));
        assert_eq!(added, id);
    }
    let core = ServiceCore::new(
        logic(&s.workload),
        ServiceConfig {
            failures: s.service_failures,
            dedup: s.dedup,
        },
        ledger.clone(),
    );
    let service = Timed::new(
        ServiceActor::new(core),
        &clock,
        Slot::Service,
        Slot::Service,
    );
    assert_eq!(world.add_process("service", Box::new(service)), service_id);
    let plan = requests(&s.workload, service_id);
    let mut client = Client::new(replica_ids.clone(), plan.clone());
    client.attach_obs(&obs);
    let client = Timed::new(client, &clock, Slot::Client, Slot::Client);
    assert_eq!(world.add_process("client", Box::new(client)), client_id);
    for &(idx, at) in &s.crashes {
        world.schedule_crash(ProcessId(idx), at);
    }
    for (members, from, until) in &s.partitions {
        let ids: Vec<ProcessId> = members.iter().map(|&i| ProcessId(i)).collect();
        world.schedule_partition(&ids, *from, *until);
    }
    let build = t_build.elapsed().as_secs_f64();

    let t_run = Instant::now();
    world.run_while(
        |w| {
            !w.actor_as::<Timed<Client>>(client_id)
                .map(|c| c.inner.is_done())
                .unwrap_or(true)
                && w.is_alive(client_id)
        },
        s.horizon,
    );
    let settle = world.now() + SimDuration::from_millis(500);
    world.run_until(settle);
    let run = t_run.elapsed().as_secs_f64();

    let t_eval = Instant::now();
    let (completed, replicas) = evaluate(&world, &ledger, &plan, client_id, &replica_ids);
    let metrics = obs.snapshot();
    let evaluate = t_eval.elapsed().as_secs_f64();
    let total = t_build.elapsed().as_secs_f64();
    let events = ledger.borrow().recorded_events().collect();

    let slot = |s: Slot| clock[s as usize].get().as_secs_f64();
    let callbacks = slot(Slot::ReplicaTimer)
        + slot(Slot::ReplicaMessage)
        + slot(Slot::Client)
        + slot(Slot::Service);
    let times = LayerTimes {
        build,
        sim_self: run - callbacks,
        replica_timer: slot(Slot::ReplicaTimer),
        replica_message: slot(Slot::ReplicaMessage),
        client: slot(Slot::Client),
        service: slot(Slot::Service),
        evaluate,
        total,
    };
    TracedRun {
        times,
        counts: counts_of(completed, world.metrics(), &replicas, &metrics),
        events,
        metrics,
    }
}

/// The evaluation half of `Scenario::run`: the same ledger queries in the
/// same order (the R3 verdict drives the monitor, whose instruments the
/// snapshot taken afterwards includes).
fn evaluate(
    world: &World<ProtoMsg>,
    ledger: &SharedLedger,
    plan: &[LogicalRequest],
    client_id: ProcessId,
    replica_ids: &[ProcessId],
) -> (usize, xability_protocol::ReplicaMetrics) {
    let client = &world
        .actor_as::<Timed<Client>>(client_id)
        .expect("the client exists")
        .inner;
    let completed = client.completed_requests();
    let completed_keys: Vec<(ActionName, Value)> = completed
        .iter()
        .map(|r| (r.action.clone(), r.key()))
        .collect();
    let exactly_once = ledger.borrow().exactly_once_violations(&completed_keys);
    let submitted: Vec<Request> = plan
        .iter()
        .take((completed.len() + 1).min(plan.len()))
        .map(|r| Request::new(ActionId::base(r.action.clone()), r.key()))
        .collect();
    let r3 = r3_violation_for(ledger, &submitted);
    let service = &world
        .actor_as::<Timed<ServiceActor>>(ProcessId(replica_ids.len()))
        .expect("the service exists")
        .inner;
    let r4_ok = client.results().iter().all(|(id, result)| {
        plan.iter().find(|r| &r.id == id).is_none_or(|r| {
            service
                .core()
                .is_possible_reply(&r.action, &r.payload, result)
        })
    });
    let mut replicas = xability_protocol::ReplicaMetrics::default();
    let mut quiescent = true;
    for &id in replica_ids {
        let r = &world
            .actor_as::<Timed<XReplica>>(id)
            .expect("replicas are traced x-able replicas")
            .inner;
        quiescent &= r.pending_invocations() == 0;
        let m = r.metrics();
        replicas.rounds_owned += m.rounds_owned;
        replicas.cancels += m.cancels;
        replicas.cleanings += m.cleanings;
        replicas.invoke_retransmits += m.invoke_retransmits;
    }
    std::hint::black_box((exactly_once, r3.violation, r4_ok, quiescent));
    (completed.len(), replicas)
}

/// Whether the traced run is observationally the untraced `report`:
/// the same recorded events and the same snapshot JSON.
pub fn equivalent(traced: &TracedRun, report: &RunReport) -> bool {
    let untraced: Vec<RecordedEvent> = report.ledger.borrow().recorded_events().collect();
    traced.events == untraced
        && traced.metrics.to_json() == report.metrics.to_json()
        && traced.counts == report_counts(report)
}
