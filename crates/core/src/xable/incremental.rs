//! Online x-ability checking: decide R3 *while* the history is being
//! produced — and, driven one-shot, after it.
//!
//! The [`IncrementalChecker`] maintains the fast checker's state machine
//! online:
//!
//! * [`push`](IncrementalChecker::push) consumes one event in amortized
//!   O(1): a single streaming attribution step (`Engine::observe` in
//!   [`super::fast`]) appends the event's index to its symbol-keyed
//!   `(base action, input)` group, invalidates only that group's memoized
//!   search outcomes, and marks the requests watching the group *dirty*.
//! * [`declare`](IncrementalChecker::declare) appends an expected request
//!   to the R3 sequence (requests arrive over time too: the client submits
//!   `Rᵢ₊₁` only after `Rᵢ` succeeded).
//! * [`verdict`](IncrementalChecker::verdict) answers the R3 question for
//!   the *current prefix* at any moment — in **O(dirty groups)**, not
//!   O(all groups): the checker maintains an aggregate verdict (per-request
//!   decisions, the first failing request, the set of undeclared groups
//!   that fail to erase, and the effect-order violations between adjacent
//!   requests) and a verdict call re-decides only the requests whose
//!   groups were touched since the last call, up to the first failing
//!   one. In steady state — events arriving for the newest request while
//!   earlier requests sit clean — that is amortized O(1) bookkeeping per
//!   verdict plus the cost of materializing the answer.
//!
//! This module holds the crate's only R3 assembly. [`super::FastChecker`]
//! is a one-shot driver of [`IncrementalState`]: it declares the
//! requests, observes the whole source in one pass, and takes one verdict.
//! So the incremental verdict at any prefix equals
//! `FastChecker::check_requests` on that prefix exactly when carrying the
//! aggregate across pushes and verdicts is equivalent to building it
//! fresh; the property tests in `tests/incremental_props.rs` and
//! `tests/checker_scaling.rs` verify that prefix by prefix, and
//! `tests/verdict_digest.rs` pins the one-shot answers themselves.
//!
//! The per-group state carried online, the dirty-set/aggregate invariant,
//! the lazy drain, and the reason cross-group reduction never occurs
//! (rules 18–20 relate events of one group only) are spelled out in
//! DESIGN.md §4.3.
//!
//! # Examples
//!
//! ```
//! use xability_core::xable::IncrementalChecker;
//! use xability_core::{ActionId, ActionName, Event, Value};
//!
//! let get = ActionId::base(ActionName::idempotent("get"));
//! let mut checker = IncrementalChecker::new();
//! checker.declare(get.clone(), Value::from(1));
//!
//! checker.push(Event::start(get.clone(), Value::from(1)));
//! assert!(!checker.verdict().is_xable()); // started, not yet completed
//!
//! checker.push(Event::complete(get, Value::from(42)));
//! assert!(checker.verdict().is_xable()); // the prefix is now x-able
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Range;

use xability_obs::{Counter, Histogram, Obs};

use crate::action::{ActionId, ActionName, Request};
use crate::event::Event;
use crate::history::{History, HistoryRead};
use crate::value::Value;
use crate::xable::checker::{combine_r3_attempts, Verdict, Witness};
use crate::xable::fast::{Engine, EraseOutcome, ExecOutcome, GroupSym, KeySyms, Observed};
use crate::xable::search::SearchBudget;

/// Which declared requests read a group's decision — the fan-out of one
/// dirty group. A group is *plain* for the request whose key equals the
/// group key, and/or a *round-stamped transaction* of the undoable request
/// whose key equals the group's stamped parent; a group watched by neither
/// is undeclared and must erase.
#[derive(Debug, Default, Clone, Copy)]
struct Watchers {
    plain_op: Option<usize>,
    stamped_op: Option<usize>,
}

impl Watchers {
    fn is_undeclared(&self) -> bool {
        self.plain_op.is_none() && self.stamped_op.is_none()
    }
}

/// The cached decision of one declared request.
#[derive(Debug, Default)]
struct OpEntry {
    /// The group whose key equals the request key, if it exists.
    plain: Option<GroupSym>,
    /// The round-stamped transaction groups of this (undoable) request,
    /// in group-symbol (first-seen) order.
    stamped: Vec<GroupSym>,
    /// How many stamped transactions have a commit completion.
    committed: usize,
    /// The memoized decision (recomputed only while the request is dirty).
    state: OpState,
}

#[derive(Debug, Default, Clone)]
enum OpState {
    /// Not yet computed (freshly declared).
    #[default]
    Pending,
    /// The request's events reduce to a failure-free execution.
    Ok { output: Value, anchor: usize },
    /// The request fails (or is undecidable) for this reason; the message
    /// is materialized lazily so clean verdicts never format strings.
    Bad(OpFail),
}

impl OpState {
    fn anchor(&self) -> Option<usize> {
        match self {
            OpState::Ok { anchor, .. } => Some(*anchor),
            _ => None,
        }
    }
}

/// Why a request's decision is not `Ok` — enough to regenerate the exact
/// reason string.
#[derive(Debug, Clone, Copy)]
enum OpFail {
    NeverExecuted,
    /// Both plain and round-stamped events exist (→ `Unknown`).
    PlainAndStamped,
    /// `n != 1` rounds committed.
    CommittedRounds(usize),
    /// A cancelled round's events do not erase.
    RoundNotErasing(GroupSym),
    /// A cancelled round's erase search ran out of budget (→ `Unknown`).
    RoundEraseBudget(GroupSym),
    /// The executing group does not reduce to a failure-free execution.
    Stuck,
    /// The executing group's search ran out of budget (→ `Unknown`).
    ExecBudget,
}

/// How an undeclared group fails to erase.
#[derive(Debug, Clone, Copy)]
enum EraseFail {
    Stuck,
    Budget,
}

/// The maintained aggregate behind O(dirty) verdicts. The invariant — the
/// reason a verdict may skip every clean request — is:
///
/// > For every request not in `dirty_ops`, `entries[op].state` (and its
/// > `failing_ops` membership) equals a from-scratch decision of that
/// > request on the current prefix; for every group not in
/// > `dirty_undeclared` that no request watches, `undeclared_fail`
/// > records exactly whether (and how) its erase search fails; and for
/// > every adjacent pair of clean requests, `order_bad` holds the pair
/// > exactly when their effect anchors are out of submission order.
///
/// Pushing an event touches one group and therefore dirties at most two
/// requests (its plain watcher and its stamped watcher) or one undeclared
/// group; a verdict drains the dirty sets up to the first failing request
/// and re-decides only those (see `IncrementalState::refresh`).
#[derive(Debug, Default)]
struct Aggregate {
    /// Per-request interned key (`None` for a non-base declared action).
    op_keys: Vec<Option<KeySyms>>,
    /// Request key → request index (first declarer; duplicates trip
    /// `declare_invalid`).
    op_lookup: HashMap<KeySyms, usize>,
    /// Undoable request key → request index, for adopting round-stamped
    /// transaction groups as they appear.
    stamped_parents: HashMap<KeySyms, usize>,
    /// Every round-stamped-shaped group per parent key (declared or not),
    /// in group-symbol order — so a late-declared undoable request adopts
    /// its existing rounds.
    stamped_children: HashMap<KeySyms, Vec<GroupSym>>,
    /// Per-request cached decisions, index-aligned with the declared
    /// sequence.
    entries: Vec<OpEntry>,
    /// Sticky first declaration-validation failure (non-base action or
    /// duplicate identity), in declaration order.
    declare_invalid: Option<String>,
    /// Per-group watcher fan-out, index-aligned with the engine's groups.
    watchers: Vec<Watchers>,
    /// Requests whose groups changed since the last verdict.
    dirty_ops: BTreeSet<usize>,
    /// Unwatched groups that changed since the last verdict.
    dirty_undeclared: BTreeSet<GroupSym>,
    /// Unwatched groups currently failing to erase (ascending symbol
    /// order: the first-seen failing group is the one reported).
    undeclared_fail: BTreeMap<GroupSym, EraseFail>,
    /// Requests whose state is `Bad` (ascending = first failure wins);
    /// exact below the first dirty request.
    failing_ops: BTreeSet<usize>,
    /// Indices `i ≥ 1` where both anchors are defined and
    /// `anchor[i-1] >= anchor[i]`.
    order_bad: BTreeSet<usize>,
}

impl Aggregate {
    /// Records what one observed event did to the partition. The record
    /// is self-contained (key and stamped parent ride along), so tracking
    /// borrows nothing from the engine — which is what lets
    /// `observe_batch` stream records out of `Engine::observe_batch` while
    /// the engine is mutably borrowed.
    fn track(&mut self, obs: Observed) {
        let sym = obs.group;
        if obs.created {
            let mut w = Watchers::default();
            let key = obs.key;
            if let Some(&op) = self.op_lookup.get(&key) {
                w.plain_op = Some(op);
                self.entries[op].plain = Some(sym);
            }
            if let Some(parent) = obs.stamped_parent {
                self.stamped_children.entry(parent).or_default().push(sym);
                if let Some(&op) = self.stamped_parents.get(&parent) {
                    w.stamped_op = Some(op);
                    // New symbols are assigned in ascending order, so the
                    // per-request round list stays sorted.
                    self.entries[op].stamped.push(sym);
                }
            }
            self.watchers.push(w);
        }
        let w = self.watchers[sym as usize];
        if obs.commit_completed {
            if let Some(op) = w.stamped_op {
                self.entries[op].committed += 1;
            }
        }
        if let Some(op) = w.plain_op {
            self.dirty_ops.insert(op);
        }
        if let Some(op) = w.stamped_op {
            self.dirty_ops.insert(op);
        }
        if w.is_undeclared() {
            self.dirty_undeclared.insert(sym);
        }
    }

    /// Re-derives the order-violation membership of the adjacent pairs
    /// around `op` after its anchor may have changed.
    fn refresh_order_pairs(&mut self, op: usize) {
        for i in [op, op + 1] {
            if i == 0 || i >= self.entries.len() {
                continue;
            }
            let bad = match (
                self.entries[i - 1].state.anchor(),
                self.entries[i].state.anchor(),
            ) {
                (Some(prev), Some(next)) => prev >= next,
                _ => false,
            };
            if bad {
                self.order_bad.insert(i);
            } else {
                self.order_bad.remove(&i);
            }
        }
    }
}

/// The storage-free core of the online checker: the symbol-keyed engine
/// (attribution state plus per-group partition with warm memo cells), the
/// declared request sequence, and the dirty-tracked aggregate verdict —
/// everything the incremental verdict needs *except* the events
/// themselves.
///
/// An `IncrementalState` is a **cursor** over an event stream that lives
/// elsewhere: [`observe`](IncrementalState::observe) consumes the next
/// event (amortized O(1)) and advances the cursor, and
/// [`verdict_over`](IncrementalState::verdict_over) answers the R3
/// question against any [`HistoryRead`] holding the consumed prefix —
/// typically the shared `TraceStore` a ledger records into, so the
/// monitor never owns a second copy of the trace. The self-contained
/// [`IncrementalChecker`] wraps one of these around an owned [`History`].
///
/// # Examples
///
/// ```
/// use xability_core::xable::IncrementalState;
/// use xability_core::{ActionId, ActionName, Event, History, Value};
///
/// let get = ActionId::base(ActionName::idempotent("get"));
/// let mut shared = History::empty(); // stand-in for a shared store
/// let mut monitor = IncrementalState::new();
/// monitor.declare(get.clone(), Value::from(1));
///
/// for event in [
///     Event::start(get.clone(), Value::from(1)),
///     Event::complete(get, Value::from(42)),
/// ] {
///     monitor.observe(&event); // O(1), no event copy retained
///     shared.push(event);
/// }
/// assert!(monitor.verdict_over(&shared).is_xable());
/// ```
#[derive(Debug)]
pub struct IncrementalState {
    budget: SearchBudget,
    requests: Vec<(ActionId, Value)>,
    engine: Engine,
    /// First completion observed without any start of its action — a
    /// permanent violation of the event axioms (§2.2).
    orphan: Option<String>,
    /// Cursor position: how many events of the underlying stream have
    /// been consumed.
    consumed: usize,
    /// Interior mutability: a verdict drains (part of) the dirty sets and
    /// refreshes the cached per-request decisions, which is logically a
    /// cache fill behind the `&self` query API.
    agg: RefCell<Aggregate>,
    obs: CheckerObs,
}

/// Checker-engine instruments: inert by default (every handle is a noop),
/// bound to a shared registry by [`IncrementalState::attach_obs`]. All
/// handles are atomics, so recording works through the `&self` verdict
/// path.
///
/// A refresh drains the dirty sets only up to the first failing request,
/// so the dirty-set sizes it records may include entries carried over
/// from earlier refreshes — a request left dirty behind a failing one, or
/// undeclared groups no attempt could reach — and count them again.
#[derive(Debug, Default)]
struct CheckerObs {
    /// Dirty undeclared-group set size at the start of each refresh.
    dirty_undeclared: Histogram,
    /// Dirty request set size at the start of each refresh.
    dirty_ops: Histogram,
    /// Refresh passes (one per verdict/decision query).
    refreshes: Counter,
    /// Verdict assemblies.
    verdicts: Counter,
    /// Fast-tier budget exhaustions while erasing undeclared groups — each
    /// is a question the fast tier gave up on (the answer a one-shot
    /// caller would escalate to the search tier).
    erase_budget_escalations: Counter,
    /// Per-request decisions lost to a search-budget exhaustion (exec or
    /// cancelled-round erase).
    op_budget_escalations: Counter,
}

impl CheckerObs {
    fn bind(obs: &Obs) -> Self {
        CheckerObs {
            dirty_undeclared: obs.histogram("checker.dirty_undeclared"),
            dirty_ops: obs.histogram("checker.dirty_ops"),
            refreshes: obs.counter("checker.refreshes"),
            verdicts: obs.counter("checker.verdicts"),
            erase_budget_escalations: obs.counter("checker.erase_budget_escalations"),
            op_budget_escalations: obs.counter("checker.op_budget_escalations"),
        }
    }
}

impl Default for IncrementalState {
    fn default() -> Self {
        IncrementalState::new()
    }
}

impl IncrementalState {
    /// An empty state with the fast tier's default per-group budget.
    pub fn new() -> Self {
        IncrementalState::with_budget(SearchBudget::small())
    }

    /// An empty state with an explicit per-group search budget.
    pub fn with_budget(budget: SearchBudget) -> Self {
        IncrementalState {
            budget,
            requests: Vec::new(),
            engine: Engine::default(),
            orphan: None,
            consumed: 0,
            agg: RefCell::new(Aggregate::default()),
            obs: CheckerObs::default(),
        }
    }

    /// Binds this checker's instruments (dirty-set size histograms,
    /// refresh/verdict counters, budget-escalation counters) to a shared
    /// metrics registry. Inert (noop handles) until called.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = CheckerObs::bind(obs);
    }

    /// Appends an expected request to the declared R3 sequence, wiring
    /// any groups that already belong to it (a request may be declared
    /// after its first events were observed) into the aggregate.
    pub fn declare(&mut self, action: ActionId, input: Value) {
        let agg = self.agg.get_mut();
        let idx = agg.entries.len();
        agg.entries.push(OpEntry::default());
        agg.dirty_ops.insert(idx);
        if !matches!(action, ActionId::Base(_)) {
            if agg.declare_invalid.is_none() {
                agg.declare_invalid = Some(msg_not_base(&action));
            }
            agg.op_keys.push(None);
            self.requests.push((action, input));
            return;
        }
        let key = (
            self.engine.interner_mut().intern_action(action.base_name()),
            self.engine.interner_mut().intern_value(&input),
        );
        agg.op_keys.push(Some(key));
        if agg.op_lookup.contains_key(&key) {
            if agg.declare_invalid.is_none() {
                agg.declare_invalid = Some(msg_duplicate(action.base_name(), &input));
            }
            self.requests.push((action, input));
            return;
        }
        agg.op_lookup.insert(key, idx);
        if let Some(sym) = self.engine.group_with_key(key) {
            agg.entries[idx].plain = Some(sym);
            agg.watchers[sym as usize].plain_op = Some(idx);
            agg.dirty_undeclared.remove(&sym);
            agg.undeclared_fail.remove(&sym);
        }
        if action.is_undoable_base() {
            agg.stamped_parents.insert(key, idx);
            if let Some(children) = agg.stamped_children.get(&key).cloned() {
                for sym in children {
                    agg.watchers[sym as usize].stamped_op = Some(idx);
                    agg.entries[idx].stamped.push(sym);
                    if self.engine.cells[sym as usize].has_commit_completion {
                        agg.entries[idx].committed += 1;
                    }
                    agg.dirty_undeclared.remove(&sym);
                    agg.undeclared_fail.remove(&sym);
                }
            }
        }
        self.requests.push((action, input));
    }

    /// Appends an expected [`Request`] to the declared R3 sequence.
    pub fn declare_request(&mut self, request: &Request) {
        self.declare(request.action().clone(), request.input().clone());
    }

    /// Consumes the next event of the stream, in amortized O(1): one
    /// attribution step, one group-cell append, one memo invalidation,
    /// one dirty mark. The event itself is not retained — only its index
    /// joins the partition.
    pub fn observe(&mut self, event: &Event) {
        let index = self.consumed;
        match self.engine.observe(event, index) {
            Ok(obs) => self.agg.get_mut().track(obs),
            Err(reason) => {
                if self.orphan.is_none() {
                    self.orphan = Some(reason);
                }
            }
        }
        self.consumed += 1;
    }

    /// Consumes a slice of events in one pass — the batch counterpart of
    /// [`IncrementalState::observe`], byte-identical in every later
    /// verdict (pinned by the `observe_batch` proptests).
    ///
    /// The whole slice runs through `Engine::observe_batch`'s
    /// batch-local symbol/group memos (one hash probe per *distinct*
    /// name/input/group in the batch instead of several per event), the
    /// aggregate is borrowed once per batch instead of once per event,
    /// and consecutive events of one group collapse to a single
    /// dirty-mark (re-marking a dirty group is a no-op, so skipping the
    /// repeat is free and exact).
    pub fn observe_batch(&mut self, events: &[Event]) {
        let agg = self.agg.get_mut();
        let orphan = &mut self.orphan;
        let mut last_group: Option<GroupSym> = None;
        self.engine
            .observe_batch(events, self.consumed, &mut |result| match result {
                Ok(obs) => {
                    // Group creation and commit completion mutate watcher
                    // and committed-count state; a repeat event of the
                    // group just tracked would only re-insert the same
                    // dirty marks.
                    if obs.created || obs.commit_completed || last_group != Some(obs.group) {
                        agg.track(obs);
                        last_group = Some(obs.group);
                    }
                }
                Err(reason) => {
                    if orphan.is_none() {
                        *orphan = Some(reason);
                    }
                }
            });
        self.consumed += events.len();
    }

    /// Consumes every event of `h` in one pass — how the one-shot
    /// `FastChecker` frontends feed a complete source to a fresh state.
    pub(crate) fn observe_source<H: HistoryRead + ?Sized>(&mut self, h: &H) {
        h.scan_events(&mut |_, event| {
            self.observe(event);
            true
        });
    }

    /// The cursor position: how many events have been consumed.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Returns `true` if no event has been consumed yet.
    pub fn is_empty(&self) -> bool {
        self.consumed == 0
    }

    /// The declared request sequence.
    pub fn requests(&self) -> &[(ActionId, Value)] {
        &self.requests
    }

    /// Drains the dirty sets up to the first failing request: re-decides
    /// the touched requests in ascending order through the warm memo
    /// cells, stopping once a clean failing request precedes every dirty
    /// one (no attempt reads past it), and re-runs the erase check of each
    /// touched undeclared group only when some attempt can reach the
    /// undeclared loop — when none of the `min_ops` requests that every
    /// attempt must execute fails. O(dirty), independent of the total
    /// group count.
    fn refresh<H: HistoryRead + ?Sized>(&self, h: &H, min_ops: usize) {
        let mut agg = self.agg.borrow_mut();
        let agg = &mut *agg;
        self.obs.refreshes.inc();
        self.obs
            .dirty_undeclared
            .record(agg.dirty_undeclared.len() as u64);
        self.obs.dirty_ops.record(agg.dirty_ops.len() as u64);
        while let Some(&op) = agg.dirty_ops.first() {
            if agg.failing_ops.first().is_some_and(|&bad| bad < op) {
                break;
            }
            agg.dirty_ops.pop_first();
            let state = self.compute_op_state(&agg.entries[op], h);
            if matches!(
                state,
                OpState::Bad(OpFail::ExecBudget) | OpState::Bad(OpFail::RoundEraseBudget(_))
            ) {
                self.obs.op_budget_escalations.inc();
            }
            let failing = matches!(state, OpState::Bad(_));
            agg.entries[op].state = state;
            if failing {
                agg.failing_ops.insert(op);
            } else {
                agg.failing_ops.remove(&op);
            }
            agg.refresh_order_pairs(op);
        }
        // Every request below the first failure is now clean, so an
        // attempt gets past its per-request loop only if it needs at most
        // that failure's index of requests — none does when the failure
        // lies below `min_ops`.
        if agg.failing_ops.first().is_some_and(|&bad| bad < min_ops) {
            return;
        }
        while let Some(sym) = agg.dirty_undeclared.pop_first() {
            match self.engine.cells[sym as usize].erases(h, self.budget) {
                EraseOutcome::Erases => {
                    agg.undeclared_fail.remove(&sym);
                }
                EraseOutcome::Stuck => {
                    agg.undeclared_fail.insert(sym, EraseFail::Stuck);
                }
                EraseOutcome::Budget => {
                    self.obs.erase_budget_escalations.inc();
                    agg.undeclared_fail.insert(sym, EraseFail::Budget);
                }
            }
        }
    }

    /// One request's decision: plain/stamped shape, committed rounds,
    /// cancelled rounds erasing, then the executing group's search.
    fn compute_op_state<H: HistoryRead + ?Sized>(&self, entry: &OpEntry, h: &H) -> OpState {
        let exec_sym = match (entry.plain, entry.stamped.is_empty()) {
            (Some(_), false) => return OpState::Bad(OpFail::PlainAndStamped),
            (Some(sym), true) => sym,
            (None, true) => return OpState::Bad(OpFail::NeverExecuted),
            (None, false) => {
                // Round-stamped transactions: exactly one round commits
                // and must reduce to a failure-free execution; every
                // other round must erase (cancelled rounds).
                if entry.committed != 1 {
                    return OpState::Bad(OpFail::CommittedRounds(entry.committed));
                }
                let committed = entry
                    .stamped
                    .iter()
                    .copied()
                    .find(|&sym| self.engine.cells[sym as usize].has_commit_completion)
                    .expect("committed count is 1");
                for &sym in &entry.stamped {
                    if sym == committed {
                        continue;
                    }
                    match self.engine.cells[sym as usize].erases(h, self.budget) {
                        EraseOutcome::Erases => {}
                        EraseOutcome::Stuck => {
                            return OpState::Bad(OpFail::RoundNotErasing(sym));
                        }
                        EraseOutcome::Budget => {
                            return OpState::Bad(OpFail::RoundEraseBudget(sym));
                        }
                    }
                }
                committed
            }
        };
        let (name, input) = self.engine.resolve(exec_sym);
        match self.engine.cells[exec_sym as usize].exec(h, &name, &input, self.budget) {
            ExecOutcome::Reduced { output, anchor } => OpState::Ok { output, anchor },
            ExecOutcome::Stuck => OpState::Bad(OpFail::Stuck),
            ExecOutcome::Budget => OpState::Bad(OpFail::ExecBudget),
        }
    }

    /// Materializes the verdict for a failing request.
    fn op_fail_verdict(&self, agg: &Aggregate, op: usize) -> Verdict {
        let (action, input) = &self.requests[op];
        let fail = |reason: String| fail_verdict(self.engine.ambiguous, reason);
        let round_of = |sym: GroupSym| {
            let (_, vs) = self.engine.key(sym);
            self.engine.interner().value(vs)
        };
        match &agg.entries[op].state {
            OpState::Bad(OpFail::NeverExecuted) => fail(msg_never_executed(action, input)),
            OpState::Bad(OpFail::PlainAndStamped) => Verdict::Unknown {
                reason: msg_plain_and_stamped(action, input),
            },
            OpState::Bad(OpFail::CommittedRounds(rounds)) => {
                fail(msg_committed_rounds(action, input, *rounds))
            }
            OpState::Bad(OpFail::RoundNotErasing(sym)) => fail(msg_not_erasing(
                &what_cancelled_round(round_of(*sym), action, input),
            )),
            OpState::Bad(OpFail::RoundEraseBudget(sym)) => Verdict::Unknown {
                reason: msg_erase_budget(&what_cancelled_round(round_of(*sym), action, input)),
            },
            OpState::Bad(OpFail::Stuck) => fail(msg_stuck(action, input)),
            OpState::Bad(OpFail::ExecBudget) => Verdict::Unknown {
                reason: msg_exec_budget(action, input),
            },
            OpState::Pending | OpState::Ok { .. } => {
                unreachable!("only failing requests are materialized")
            }
        }
    }

    /// Assembles one attempt from the aggregate: the first `ops_len`
    /// declared requests must execute, in order, and the `erasable`
    /// requests' groups must erase instead. The evaluation order is the
    /// verdict's contract (it picks which reason is reported): op-list
    /// validation, the per-request loop (first failure wins), the
    /// erasable loop, the undeclared loop, the effect-order check.
    fn assemble<H: HistoryRead + ?Sized>(
        &self,
        agg: &Aggregate,
        h: &H,
        ops_len: usize,
        erasable: Range<usize>,
    ) -> Verdict {
        if let Some(reason) = &agg.declare_invalid {
            return Verdict::Unknown {
                reason: reason.clone(),
            };
        }
        let fail = |reason: String| fail_verdict(self.engine.ambiguous, reason);
        if let Some(&op) = agg.failing_ops.range(..ops_len).next() {
            return self.op_fail_verdict(agg, op);
        }
        for op in erasable {
            let (action, input) = &self.requests[op];
            let entry = &agg.entries[op];
            let what = what_abandoned(action, input);
            for sym in entry.plain.iter().chain(entry.stamped.iter()).copied() {
                match self.engine.cells[sym as usize].erases(h, self.budget) {
                    EraseOutcome::Erases => {}
                    EraseOutcome::Stuck => return fail(msg_not_erasing(&what)),
                    EraseOutcome::Budget => {
                        return Verdict::Unknown {
                            reason: msg_erase_budget(&what),
                        };
                    }
                }
            }
        }
        if let Some((&sym, how)) = agg.undeclared_fail.iter().next() {
            let (ns, vs) = self.engine.key(sym);
            let what = what_undeclared(
                self.engine.interner().action(ns),
                self.engine.interner().value(vs),
            );
            return match how {
                EraseFail::Stuck => fail(msg_not_erasing(&what)),
                EraseFail::Budget => Verdict::Unknown {
                    reason: msg_erase_budget(&what),
                },
            };
        }
        if ops_len > 1 && agg.order_bad.range(1..ops_len).next().is_some() {
            return fail(MSG_OUT_OF_ORDER.to_owned());
        }
        let outputs = agg.entries[..ops_len]
            .iter()
            .map(|entry| match &entry.state {
                OpState::Ok { output, .. } => output.clone(),
                _ => unreachable!("non-Ok requests were handled above"),
            })
            .collect();
        Verdict::Xable {
            witness: Witness::from_outputs(outputs),
        }
    }

    /// The R3 verdict for the consumed prefix, read from `h` — the stream
    /// this state has been observing, which must hold exactly the
    /// [`consumed`](IncrementalState::consumed) events in order.
    ///
    /// Equals `FastChecker::new(budget).check_requests` on that prefix
    /// and [`requests()`](Self::requests), for the budget this state was
    /// built with — but computed in O(groups touched since the last
    /// verdict) instead of O(all groups).
    pub fn verdict_over<H: HistoryRead + ?Sized>(&self, h: &H) -> Verdict {
        let n = self.requests.len();
        self.answer(h, n.saturating_sub(1), |agg| {
            combine_r3_attempts(&self.requests, |ops, erasable| {
                self.assemble(agg, h, ops.len(), ops.len()..ops.len() + erasable.len())
            })
        })
    }

    /// The verdict for an explicit question over the consumed prefix held
    /// by `h`: the first `ops_len` declared requests must execute in
    /// order, and every later one must have left events that erase — no
    /// R3 last-request fallback. This is how `FastChecker::check` decides
    /// an `(ops, erasable)` pair: it declares `ops` then `erasable`.
    pub(crate) fn verdict_with_erasable_over<H: HistoryRead + ?Sized>(
        &self,
        h: &H,
        ops_len: usize,
    ) -> Verdict {
        self.answer(h, ops_len, |agg| {
            self.assemble(agg, h, ops_len, ops_len..self.requests.len())
        })
    }

    /// The frame shared by both questions: an orphan completion decides
    /// everything; otherwise refresh the aggregate for attempts needing at
    /// least `min_ops` executed requests and assemble from it.
    fn answer<H: HistoryRead + ?Sized>(
        &self,
        h: &H,
        min_ops: usize,
        assemble: impl FnOnce(&Aggregate) -> Verdict,
    ) -> Verdict {
        debug_assert_eq!(
            h.len(),
            self.consumed,
            "the source must hold exactly the consumed prefix"
        );
        if let Some(reason) = &self.orphan {
            return Verdict::NotXable {
                reason: reason.clone(),
            };
        }
        self.obs.verdicts.inc();
        self.refresh(h, min_ops);
        assemble(&self.agg.borrow())
    }
}

/// An online R3 checker: push events as they are observed, declare
/// requests as they are submitted, ask for a verdict at any prefix.
///
/// Equivalent to running [`super::FastChecker`]'s `check_requests` on the
/// full current prefix, but with the partition maintained incrementally,
/// per-group search outcomes cached across pushes, and the verdict
/// assembled from a dirty-tracked aggregate (O(dirty groups) per call).
///
/// This is the self-contained flavour: it owns its copy of the consumed
/// prefix. When the events already live in a shared store (the service
/// ledger's `TraceStore`), use the storage-free [`IncrementalState`]
/// directly and keep a single copy of the trace.
#[derive(Debug, Default)]
pub struct IncrementalChecker {
    state: IncrementalState,
    history: History,
}

impl IncrementalChecker {
    /// An empty checker with the fast tier's default per-group budget.
    pub fn new() -> Self {
        IncrementalChecker::with_budget(SearchBudget::small())
    }

    /// An empty checker with an explicit per-group search budget.
    pub fn with_budget(budget: SearchBudget) -> Self {
        IncrementalChecker {
            state: IncrementalState::with_budget(budget),
            history: History::empty(),
        }
    }

    /// Binds the underlying engine's instruments to a shared metrics
    /// registry (see [`IncrementalState::attach_obs`]).
    pub fn attach_obs(&mut self, obs: &xability_obs::Obs) {
        self.state.attach_obs(obs);
    }

    /// Appends an expected request to the declared R3 sequence.
    pub fn declare(&mut self, action: ActionId, input: Value) {
        self.state.declare(action, input);
    }

    /// Appends an expected [`Request`] to the declared R3 sequence.
    pub fn declare_request(&mut self, request: &Request) {
        self.state.declare_request(request);
    }

    /// Consumes one observed event, in amortized O(1): one attribution
    /// step, one group-cell append, one memo invalidation, one dirty
    /// mark.
    pub fn push(&mut self, event: Event) {
        self.state.observe(&event);
        self.history.push(event);
    }

    /// Consumes a sequence of observed events.
    pub fn push_all<I: IntoIterator<Item = Event>>(&mut self, events: I) {
        for event in events {
            self.push(event);
        }
    }

    /// The number of events consumed so far.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Returns `true` if no event has been consumed yet.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The prefix consumed so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The declared request sequence.
    pub fn requests(&self) -> &[(ActionId, Value)] {
        self.state.requests()
    }

    /// The R3 verdict for the current prefix and declared request
    /// sequence: x-able with respect to `R₁…Rₙ` or `R₁…Rₙ₋₁`.
    ///
    /// Equals `FastChecker::new(budget).check_requests` on
    /// ([`history()`](Self::history), [`requests()`](Self::requests)) for
    /// the budget this checker was built with (the default `FastChecker`
    /// budget when built via [`IncrementalChecker::new`]), computed in
    /// O(groups touched since the last verdict).
    pub fn verdict(&self) -> Verdict {
        self.state.verdict_over(&self.history)
    }
}

// ---------------------------------------------------------------------------
// Verdict message builders: the reason strings are part of the verdict.

fn msg_not_base(action: &ActionId) -> String {
    format!("request action {action} is not a base action")
}

fn msg_duplicate(name: &ActionName, input: &Value) -> String {
    format!("duplicate request identity {name}/{input}")
}

fn msg_plain_and_stamped(action: &ActionId, input: &Value) -> String {
    format!("request ({action}, {input}) has both plain and round-stamped events")
}

fn msg_never_executed(action: &ActionId, input: &Value) -> String {
    format!("request ({action}, {input}) was never executed")
}

fn msg_committed_rounds(action: &ActionId, input: &Value, rounds: usize) -> String {
    format!("request ({action}, {input}) committed in {rounds} rounds (want exactly 1)")
}

fn msg_stuck(action: &ActionId, input: &Value) -> String {
    format!("events of request ({action}, {input}) do not reduce to a failure-free execution")
}

fn msg_exec_budget(action: &ActionId, input: &Value) -> String {
    format!("per-group search budget exceeded for request ({action}, {input})")
}

fn what_cancelled_round(round: &Value, action: &ActionId, input: &Value) -> String {
    format!("cancelled round {round} of ({action}, {input})")
}

fn what_abandoned(action: &ActionId, input: &Value) -> String {
    format!("abandoned request ({action}, {input})")
}

fn what_undeclared(name: &ActionName, input: &Value) -> String {
    format!("undeclared request {name}/{input}")
}

fn msg_not_erasing(what: &dyn fmt::Display) -> String {
    format!("{what} left events that do not erase")
}

fn msg_erase_budget(what: &dyn fmt::Display) -> String {
    format!("per-group search budget exceeded erasing {what}")
}

const MSG_OUT_OF_ORDER: &str = "request effects occur out of submission order";

/// Wraps a definite rejection into the verdict the attribution quality
/// allows: when attribution was ambiguous, a negative verdict is
/// unreliable (a different attribution might have succeeded), so it is
/// downgraded to `Unknown`.
fn fail_verdict(ambiguous: bool, reason: String) -> Verdict {
    if ambiguous {
        Verdict::Unknown {
            reason: format!("(after ambiguous completion attribution) {reason}"),
        }
    } else {
        Verdict::NotXable { reason }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionName;
    use crate::xable::checker::{Checker, FastChecker};

    fn idem(name: &str) -> ActionId {
        ActionId::base(ActionName::idempotent(name))
    }

    fn undo(name: &str) -> ActionId {
        ActionId::base(ActionName::undoable(name))
    }

    fn s(a: &ActionId, v: i64) -> Event {
        Event::start(a.clone(), Value::from(v))
    }

    fn c(a: &ActionId, v: i64) -> Event {
        Event::complete(a.clone(), Value::from(v))
    }

    fn cnil(a: &ActionId) -> Event {
        Event::complete(a.clone(), Value::Nil)
    }

    /// A fresh one-shot `FastChecker` verdict over the checker's own
    /// prefix, for agreement checks.
    fn batch(inc: &IncrementalChecker) -> Verdict {
        let requests: Vec<Request> = inc
            .requests()
            .iter()
            .map(|(a, iv)| Request::new(a.clone(), iv.clone()))
            .collect();
        FastChecker::default().check_requests(inc.history(), &requests)
    }

    #[test]
    fn empty_checker_with_no_requests_is_xable() {
        let inc = IncrementalChecker::new();
        assert!(inc.is_empty());
        assert!(inc.verdict().is_xable());
    }

    #[test]
    fn verdict_evolves_across_a_retried_request() {
        let a = idem("a");
        let ops = [(a.clone(), Value::from(1))];
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        let strict =
            |inc: &IncrementalChecker| FastChecker::default().check(inc.history(), &ops, &[]);
        // Strictly (no abandonment fallback), an unexecuted request is not
        // x-able; under R3 the last request may always be abandoned.
        assert!(!strict(&inc).is_xable());
        assert!(
            inc.verdict().is_xable(),
            "R3 allows an unsubmitted last request"
        );

        inc.push(s(&a, 1));
        assert!(!strict(&inc).is_xable(), "started, not completed");

        inc.push(s(&a, 1));
        inc.push(c(&a, 5));
        let v = inc.verdict();
        assert!(v.is_xable(), "{v}");
        assert_eq!(v.outputs(), Some(&[Value::from(5)][..]));

        // A duplicate completion with a *different* output breaks it for
        // good: the group can neither reduce nor erase.
        inc.push(s(&a, 1));
        inc.push(c(&a, 6));
        assert!(!inc.verdict().is_xable());
    }

    #[test]
    fn declared_sequence_supports_last_request_abandonment() {
        let a = idem("a");
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let mut inc = IncrementalChecker::new();
        inc.declare_request(&Request::new(a.clone(), Value::from(1)));
        inc.push(s(&a, 1));
        inc.push(c(&a, 5));
        assert!(inc.verdict().is_xable());

        // Second request starts, gets cancelled, never retried: the R3
        // fallback (last request abandoned) keeps the prefix x-able.
        inc.declare_request(&Request::new(u.clone(), Value::from(2)));
        inc.push(Event::start(u.clone(), Value::from(2)));
        inc.push(Event::start(cancel.clone(), Value::from(2)));
        inc.push(cnil(&cancel));
        let v = inc.verdict();
        assert!(v.is_xable(), "{v}");
        assert_eq!(v, batch(&inc));
    }

    #[test]
    fn orphan_completion_is_permanently_not_xable() {
        let a = idem("a");
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        inc.push(c(&a, 5)); // completion with no start
        assert!(inc.verdict().is_not_xable());
        assert_eq!(inc.verdict(), batch(&inc));
        // Later legitimate events do not cure the axiom violation.
        inc.push(s(&a, 1));
        inc.push(c(&a, 5));
        assert!(inc.verdict().is_not_xable());
        assert_eq!(inc.verdict(), batch(&inc));
    }

    #[test]
    fn agrees_with_batch_at_every_prefix_of_a_protocol_trace() {
        // An undoable request with a cancelled round, then an idempotent
        // request, with a trailing deduplicated retry of the first.
        let u = undo("xfer");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let b = idem("get");
        let events = vec![
            s(&u, 1),
            Event::start(cancel.clone(), Value::from(1)),
            cnil(&cancel),
            s(&u, 1),
            c(&u, 7),
            Event::start(commit.clone(), Value::from(1)),
            cnil(&commit),
            s(&b, 2),
            c(&b, 9),
            s(&b, 2),
            c(&b, 9), // trailing duplicate
        ];
        let mut inc = IncrementalChecker::new();
        inc.declare(u, Value::from(1));
        inc.declare(b, Value::from(2));
        for ev in events {
            inc.push(ev);
            assert_eq!(inc.verdict(), batch(&inc), "prefix {}", inc.len());
        }
        assert!(inc.verdict().is_xable());
    }

    #[test]
    fn round_stamped_rounds_agree_with_batch_even_when_declared_late() {
        // Round-stamped transactions land *before* their undoable request
        // is declared: the aggregate must adopt the existing rounds at
        // declaration time.
        let u = undo("xfer");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let key = Value::from("r0");
        let iv1 = Value::pair(key.clone(), Value::from(1));
        let iv2 = Value::pair(key.clone(), Value::from(2));
        let events = vec![
            Event::start(u.clone(), iv1.clone()),
            Event::start(cancel.clone(), iv1.clone()),
            Event::complete(cancel.clone(), Value::Nil),
            Event::start(u.clone(), iv2.clone()),
            Event::complete(u.clone(), Value::from("ok")),
            Event::start(commit.clone(), iv2.clone()),
            Event::complete(commit.clone(), Value::Nil),
        ];
        let mut inc = IncrementalChecker::new();
        for (k, ev) in events.into_iter().enumerate() {
            if k == 4 {
                // Declare mid-stream, after both rounds already exist.
                inc.declare(u.clone(), key.clone());
            }
            inc.push(ev);
            assert_eq!(inc.verdict(), batch(&inc), "prefix {}", inc.len());
        }
        assert!(inc.verdict().is_xable());
    }

    #[test]
    fn storage_free_state_agrees_with_owned_checker() {
        // An IncrementalState observing the same stream as an owned
        // IncrementalChecker, with the events living in one shared
        // History, must produce identical verdicts at every prefix.
        let u = undo("xfer");
        let cancel = u.cancel().unwrap();
        let b = idem("get");
        let events = [
            s(&u, 1),
            Event::start(cancel.clone(), Value::from(1)),
            cnil(&cancel),
            s(&b, 2),
            c(&b, 9),
        ];
        let mut shared = History::empty();
        let mut state = IncrementalState::new();
        let mut owned = IncrementalChecker::new();
        for who in [&u, &b] {
            state.declare(who.clone(), Value::from(if *who == u { 1 } else { 2 }));
            owned.declare(who.clone(), Value::from(if *who == u { 1 } else { 2 }));
        }
        assert!(state.is_empty());
        for ev in events {
            state.observe(&ev);
            owned.push(ev.clone());
            shared.push(ev);
            assert_eq!(state.consumed(), shared.len());
            assert_eq!(state.verdict_over(&shared), owned.verdict());
            assert_eq!(state.requests(), owned.requests());
        }
        let ops = [(b.clone(), Value::from(2))];
        let erasable = [(u.clone(), Value::from(1))];
        assert_eq!(
            FastChecker::default().check_source(&shared, &ops, &erasable),
            FastChecker::default().check(owned.history(), &ops, &erasable)
        );
    }

    #[test]
    fn memoization_is_invalidated_by_new_group_events() {
        let a = idem("a");
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        inc.push_all([s(&a, 1), c(&a, 5)]);
        assert!(inc.verdict().is_xable()); // memoizes the group as reduced
        inc.push_all([s(&a, 1), c(&a, 6)]); // disagreeing retry
        assert!(inc.verdict().is_not_xable(), "stale memo would say x-able");
    }

    #[test]
    fn duplicate_and_non_base_declarations_are_sticky_unknown() {
        let a = idem("a");
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        inc.declare(a.clone(), Value::from(1)); // duplicate identity
        inc.push_all([s(&a, 1), c(&a, 5)]);
        let v = inc.verdict();
        assert!(v.is_unknown(), "{v}");
        assert_eq!(v, batch(&inc));

        let mut inc = IncrementalChecker::new();
        let cancel = undo("u").cancel().unwrap();
        inc.declare(cancel, Value::from(1)); // not a base action
        let v = inc.verdict();
        assert!(v.is_unknown(), "{v}");
        assert_eq!(v, batch(&inc));
    }

    #[test]
    fn clean_groups_are_not_redecided() {
        // Whitebox-ish: after a verdict, the dirty sets are empty; a new
        // event dirties exactly one request.
        let a = idem("a");
        let b = idem("b");
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        inc.declare(b.clone(), Value::from(2));
        inc.push_all([s(&a, 1), c(&a, 5)]);
        let _ = inc.verdict();
        assert!(inc.state.agg.borrow().dirty_ops.is_empty());
        assert!(inc.state.agg.borrow().dirty_undeclared.is_empty());
        inc.push(s(&b, 2));
        assert_eq!(
            inc.state
                .agg
                .borrow()
                .dirty_ops
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![1],
            "only request b is dirty"
        );
        inc.push(c(&b, 6));
        assert!(inc.verdict().is_xable());
        assert_eq!(inc.verdict(), batch(&inc));
    }

    #[test]
    fn failing_request_leaves_later_requests_dirty() {
        // Whitebox: while request 0 fails, a verdict stops at it — events
        // for request 1 and for an undeclared group stay dirty across the
        // verdict — and once request 0 recovers, the drained verdict equals
        // a fresh one-shot check.
        let a = idem("a");
        let b = idem("b");
        let x = undo("x");
        let cancel = x.cancel().unwrap();
        let mut inc = IncrementalChecker::new();
        inc.declare(a.clone(), Value::from(1));
        inc.declare(b.clone(), Value::from(2));
        // A retry of `a` that has not completed yet: a stuck group.
        inc.push_all([s(&a, 1), c(&a, 5), s(&a, 1)]);
        inc.push_all([s(&b, 2), c(&b, 6)]);
        inc.push_all([
            s(&x, 9),
            Event::start(cancel.clone(), Value::from(9)),
            cnil(&cancel),
        ]);
        let v = inc.verdict();
        assert!(v.is_not_xable(), "{v}");
        assert_eq!(v, batch(&inc));
        {
            let agg = inc.state.agg.borrow();
            assert_eq!(agg.dirty_ops.iter().copied().collect::<Vec<_>>(), vec![1]);
            assert_eq!(agg.dirty_undeclared.len(), 1, "undeclared x is not drained");
        }
        inc.push(c(&a, 5));
        let v = inc.verdict();
        assert!(v.is_xable(), "{v}");
        assert_eq!(v, batch(&inc));
        let agg = inc.state.agg.borrow();
        assert!(agg.dirty_ops.is_empty() && agg.dirty_undeclared.is_empty());
    }
}
