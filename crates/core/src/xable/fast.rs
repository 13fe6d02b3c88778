//! The polynomial x-ability engine for protocol-shaped histories.
//!
//! The exhaustive checker ([`super::search`]) explores the whole reduction
//! closure and is exponential in the worst case. Replication protocols,
//! however, produce histories with a lot of structure: every event belongs
//! to the processing of one request, and requests are submitted one after
//! another (§4 considers a single client that submits `Rᵢ₊₁` only after `Rᵢ`
//! succeeds). This engine exploits that structure:
//!
//! 1. **Grouping.** Events are partitioned by `(base action, input)` —
//!    cancellations and commits join the group of their base action. All the
//!    side conditions of reduction rules (18)–(20) relate events of a single
//!    group, so reduction steps never cross groups (only the interleaving
//!    moves).
//! 2. **Per-group decision.** Each group's sub-history is decided by a
//!    (small, bounded) exhaustive search: request groups must reduce to a
//!    failure-free `eventsof` history; groups listed as *erasable* must
//!    reduce to `Λ`.
//! 3. **Ordering.** Request effects must occur in submission order: each
//!    group's first surviving completion must precede the next group's.
//!    For histories whose groups occupy disjoint index ranges this is
//!    equivalent to reducibility to the ordered concatenation of
//!    failure-free histories (reduction is congruent with respect to
//!    concatenation of group blocks, and compaction moves interleaved
//!    events before surviving pairs). For histories with *trailing
//!    duplicates* — deduplicated re-executions or help-commits landing
//!    after a later request began — the strict ordered-concatenation
//!    target is unreachable by construction (rules 18/20 keep the latest
//!    duplicate), so the checker deliberately applies this per-request,
//!    effect-ordered reading; see DESIGN.md §4.3.
//!
//! The engine is **symbol-keyed**: action names and input values are
//! interned to dense `u32` symbols ([`crate::intern::Interner`] — the same
//! type the `xability-store` crate packs its events with), a group is the
//! symbol pair `(name, input)`, and the per-group state lives in a dense
//! `Vec<GroupCell>` indexed by a dense group symbol. The per-event hot path is
//! therefore a hash probe and a `Vec` push — no per-event `ActionName` or
//! `Value` clone, no ordered-map walk.
//!
//! The engine has one owner: [`super::IncrementalState`] maintains the
//! partition *online* — one `Engine::observe` step per consumed event —
//! and memoizes the per-group search outcomes in the (crate-private)
//! `GroupCell`s so a verdict at any prefix re-searches only the groups
//! that changed; it also holds the one R3 assembly. [`super::FastChecker`]
//! drives such a state one-shot over a complete source, so the batch and
//! online frontends share this engine and that assembly.
//!
//! Soundness is argued in the doc comments above each step and validated by
//! property tests that compare this checker against the exhaustive one on
//! randomly generated histories (`tests/checker_agreement.rs`,
//! `tests/incremental_props.rs`).

use std::cell::RefCell;
use std::collections::HashMap;

use crate::action::{ActionId, ActionName};
use crate::event::Event;
use crate::failure_free::failure_free_output;
use crate::history::{History, HistoryRead};
use crate::intern::Interner;
use crate::value::Value;
use crate::xable::search::{search_reduction, SearchBudget, SearchResult};

/// The unified verdict type, re-exported here because this module's
/// historical `Verdict` was the crate's de-facto verdict vocabulary. The
/// canonical path is [`crate::xable::Verdict`].
pub use crate::xable::checker::Verdict;

/// Dense index of a `(base action, input)` group in an [`Engine`].
pub(crate) type GroupSym = u32;

/// Interned group key: `(action-name symbol, input-value symbol)`.
pub(crate) type KeySyms = (u32, u32);

const ROLE_BASE: u8 = 0;
const ROLE_CANCEL: u8 = 1;
const ROLE_COMMIT: u8 = 2;

fn role_of(action: &ActionId) -> u8 {
    match action {
        ActionId::Base(_) => ROLE_BASE,
        ActionId::Cancel(_) => ROLE_CANCEL,
        ActionId::Commit(_) => ROLE_COMMIT,
    }
}

/// Outcome of the per-group "reduces to a failure-free execution" search,
/// memoized per [`GroupCell`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ExecOutcome {
    /// The group reduces to `eventsof(a, iv, output)`; `anchor` is the
    /// index (into the full history) of the group's surviving base
    /// completion — the moment its side-effect became observable.
    Reduced {
        /// Agreed output of the surviving execution.
        output: Value,
        /// History index of the group's effect anchor.
        anchor: usize,
    },
    /// The whole reachable closure was explored; the group does not reduce.
    Stuck,
    /// The per-group search budget ran out.
    Budget,
}

/// Outcome of the per-group "reduces to `Λ`" search, memoized per
/// [`GroupCell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EraseOutcome {
    /// The group's events reduce to nothing.
    Erases,
    /// The group's events definitely do not erase.
    Stuck,
    /// The per-group search budget ran out.
    Budget,
}

/// Longest sub-history the idempotent closed form decides; longer groups
/// fall back to the reduction search. 8 covers every protocol-shaped
/// group (a start, a handful of retries, their completions) and keeps the
/// exhaustive closed-form-vs-search test affordable.
const CLOSED_FORM_MAX_LEN: usize = 8;

/// Whether the closed form may replace the search for this budget and
/// sub-history length: the equivalence proof (the exhaustive test below)
/// shows the search never exhausts [`SearchBudget::small`] on gated
/// inputs, so firing only at `>= small()` guarantees the fast path never
/// turns a would-be `Budget` outcome into a decision (or vice versa).
fn closed_form_applies(len: usize, budget: SearchBudget) -> bool {
    let small = SearchBudget::small();
    len <= CLOSED_FORM_MAX_LEN
        && budget.max_expansions >= small.max_expansions
        && budget.max_visited >= small.max_visited
}

/// Closed-form decision of the idempotent per-group *exec* search.
///
/// For the protocol's hot-path groups — every event a base start
/// `S(a, iv)` with the group's input or a base completion `C(a, ·)` of
/// one idempotent action `a` — the only applicable reduction rule is
/// (18), and it admits a closed form (pinned against the real search by
/// the exhaustive `closed_form_matches_search_exhaustively` test):
///
/// * rule (18) erases one matched `S`/`C(out)` duplicate (or a dangling
///   `S`) while preserving a surviving `S C(out)` pair with the *same*
///   output, so the set of distinct completion outputs is invariant;
/// * a leading completion can never be consumed (the erased or surviving
///   start lies strictly left of its pivot completion), and neither can a
///   start trailing the last completion — so a history violating the
///   prefix condition `#starts ≥ #completions`, or not ending in a
///   completion, is frozen short of the goal;
/// * conversely, when every prefix holds at least as many starts as
///   completions, outputs agree, and a completion comes last, erasing the
///   first `S`/first `C` pair against the last pair as pivot reaches
///   `S C` — the failure-free target.
///
/// Returns `None` when the group is not of the gated shape (undoable
/// name, cancel/commit/foreign events, diverging start inputs, too long,
/// or a sub-`small()` budget) — the caller then runs the real search.
fn idempotent_exec_closed_form(
    sub: &History,
    indices: &[usize],
    name: &ActionName,
    input: &Value,
    budget: SearchBudget,
) -> Option<ExecOutcome> {
    if name.is_undoable() || !closed_form_applies(sub.len(), budget) {
        return None;
    }
    let mut open = 0usize;
    let mut prefix_ok = true;
    let mut first_completion: Option<usize> = None;
    let mut output: Option<&Value> = None;
    let mut outputs_agree = true;
    let mut last_is_completion = false;
    for (pos, ev) in sub.iter().enumerate() {
        match ev {
            Event::Start(ActionId::Base(n), iv) if n == name && iv == input => {
                open += 1;
                last_is_completion = false;
            }
            Event::Complete(ActionId::Base(n), out) if n == name => {
                if open == 0 {
                    prefix_ok = false;
                } else {
                    open -= 1;
                }
                match output {
                    None => output = Some(out),
                    Some(o) => outputs_agree &= o == out,
                }
                if first_completion.is_none() {
                    first_completion = Some(pos);
                }
                last_is_completion = true;
            }
            _ => return None,
        }
    }
    match (first_completion, output) {
        (Some(pos), Some(out)) if outputs_agree && last_is_completion && prefix_ok => {
            // Same anchor the search path computes for idempotent groups:
            // the first base completion — the moment the effect became
            // observable (later completions are deduplicated copies).
            Some(ExecOutcome::Reduced {
                output: out.clone(),
                anchor: indices[pos],
            })
        }
        _ => Some(ExecOutcome::Stuck),
    }
}

/// Closed-form decision of the idempotent per-group *erase* search: rule
/// (18) always preserves a surviving `S C` pair, and no other rule
/// applies to a group of base events of one idempotent action — so a
/// non-empty gated group never reduces to `Λ`.
fn idempotent_erase_closed_form(sub: &History, budget: SearchBudget) -> Option<EraseOutcome> {
    if sub.is_empty() {
        // `Λ` is already the goal; the search decides this before its
        // first expansion, with any budget.
        return Some(EraseOutcome::Erases);
    }
    if !closed_form_applies(sub.len(), budget) {
        return None;
    }
    let name = match sub[0].action() {
        ActionId::Base(n) if n.is_idempotent() => n,
        _ => return None,
    };
    let mut input: Option<&Value> = None;
    for ev in sub.iter() {
        match ev {
            Event::Start(ActionId::Base(n), iv) if n == name => match input {
                None => input = Some(iv),
                Some(v) => {
                    if v != iv {
                        return None;
                    }
                }
            },
            Event::Complete(ActionId::Base(n), _) if n == name => {}
            _ => return None,
        }
    }
    Some(EraseOutcome::Stuck)
}

/// The per-group "reduces to a failure-free execution of `(name, input)`"
/// search — a pure function of the group's sub-history, memoized by
/// [`GroupCell::exec`]. Protocol-shaped idempotent groups are decided by
/// [`idempotent_exec_closed_form`] without expanding a single history.
pub(crate) fn run_exec_search<H: HistoryRead + ?Sized>(
    h: &H,
    indices: &[usize],
    name: &ActionName,
    input: &Value,
    budget: SearchBudget,
) -> ExecOutcome {
    let sub = h.gather(indices);
    if let Some(outcome) = idempotent_exec_closed_form(&sub, indices, name, input, budget) {
        return outcome;
    }
    let action = ActionId::base(name.clone());
    let min_len = if name.is_undoable() { 4 } else { 2 };
    let goal = |cand: &History| failure_free_output(&action, input, cand).is_some();
    match search_reduction(&sub, goal, min_len, budget) {
        SearchResult::Reached(witness) => {
            let output = failure_free_output(&action, input, &witness)
                .expect("goal predicate guarantees failure-free shape");
            // The request's *effect anchor*: the completion of the
            // *surviving* execution. For an undoable request, rule 19
            // only ever erases the group's first remaining start (its
            // side condition demands `(aᵘ, iv) ∉ h₁`), so cancelled
            // attempts are erased strictly left-to-right and the
            // execution that survives into the failure-free target is
            // the *last* attempt: the anchor is the first base
            // completion at or after the group's last base start. A
            // cancelled-then-retried request therefore anchors at the
            // retry's completion, not the undone original's. For an
            // idempotent request (no cancellations) every completion
            // is the same effect and the first one is when it became
            // observable; later ones are deduplicated copies.
            let is_base_completion = |&i: &usize| h.is_base_completion_at(i);
            let surviving_from = if name.is_undoable() {
                indices
                    .iter()
                    .rev()
                    .copied()
                    .find(|&i| h.is_base_start_at(i))
                    .unwrap_or(0)
            } else {
                0
            };
            let anchor = indices
                .iter()
                .copied()
                .filter(|&i| i >= surviving_from)
                .find(is_base_completion)
                .or_else(|| indices.iter().copied().find(is_base_completion))
                .unwrap_or(indices[0]);
            ExecOutcome::Reduced { output, anchor }
        }
        SearchResult::Exhausted => ExecOutcome::Stuck,
        SearchResult::BudgetExceeded => ExecOutcome::Budget,
    }
}

/// The per-group "reduces to `Λ`" search — like [`run_exec_search`], a
/// pure function of the group's sub-history, memoized by
/// [`GroupCell::erases`].
pub(crate) fn run_erase_search<H: HistoryRead + ?Sized>(
    h: &H,
    indices: &[usize],
    budget: SearchBudget,
) -> EraseOutcome {
    let sub = h.gather(indices);
    if let Some(outcome) = idempotent_erase_closed_form(&sub, budget) {
        return outcome;
    }
    match search_reduction(&sub, History::is_empty, 0, budget) {
        SearchResult::Reached(_) => EraseOutcome::Erases,
        SearchResult::Exhausted => EraseOutcome::Stuck,
        SearchResult::BudgetExceeded => EraseOutcome::Budget,
    }
}

/// One `(base action, input)` group: its event indices in the underlying
/// history plus memoized per-group search outcomes.
///
/// The memos use interior mutability because verdicts take the state by
/// shared reference: the two attempts of one R3 question share them, and
/// the incremental checker keeps them warm across pushes (invalidating a
/// cell whenever its group gains an event).
#[derive(Debug, Default)]
pub(crate) struct GroupCell {
    /// Indices into the full history, ascending.
    pub(crate) indices: Vec<usize>,
    /// Whether the group contains a completed commit (which never erases).
    pub(crate) has_commit_completion: bool,
    exec: RefCell<Option<ExecOutcome>>,
    erase: RefCell<Option<EraseOutcome>>,
}

impl GroupCell {
    /// Appends an event index, invalidating the memoized outcomes.
    pub(crate) fn push_index(&mut self, index: usize, is_commit_completion: bool) {
        self.indices.push(index);
        self.has_commit_completion |= is_commit_completion;
        *self.exec.borrow_mut() = None;
        *self.erase.borrow_mut() = None;
    }

    /// Whether the group's events reduce to `Λ`, memoized.
    pub(crate) fn erases<H: HistoryRead + ?Sized>(
        &self,
        h: &H,
        budget: SearchBudget,
    ) -> EraseOutcome {
        if let Some(outcome) = *self.erase.borrow() {
            return outcome;
        }
        let outcome = run_erase_search(h, &self.indices, budget);
        *self.erase.borrow_mut() = Some(outcome);
        outcome
    }

    /// Whether the group's events reduce to a failure-free execution of its
    /// key's action/input, memoized. The target is fully determined by the
    /// group key: the action is `Base(name)` and the input is the key's
    /// value (for round-stamped groups the stamped pair *is* the input,
    /// §5.4).
    pub(crate) fn exec<H: HistoryRead + ?Sized>(
        &self,
        h: &H,
        name: &ActionName,
        input: &Value,
        budget: SearchBudget,
    ) -> ExecOutcome {
        if let Some(outcome) = self.exec.borrow().clone() {
            return outcome;
        }
        let outcome = run_exec_search(h, &self.indices, name, input, budget);
        *self.exec.borrow_mut() = Some(outcome.clone());
        outcome
    }
}

/// The open starts of one `(action, role)`, with the number of *distinct*
/// open inputs tracked incrementally so a completion's ambiguity test is
/// O(1) instead of a scan over the whole stack (the streaming checker pays
/// this on every completion). Entries are input-value symbols.
#[derive(Debug, Default)]
struct OpenStarts {
    stack: Vec<u32>,
    multiplicity: Multiplicity,
}

/// Distinct-open-input bookkeeping for one slot. Starts as a short
/// linear-scanned list (a stream usually holds a handful of concurrently
/// open inputs per action, where a scan beats a hash probe on the
/// per-event path) and upgrades to a dense value-symbol-indexed table the
/// first time the list outgrows [`MULTIPLICITY_SMALL_MAX`] — retried
/// requests leak one abandoned open start each, so heavy traces hold
/// *millions* of open inputs and a scan would make attribution quadratic.
#[derive(Debug)]
enum Multiplicity {
    /// `(input symbol, open count)`; order is insertion-driven and never
    /// read — only the entry *count* matters.
    Small(Vec<(u32, usize)>),
    /// `counts[input symbol]` (value symbols are dense interner indices),
    /// with the non-zero entry count maintained alongside.
    Dense { counts: Vec<u32>, distinct: usize },
}

/// Distinct open inputs a slot tracks by linear scan before upgrading to
/// the dense table.
const MULTIPLICITY_SMALL_MAX: usize = 16;

impl Default for Multiplicity {
    fn default() -> Self {
        Multiplicity::Small(Vec::new())
    }
}

impl Multiplicity {
    fn push(&mut self, input: u32) {
        match self {
            Multiplicity::Small(entries) => {
                if let Some(entry) = entries.iter_mut().find(|(v, _)| *v == input) {
                    entry.1 += 1;
                    return;
                }
                if entries.len() < MULTIPLICITY_SMALL_MAX {
                    entries.push((input, 1));
                    return;
                }
                // Upgrade: dense table over value symbols, then insert.
                let top = entries
                    .iter()
                    .map(|&(v, _)| v)
                    .max()
                    .unwrap_or(0)
                    .max(input);
                let mut counts = vec![0u32; top as usize + 1];
                for &(v, n) in entries.iter() {
                    counts[v as usize] = n as u32;
                }
                let distinct = entries.len();
                *self = Multiplicity::Dense { counts, distinct };
                self.push(input);
            }
            Multiplicity::Dense { counts, distinct } => {
                if input as usize >= counts.len() {
                    counts.resize(input as usize + 1, 0);
                }
                counts[input as usize] += 1;
                if counts[input as usize] == 1 {
                    *distinct += 1;
                }
            }
        }
    }

    fn pop(&mut self, input: u32) {
        match self {
            Multiplicity::Small(entries) => {
                if let Some(pos) = entries.iter().position(|(v, _)| *v == input) {
                    entries[pos].1 -= 1;
                    if entries[pos].1 == 0 {
                        entries.swap_remove(pos);
                    }
                }
            }
            Multiplicity::Dense { counts, distinct } => {
                if let Some(count) = counts.get_mut(input as usize) {
                    if *count > 0 {
                        *count -= 1;
                        if *count == 0 {
                            *distinct -= 1;
                        }
                    }
                }
            }
        }
    }

    fn distinct(&self) -> usize {
        match self {
            Multiplicity::Small(entries) => entries.len(),
            Multiplicity::Dense { distinct, .. } => *distinct,
        }
    }
}

impl OpenStarts {
    fn push(&mut self, input: u32) {
        self.multiplicity.push(input);
        self.stack.push(input);
    }

    fn pop(&mut self) -> Option<u32> {
        let input = self.stack.pop()?;
        self.multiplicity.pop(input);
        Some(input)
    }

    /// How many distinct inputs are currently open.
    fn distinct(&self) -> usize {
        self.multiplicity.distinct()
    }
}

/// Streaming attribution state: which starts of each action are still open,
/// and the input of each action's most recent start — all symbol-keyed
/// (`(name symbol, role)` for actions, value symbols for inputs), so one
/// attribution step clones nothing.
///
/// A completion event does not carry the input value. We attribute each
/// completion to the *nearest open start* of its action (the most recent
/// start whose execution has not completed yet). For histories recorded by
/// an atomic observer — such as the service ledger, where a completion
/// immediately follows its start — this attribution is exact. When several
/// distinct inputs are open at a completion the choice is heuristic; the
/// caller remembers the ambiguity and later downgrades a `NotXable` verdict
/// to `Unknown` (a different attribution might have succeeded), while an
/// `Xable` verdict remains sound (it exhibits a concrete witness).
#[derive(Debug, Default)]
struct AttributionState {
    /// Indexed by `name symbol * 3 + role`: action symbols are dense and
    /// the alphabet is small, so the attribution step is an array index —
    /// no hash probe on the per-event path.
    open: Vec<OpenStarts>,
    /// Same indexing; the input symbol of the slot's most recent start.
    last_start_input: Vec<Option<u32>>,
}

impl AttributionState {
    /// The dense slot of `(name symbol, role)`, growing the tables on
    /// first sight of a new action symbol.
    fn slot(&mut self, ns: u32, role: u8) -> usize {
        let slot = ns as usize * 3 + role as usize;
        if slot >= self.open.len() {
            self.open.resize_with(slot + 1, OpenStarts::default);
            self.last_start_input.resize(slot + 1, None);
        }
        slot
    }
}

/// What one [`Engine::observe`] step did — the hooks the incremental
/// checker's dirty tracking needs. Self-contained (the group's key and
/// stamped parent ride along) so tracking needs no engine borrow — which
/// is what lets [`Engine::observe_batch`] stream these to the aggregate
/// while the engine itself is mutably borrowed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Observed {
    /// The group the event was attributed to.
    pub(crate) group: GroupSym,
    /// The group's key symbols.
    pub(crate) key: KeySyms,
    /// The group's round-stamped parent key, if it has the stamped shape.
    pub(crate) stamped_parent: Option<KeySyms>,
    /// Whether this event created the group.
    pub(crate) created: bool,
    /// Whether this event flipped the group's `has_commit_completion`.
    pub(crate) commit_completed: bool,
}

/// The symbol-keyed partition/attribution engine behind
/// [`super::IncrementalState`] (and so behind every fast-tier verdict):
/// the interner, the dense group table, and the streaming attribution
/// state.
#[derive(Debug, Default)]
pub(crate) struct Engine {
    interner: Interner,
    /// `(name symbol, input symbol)` → dense group index.
    group_lookup: HashMap<KeySyms, GroupSym>,
    /// Group index → its key symbols.
    keys: Vec<KeySyms>,
    /// Group index → the `(name, base input)` key symbols of its
    /// round-stamped parent, when the group's name is undoable and its
    /// input has the round-stamped shape `Pair(base input, round)` (§5.4).
    /// The base input is interned when the group is created, so parent
    /// lookups are symbol probes.
    stamped_of: Vec<Option<KeySyms>>,
    /// Group index → its event indices and memoized search outcomes.
    pub(crate) cells: Vec<GroupCell>,
    attribution: AttributionState,
    /// Whether any completion attribution was ambiguous.
    pub(crate) ambiguous: bool,
}

impl Engine {
    /// Consumes one event: one streaming attribution step, one group-cell
    /// append, one memo invalidation — amortized O(1), no name or value
    /// clone (interning clones only on first sight of a distinct symbol).
    ///
    /// Returns what happened (for dirty tracking), or `Err(reason)` for a
    /// completion whose action has never started (a violation of the event
    /// axioms of §2.2 — definitely not x-able, independent of any
    /// ambiguity).
    pub(crate) fn observe(&mut self, event: &Event, index: usize) -> Result<Observed, String> {
        let (key, is_commit_completion) = match event {
            Event::Start(a, iv) => {
                let ns = self.interner.intern_action(a.base_name());
                let vs = self.interner.intern_value(iv);
                self.attribute_start(ns, role_of(a), vs);
                ((ns, vs), false)
            }
            Event::Complete(a, _) => {
                let ns = self.interner.intern_action(a.base_name());
                let vs = self.attribute_completion(ns, role_of(a), a, index)?;
                ((ns, vs), a.is_commit())
            }
        };
        let (group, created) = self.group_of(key);
        Ok(self.record_in_cell(group, key, created, index, is_commit_completion))
    }

    /// Consumes a slice of events observed together — semantically
    /// identical to [`Engine::observe`] on each in order, with the
    /// batch-local memos `TraceStore::push_batch` uses amortizing the
    /// per-event hash probes: an action-symbol memo (a linear scan over
    /// the handful of names a batch carries), a last-input memo (a start
    /// and its retries repeat one value), and a last-group memo (an
    /// `S S C` run lands in one cell). `track` is called once per event,
    /// in order, with `Err` for an orphan completion (which, exactly like
    /// the per-event path, joins no group and stops nothing).
    pub(crate) fn observe_batch(
        &mut self,
        events: &[Event],
        first_index: usize,
        track: &mut dyn FnMut(Result<Observed, String>),
    ) {
        // Capped like the store's memo: overflow names fall back to the
        // interner rather than turning the scan quadratic.
        let mut actions: Vec<(&ActionName, u32)> = Vec::new();
        let mut last_value: Option<(&Value, u32)> = None;
        let mut last_group: Option<(KeySyms, GroupSym)> = None;
        for (offset, event) in events.iter().enumerate() {
            let index = first_index + offset;
            let name = event.action().base_name();
            let ns = match actions.iter().find(|(n, _)| *n == name) {
                Some(&(_, sym)) => sym,
                None => {
                    let sym = self.interner.intern_action(name);
                    if actions.len() < 64 {
                        actions.push((name, sym));
                    }
                    sym
                }
            };
            let (key, is_commit_completion) = match event {
                Event::Start(a, iv) => {
                    let vs = match last_value {
                        Some((v, sym)) if v == iv => sym,
                        _ => {
                            let sym = self.interner.intern_value(iv);
                            last_value = Some((iv, sym));
                            sym
                        }
                    };
                    self.attribute_start(ns, role_of(a), vs);
                    ((ns, vs), false)
                }
                Event::Complete(a, _) => {
                    match self.attribute_completion(ns, role_of(a), a, index) {
                        Ok(vs) => ((ns, vs), a.is_commit()),
                        Err(reason) => {
                            track(Err(reason));
                            continue;
                        }
                    }
                }
            };
            let (group, created) = match last_group {
                Some((k, sym)) if k == key => (sym, false),
                _ => {
                    let (sym, created) = self.group_of(key);
                    last_group = Some((key, sym));
                    (sym, created)
                }
            };
            track(Ok(self.record_in_cell(
                group,
                key,
                created,
                index,
                is_commit_completion,
            )));
        }
    }

    /// Attribution step for a start: opens `(ns, role)` with input `vs`.
    fn attribute_start(&mut self, ns: u32, role: u8, vs: u32) {
        let slot = self.attribution.slot(ns, role);
        self.attribution.open[slot].push(vs);
        self.attribution.last_start_input[slot] = Some(vs);
    }

    /// Attribution step for a completion: the input symbol of the nearest
    /// open start (or of the most recent start, flagging the ambiguity),
    /// or `Err` for an orphan completion.
    fn attribute_completion(
        &mut self,
        ns: u32,
        role: u8,
        a: &ActionId,
        index: usize,
    ) -> Result<u32, String> {
        let slot = self.attribution.slot(ns, role);
        let open = &mut self.attribution.open[slot];
        if open.distinct() > 1 {
            self.ambiguous = true;
        }
        match open.pop() {
            Some(vs) => Ok(vs),
            // Duplicate completion after all starts closed: attribute to
            // the most recent start.
            None => match self.attribution.last_start_input[slot] {
                Some(vs) => {
                    self.ambiguous = true;
                    Ok(vs)
                }
                None => Err(format!(
                    "completion of {a} at index {index} has no start event (violates the event axioms of §2.2)"
                )),
            },
        }
    }

    /// The dense group of `key`, created on first sight.
    fn group_of(&mut self, key: KeySyms) -> (GroupSym, bool) {
        match self.group_lookup.get(&key) {
            Some(&sym) => (sym, false),
            None => {
                let sym = u32::try_from(self.cells.len()).expect("more than u32::MAX groups");
                // Round-stamped shape: intern the base input now so the
                // parent key is a pure symbol probe from then on.
                let stamped = if self.interner.action(key.0).is_undoable() {
                    match self.interner.value(key.1) {
                        Value::Pair(p) if matches!(p.1, Value::Int(_)) => {
                            let base = p.0.clone();
                            Some((key.0, self.interner.intern_value(&base)))
                        }
                        _ => None,
                    }
                } else {
                    None
                };
                self.group_lookup.insert(key, sym);
                self.keys.push(key);
                self.stamped_of.push(stamped);
                self.cells.push(GroupCell::default());
                (sym, true)
            }
        }
    }

    /// Appends the event's index to its group's cell and packages the
    /// self-contained [`Observed`] record.
    fn record_in_cell(
        &mut self,
        group: GroupSym,
        key: KeySyms,
        created: bool,
        index: usize,
        is_commit_completion: bool,
    ) -> Observed {
        let stamped_parent = self.stamped_of[group as usize];
        let cell = &mut self.cells[group as usize];
        let commit_completed = is_commit_completion && !cell.has_commit_completion;
        cell.push_index(index, is_commit_completion);
        Observed {
            group,
            key,
            stamped_parent,
            created,
            commit_completed,
        }
    }

    /// The interner backing the engine's symbols.
    pub(crate) fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable interner access (the incremental checker interns declared
    /// request keys so later group probes are symbol comparisons).
    pub(crate) fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// The key symbols of a group.
    pub(crate) fn key(&self, sym: GroupSym) -> KeySyms {
        self.keys[sym as usize]
    }

    /// The group with exactly the key `syms`, if any.
    pub(crate) fn group_with_key(&self, syms: KeySyms) -> Option<GroupSym> {
        self.group_lookup.get(&syms).copied()
    }

    /// Resolves a group's key to its owned `(name, input)` (for search
    /// targets and messages — off the per-event hot path).
    pub(crate) fn resolve(&self, sym: GroupSym) -> (ActionName, Value) {
        let (ns, vs) = self.keys[sym as usize];
        (
            self.interner.action(ns).clone(),
            self.interner.value(vs).clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionName, Request};
    use crate::event::Event;
    use crate::failure_free::eventsof;
    use crate::xable::checker::{Checker, FastChecker};

    fn fast() -> FastChecker {
        FastChecker::default()
    }

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

    /// The closed form's soundness proof by enumeration: over *every*
    /// sequence up to [`CLOSED_FORM_MAX_LEN`] events drawn from
    /// `{S(a,k), C(a,o1), C(a,o2)}` — the entire gated input class modulo
    /// value identity — the closed form must agree exactly with the real
    /// reduction search on both the exec and the erase question, anchors
    /// and outputs included. Equality also proves the search never
    /// exhausts [`SearchBudget::small`] in the gated regime (a `Budget`
    /// outcome would mismatch the closed form's decision).
    #[test]
    fn closed_form_matches_search_exhaustively() {
        let name = ActionName::idempotent("a");
        let action = ActionId::base(name.clone());
        let input = Value::from(7);
        let alphabet = [
            Event::start(action.clone(), input.clone()),
            Event::complete(action.clone(), Value::from(1)),
            Event::complete(action.clone(), Value::from(2)),
        ];
        let budget = SearchBudget::small();
        let mut checked = 0usize;
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(picks) = stack.pop() {
            let sub: History = picks.iter().map(|&i| alphabet[i].clone()).collect();
            let indices: Vec<usize> = (0..sub.len()).collect();

            let fast_exec = run_exec_search(&sub, &indices, &name, &input, budget);
            let goal = |cand: &History| failure_free_output(&action, &input, cand).is_some();
            let search_exec = match search_reduction(&sub, goal, 2, budget) {
                SearchResult::Reached(witness) => {
                    let output = failure_free_output(&action, &input, &witness)
                        .expect("goal predicate guarantees failure-free shape");
                    let anchor = (0..sub.len())
                        .find(|&i| sub.is_base_completion_at(i))
                        .expect("a reached idempotent group has a completion");
                    ExecOutcome::Reduced { output, anchor }
                }
                SearchResult::Exhausted => ExecOutcome::Stuck,
                SearchResult::BudgetExceeded => ExecOutcome::Budget,
            };
            assert_eq!(fast_exec, search_exec, "exec closed form diverges on {sub}");

            let fast_erase = run_erase_search(&sub, &indices, budget);
            let search_erase = match search_reduction(&sub, History::is_empty, 0, budget) {
                SearchResult::Reached(_) => EraseOutcome::Erases,
                SearchResult::Exhausted => EraseOutcome::Stuck,
                SearchResult::BudgetExceeded => EraseOutcome::Budget,
            };
            assert_eq!(
                fast_erase, search_erase,
                "erase closed form diverges on {sub}"
            );

            checked += 1;
            if picks.len() < CLOSED_FORM_MAX_LEN {
                for next in 0..alphabet.len() {
                    let mut longer = picks.clone();
                    longer.push(next);
                    stack.push(longer);
                }
            }
        }
        // Σ_{l=0..8} 3^l — the whole gated class was enumerated.
        assert_eq!(checked, 9_841);
    }

    /// Groups the closed form must *refuse* (falling back to the search):
    /// undoable names, cancel/commit events, foreign inputs, over-long
    /// groups, and sub-`small()` budgets.
    #[test]
    fn closed_form_gate_rejects_ungated_shapes() {
        let a = idem("a");
        let small = SearchBudget::small();
        // An undoable group decides through the search (and still works).
        let u_name = ActionName::undoable("u");
        let u = ActionId::base(u_name.clone());
        let commit = u.commit().expect("undoable actions have a commit form");
        let h: History = [
            s(&u, 1),
            c(&u, 5),
            Event::start(commit.clone(), Value::from(1)),
            cnil(&commit),
        ]
        .into_iter()
        .collect();
        let indices: Vec<usize> = (0..h.len()).collect();
        assert!(matches!(
            run_exec_search(&h, &indices, &u_name, &Value::from(1), small),
            ExecOutcome::Reduced { .. }
        ));
        // A foreign start input in an idempotent group: gate refuses, the
        // search still answers (here: stuck — the goal needs input 1).
        let name = ActionName::idempotent("a");
        let h: History = [s(&a, 2), c(&a, 5)].into_iter().collect();
        assert!(idempotent_exec_closed_form(&h, &[0, 1], &name, &Value::from(1), small).is_none());
        assert_eq!(
            run_exec_search(&h, &[0, 1], &name, &Value::from(1), small),
            ExecOutcome::Stuck
        );
        // Over-long groups and starved budgets are not closed-formed.
        let long: History = (0..CLOSED_FORM_MAX_LEN + 1).map(|_| s(&a, 1)).collect();
        let all: Vec<usize> = (0..long.len()).collect();
        assert!(idempotent_exec_closed_form(&long, &all, &name, &Value::from(1), small).is_none());
        let starved = SearchBudget {
            max_expansions: 10,
            max_visited: 10,
        };
        let h: History = [s(&a, 1), c(&a, 5)].into_iter().collect();
        assert!(
            idempotent_exec_closed_form(&h, &[0, 1], &name, &Value::from(1), starved).is_none()
        );
        assert!(idempotent_erase_closed_form(&h, starved).is_none());
        // Mixed-input erase groups fall back too.
        let mixed: History = [s(&a, 1), s(&a, 2)].into_iter().collect();
        assert!(idempotent_erase_closed_form(&mixed, small).is_none());
        assert_eq!(
            run_erase_search(&mixed, &[0, 1], small),
            EraseOutcome::Stuck
        );
    }

    #[test]
    fn accepts_failure_free_single_request() {
        let a = idem("a");
        let h = eventsof(&a, &Value::from(1), &Value::from(5));
        let v = fast().check(&h, &[(a, Value::from(1))], &[]);
        assert_eq!(v, Verdict::xable(vec![Value::from(5)]));
    }

    #[test]
    fn accepts_retried_idempotent_request() {
        let a = idem("a");
        let h: History = [s(&a, 1), s(&a, 1), c(&a, 5), s(&a, 1), c(&a, 5)]
            .into_iter()
            .collect();
        assert!(fast().check(&h, &[(a, Value::from(1))], &[]).is_xable());
    }

    #[test]
    fn rejects_disagreeing_outputs() {
        let a = idem("a");
        let h: History = [s(&a, 1), c(&a, 5), s(&a, 1), c(&a, 6)]
            .into_iter()
            .collect();
        assert!(fast().check(&h, &[(a, Value::from(1))], &[]).is_not_xable());
    }

    #[test]
    fn rejects_missing_request() {
        let a = idem("a");
        let v = fast().check(&History::empty(), &[(a, Value::from(1))], &[]);
        assert!(v.is_not_xable());
    }

    #[test]
    fn rejects_undeclared_events() {
        let a = idem("a");
        let b = idem("b");
        let h = eventsof(&a, &Value::from(1), &Value::from(5)).concat(&eventsof(
            &b,
            &Value::from(2),
            &Value::from(6),
        ));
        let v = fast().check(&h, &[(a, Value::from(1))], &[]);
        assert!(v.is_not_xable());
    }

    #[test]
    fn rejects_completion_without_start() {
        let a = idem("a");
        let h: History = [c(&a, 5)].into_iter().collect();
        let v = fast().check(&h, &[(a, Value::from(1))], &[]);
        assert!(v.is_not_xable());
    }

    #[test]
    fn ambiguous_completion_attribution_is_unknown() {
        let a = idem("a");
        // Two different inputs for the same action plus a completion:
        // attribution is ambiguous.
        let h: History = [s(&a, 1), s(&a, 2), c(&a, 5), c(&a, 5)]
            .into_iter()
            .collect();
        let v = fast().check(&h, &[(a.clone(), Value::from(1)), (a, Value::from(2))], &[]);
        assert!(matches!(v, Verdict::Unknown { .. }));
    }

    #[test]
    fn undoable_request_with_cancelled_round_is_xable() {
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let h: History = [
            s(&u, 1),
            s(&cancel, 1),
            cnil(&cancel),
            s(&u, 1),
            c(&u, 7),
            s(&commit, 1),
            cnil(&commit),
        ]
        .into_iter()
        .collect();
        let v = fast().check(&h, &[(u, Value::from(1))], &[]);
        assert_eq!(v, Verdict::xable(vec![Value::from(7)]));
    }

    #[test]
    fn sequence_in_order_is_xable() {
        let a = idem("a");
        let b = undo("b");
        let h = eventsof(&a, &Value::from(1), &Value::from(5)).concat(&eventsof(
            &b,
            &Value::from(2),
            &Value::from(6),
        ));
        let ops = [(a, Value::from(1)), (b, Value::from(2))];
        let v = fast().check(&h, &ops, &[]);
        assert_eq!(v, Verdict::xable(vec![Value::from(5), Value::from(6)]));
    }

    #[test]
    fn sequence_out_of_order_is_rejected() {
        let a = idem("a");
        let b = idem("b");
        let h = eventsof(&b, &Value::from(2), &Value::from(6)).concat(&eventsof(
            &a,
            &Value::from(1),
            &Value::from(5),
        ));
        let ops = [(a, Value::from(1)), (b, Value::from(2))];
        assert!(fast().check(&h, &ops, &[]).is_not_xable());
    }

    #[test]
    fn overlapping_blocks_with_ordered_effects_are_xable() {
        // S(a) S(b) C(a) C(b): b's compaction moves C(a) in front of its
        // pair, reaching the ordered concatenation — and the effect
        // anchors (C(a) before C(b)) agree.
        let a = idem("a");
        let b = idem("b");
        let h: History = [s(&a, 1), s(&b, 2), c(&a, 5), c(&b, 6)]
            .into_iter()
            .collect();
        let ops = [(a, Value::from(1)), (b, Value::from(2))];
        assert!(fast().check(&h, &ops, &[]).is_xable());
    }

    #[test]
    fn cancelled_then_retried_after_later_request_is_rejected() {
        // u completed, was cancelled, and was only re-executed (and
        // committed) after b's effect: u's first completion was undone by
        // the cancellation, so its *surviving* effect postdates b's —
        // effects are out of submission order (the search reference
        // agrees; see tests/checker_agreement.rs).
        let u = undo("u");
        let b = idem("b");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let h: History = [
            s(&u, 1),
            c(&u, 7),
            s(&cancel, 1),
            cnil(&cancel),
            s(&b, 2),
            c(&b, 6),
            s(&u, 1),
            c(&u, 7),
            s(&commit, 1),
            cnil(&commit),
        ]
        .into_iter()
        .collect();
        let ops = [(u, Value::from(1)), (b, Value::from(2))];
        assert!(fast().check(&h, &ops, &[]).is_not_xable());
    }

    #[test]
    fn cancelled_then_retried_before_later_request_is_xable() {
        // Same cancel-then-retry shape, but the retry (and commit) lands
        // before b: the surviving effects are in submission order.
        let u = undo("u");
        let b = idem("b");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let h: History = [
            s(&u, 1),
            c(&u, 7),
            s(&cancel, 1),
            cnil(&cancel),
            s(&u, 1),
            c(&u, 7),
            s(&commit, 1),
            cnil(&commit),
            s(&b, 2),
            c(&b, 6),
        ]
        .into_iter()
        .collect();
        let ops = [(u, Value::from(1)), (b, Value::from(2))];
        let v = fast().check(&h, &ops, &[]);
        assert_eq!(v, Verdict::xable(vec![Value::from(7), Value::from(6)]));
    }

    #[test]
    fn trailing_duplicate_after_next_request_is_accepted() {
        // A deduplicated retry of request a lands after b completed; the
        // effects still happened exactly once and in order.
        let a = idem("a");
        let b = idem("b");
        let h: History = [s(&a, 1), c(&a, 5), s(&b, 2), c(&b, 6), s(&a, 1), c(&a, 5)]
            .into_iter()
            .collect();
        let ops = [(a, Value::from(1)), (b, Value::from(2))];
        assert!(fast().check(&h, &ops, &[]).is_xable());
    }

    #[test]
    fn erasable_group_may_vanish() {
        let a = idem("a");
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let h = eventsof(&a, &Value::from(1), &Value::from(5)).concat(&History::from_events(vec![
            s(&u, 2),
            s(&cancel, 2),
            cnil(&cancel),
        ]));
        let v = fast().check(&h, &[(a, Value::from(1))], &[(u, Value::from(2))]);
        assert_eq!(v, Verdict::xable(vec![Value::from(5)]));
    }

    #[test]
    fn erasable_group_that_committed_is_rejected() {
        let a = idem("a");
        let u = undo("u");
        let h = eventsof(&a, &Value::from(1), &Value::from(5)).concat(&eventsof(
            &u,
            &Value::from(2),
            &Value::from(7),
        ));
        // u committed, so its events cannot erase.
        let v = fast().check(&h, &[(a, Value::from(1))], &[(u, Value::from(2))]);
        assert!(v.is_not_xable());
    }

    #[test]
    fn request_sequence_helper_tries_prefix() {
        let a = idem("a");
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let requests = vec![
            Request::new(a.clone(), Value::from(1)),
            Request::new(u.clone(), Value::from(2)),
        ];
        // Last request started but was cancelled and never retried: x-able
        // via the R1…Rₙ₋₁ case.
        let h = eventsof(&a, &Value::from(1), &Value::from(5)).concat(&History::from_events(vec![
            s(&u, 2),
            s(&cancel, 2),
            cnil(&cancel),
        ]));
        assert!(fast().check_requests(&h, &requests).is_xable());
        // But a *middle* request cannot be abandoned.
        let requests_rev = vec![
            Request::new(u, Value::from(2)),
            Request::new(a, Value::from(1)),
        ];
        let v = fast().check_requests(&h, &requests_rev);
        assert!(!v.is_xable());
    }

    #[test]
    fn empty_request_sequence_accepts_empty_history() {
        assert!(fast().check_requests(&History::empty(), &[]).is_xable());
    }

    #[test]
    fn view_backed_check_matches_owned() {
        // The engine is generic over `HistoryRead`: a zero-copy window
        // over the full history must decide exactly like the owned value.
        let u = undo("u");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let h: History = [
            s(&u, 1),
            s(&cancel, 1),
            cnil(&cancel),
            s(&u, 1),
            c(&u, 7),
            s(&commit, 1),
            cnil(&commit),
        ]
        .into_iter()
        .collect();
        let ops = [(u, Value::from(1))];
        let owned = fast().check(&h, &ops, &[]);
        let viewed = fast().check_source(&h.window(0, h.len()), &ops, &[]);
        assert_eq!(owned, viewed);
    }

    #[test]
    fn round_stamped_rounds_decide_like_the_old_key_scheme() {
        // One cancelled round, one committed round, stamped as
        // Pair(input, round) — the §5.4 shape the protocol produces.
        let u = undo("xfer");
        let cancel = u.cancel().unwrap();
        let commit = u.commit().unwrap();
        let key = Value::from("r0");
        let iv1 = Value::pair(key.clone(), Value::from(1));
        let iv2 = Value::pair(key.clone(), Value::from(2));
        let h: History = [
            Event::start(u.clone(), iv1.clone()),
            Event::start(cancel.clone(), iv1.clone()),
            Event::complete(cancel.clone(), Value::Nil),
            Event::start(u.clone(), iv2.clone()),
            Event::complete(u.clone(), Value::from("ok")),
            Event::start(commit.clone(), iv2.clone()),
            Event::complete(commit.clone(), Value::Nil),
        ]
        .into_iter()
        .collect();
        let v = fast().check(&h, &[(u.clone(), key.clone())], &[]);
        assert_eq!(v, Verdict::xable(vec![Value::from("ok")]));
        // Declaring the request erasable erases both rounds… except the
        // committed one cannot erase. (The cancelled round leaves an open
        // base start, so attribution is ambiguous and the rejection is
        // reported as `Unknown` rather than a definite negative.)
        let v = fast().check(&h, &[], &[(u, key)]);
        assert!(!v.is_xable());
    }

    #[test]
    fn explicit_split_checks_undeclared_groups_past_a_failing_erasable() {
        // The first failing declared request (u/2, cancelled) lies in the
        // erasable tail, past the one request that must execute: the
        // undeclared completed b/9 must still be checked, and it cannot
        // erase.
        let a = idem("a");
        let u = undo("u");
        let b = idem("b");
        let cancel = u.cancel().unwrap();
        let h = History::from_events(vec![
            s(&a, 1),
            c(&a, 5),
            s(&u, 2),
            s(&cancel, 2),
            cnil(&cancel),
            s(&u, 3),
            s(&cancel, 3),
            cnil(&cancel),
            s(&b, 9),
            c(&b, 9),
        ]);
        let v = fast().check(
            &h,
            &[(a, Value::from(1))],
            &[(u.clone(), Value::from(2)), (u, Value::from(3))],
        );
        assert_eq!(
            v,
            Verdict::NotXable {
                reason: "undeclared request bⁱ/9 left events that do not erase".to_owned()
            }
        );
    }
}
