//! Golden verdict digest: every history of at most five events over the
//! nine-event alphabet of `incremental_props.rs::arb_event`, asked the
//! five `arb_requests` R3 questions and four explicit `(ops, erasable)`
//! splits by the [`FastChecker`]. The FNV-1a hash of every verdict's
//! `Debug` rendering — kind, outputs and reason string — is pinned, so
//! any change to what the fast tier answers on this class, or to how it
//! words an answer, shows up here.
//!
//! The pinned value was recorded when the batch checker still ran its own
//! assembly next to the online aggregate (the two were proptested equal),
//! so it stands in for that second implementation as a reference.

use xability::core::xable::{Checker, FastChecker};
use xability::core::{ActionId, ActionName, Event, History, Request, Value};

/// The digest of every verdict over the enumerated class, in enumeration
/// order.
const PINNED_DIGEST: u64 = 0xe14e_7bc3_bdac_ba59;

/// Histories per length 0..=5: Σ 9^l.
const HISTORIES: usize = 66_430;

fn idem() -> ActionId {
    ActionId::base(ActionName::idempotent("i"))
}

fn undo() -> ActionId {
    ActionId::base(ActionName::undoable("u"))
}

/// The `arb_event` alphabet, in its declaration order.
fn alphabet() -> Vec<Event> {
    let i = idem();
    let u = undo();
    let cancel = u.cancel().expect("undoable");
    let commit = u.commit().expect("undoable");
    vec![
        Event::start(i.clone(), Value::from(1)),
        Event::complete(i.clone(), Value::from(7)),
        Event::complete(i, Value::from(8)),
        Event::start(u.clone(), Value::from(1)),
        Event::complete(u, Value::from(7)),
        Event::start(cancel.clone(), Value::from(1)),
        Event::complete(cancel, Value::Nil),
        Event::start(commit.clone(), Value::from(1)),
        Event::complete(commit, Value::Nil),
    ]
}

/// 64-bit FNV-1a, continued from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn fast_verdicts_match_the_pinned_digest() {
    let alphabet = alphabet();
    let i = (idem(), Value::from(1));
    let u = (undo(), Value::from(1));
    let req = |(a, v): &(ActionId, Value)| Request::new(a.clone(), v.clone());
    // The five `arb_requests` sequences.
    let sequences: [Vec<Request>; 5] = [
        vec![],
        vec![req(&i)],
        vec![req(&u)],
        vec![req(&i), req(&u)],
        vec![req(&u), req(&i)],
    ];
    // Four explicit `(ops, erasable)` splits.
    let splits: [(Vec<_>, Vec<_>); 4] = [
        (vec![i.clone()], vec![u.clone()]),
        (vec![u.clone()], vec![i.clone()]),
        (vec![], vec![i.clone(), u.clone()]),
        (vec![], vec![u.clone(), i.clone()]),
    ];

    let checker = FastChecker::default();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut histories = 0usize;
    let mut checks = 0usize;
    for len in 0..=5u32 {
        // Base-9 counting, first event most significant.
        for code in 0..9usize.pow(len) {
            let mut picks = vec![0usize; len as usize];
            let mut rest = code;
            for slot in picks.iter_mut().rev() {
                *slot = rest % 9;
                rest /= 9;
            }
            let h: History = picks.iter().map(|&p| alphabet[p].clone()).collect();
            for requests in &sequences {
                let v = checker.check_requests(&h, requests);
                digest = fnv1a(digest, format!("{v:?}").as_bytes());
                checks += 1;
            }
            for (ops, erasable) in &splits {
                let v = checker.check(&h, ops, erasable);
                digest = fnv1a(digest, format!("{v:?}").as_bytes());
                checks += 1;
            }
            histories += 1;
        }
    }
    assert_eq!(histories, HISTORIES);
    assert_eq!(checks, HISTORIES * 9);
    println!("verdict digest {digest:016x} over {checks} checks");
    assert_eq!(
        digest, PINNED_DIGEST,
        "fast-tier verdicts changed: digest {digest:016x}"
    );
}
