//! A repeated query over an unchanged EDB builds no index: the stored
//! relations it probes keep the indexes the first query built. A repeated
//! Magic query pays nothing per symbol it never reads: it evaluates over a
//! fork of the database, which shares the symbol table instead of copying
//! it.
//!
//! The binary installs a counting global allocator. Counts are kept per
//! thread, so the harness's own threads do not disturb the one measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use separable::{QueryProcessor, Strategy};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and how many allocations it made on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const PEOPLE: usize = 4096;
const ITEMS: usize = 16;

/// Example 1.2's `buys` over [`PEOPLE`] people in rings of four friends, so
/// `friend` has a distinct first column per person and `p0` reaches three
/// others.
fn buys() -> String {
    let mut src = String::from(
        "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
         buys(X, Y) :- buys(X, W), cheaper(Y, W).\n\
         buys(X, Y) :- perfectFor(X, Y).\n",
    );
    for p in 0..PEOPLE {
        let friend = p - p % 4 + (p + 1) % 4;
        src.push_str(&format!("friend(p{p}, p{friend}). perfectFor(p{p}, i{}).\n", p % ITEMS));
    }
    for i in 1..ITEMS {
        src.push_str(&format!("cheaper(i{i}, i{}).\n", i - 1));
    }
    src
}

#[test]
fn a_repeated_separable_query_builds_no_index() {
    let mut qp = QueryProcessor::new();
    qp.load(&buys()).unwrap();
    qp.prepare().unwrap();
    let first = qp.query("buys(p0, Y)?").unwrap();
    assert_eq!(first.strategy, Strategy::Separable);
    let (second, made) = allocations(|| qp.query("buys(p0, Y)?").unwrap());
    assert_eq!(second.strategy, Strategy::Separable);
    assert_eq!(second.answers, first.answers);
    assert!(!second.answers.is_empty());
    // Rebuilding the `friend` index alone takes two allocations per
    // distinct key (its boxed key and its position list): 8 192 here.
    assert!(made < 1000, "a repeated query allocated {made} times");
}

/// Same generation over a complete ternary tree of depth 5 (364 nodes),
/// `up(child, parent)`, `down(parent, child)`, `flat(n0, n0)`, plus
/// `extra` facts `other(cᵢ)` that no `sg` rule reads.
fn same_generation(extra: usize) -> String {
    let mut src = String::from(separable::gen::programs::same_generation());
    src.push_str("flat(n0, n0).\n");
    for child in 1..364 {
        let parent = (child - 1) / 3;
        src.push_str(&format!("up(n{child}, n{parent}). down(n{parent}, n{child}).\n"));
    }
    for c in 0..extra {
        src.push_str(&format!("other(c{c}).\n"));
    }
    src
}

/// At most this many allocations may separate the repeated query over the
/// two databases. A copy of the symbol table made two per extra name
/// (its string in the name list and its key in the map): about 8 200.
const UNREAD_SYMBOLS_SLACK: usize = 8;

#[test]
fn a_repeated_magic_query_allocates_nothing_per_unread_symbol() {
    let repeated = |extra: usize| {
        let mut qp = QueryProcessor::new();
        qp.load(&same_generation(extra)).unwrap();
        qp.prepare().unwrap();
        let first = qp.query("sg(n40, Y)?").unwrap();
        assert_eq!(first.strategy, Strategy::MagicSets);
        let (second, made) = allocations(|| qp.query("sg(n40, Y)?").unwrap());
        assert_eq!(second.answers, first.answers);
        assert_eq!(second.answers.len(), 81, "every node at n40's depth, 4");
        made
    };
    let (lean, padded) = (repeated(0), repeated(4096));
    eprintln!("repeated Magic query: {lean} allocations, {padded} with 4 096 unread symbols");
    assert!(
        padded.abs_diff(lean) <= UNREAD_SYMBOLS_SLACK,
        "4 096 unread symbols moved a Magic query from {lean} to {padded} allocations"
    );
}
