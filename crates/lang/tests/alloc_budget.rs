//! Allocation counts of the front end on a generated 2,000-task spec:
//! `parse` (lexer and parser) and `compile` (AST to spec, validation
//! and the structural width).
//!
//! A counting global allocator sees every allocation in this test
//! binary, so the file holds exactly one test: no other test thread can
//! add to the count. Allocation counts do not jitter, so the test pins
//! them exactly; a change in what the front end copies shows here even
//! where wall-clock timings disagree run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use wrm_dag::generate::random_layered_tasks;

/// Counts `alloc` and `realloc` calls; frees are not counted.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `parse` makes on the test's spec: the strings the AST
/// stores, its vectors, and the token buffer's growth. Tokens borrow
/// their text, so none is allocated per token.
const PARSE_ALLOCATIONS: usize = 12_340;

/// Allocations `compile` makes on the test's spec: the spec's names and
/// phases, the task-name table and dependency lists, and the width
/// pass, which builds no `Dag`.
const COMPILE_ALLOCATIONS: usize = 12_427;

/// A 2,000-task layered spec on a 32-channel machine, in the shape of
/// the benchmark's generated pipelines: every task has an overhead,
/// every fourth a capped system transfer, and up to three `after`s.
fn spec_source() -> String {
    let mut src = String::from("machine gen {\n  nodes 8192\n");
    for c in 0..32 {
        writeln!(src, "  system ch{c} 50000000000B/s").unwrap();
    }
    src.push_str("}\n# A generated pipeline.\nworkflow pipeline on gen {\n");
    let tasks = random_layered_tasks(42, 2000, 64, 4, 20.0);
    for (i, t) in tasks.iter().enumerate() {
        write!(
            src,
            "  task t{i} {{ nodes {} overhead work {}s",
            t.nodes, t.duration
        )
        .unwrap();
        if i % 4 == 0 {
            write!(src, " system_bytes ch{} {}GB cap 5GB/s", i % 32, 1 + i % 7).unwrap();
        }
        for &d in &t.deps {
            write!(src, " after t{d}").unwrap();
        }
        src.push_str(" }\n");
    }
    src.push_str("}\n");
    src
}

fn count<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn the_front_end_allocates_what_the_ast_and_spec_keep() {
    let src = spec_source();
    let warm = wrm_lang::parse(&src).expect("parses");
    let (ast, parse) = count(|| wrm_lang::parse(&src).expect("parses"));
    assert_eq!(ast, warm);
    assert_eq!(ast.tasks.len(), 2000);
    let (compiled, compile) = count(|| wrm_lang::compile(&ast).expect("compiles"));
    assert_eq!(compiled.spec.tasks.len(), 2000);
    assert_eq!(
        compiled.parallel_tasks,
        compiled
            .spec
            .to_dag_with(|_| 0.0)
            .expect("acyclic")
            .max_width()
            .expect("acyclic") as f64
    );
    assert_eq!(
        (parse, compile),
        (PARSE_ALLOCATIONS, COMPILE_ALLOCATIONS),
        "allocations of (parse, compile) on a {}-byte spec",
        src.len()
    );
}
