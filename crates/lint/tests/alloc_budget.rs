//! Allocation count of the lint error gate on a generated 2,000-task
//! spec, the one `crates/lang/tests/alloc_budget.rs` parses and
//! compiles: `lint_errors_with_context` runs the per-statement error
//! checks, lowers the analysis IR and compiles the spec.
//!
//! A counting global allocator sees every allocation in this test
//! binary, so the file holds exactly one test: no other test thread can
//! add to the count. Allocation counts do not jitter, so the test pins
//! the count exactly; a change in what the gate copies shows here even
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

/// Allocations `lint_errors_with_context` makes on the test's spec: the
/// name maps of the error checks, the analysis IR, and the compiled
/// spec the context keeps.
const GATE_ALLOCATIONS: usize = 18_697;

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

#[test]
fn the_error_gate_allocates_what_its_context_keeps() {
    let src = spec_source();
    let ast = wrm_lang::parse(&src).expect("parses");
    let _warm = wrm_lint::lint_errors_with_context(&ast);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (errors, ctx) = wrm_lint::lint_errors_with_context(&ast);
    let gate = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(errors.is_empty(), "{errors:?}");
    let compiled = ctx.compiled.as_ref().expect("compiles");
    assert_eq!(compiled.spec.tasks.len(), 2000);
    assert_eq!(ctx.ir.tasks.len(), 2000);
    assert_eq!(
        gate,
        GATE_ALLOCATIONS,
        "allocations of the error gate on a {}-byte spec",
        src.len()
    );
}
