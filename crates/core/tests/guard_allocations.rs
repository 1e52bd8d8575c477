//! What evaluating a guard allocates, counted by this test binary's global
//! allocator.
//!
//! A guard reads the instance's variables where they are: evaluating
//! `branch == 3` beside an 8 KiB payload copies no variable and builds no
//! function table, so it allocates nothing at all.

use selfserv_core::FunctionLibrary;
use selfserv_expr::{parse, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: each method passes its caller's arguments unchanged to `System`,
// which keeps `GlobalAlloc`'s contract; the count touches no memory that
// either allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_guard_over_instance_variables_allocates_nothing() {
    let lib = FunctionLibrary::travel();
    let mut vars = BTreeMap::new();
    vars.insert("payload".to_string(), Value::str("x".repeat(8 * 1024)));
    vars.insert("branch".to_string(), Value::Int(3));
    let guard = parse("branch == 3").unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let holds = guard.eval_bool(&lib.env(&vars));
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(holds, Ok(true));
    assert_eq!(allocated, 0, "evaluating the guard allocated");
}
