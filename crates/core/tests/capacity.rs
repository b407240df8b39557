//! Capacity is checked before any per-qubit allocation.
//!
//! A register far larger than the device (`qreg q[4000000000]`) must
//! come back from every compile entry point as a typed
//! [`CompileError::ProgramTooLarge`] — never as an allocation of
//! per-qubit tables that aborts the process. This binary installs a
//! counting allocator so "without allocating" is checked directly: no
//! single allocation may approach the size of a per-qubit table.

use na_arch::Grid;
use na_circuit::{Circuit, Qubit};
use na_core::{
    compile, compile_monolithic, compile_with_report, initial_layout, CompileError, CompilerConfig,
    PlacementScratch,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The system allocator, recording the largest single request.
struct LargestAllocation;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

const HUGE: u32 = 4_000_000_000;

#[test]
fn huge_register_is_too_large_on_every_entry_point_without_allocating() {
    let mut circuit = Circuit::new(HUGE);
    circuit.cnot(Qubit(0), Qubit(1));
    let grid = Grid::new(10, 10);
    let config = CompilerConfig::new(3.0);
    let expected = CompileError::ProgramTooLarge {
        program: HUGE,
        usable: 100,
    };

    LARGEST.store(0, Ordering::Relaxed);
    let start = Instant::now();
    assert_eq!(compile(&circuit, &grid, &config).unwrap_err(), expected);
    assert_eq!(
        compile_with_report(&circuit, &grid, &config).unwrap_err(),
        expected
    );
    let mut scratch = PlacementScratch::new();
    assert_eq!(
        compile_monolithic(&circuit, &grid, &config, &mut scratch).unwrap_err(),
        expected
    );
    assert_eq!(
        initial_layout(&circuit, &grid, &config).unwrap_err(),
        expected
    );
    let elapsed = start.elapsed();
    let largest = LARGEST.load(Ordering::Relaxed);

    // A per-qubit table of even one byte per qubit is 4 GB.
    assert!(
        largest < 1 << 20,
        "largest allocation was {largest} bytes: a per-qubit table was built"
    );
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}
