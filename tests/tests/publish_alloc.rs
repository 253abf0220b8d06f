//! Steady-state publishing allocates next to nothing.
//!
//! BATON's exporter refills the arrays of the export before last, which the
//! snapshot cell and its reader have let go of by the next export, and keeps
//! the patch's working arrays between exports, so after two warm-up cycles
//! `build_routing_snapshot` must allocate at most 1 % of the snapshot's
//! bytes per export.  A counting global allocator sees every
//! allocation of this process: the file holds a single test, so no other
//! test thread allocates while an export is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use baton_core::{BatonConfig, BatonSystem};
use baton_net::serve::{SnapshotCell, SnapshotReader};
use baton_net::{Overlay, SimRng};

/// Bytes requested since the process started, a reallocation counted at
/// its new size.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` for `layout`; the caller upholds
        // the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bulk-builds N = 2,000 peers with 20,000 items, then runs twelve cycles
/// of a join or a leave, an export, a publish and a refresh.
#[test]
fn steady_state_exports_refill_the_export_before_last() {
    const WARM_UP: usize = 2;
    let mut system = BatonSystem::bulk_build(BatonConfig::default(), 2005, 2_000).unwrap();
    let mut rng = SimRng::seeded(51);
    let domain = system.domain();
    let data: Vec<(u64, u64)> = (0..20_000)
        .map(|i| (rng.uniform_u64(domain.low(), domain.high() - 1), i))
        .collect();
    system.load_direct(&data);
    let cell = Arc::new(SnapshotCell::new(system.build_routing_snapshot()));
    let mut reader = SnapshotReader::new(Arc::clone(&cell));
    for cycle in 0..12 {
        if rng.index(2) == 0 {
            system.join_random().unwrap();
        } else {
            system.leave_random().unwrap();
        }
        let before = ALLOCATED.load(Ordering::Relaxed);
        let snapshot = system.build_routing_snapshot();
        let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
        let bytes = snapshot.estimated_bytes();
        let version = cell.publish(snapshot);
        reader.refresh();
        assert_eq!(reader.snapshot().version(), version);
        assert!(
            cycle < WARM_UP || 100 * allocated <= bytes,
            "cycle {cycle}: the export of {bytes} B allocated {allocated} B"
        );
    }
}
