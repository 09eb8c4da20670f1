//! Decoding untrusted snapshot bytes never reserves more memory than the
//! input could fill: every declared count is capped by the bytes left.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mao_asm::snapshot::{decode, KIND};

thread_local! {
    /// Largest single allocation request made on this thread.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Tracking;

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping touches only a const-initialized thread-local cell, which
// never allocates.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Largest allocation while decoding `bytes`.
fn largest_allocation(bytes: &[u8]) -> usize {
    LARGEST.with(|l| l.set(0));
    let _ = decode(bytes, None);
    LARGEST.with(|l| l.get())
}

#[test]
fn lying_counts_reserve_no_more_than_the_input() {
    // Body: an empty string table, one entry, and that entry a `.byte`
    // directive declaring 2^24 items with none present.
    let mut body = vec![0, 1, 7, 0];
    body.extend_from_slice(&[0x80, 0x80, 0x80, 0x08]); // varint 1 << 24
    let lying_items = KIND.encode(1, 0, &body);
    // An entry count of 2^28 over a one-byte entry region.
    let lying_entries = KIND.encode(1, 0, &[0, 0x80, 0x80, 0x80, 0x80, 0x01, 0]);
    for bytes in [lying_items, lying_entries] {
        let largest = largest_allocation(&bytes);
        assert!(
            largest <= bytes.len() * 256,
            "{} bytes reserved for a {}-byte input",
            largest,
            bytes.len()
        );
    }
}
