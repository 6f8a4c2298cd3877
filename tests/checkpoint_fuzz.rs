//! Seeded mutation fuzzing of the binary checkpoint decoder.
//!
//! A valid format-v4 file is truncated at every length, has every 4- and
//! 8-byte window overwritten with hostile lengths (`u32::MAX` counts,
//! off-by-one prefixes, huge section sizes), and is then hit by random
//! bit flips, byte edits, splices and cuts drawn from a fixed-seed
//! `Pcg64`. Every input must either fail with a typed
//! `FlError::Checkpoint` or decode to a checkpoint that re-encodes to the
//! exact input bytes. No input may panic, and no decode may request an
//! allocation larger than the input (plus a small allowance for error
//! messages) — this file installs a counting global allocator to check
//! that, which is why it holds a single test.

use niid_bench_rs::fl::checkpoint::Checkpoint;
use niid_bench_rs::fl::{FlError, RoundRecord};
use niid_bench_rs::stats::Pcg64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Counts allocation requests made by the current thread while
/// `TRACKING` is set: the largest single request and the running total.
struct CountingAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static TOTAL: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
            let _ = TOTAL.try_with(|s| s.set(s.get() + size));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Room for a decode error's message on inputs shorter than it.
const MESSAGE_ALLOWANCE: usize = 1024;

/// Decode `bytes` with allocation tracking on; returns the result and
/// the (largest, total) bytes requested.
fn tracked_decode(bytes: &[u8]) -> (Result<Checkpoint, FlError>, usize, usize) {
    LARGEST.with(|l| l.set(0));
    TOTAL.with(|t| t.set(0));
    TRACKING.with(|t| t.set(true));
    let out = catch_unwind(AssertUnwindSafe(|| Checkpoint::decode(bytes)));
    TRACKING.with(|t| t.set(false));
    let out = out.unwrap_or_else(|_| panic!("decode panicked on {} bytes: {bytes:?}", bytes.len()));
    (out, LARGEST.with(Cell::get), TOTAL.with(Cell::get))
}

fn sample() -> Checkpoint {
    let record = |round, acc| RoundRecord {
        round,
        test_accuracy: acc,
        avg_local_loss: 0.75,
        participants: 4,
        down_bytes: 96,
        up_bytes: 48,
        local_wall_ms: 1.5,
        aggregate_wall_ms: 0.25,
        eval_wall_ms: 0.5,
        failures: 1,
    };
    Checkpoint {
        round_next: 2,
        seed: 0xDEAD_BEEF_0000_0042,
        algorithm: "scaffold".into(),
        n_parties: 6,
        sample_fraction: 0.5,
        min_quorum: 0.25,
        fault_plan: Some("crash=0.3,seed=7".into()),
        codec: "topk8:0.25".into(),
        global_params: vec![0.5, -1.25, f32::from_bits(0x7fc0_0001), -0.0, 3.0e-42],
        global_buffers: vec![1.0, 0.999],
        server_c: vec![0.125; 5],
        client_c: vec![(0, vec![0.1; 5]), (4, vec![-0.5; 5])],
        residuals: vec![(1, vec![0.01; 5]), (5, vec![0.75; 5])],
        records: vec![record(0, None), record(1, Some(0.625))],
        best_accuracy: 0.625,
        final_accuracy: 0.625,
        total_bytes: 288,
    }
}

/// One mutated input: it must decode to itself or fail typed, within
/// the allocation bound.
fn check(bytes: &[u8], what: &str, outcomes: &mut [usize; 2]) {
    let (result, largest, total) = tracked_decode(bytes);
    let bound = bytes.len() + MESSAGE_ALLOWANCE;
    assert!(
        largest <= bound,
        "{what}: one allocation of {largest} B for a {} B input",
        bytes.len()
    );
    assert!(
        total <= 4 * bound,
        "{what}: {total} B allocated for a {} B input",
        bytes.len()
    );
    match result {
        Ok(ck) => {
            assert_eq!(
                ck.encode(),
                bytes,
                "{what}: decoded but re-encodes differently"
            );
            outcomes[0] += 1;
        }
        Err(FlError::Checkpoint(_)) => outcomes[1] += 1,
        Err(other) => panic!("{what}: untyped error {other:?}"),
    }
}

#[test]
fn mutated_checkpoints_decode_to_themselves_or_fail_typed() {
    let valid = sample().encode();
    let mut outcomes = [0usize; 2]; // [decoded, refused]
    check(&valid, "the valid file", &mut outcomes);
    assert_eq!(outcomes, [1, 0]);

    // Every truncation.
    for cut in 0..valid.len() {
        check(&valid[..cut], &format!("prefix {cut}"), &mut outcomes);
    }

    // Every 4- and 8-byte window as a hostile length prefix: the file's
    // counts and section lengths are all among these windows.
    let u32_at = |b: &[u8], o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap());
    let u64_at = |b: &[u8], o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
    for o in 0..=valid.len() - 4 {
        let orig = u32_at(&valid, o);
        for v in [
            u32::MAX,
            u32::MAX - 1,
            1 << 31,
            0,
            orig.wrapping_add(1),
            orig.wrapping_sub(1),
            valid.len() as u32,
        ] {
            let mut m = valid.clone();
            m[o..o + 4].copy_from_slice(&v.to_le_bytes());
            check(&m, &format!("u32 {v} at offset {o}"), &mut outcomes);
        }
    }
    for o in 0..=valid.len() - 8 {
        let orig = u64_at(&valid, o);
        for v in [
            u64::MAX,
            1 << 63,
            orig.wrapping_add(1),
            orig.wrapping_sub(1),
            valid.len() as u64 + 1,
        ] {
            let mut m = valid.clone();
            m[o..o + 8].copy_from_slice(&v.to_le_bytes());
            check(&m, &format!("u64 {v} at offset {o}"), &mut outcomes);
        }
    }

    // Random stacked mutations from a fixed seed.
    let mut rng = Pcg64::new(0x0C4E_C4B0);
    for iter in 0..20_000 {
        let mut m = valid.clone();
        for _ in 0..1 + rng.next_below(3) {
            if m.is_empty() {
                break;
            }
            let at = rng.next_below(m.len());
            match rng.next_below(6) {
                0 => m[at] ^= 1 << rng.next_below(8),
                1 => m[at] = rng.next_u32() as u8,
                2 => m.truncate(at),
                3 => {
                    let end = (at + 1 + rng.next_below(16)).min(m.len());
                    m.drain(at..end);
                }
                4 => {
                    let junk: Vec<u8> = (0..1 + rng.next_below(16))
                        .map(|_| rng.next_u32() as u8)
                        .collect();
                    m.splice(at..at, junk);
                }
                _ => {
                    if at + 4 <= m.len() {
                        let v = [u32::MAX, rng.next_u32(), rng.next_below(64) as u32]
                            [rng.next_below(3)];
                        m[at..at + 4].copy_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        check(&m, &format!("random mutation {iter}"), &mut outcomes);
    }

    // Both outcomes were exercised: float bit flips decode, structural
    // damage is refused.
    assert!(outcomes[0] > 100 && outcomes[1] > 1000, "{outcomes:?}");
}
