//! Model-check suite 5: the fan-out's job-claiming protocol.
//!
//! Exhaustively explores (under `RUSTFLAGS="--cfg wrm_mc"`) workers
//! racing [`ChunkClaim`], the claimer behind every batch runner in
//! `wrm-sim` (sweep columns, `run_all` scenarios, Monte-Carlo
//! replications): every index must be claimed exactly once — no loss,
//! no double-claim — for chunk sizes that divide the total evenly and
//! ones that leave a ragged tail, so the index-ordered merge is
//! deterministic regardless of which worker ran which job.
#![cfg(wrm_mc)]

use std::sync::Arc;
use wrm_mc::{model, thread};
use wrm_sim::ChunkClaim;

/// Two workers drain one claimer; returns each worker's claimed
/// indices in claim order.
fn claimed_per_worker(total: usize, chunk: usize) -> Vec<Vec<usize>> {
    let claim = Arc::new(ChunkClaim::new(total, chunk));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let claim = Arc::clone(&claim);
            thread::spawn(move || {
                let mut mine = Vec::new();
                while let Some(range) = claim.next_range() {
                    mine.extend(range);
                }
                mine
            })
        })
        .collect();
    workers.into_iter().map(|w| w.join().unwrap()).collect()
}

fn claimed_indices(total: usize, chunk: usize) -> Vec<usize> {
    let mut all: Vec<usize> = claimed_per_worker(total, chunk).concat();
    all.sort_unstable();
    all
}

#[test]
fn every_index_claimed_exactly_once() {
    model(|| {
        let all = claimed_indices(4, 2);
        assert_eq!(all, vec![0, 1, 2, 3], "each column claimed exactly once");
    });
}

#[test]
fn ragged_tail_is_not_overclaimed() {
    model(|| {
        // Chunk does not divide the total: the last claim truncates.
        let all = claimed_indices(3, 2);
        assert_eq!(all, vec![0, 1, 2], "tail chunk truncates at the total");
    });
}

#[test]
fn merge_order_is_schedule_independent() {
    model(|| {
        // However the workers interleave, placing each worker's
        // (index, payload) pairs by index reconstructs the same
        // sequence — the property the fan-out's merge relies on.
        let per_worker = claimed_per_worker(3, 1);
        let mut merged: Vec<Option<usize>> = vec![None; 3];
        for (w, mine) in per_worker.iter().enumerate() {
            for &i in mine {
                assert!(merged[i].is_none(), "index {i} claimed twice");
                merged[i] = Some(w);
            }
        }
        assert!(merged.iter().all(Option::is_some), "index lost: {merged:?}");
    });
}

#[test]
fn exhausted_cursor_stays_exhausted() {
    model(|| {
        let claim = ChunkClaim::new(1, 1);
        assert_eq!(claim.next_range(), Some(0..1));
        let claim = Arc::new(claim);
        let racer = {
            let claim = Arc::clone(&claim);
            thread::spawn(move || claim.next_range())
        };
        assert_eq!(racer.join().unwrap(), None);
        assert_eq!(claim.next_range(), None);
    });
}
