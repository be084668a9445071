//! A fixed reference computation, timed beside every measured operation.
//!
//! On a shared host the speed of a core moves with what other tenants run:
//! one cold paper-scale solve took from 2.7 to 5.6 s within minutes on the
//! 2-vCPU VM, in phases that outlast a run, while the thread stayed on the
//! CPU the whole time. An operation's wall time divided by the wall time of
//! this computation, run on the same machine right before and right after
//! it, cancels most of that: the computation is the benchmark's own code,
//! so no change to the program can move it. `op_time_rel` is that ratio.
//!
//! The computation mixes the two kinds of work the workloads spend their
//! time on: a max-similarity scan over pairs of rows of a small matrix (as
//! Algorithm 1 does) and a UTF-8 validation of a string's remaining bytes at
//! successive offsets (as the server's JSON string parser does), then a
//! sort. Its inputs are built once and are the same on every run.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::median;

/// Runs of the computation before and after each operation; the
/// operation's reference time is the median of them all.
const REPS: usize = 5;

/// Matrix side: 360,000 `f32`s, about 1.4 MB, so it stays in cache.
const SIDE: usize = 600;
/// Matrix rows that take part, as the attributes of a 20-source selection.
const ROWS: usize = 160;
/// Scans over all pairs of those rows.
const SCANS: usize = 40;
/// Bytes of the string validated from successive offsets.
const TEXT: usize = 200_000;
/// Offsets validated from, 1,000 bytes apart.
const OFFSETS: usize = 40;
/// Integers sorted.
const SORTED: usize = 200_000;

struct Inputs {
    matrix: Vec<f32>,
    rows: Vec<usize>,
    text: String,
    numbers: Vec<u64>,
}

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| Inputs {
        matrix: (0..SIDE * SIDE)
            .map(|i| ((i * 2_654_435_761) % 1000) as f32 / 1000.0)
            .collect(),
        rows: (0..ROWS).map(|i| (i * 37) % SIDE).collect(),
        text: (0..TEXT)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect(),
        numbers: (0..SORTED as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect(),
    })
}

/// The computation; returns a digest of its results so none of it can be
/// optimised away.
fn compute(inputs: &Inputs) -> u64 {
    let mut best = 0.0f32;
    for _ in 0..SCANS {
        for (a, &x) in inputs.rows.iter().enumerate() {
            for &y in &inputs.rows[a + 1..] {
                let s = inputs.matrix[x * SIDE + y];
                if s > best {
                    best = s;
                }
            }
        }
        best *= 0.5;
    }
    let bytes = inputs.text.as_bytes();
    let valid = (0..OFFSETS)
        .filter(|k| std::str::from_utf8(black_box(&bytes[k * 1000..])).is_ok())
        .count();
    let mut numbers = inputs.numbers.clone();
    numbers.sort_unstable();
    u64::from(best.to_bits()) ^ valid as u64 ^ numbers[SORTED / 2]
}

/// Wall time of one run of the computation, in seconds.
fn once() -> f64 {
    let inputs = inputs();
    let t = Instant::now();
    black_box(compute(black_box(inputs)));
    t.elapsed().as_secs_f64()
}

/// Runs `op` between [`REPS`] runs of the computation before and after
/// it; returns its result, its wall time and the median reference time,
/// both in seconds.
pub fn beside<T>(op: impl FnOnce() -> T) -> (T, f64, f64) {
    let mut refs: Vec<f64> = (0..REPS).map(|_| once()).collect();
    let t = Instant::now();
    let out = op();
    let op_s = t.elapsed().as_secs_f64();
    refs.extend((0..REPS).map(|_| once()));
    (out, op_s, median(&refs).unwrap_or(f64::NAN))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_computation_is_fixed() {
        assert_eq!(compute(inputs()), compute(inputs()));
        assert_eq!(inputs().text.len(), TEXT);
    }

    #[test]
    fn beside_times_the_operation_and_the_reference() {
        let (out, op_s, ref_s) = beside(|| 7);
        assert_eq!(out, 7);
        assert!(op_s >= 0.0 && op_s.is_finite());
        assert!(ref_s > 0.0 && ref_s.is_finite());
    }
}
