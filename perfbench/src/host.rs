//! Host speed probe: a fixed piece of work timed on the pool's thread count.
//!
//! Shared hosts change speed under the benchmark: on a 2-vCPU Xeon VM the
//! same single-threaded loop ran 1.6x slower for seconds to minutes at a
//! time, with CPU time rising as much as wall time, and runs of one
//! workload spread by 30% on every time figure. The probe runs, untimed,
//! right before each lot, and a lot's times are scaled by [`REFERENCE_S`]
//! over the probe's time. The probe is the benchmark's own code, so no
//! change to the crates moves it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The probe's time at the reference host speed: a 2-vCPU Intel Xeon VM
/// running at full speed, with two threads. Scaled times read as seconds
/// on that host.
pub const REFERENCE_S: f64 = 0.003;

/// Timings per probe; the fastest is kept, so a probe thread preempted for
/// a moment does not read as a slow host. Over ten paired runs of the
/// monitored lot, scaled `lot_s`, `report_p50_ms` and `report_p99_ms`
/// spread 10%, 8% and 4% this way, against 12%, 11% and 13% with one
/// timing.
const REPS: usize = 3;

/// Chunks of work in one probe; threads take them in turn, as pool workers
/// take jobs.
const CHUNKS: usize = 32;
/// Words each chunk works over (64 KiB, within a core's L2).
const WORDS: usize = 8192;
/// Passes over the words per chunk.
const PASSES: usize = 8;

/// One chunk: fills a buffer with xorshift words, then mixes it with
/// data-dependent reads, shifts and popcounts, the operations the scan
/// models spend their time on.
fn chunk(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut words: Vec<u64> = (0..WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut acc = 0u64;
    for pass in 0..PASSES {
        for i in 0..WORDS {
            let j = (words[i] as usize ^ pass) % WORDS;
            words[i] = words[i].rotate_left(1) ^ (words[j] >> 3);
            acc = acc.wrapping_add(u64::from(words[i].count_ones()));
        }
    }
    acc
}

/// The fastest of [`REPS`] timings of `threads` threads finishing
/// [`CHUNKS`] chunks, in seconds.
pub fn probe_s(threads: usize) -> f64 {
    (0..REPS)
        .map(|_| timed_s(threads))
        .fold(f64::INFINITY, f64::min)
}

fn timed_s(threads: usize) -> f64 {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= CHUNKS {
                    break;
                }
                std::hint::black_box(chunk(k as u64));
            });
        }
    });
    started.elapsed().as_secs_f64()
}
