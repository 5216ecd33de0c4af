//! A fixed reference kernel that calls nothing of the program, timed
//! next to every measured pass so that host-time metrics can be
//! normalized to a nominal host speed.
//!
//! The host this benchmark runs on drifts in speed by up to ±30%
//! between phases lasting from seconds to minutes (see the README). A
//! drift slows the kernel and the program alike, so their ratio stays
//! put, while a change of the program moves the program alone. The
//! kernel mixes what a discrete-event simulator spends its time on:
//! binary-heap pushes and pops, data-dependent loads and stores in a
//! 1 MiB table, indirect calls through trait objects, and
//! short-lived allocations. Its buffers are allocated once, so the two
//! 1 MiB tables add a constant 2 MiB to the process's peak RSS.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds the kernel takes at nominal host speed. A normalized
/// time is a host time scaled by `NOMINAL_S` over the kernel's time
/// measured just before it; the constant only sets the unit.
pub const NOMINAL_S: f64 = 0.016;

const TABLE: usize = 1 << 17;
const STEPS: u32 = 300_000;

trait Op {
    fn apply(&self, x: u64, table: &mut [u64]) -> u64;
}

macro_rules! ops {
    ($($name:ident $k:literal;)*) => {
        $(
            struct $name;
            impl Op for $name {
                #[inline(never)]
                fn apply(&self, x: u64, table: &mut [u64]) -> u64 {
                    let j = (x as usize ^ $k) & (TABLE - 1);
                    table[j] = table[j].wrapping_mul($k | 1).rotate_left($k % 63) ^ x;
                    x.wrapping_add(table[j])
                }
            }
        )*
        fn all_ops() -> Vec<Box<dyn Op>> {
            vec![$(Box::new($name)),*]
        }
    };
}

ops! {
    O0 3; O1 5; O2 7; O3 11; O4 13; O5 17; O6 19; O7 23;
    O8 29; O9 31; O10 37; O11 41; O12 43; O13 47; O14 53; O15 59;
}

/// The kernel with its buffers, allocated once so that its memory is a
/// constant part of the process's footprint.
pub struct Kernel {
    ops: Vec<Box<dyn Op>>,
    calls: Vec<u64>,
    loads: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Kernel {
    pub fn new() -> Self {
        let mut kernel = Kernel {
            ops: all_ops(),
            calls: vec![0; TABLE],
            loads: vec![0; TABLE],
            heap: BinaryHeap::new(),
        };
        // Grows the heap to its final capacity.
        kernel.time();
        kernel
    }

    /// Runs the kernel once, from the same start state every time;
    /// returns its host seconds.
    pub fn time(&mut self) -> f64 {
        let started = Instant::now();
        self.calls.fill(1);
        self.loads.fill(0);
        self.heap.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = self.ops[(x >> 60) as usize].apply(acc ^ x, &mut self.calls);
            match (x >> 56) & 7 {
                0..=2 => self.heap.push(Reverse((acc >> 24, i))),
                3..=5 => {
                    if let Some(Reverse((k, _))) = self.heap.pop() {
                        acc ^= k;
                    }
                }
                6 => {
                    let short: Vec<u64> = (0..(x & 15)).collect();
                    acc = acc.wrapping_add(short.iter().sum::<u64>());
                }
                _ => acc = acc.rotate_left(7),
            }
            let j = (x as usize) & (TABLE - 1);
            self.loads[j] = self.loads[j].wrapping_add(acc ^ x);
            if self.loads[(j * 7) & (TABLE - 1)] & 1 == 1 {
                acc = acc.rotate_left(3);
            }
        }
        black_box((acc, self.heap.len()));
        started.elapsed().as_secs_f64()
    }
}
