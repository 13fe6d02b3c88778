//! The host-speed probe that calibrates every end-to-end timing.
//!
//! The shared VM the benchmark runs on slows down and speeds up with what
//! its neighbours do: over minutes the same pass took 0.9 s and then
//! 1.5 s. The probe is a fixed kernel that does not call the program —
//! random reads over a buffer about the size of the workload's working
//! set — so its time follows the host's speed at the cache level the
//! workload lives in, and nothing of the program. Each timed section is
//! bracketed by a probe before and after, and its wall time is scaled by
//! the span's nominal chunk time over the probes' mean: the time the
//! section would have taken with the probe at its nominal speed. A change
//! to the program moves the section's time and not the probe's, so it
//! shows in full; a change of the host moves both and cancels.
//!
//! The buffer size matters. verify-stream (23 MB resident) is tracked by
//! a 16 MiB buffer, beyond one core's 4 MiB L2: in two ten-seed sets of
//! 40 s runs its throughput spread 9% and 7% (IQR/median) calibrated so,
//! where wall time spread 21% and 27%. explore-campaign (4 MB
//! resident) is not: in five ten-seed sets of 40 s runs its throughput
//! spread 6–17% calibrated by a 16 MiB probe against 9–16% in wall time;
//! calibrated by a 2 MiB (L2-resident) probe, four sets spread 6–8%
//! against 9–21% in wall time.

use std::time::Instant;

use crate::stats::{median, secs};

/// Reads per probe chunk, and chunks per probe (the median chunk counts,
/// so that a single interruption does not).
const READS: usize = 400_000;
const CHUNKS: usize = 9;

/// A probe buffer's size in `u32` slots, and its nominal chunk time: a
/// round figure for the median chunk time on the 2-core Xeon VM, so that
/// calibrated times come near the wall times measured there.
pub struct Span {
    slots: usize,
    nominal_s: f64,
}

/// 2 MiB, inside one core's L2 (run medians 1.1–1.7 ms).
pub const L2: Span = Span {
    slots: 1 << 19,
    nominal_s: 0.0015,
};
/// 16 MiB, beyond L2 (run medians 3.1–5.5 ms).
pub const BEYOND_L2: Span = Span {
    slots: 1 << 22,
    nominal_s: 0.004,
};

pub struct Probe {
    buffer: Vec<u32>,
    nominal_s: f64,
}

impl Probe {
    pub fn new(span: &Span) -> Self {
        Probe {
            buffer: (0..span.slots as u32).collect(),
            nominal_s: span.nominal_s,
        }
    }

    /// Resident bytes of the buffer, which `peak_rss_mb` leaves out.
    pub fn bytes(&self) -> usize {
        self.buffer.len() * std::mem::size_of::<u32>()
    }

    /// Seconds of the median chunk of `READS` reads at addresses from a
    /// linear congruential sequence, after one sequential sweep that
    /// brings as much of the buffer into cache as the host leaves room for.
    pub fn measure(&self) -> f64 {
        let slots = self.buffer.len();
        let sweep: u64 = self.buffer.iter().map(|&x| u64::from(x)).sum();
        std::hint::black_box(sweep);
        let mut state: u64 = 1;
        let mut chunks = [0.0; CHUNKS];
        for chunk in &mut chunks {
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..READS {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                acc = acc.wrapping_add(u64::from(self.buffer[(state >> 40) as usize % slots]));
            }
            std::hint::black_box(acc);
            *chunk = secs(start);
        }
        median(&chunks)
    }

    /// Runs `op` between two probes; returns its result, its wall seconds
    /// and its calibrated seconds.
    pub fn time<T>(&self, op: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.measure();
        let start = Instant::now();
        let value = std::hint::black_box(op());
        let wall = secs(start);
        let after = self.measure();
        (
            value,
            wall,
            wall * self.nominal_s / ((before + after) / 2.0),
        )
    }
}

/// Wall and calibrated seconds of the repetitions of one timed section.
#[derive(Debug, Default)]
pub struct Series {
    pub wall: Vec<f64>,
    pub calibrated: Vec<f64>,
}

impl Series {
    /// Times `op` with `probe` and records both times.
    pub fn time<T>(&mut self, probe: &Probe, op: impl FnOnce() -> T) -> T {
        let (value, wall, calibrated) = probe.time(op);
        self.wall.push(wall);
        self.calibrated.push(calibrated);
        value
    }
}
