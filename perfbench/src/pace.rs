//! Host-speed pacing: a fixed reference loop timed between the measured
//! operations, so that each operation's host time can also be stated at a
//! fixed nominal host speed.
//!
//! On a shared VM the whole host runs up to 2x slower for minutes at a
//! time (a neighbour's load, not steal: thread CPU time slows exactly as
//! much as wall time), which moves wall-clock throughput by more than any
//! change worth gating. The reference loop — hash-map updates over 5000
//! keys and a sort, with no allocation after construction — slows with the
//! simulator, so the ratio of an operation's time to the reference time
//! around it stays nearly put while both drift (the simulator slows a
//! little more). The loop is code of this benchmark, not of the program,
//! so no program change can move it.

use crate::report::Outcome;
use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference run takes on the nominal host: a round figure
/// near the loop's median time on the shared 2-vCPU Xeon VM the benchmark
/// was tuned on, so that paced figures read close to wall-clock ones there.
pub const NOMINAL_S: f64 = 0.025;

const KEYS: u64 = 5000;
const UPDATES: u32 = 1_500_000;

/// The reference loop. Fixed hasher keys and a fixed input sequence make
/// every run do identical work in every process.
struct Reference {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    vals: Vec<u64>,
}

impl Reference {
    fn new() -> Self {
        Self {
            map: HashMap::with_capacity_and_hasher(KEYS as usize, BuildHasherDefault::default()),
            vals: Vec::with_capacity(KEYS as usize),
        }
    }

    /// Runs the loop once and returns its host seconds.
    fn time(&mut self) -> f64 {
        let t = Instant::now();
        self.map.clear();
        self.vals.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *self.map.entry(x % KEYS).or_insert(0) += x;
        }
        self.vals.extend(self.map.values().copied());
        self.vals.sort_unstable();
        black_box(self.vals.iter().fold(0, |a, b| a ^ b));
        t.elapsed().as_secs_f64()
    }
}

/// One paced operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock host seconds of the operation.
    pub wall_s: f64,
    /// The same seconds at nominal host speed: `wall_s` scaled by
    /// [`NOMINAL_S`] over the mean of the reference runs just before and
    /// just after the operation.
    pub paced_s: f64,
}

/// Alternates reference runs with measured operations:
/// reference, operation, reference, operation, …, reference.
pub struct Pacer {
    reference: Reference,
    last: f64,
    refs: Vec<f64>,
}

impl Pacer {
    /// A pacer whose first reference run (after one untimed warm-up run)
    /// precedes the first operation.
    pub fn new() -> Self {
        let mut reference = Reference::new();
        reference.time();
        let last = reference.time();
        Self {
            reference,
            last,
            refs: vec![last],
        }
    }

    /// Times `op`, then one reference run after it.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Sample) {
        let t = Instant::now();
        let v = op();
        let wall_s = t.elapsed().as_secs_f64();
        let before = self.last;
        self.last = self.reference.time();
        self.refs.push(self.last);
        let paced_s = wall_s * NOMINAL_S / ((before + self.last) / 2.0);
        (v, Sample { wall_s, paced_s })
    }

    /// Runs the reference again, so that an operation after an untimed
    /// stretch is paced by the host speed around it.
    pub fn resync(&mut self) {
        self.last = self.reference.time();
        self.refs.push(self.last);
    }

    /// Every reference run's host seconds so far.
    pub fn refs(&self) -> &[f64] {
        &self.refs
    }
}

/// Records `setup_s`, the median paced set-up, and `setup_wall_s`, the
/// median wall-clock one.
pub fn report_setup(setups: &[Sample], what: &str, out: &mut Outcome) {
    let paced: Vec<f64> = setups.iter().map(|s| s.paced_s).collect();
    let wall: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
    out.metric(
        "setup_s",
        median(&paced),
        "s",
        format!("median of {} paced set-ups ({what})", setups.len()),
    );
    out.metric(
        "setup_wall_s",
        median(&wall),
        "s",
        "median wall-clock set-up (not paced)",
    );
}

/// Records `host_speed`: the nominal reference time over the median
/// reference time of the run, 1 on the nominal host and 0.5 on one
/// running at half its speed.
pub fn report_speed(pacer: &Pacer, out: &mut Outcome) {
    let refs = pacer.refs();
    let lo = refs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = refs.iter().copied().fold(0.0, f64::max);
    out.metric(
        "host_speed",
        NOMINAL_S / median(refs),
        "ratio",
        format!(
            "{NOMINAL_S} s over the median of {} reference runs ({:.4} to {:.4} s)",
            refs.len(),
            lo,
            hi
        ),
    );
}
