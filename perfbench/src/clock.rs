//! Timing in reference seconds: wall time corrected for the host's speed.
//!
//! On a shared host the same work takes up to 1.8× longer while other
//! tenants compete for the caches and memory, in phases that last from
//! seconds to minutes.  A fixed probe — loops whose work never changes —
//! runs right before a measurement whenever the last probe is older than
//! [`STALE_S`], and right after one that took [`LONG_S`] or more.  Each
//! measurement is scaled by how much slower than [`PROBE_REFERENCE_S`]
//! the probe ran — the probe before it, or the geometric mean of the
//! probes on both sides of a long one:
//!
//! ```text
//! reference seconds = wall seconds × (PROBE_REFERENCE_S / probe seconds)^SENSITIVITY
//! ```
//!
//! On an undisturbed host a reference second is a wall second.  The probe
//! times three loops — integer hashing in L1, a pointer chase through a
//! table the size of L2, and bit-parallel gate evaluation — because
//! contention slows them by different amounts, and its "seconds" are the
//! weighted geometric mean of the three times.  The pointer chase is the
//! noisiest, so it weighs half as much as each of the others.  The probe
//! is benchmark code, so no change to the program moves it.

use std::time::Instant;

/// The probe's time on an undisturbed 2.0 GHz Xeon (Sapphire Rapids)
/// vCPU, the host this benchmark was tuned on: the 5th percentile of
/// its probes there.
pub const PROBE_REFERENCE_S: f64 = 0.004;

/// How much more the program's time moves than the probe's.  Over six
/// runs each of `synth` and `grade_small` on the tuning host, the stage
/// sums spread least (3–8 %, against 10–15 % as wall times) with this
/// exponent; 1 and 2 did worse.
pub const SENSITIVITY: f64 = 1.5;

/// A measurement starts with a probe when the last one is older than
/// this…
const STALE_S: f64 = 0.2;
/// …and ends with one when it took at least this long.
const LONG_S: f64 = 0.5;

/// Hash steps, chase steps and gate-network sweeps of one probe (each
/// loop takes 3 to 10 ms on the tuning host).
const HASH_STEPS: usize = 350_000;
const CHASE_STEPS: usize = 80_000;
const SIM_SWEEPS: usize = 400;
/// Geometric-mean weights of the three loops' times.
const WEIGHTS: [f64; 3] = [0.4, 0.2, 0.4];
/// Chase table entries (2 MiB, a core's L2) and network gates.
const CHASE_ENTRIES: usize = 1 << 19;
const GATES: usize = 4000;

/// The host-speed probe of one run.
pub struct Clock {
    enabled: bool,
    chase: Vec<u32>,
    gates: Vec<(u8, u32, u32)>,
    values: Vec<u64>,
    /// Duration of every probe so far; the last one scales the next
    /// measurement.
    probes: Vec<f64>,
    last_probe_end: Instant,
}

/// A measurement in flight, with the probe that will scale it.
pub struct Mark {
    started: Instant,
    probe_s: Option<f64>,
}

impl Clock {
    /// A clock that probes and scales (`enabled`), or measures plain
    /// wall seconds.
    pub fn new(enabled: bool) -> Self {
        let mut rng = 0x5EED_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // Sattolo's shuffle: one cycle through every entry.
        let mut chase: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        for i in (1..chase.len()).rev() {
            let j = (next() % i as u64) as usize;
            chase.swap(i, j);
        }
        let gates = (0..GATES)
            .map(|g| {
                let fanin = (64 + g) as u64;
                let r = next();
                (
                    (r >> 62) as u8,
                    (r % fanin) as u32,
                    ((r >> 32) % fanin) as u32,
                )
            })
            .collect();
        let mut clock = Self {
            enabled,
            chase,
            gates,
            values: vec![0; 64 + GATES],
            probes: Vec::new(),
            last_probe_end: Instant::now(),
        };
        if enabled {
            // Warm the tables and the code; the first probe is not kept.
            clock.probe();
            clock.probes.clear();
        }
        clock
    }

    /// Starts a measurement.
    pub fn start(&mut self) -> Mark {
        if self.enabled
            && (self.probes.is_empty() || self.last_probe_end.elapsed().as_secs_f64() > STALE_S)
        {
            self.probe();
        }
        Mark {
            started: Instant::now(),
            probe_s: self.probes.last().copied(),
        }
    }

    /// Ends a measurement: its reference seconds, or wall seconds when the
    /// clock is disabled.
    pub fn stop(&mut self, mark: Mark) -> f64 {
        let wall = mark.started.elapsed().as_secs_f64();
        let Some(mut probe_s) = mark.probe_s else {
            return wall;
        };
        if wall >= LONG_S {
            self.probe();
            probe_s = (probe_s * self.probes[self.probes.len() - 1]).sqrt();
        }
        wall * (PROBE_REFERENCE_S / probe_s).powf(SENSITIVITY)
    }

    /// The probe's durations so far, in seconds.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }

    /// Runs and times the probe.
    fn probe(&mut self) {
        let mut loops = [0.0; 3];
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut table = [0u64; 1024];
        for i in 0..HASH_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & 1023;
            table[j] = table[j].wrapping_add(x).rotate_left((i & 63) as u32);
            if table[j] & 1 == 0 {
                x = x.wrapping_add(table[(j + 1) & 1023]);
            }
        }
        loops[0] = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut p = (x % CHASE_ENTRIES as u64) as u32;
        for _ in 0..CHASE_STEPS {
            p = self.chase[p as usize];
        }
        loops[1] = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..SIM_SWEEPS {
            for v in &mut self.values[..64] {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = x;
            }
            for (g, &(kind, a, b)) in self.gates.iter().enumerate() {
                let (a, b) = (self.values[a as usize], self.values[b as usize]);
                self.values[64 + g] = match kind {
                    0 => a & b,
                    1 => a | b,
                    2 => !(a & b),
                    _ => a ^ b,
                };
            }
        }
        loops[2] = t.elapsed().as_secs_f64();
        let folded = table.iter().fold(u64::from(p), |acc, v| acc ^ v);
        std::hint::black_box(folded ^ self.values[64 + GATES - 1]);
        self.probes
            .push(loops.iter().zip(WEIGHTS).map(|(s, w)| s.powf(w)).product());
        self.last_probe_end = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_clock_measures_wall_time() {
        let mut clock = Clock::new(false);
        let mark = clock.start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let s = clock.stop(mark);
        assert!((0.005..1.0).contains(&s), "{s}");
        assert!(clock.probes().is_empty());
    }

    #[test]
    fn an_enabled_clock_scales_by_the_probe_before() {
        let mut clock = Clock::new(true);
        assert!(clock.probes().is_empty(), "the warm-up probe is not kept");
        let mark = clock.start();
        let probe_s = clock.probes()[0];
        std::thread::sleep(std::time::Duration::from_millis(20));
        let s = clock.stop(mark);
        // A sleep does not slow down with the host, so it reads 20 ms scaled.
        let scale = (PROBE_REFERENCE_S / probe_s).powf(SENSITIVITY);
        assert!(
            s >= 0.020 * scale && s < 0.5 * scale,
            "{s} at scale {scale}"
        );
        // A second measurement right away reuses the probe…
        let mark = clock.start();
        assert_eq!(clock.probes().len(), 1);
        // …and a long one ends with a probe.
        std::thread::sleep(std::time::Duration::from_secs_f64(LONG_S));
        clock.stop(mark);
        assert_eq!(clock.probes().len(), 2);
    }
}
