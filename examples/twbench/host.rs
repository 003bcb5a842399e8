//! Host facts that decide whether a timing can be trusted: CPU share,
//! a fixed calibration kernel, peak memory, and the machine's identity.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::quantile;

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) consumed so far by this process, all
/// threads included, or 0 when `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU share of a timed phase: CPU seconds spent ÷ (wall seconds ×
/// threads that should have been busy).
pub struct CpuMeter {
    cpu0: f64,
    wall0: Instant,
}

impl CpuMeter {
    pub fn start() -> CpuMeter {
        CpuMeter {
            cpu0: process_cpu_s(),
            wall0: Instant::now(),
        }
    }

    pub fn share(&self, busy_threads: usize) -> f64 {
        let wall = self.wall0.elapsed().as_secs_f64() * busy_threads.max(1) as f64;
        if wall == 0.0 {
            0.0
        } else {
            (process_cpu_s() - self.cpu0) / wall
        }
    }
}

/// Calibration rate the host-time metrics are scaled to, in Mops/s:
/// about what the reference host (2 vCPUs, Intel Xeon) reads while it
/// is shared with other tenants.
pub const REFERENCE_MOPS: f64 = 100.0;

/// How much more the simulator's speed moves with the host than the
/// calibration kernel's, as the exponent `s` in `sim ∝ kernel^s`. On the
/// reference host it came out between 1.5 and 2.3 within 90 s traces,
/// for every kernel tried, and between 0.9 and 1.5 from one set of
/// benchmark runs to the next; see the README's *Host validity*.
const SENSITIVITY: f64 = 1.5;

/// The host's speed over a run, read by short calibration slices
/// interleaved with the timed work, so that a host which slows down
/// for seconds or minutes (other tenants, frequency changes) moves the
/// calibration and the work together and leaves the scaled metric where
/// it was.
pub struct HostSpeed {
    slice: Duration,
    /// Allocated once, so readings add nothing to the peak memory the
    /// run reports.
    table: Vec<u64>,
    readings: Vec<f64>,
}

impl HostSpeed {
    /// Takes the first reading.
    pub fn new(slice: Duration) -> HostSpeed {
        let mut speed = HostSpeed {
            slice,
            table: vec![0; CALIB_TABLE],
            readings: Vec::new(),
        };
        speed.mark();
        speed
    }

    /// Takes a reading.
    pub fn mark(&mut self) -> f64 {
        let reading = calibrate(&mut self.table, self.slice);
        self.readings.push(reading);
        reading
    }

    /// Takes a reading and returns the factor that scales a rate
    /// measured since the previous reading to the reference host:
    /// `REFERENCE_MOPS` over the mean of the two readings, raised to
    /// `SENSITIVITY`. A time is scaled by dividing by it.
    pub fn factor(&mut self) -> f64 {
        let before = self.readings.last().copied().unwrap_or(REFERENCE_MOPS);
        let after = self.mark();
        (REFERENCE_MOPS / ((before + after) / 2.0)).powf(SENSITIVITY)
    }

    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

/// Which of a piece of work's scaled times a host-time metric reads:
/// the fastest tenth. Other tenants slow a run in stretches of seconds
/// to minutes, and the scaling undoes only part of it, so a region's
/// median time still moved with how long the run spent in slow
/// stretches; its fast times, from the stretches the host left it
/// alone, moved a third to two thirds as much from one 25 s window to
/// the next (see the README's *Host validity*).
const QUIET_QUANTILE: f64 = 0.1;

/// The time `times` (scaled times of one piece of work) take when the
/// host is quiet: their `QUIET_QUANTILE`.
pub fn quiet_time(times: &[f64]) -> f64 {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, QUIET_QUANTILE)
}

/// Entries (u64) of the calibration kernel's table: 512 KiB, inside one
/// core's L2 on the reference host.
const CALIB_TABLE: usize = 1 << 16;

/// Runs a fixed kernel over `table` for about `budget` and returns its
/// rate in millions of iterations per second. Each iteration reads and
/// updates a pseudo-random table entry and takes one of three
/// data-dependent branches, like the simulator's predictor and cache
/// lookups. No kernel tried tracked the simulator better (see
/// `SENSITIVITY`). The kernel never changes and starts from a zeroed
/// table, so on one host its rate moves only with the host: a slow
/// reading marks a slow host, not a slow change.
fn calibrate(table: &mut [u64], budget: Duration) -> f64 {
    const CHUNK: u64 = 1 << 14;
    table.fill(0);
    let start = Instant::now();
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    let mut iterations = 0u64;
    while start.elapsed() < budget {
        for _ in 0..CHUNK {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[x as usize % CALIB_TABLE];
            let v = *slot;
            *slot = if v & 1 == 0 {
                acc = acc.wrapping_add(v);
                v.wrapping_add(x | 1)
            } else if v & 2 == 0 {
                acc ^= v >> 3;
                v.wrapping_mul(3)
            } else {
                acc = acc.rotate_left(5);
                v ^ acc
            };
        }
        acc = black_box(acc);
        iterations += CHUNK;
    }
    iterations as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
