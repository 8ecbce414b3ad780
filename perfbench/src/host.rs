//! Host diagnostics recorded beside every run's metrics.
//!
//! The benchmark targets small shared hosts whose speed drifts; these
//! readings make a run taken during a host burst identifiable afterwards.
//! They are diagnostics, never end-to-end metrics. The same calibration
//! loop, timed beside the measured requests, gives the speed factor that
//! scales every end-to-end time to the reference host speed.

use std::hint::black_box;
use std::time::Instant;

use sgq_common::json::JsonValue;

use crate::stats::median;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The CPU model string from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Steal ticks of the aggregate `cpu` line of `/proc/stat` (the eighth
/// field), or 0 where the kernel does not report them.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Milliseconds one fixed compute loop takes: the same work every time,
/// so its time tracks the host's speed at that moment.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(black_box(i));
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The calibration loop's time on the reference host: a host on which
/// the loop takes this long has speed factor 1.
pub const REFERENCE_CALIBRATION_MS: f64 = 10.0;

/// Times three calibration loops, for [`speed_factor`].
pub fn calibrate() -> [f64; 3] {
    [calibration_ms(), calibration_ms(), calibration_ms()]
}

/// How fast the host ran relative to the reference: the reference
/// calibration time over the median of `times`, taken from
/// [`calibrate`] around a measured interval while the services were
/// idle. A time measured on the host, multiplied by the factor, is the
/// time the reference host would take; a rate is divided by it. The
/// loop does the same work every time and touches no memory, so the
/// factor moves with the share of the processor the host gives this
/// process, and not with anything the program under test does.
pub fn speed_factor(times: &mut [f64]) -> f64 {
    REFERENCE_CALIBRATION_MS / median(times).expect("calibration times")
}

/// Host readings taken at the start of a run, completed at its end.
pub struct HostProbe {
    steal_start: u64,
    calibration_start_ms: f64,
}

impl HostProbe {
    /// Reads the host at the start of a run.
    pub fn start() -> Self {
        HostProbe {
            steal_start: steal_ticks(),
            calibration_start_ms: calibration_ms(),
        }
    }

    /// Reads the host again and renders both readings.
    pub fn finish(self) -> JsonValue {
        let calibration_end_ms = calibration_ms();
        JsonValue::obj([
            ("nproc", JsonValue::Int(nproc() as u64)),
            ("cpu_model", JsonValue::str(cpu_model())),
            (
                "steal_ticks",
                JsonValue::Int(steal_ticks().saturating_sub(self.steal_start)),
            ),
            (
                "calibration_start_ms",
                JsonValue::Num(self.calibration_start_ms),
            ),
            ("calibration_end_ms", JsonValue::Num(calibration_end_ms)),
        ])
    }
}
