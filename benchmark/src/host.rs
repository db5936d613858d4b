//! What the host says about this process: peak memory, and how long the
//! harness thread sat runnable but not running (the noise guard).

use std::time::Instant;

use crate::report::Outcome;

/// A run whose run-queue wait exceeds this share of its wall time is marked
/// `noisy`: the machine, not the code, set its timings. Repeat it.
pub const NOISY_RUNQ_WAIT_FRAC: f64 = 0.05;

/// `VmHWM` of this process in MiB; 0 where `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Nanoseconds the calling thread has waited on a run queue (second field of
/// `/proc/thread-self/schedstat`); `None` where the kernel does not say.
fn runq_wait_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Threads `tsp_host::try_fan_out` may use (it sizes its pool the same way).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A fixed piece of work the harness times beside the ops: a dependent
/// integer chain, passes over 1 MiB (cache-resident) and passes over 8 MiB
/// (not), about a millisecond of each.
///
/// This box is shared. With no code change, back-to-back runs drift by
/// 15–40 % for minutes at a time with a run-queue wait of zero, and this loop,
/// run at the same moment, slows with them. Scaling an op's wall time by
/// nominal tick ÷ the ticks either side of it cancels much of that drift,
/// which no statistic of the raw samples can do when the whole run sits in
/// a slow stretch. The three parts are there because the workloads differ in what
/// slows them: side by side with ResNet-50 inference, compilation and a
/// small-model inference, no single part tracked all of them.
pub struct Calibrator {
    buf: Vec<u64>,
    last: Option<(Instant, f64)>,
}

/// 8 MiB: past the private caches, yet a small share of any workload's
/// `peak_rss_mb` but `stream_vadd`'s.
const CALIBRATION_WORDS: usize = 1 << 20;
const CACHED_WORDS: usize = CALIBRATION_WORDS / 8;
const CHAIN_STEPS: u64 = 1_500_000;
/// A tick is the median of this many rounds, so that one interrupted round
/// does not colour it.
const CALIBRATION_ROUNDS: usize = 3;
/// Ops shorter than this share one tick.
const CALIBRATION_INTERVAL_S: f64 = 0.25;
/// What a tick takes on the box the benchmark was defined on when that box
/// is quiet. Only a scale: it turns "op ÷ tick" back into seconds, so that
/// the gated timings read as the seconds a quiet machine would show.
pub const NOMINAL_TICK_S: f64 = 0.004;

fn stream(words: &mut [u64]) -> u64 {
    let mut acc = 0;
    for word in words {
        *word = word.wrapping_mul(3).wrapping_add(1);
        acc ^= *word;
    }
    acc
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            buf: vec![1; CALIBRATION_WORDS],
            last: None,
        }
    }

    fn round(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for step in 0..CHAIN_STEPS {
            acc = (acc ^ step)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(17);
        }
        for _ in 0..8 {
            acc ^= stream(&mut self.buf[..CACHED_WORDS]);
        }
        for _ in 0..2 {
            acc ^= stream(&mut self.buf);
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// Runs the loop and returns the median round's wall seconds.
    pub fn tick(&mut self) -> f64 {
        let mut rounds = [0.0; CALIBRATION_ROUNDS];
        for round in &mut rounds {
            *round = self.round();
        }
        rounds.sort_by(f64::total_cmp);
        let secs = rounds[CALIBRATION_ROUNDS / 2];
        self.last = Some((Instant::now(), secs));
        secs
    }

    /// Ticks if the latest tick has gone stale; says whether it did.
    pub fn refresh(&mut self) -> Option<f64> {
        match self.last {
            Some((at, _)) if at.elapsed().as_secs_f64() < CALIBRATION_INTERVAL_S => None,
            _ => Some(self.tick()),
        }
    }
}

/// Brackets a timed pass. Worker threads `tsp-serve` spawns are not seen:
/// this is the harness thread's own wait, which is the one that times ops.
pub struct NoiseGuard {
    start: Instant,
    wait_ns: Option<u64>,
}

impl NoiseGuard {
    pub fn start() -> NoiseGuard {
        NoiseGuard {
            start: Instant::now(),
            wait_ns: runq_wait_ns(),
        }
    }

    /// Records `host.runq_wait_frac`, `host.threads` and the `noisy` flag.
    pub fn finish(self, out: &mut Outcome) {
        let wall_ns = self.start.elapsed().as_nanos() as f64;
        let frac = match (self.wait_ns, runq_wait_ns()) {
            (Some(a), Some(b)) if wall_ns > 0.0 => b.saturating_sub(a) as f64 / wall_ns,
            _ => 0.0,
        };
        out.per_layer.insert("host.runq_wait_frac", frac);
        out.per_layer.insert("host.threads", threads() as f64);
        out.noisy = frac > NOISY_RUNQ_WAIT_FRAC;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
