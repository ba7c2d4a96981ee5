//! `/proc` readers for the system-under-test process: CPU time, peak
//! resident set, thread count and context switches.

use std::fs;
use std::time::{Duration, Instant};

use crate::stats::{quiet, Summary};

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 for every architecture's user-space ABI.
const TICK_NS: u64 = 10_000_000;

/// User + system CPU time of `pid` (all threads, living and exited) in ns.
pub fn cpu_ns(pid: u32) -> Result<u64, String> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // The command name may contain spaces and parentheses: fields are
    // counted from the last ')'. utime and stime are fields 14 and 15 of
    // the line, i.e. the 12th and 13th after the command.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("stat: no command field")?;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> Result<u64, String> {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| "stat: missing cpu time".to_string())
    };
    Ok((tick()? + tick()?) * TICK_NS)
}

/// CPU time per event, sampled over blocks of the timed phase.
///
/// `/proc` counts CPU in 10 ms ticks, too coarse for one 40 ms rep, so reps
/// are gathered into blocks of at least [`CpuMeter::BLOCK`] (2 % resolution)
/// and each block gives one sample of CPU ns ÷ events.
pub struct CpuMeter {
    pid: u32,
    block_start: Instant,
    cpu_at_start: u64,
    events: u64,
    samples: Vec<f64>,
}

impl CpuMeter {
    const BLOCK: Duration = Duration::from_millis(500);

    pub fn start(pid: u32) -> Result<CpuMeter, String> {
        Ok(CpuMeter {
            pid,
            block_start: Instant::now(),
            cpu_at_start: cpu_ns(pid)?,
            events: 0,
            samples: Vec::new(),
        })
    }

    /// Account `events` just processed; closes the block if it is long enough.
    pub fn add(&mut self, events: u64) -> Result<(), String> {
        self.events += events;
        if self.block_start.elapsed() >= CpuMeter::BLOCK {
            self.close()?;
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), String> {
        let now = cpu_ns(self.pid)?;
        if self.events > 0 {
            self.samples
                .push((now - self.cpu_at_start) as f64 / self.events as f64);
        }
        self.block_start = Instant::now();
        self.cpu_at_start = now;
        self.events = 0;
        Ok(())
    }

    /// ns of CPU per event over the blocks. A run shorter than one block
    /// gives its single, coarser reading.
    pub fn finish(mut self) -> Result<Summary, String> {
        if self.samples.is_empty() {
            self.close()?;
        }
        Ok(quiet(&self.samples, false))
    }
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn read_status(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Peak resident set size (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = read_status(&format!("/proc/{pid}/status"))?;
    status_field(&status, "VmHWM")
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "status: no VmHWM".to_string())
}

/// Threads currently alive in `pid`.
pub fn threads(pid: u32) -> Result<u64, String> {
    let status = read_status(&format!("/proc/{pid}/status"))?;
    status_field(&status, "Threads").ok_or_else(|| "status: no Threads".to_string())
}

/// Voluntary + involuntary context switches summed over the threads of
/// `pid` that are alive now (the kernel keeps these per thread and drops
/// them when a thread exits, so sample while the threads of interest live).
pub fn ctx_switches(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut total = 0;
    for entry in fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let Ok(entry) = entry else { continue };
        // A thread may exit between the listing and the read.
        let Ok(status) = fs::read_to_string(entry.path().join("status")) else {
            continue;
        };
        total += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(spin);
        }
        assert!(cpu_ns(pid).unwrap() >= 2 * TICK_NS);
        assert!(peak_rss_mib(pid).unwrap() > 0.1);
        assert!(threads(pid).unwrap() >= 1);
        ctx_switches(pid).unwrap();
        assert!(cpu_ns(u32::MAX).is_err());
    }
}
