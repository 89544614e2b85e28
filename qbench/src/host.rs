//! The host-noise record: `/proc` parsers (steal share, load average,
//! peak memory) and a reference kernel whose time tracks host speed; and
//! the process CPU clock the `compile` workload times with.

use std::time::Instant;

/// Aggregate CPU time counters (in clock ticks) from the `cpu` line of
/// `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// Sum of every field on the line.
    pub total: u64,
    /// Time the hypervisor ran something else while this guest wanted
    /// to run (the eighth field).
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some(CpuTimes {
        total: fields.iter().sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    })
}

/// Percentage of CPU time stolen by the hypervisor between two readings.
pub fn steal_percent(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// The 1-, 5- and 15-minute load averages from `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<[f64; 3]> {
    let mut fields = text.split_whitespace().map(|f| f.parse::<f64>().ok());
    Some([fields.next()??, fields.next()??, fields.next()??])
}

/// Peak resident set size in KiB (`VmHWM`) from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reads and parses `/proc/stat`.
pub fn read_stat() -> Option<CpuTimes> {
    parse_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Reads and parses `/proc/loadavg`.
pub fn read_loadavg() -> Option<[f64; 3]> {
    parse_loadavg(&std::fs::read_to_string("/proc/loadavg").ok()?)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let kib = parse_vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)?;
    Some(kib as f64 / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds used by every thread of this process so far, exited ones
/// included (`CLOCK_PROCESS_CPUTIME_ID`). The clock stands still while
/// the hypervisor runs another guest (steal) and while other tasks hold
/// the CPU, so a single-threaded pass reads the same on an idle host and
/// on an oversubscribed one; slower caches and memory still show.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Times a fixed pseudo-random walk over a 4 MiB buffer, in
/// milliseconds. The kernel belongs to the benchmark, so its time moves
/// with the host (co-tenants, frequency, shared caches) and never with the
/// program under test; steal and load average miss most of that noise.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut buf = vec![0u32; 1 << 20];
    let mask = buf.len() - 1;
    let mut x: u32 = 0x9e37_79b9;
    for i in 0..(4u32 << 20) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let slot = &mut buf[x as usize & mask];
        *slot = slot.wrapping_add(i);
    }
    std::hint::black_box(&buf);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  100 5 50 800 10 0 2 30 0 0\n\
                        cpu0 50 2 25 400 5 0 1 15 0 0\n\
                        intr 12345\n";

    #[test]
    fn stat_sums_fields_and_reads_steal() {
        let t = parse_stat(STAT).unwrap();
        assert_eq!(t.total, 997);
        assert_eq!(t.steal, 30);
    }

    #[test]
    fn stat_rejects_garbage() {
        assert_eq!(parse_stat("intr 1\n"), None);
        assert_eq!(parse_stat("cpu  1 2 x 4\n"), None);
    }

    #[test]
    fn steal_percent_is_a_delta_share() {
        let a = CpuTimes {
            total: 1000,
            steal: 10,
        };
        let b = CpuTimes {
            total: 1200,
            steal: 60,
        };
        assert_eq!(steal_percent(a, b), 25.0);
        assert_eq!(steal_percent(a, a), 0.0);
        // A short line without a steal field reads as zero steal.
        assert_eq!(parse_stat("cpu  1 2 3 4\n").unwrap().steal, 0);
    }

    #[test]
    fn loadavg_reads_three_averages() {
        assert_eq!(
            parse_loadavg("0.52 1.25 2.00 3/412 9876\n"),
            Some([0.52, 1.25, 2.0])
        );
        assert_eq!(parse_loadavg("0.52 oops"), None);
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 1u64;
        for i in 0..10_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        assert!(cpu_seconds() > before, "{x}");
    }

    #[test]
    fn vm_hwm_reads_kib() {
        let status = "Name:\tqbench\nVmPeak:\t  90000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51200));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }
}
