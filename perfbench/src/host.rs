//! Host counters read from `/proc`: steal time, process CPU time and
//! peak resident memory.

use std::fs;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuStat {
    total: u64,
    steal: u64,
}

/// The machine-wide CPU counters now.
pub fn cpu_stat() -> Result<CpuStat, String> {
    let text = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    parse_cpu_line(text.lines().next().unwrap_or(""))
}

fn parse_cpu_line(line: &str) -> Result<CpuStat, String> {
    let mut fields = line.split_whitespace();
    if fields.next() != Some("cpu") {
        return Err(format!("/proc/stat: unexpected first line {line:?}"));
    }
    let v: Vec<u64> = fields
        .map(|f| {
            f.parse()
                .map_err(|_| format!("/proc/stat: bad field {f:?}"))
        })
        .collect::<Result<_, _>>()?;
    if v.len() < 8 {
        return Err("/proc/stat: fewer than 8 cpu fields".into());
    }
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already included in user.
    Ok(CpuStat {
        total: v[..8].iter().sum(),
        steal: v[7],
    })
}

/// Share of all CPU time stolen by the hypervisor between two readings,
/// in percent.
pub fn steal_pct(a: CpuStat, b: CpuStat) -> f64 {
    let total = b.total.saturating_sub(a.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * b.steal.saturating_sub(a.steal) as f64 / total as f64
}

/// This process's user + system CPU time so far, in seconds (all
/// threads, at the kernel's clock-tick resolution).
pub fn process_cpu_s() -> Result<f64, String> {
    let text =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no ')'")?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13
    // after the pid and the command name.
    let ticks = |i: usize| -> Result<u64, String> {
        f.get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat: bad field {i}"))
    };
    // USER_HZ is 100 on every Linux ABI this runs on.
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status: no VmHWM")?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_of_cpu_line_deltas() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 5 35 0 0").unwrap();
        let b = parse_cpu_line("cpu  200 0 100 1600 20 0 10 70 0 0").unwrap();
        assert_eq!(steal_pct(a, b), 3.5);
        assert!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8").is_err());
    }

    #[test]
    fn proc_readers_work_here() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(process_cpu_s().unwrap() >= 0.0);
        cpu_stat().unwrap();
    }
}
