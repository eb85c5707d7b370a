//! Process accounting read from `/proc/self` (Linux only, like the
//! benchmark's loopback-socket workload).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` is 100 on every mainstream Linux
/// architecture; reading it properly needs `sysconf`, i.e. libc.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has consumed, all threads
/// included (exited ones too) — which is what shows work hidden on the
/// worker and writer threads of the TCP workload.
///
/// # Errors
/// When `/proc/self/stat` is unreadable or not in the documented shape.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("/proc/self/stat: no command field")?;
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> Result<f64, String> {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "/proc/self/stat: missing utime/stime".to_string())
    };
    Ok((ticks()? + ticks()?) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of this process in megabytes.
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

/// Size of the last-level cache in bytes, from sysfs; 32 MiB when the host
/// does not expose it (the calibration then still overflows any cache this
/// repo is likely to meet).
#[must_use]
pub fn last_level_cache_bytes() -> usize {
    (0..=4)
        .rev()
        .find_map(|index| {
            let text = fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
            ))
            .ok()?;
            let text = text.trim();
            let (digits, scale) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1 << 10),
                b'M' => (&text[..text.len() - 1], 1 << 20),
                _ => (text, 1),
            };
            digits.parse::<usize>().ok().map(|n| n * scale)
        })
        .unwrap_or(32 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_reads_and_moves_forward() {
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        while cpu_seconds().unwrap() == before {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(last_level_cache_bytes() >= 1 << 10);
    }
}
