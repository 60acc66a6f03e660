//! Small statistics helpers, the `/metrics` text parser, and the
//! `/proc` readers for the server process's CPU time and peak memory.

use std::collections::HashMap;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median_f64(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn median_u64(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median_f64(&v)
}

/// One scrape of the Prometheus text exposition: sample key (name plus
/// label set, exactly as rendered) → value.
#[derive(Clone, Default)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn parse(body: &str) -> Scrape {
        let mut map = HashMap::new();
        for line in body.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(key.to_string(), v);
                }
            }
        }
        Scrape(map)
    }

    /// A sample's value, 0 when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// How much a sample grew since `before`.
    pub fn delta(&self, before: &Scrape, key: &str) -> f64 {
        self.get(key) - before.get(key)
    }

    /// Mean request latency of one surface between two scrapes, in µs.
    pub fn mean_request_us(&self, before: &Scrape, surface: &str) -> f64 {
        let sum = self.delta(
            before,
            &format!("sf_request_duration_seconds_sum{{surface=\"{surface}\"}}"),
        );
        let count = self.delta(
            before,
            &format!("sf_request_duration_seconds_count{{surface=\"{surface}\"}}"),
        );
        if count > 0.0 {
            sum / count * 1e6
        } else {
            0.0
        }
    }
}

/// User plus system CPU time of a process, in seconds.  `/proc` reports
/// it in USER_HZ ticks, which Linux fixes at 100 per second.
pub fn cpu_seconds(pid: u32) -> std::io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| std::io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> std::io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| std::io::Error::other("malformed /proc stat"))
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median_f64(&v), 2.5);
    }

    #[test]
    fn scrape_reads_labelled_samples() {
        let s = Scrape::parse("# HELP x y\nsf_a_total 3\nsf_b{surface=\"http\"} 0.5\n");
        assert_eq!(s.get("sf_a_total"), 3.0);
        assert_eq!(s.get("sf_b{surface=\"http\"}"), 0.5);
        assert_eq!(s.get("missing"), 0.0);
    }
}
