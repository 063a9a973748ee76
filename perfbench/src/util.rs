//! Small shared pieces: the seeded generator, order statistics, host facts
//! and the result line.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// SplitMix64: every benchmark input derives from one of these, seeded
/// from `--seed` and a fixed per-purpose stream number.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; distinct streams are
    /// independent, so adding a stream never shifts another's draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given mean (Poisson arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Draws from `0..n` in seeded shuffled rounds: every `n` draws in a row
/// (from the start) hold each value once, so a request mix is exact and
/// not only right on average.
pub struct Deck {
    rng: Rng,
    n: usize,
    left: Vec<usize>,
}

impl Deck {
    pub fn new(rng: Rng, n: usize) -> Deck {
        assert!(n > 0, "a deck of nothing");
        Deck { rng, n, left: Vec::new() }
    }

    pub fn next(&mut self) -> usize {
        if self.left.is_empty() {
            self.left.extend(0..self.n);
            for i in (1..self.n).rev() {
                self.left.swap(i, self.rng.below(i + 1));
            }
        }
        self.left.pop().expect("refilled")
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-minute load average at the time of the call.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Cumulative CPU steal ticks of the host (`/proc/stat`): time the
/// hypervisor ran something else while this machine's CPUs wanted to run.
/// 0 where the figure is not available.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Seconds per `/proc/stat` tick (`USER_HZ`, 100 on Linux).
const TICK_S: f64 = 0.01;

/// A stopwatch that leaves out the CPU time the host took away. `secs` is
/// the wall time since `start` less the steal of every vCPU meanwhile, to
/// the counter's 10 ms resolution. A solve spread over both vCPUs waits at
/// each reduction for a rank whose vCPU was taken away, so each stolen
/// moment delays it about as long; a single-rank solve leaves the other
/// vCPU idle, and an idle vCPU accrues no steal. Over many operations the
/// median is what the same work takes on a host that is not shared.
pub struct StealClock {
    at: Instant,
    steal: u64,
}

impl StealClock {
    pub fn start() -> StealClock {
        StealClock { at: Instant::now(), steal: steal_ticks() }
    }

    pub fn secs(&self) -> f64 {
        let wall = self.at.elapsed().as_secs_f64();
        let stolen = steal_ticks().saturating_sub(self.steal) as f64 * TICK_S;
        (wall - stolen).max(0.0)
    }
}

/// Samples host CPU steal in the background, so the windows of a run can
/// be ranked by how much CPU the host took away during each.
pub struct StealMonitor {
    samples: Arc<Mutex<Vec<(Instant, u64)>>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StealMonitor {
    pub fn start() -> StealMonitor {
        let samples = Arc::new(Mutex::new(vec![(Instant::now(), steal_ticks())]));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(50));
                    let tick = (Instant::now(), steal_ticks());
                    samples.lock().expect("steal samples").push(tick);
                }
            })
        };
        StealMonitor {
            samples,
            stop,
            handle: Some(handle),
        }
    }

    /// Steal ticks per second between the samples bracketing `[from, to]`.
    pub fn rate(&self, from: Instant, to: Instant) -> f64 {
        let s = self.samples.lock().expect("steal samples");
        let a = s.iter().rev().find(|(t, _)| *t <= from).unwrap_or(&s[0]);
        let b = s.iter().find(|(t, _)| *t >= to).unwrap_or(&s[s.len() - 1]);
        let dt = b.0.saturating_duration_since(a.0).as_secs_f64();
        if dt > 0.0 {
            b.1.saturating_sub(a.1) as f64 / dt
        } else {
            0.0
        }
    }

    /// Whether the host took no CPU away (no steal tick) between the
    /// samples bracketing `[from, to]`: at most one 50 ms sample period
    /// on each side, to the 10 ms resolution of the counter.
    pub fn clean(&self, from: Instant, to: Instant) -> bool {
        let s = self.samples.lock().expect("steal samples");
        let a = s.partition_point(|(t, _)| *t <= from).saturating_sub(1);
        let b = s.partition_point(|(t, _)| *t < to).min(s.len() - 1);
        s[a].1 == s[b].1
    }

    /// Total steal ticks per second over the monitor's life so far.
    pub fn overall(&self) -> f64 {
        let first = self.samples.lock().expect("steal samples")[0].0;
        self.rate(first, Instant::now())
    }
}

impl Drop for StealMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Marks the `share` of windows (rounded up) with the least host CPU
/// steal. End-to-end figures come from these windows, so a burst of noise
/// from other tenants of the host lands in the discarded ones.
pub fn quietest(steal_rates: &[f64], share: f64) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal_rates.len()).collect();
    order.sort_by(|&a, &b| steal_rates[a].total_cmp(&steal_rates[b]).then(a.cmp(&b)));
    let kept = ((steal_rates.len() as f64 * share).ceil() as usize).max(1);
    let mut keep = vec![false; steal_rates.len()];
    for &i in order.iter().take(kept) {
        keep[i] = true;
    }
    keep
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null` so a broken figure
/// fails the metric check instead of producing invalid JSON.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Named, unit-carrying figures collected by a workload.
#[derive(Debug, Default)]
pub struct Figures {
    pub values: Vec<(&'static str, f64)>,
}

impl Figures {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Free-form facts about a run (host, seed, generator lateness, the tail
/// split …), printed as one JSON line before the result line.
#[derive(Debug, Default)]
pub struct Report {
    fields: Vec<(String, String)>,
}

impl Report {
    pub fn num(&mut self, key: &str, v: f64) {
        self.fields.push((key.to_string(), json_num(v)));
    }

    pub fn text(&mut self, key: &str, v: &str) {
        self.fields.push((key.to_string(), json_str(v)));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
    }

    #[test]
    fn quietest_keeps_the_least_stolen_windows() {
        assert_eq!(quietest(&[5.0, 0.0, 9.0, 1.0], 0.5), vec![false, true, false, true]);
        assert_eq!(quietest(&[0.0, 0.0, 0.0], 0.5), vec![true, true, false]);
        assert_eq!(quietest(&[3.0, 2.0, 1.0, 0.0, 4.0], 0.25), vec![false, false, true, true, false]);
    }

    #[test]
    fn decks_deal_every_value_once_per_round() {
        let mut d = Deck::new(Rng::new(3, 1), 4);
        for _ in 0..5 {
            let mut round: Vec<usize> = (0..4).map(|_| d.next()).collect();
            round.sort_unstable();
            assert_eq!(round, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
