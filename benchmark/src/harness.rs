//! Measurement method shared by every workload: passes folded into
//! per-operation floors, the percentile rule, quartiles, the
//! single-server queue recursion, the output digest and the stamp.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// What one pass over a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of each attempted operation, nanoseconds, in input
    /// order. Warm-up operations (feature window not yet full) are not
    /// in here.
    pub op_ns: Vec<u32>,
    /// Wall time of the whole pass, nanoseconds.
    pub wall_ns: u64,
    /// Units of work done, the numerator of `ops_per_s` (the unit is the
    /// workload's own: datagrams, queries, events, simulated ticks).
    pub work: u64,
    /// FNV-1a digest of everything the program put out.
    pub digest: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Named counts read at the layer boundaries.
    pub counts: Vec<(&'static str, f64)>,
    /// Bytes the harness's own logs of this pass filled: the output log
    /// and the per-operation times.
    pub log_bytes: u64,
}

impl Pass {
    /// The count called `name`, or 0 when this workload has none.
    pub fn count(&self, name: &str) -> f64 {
        count(&self.counts, name)
    }
}

/// Folds one more pass into every operation's fastest time so far.
///
/// The passes replay identical state, so an operation does the same
/// work in each; what differs is what the machine added (an interrupt,
/// a preemption, a cold cache, a busy neighbour), and that only ever
/// adds time. On a shared machine that changes speed from one moment to
/// the next, a median across passes, or a minimum across three, still
/// lets one operation in a hundred through disturbed: exactly where the
/// p99 sits. The minimum across all a run's passes does not.
///
/// # Panics
///
/// Panics when the passes differ in length: they replay one input.
pub fn fold_best(best: &mut Vec<u32>, pass: &[u32]) {
    if best.is_empty() {
        best.extend_from_slice(pass);
        return;
    }
    assert_eq!(
        best.len(),
        pass.len(),
        "passes must replay the same operations"
    );
    for (b, &t) in best.iter_mut().zip(pass) {
        *b = (*b).min(t);
    }
}

/// Fewest passes in a run: the output digest has to repeat, and a floor
/// needs more than one sample.
pub const MIN_PASSES: usize = 3;

/// The passes of one run over one input, each on a freshly built system,
/// folded into every operation's floor.
#[derive(Debug)]
pub struct Group {
    /// Passes folded in.
    pub passes: usize,
    /// Every attempted operation's fastest time across the passes, ns.
    pub best_ns: Vec<u32>,
    /// Wall time of the fastest pass, ns.
    pub wall_ns: u64,
    /// Units of work one pass does.
    pub work: u64,
    /// Output digest of the first pass.
    pub digest: u64,
    /// Every pass put out the same digest.
    pub digests_agree: bool,
    /// Most failed operations in any one pass.
    pub failed: u64,
    /// Counts of the first pass.
    pub counts: Vec<(&'static str, f64)>,
    /// Most bytes the harness's own logs of one pass filled.
    pub log_bytes: u64,
}

impl Default for Group {
    fn default() -> Self {
        Group {
            passes: 0,
            best_ns: Vec::new(),
            wall_ns: u64::MAX,
            work: 0,
            digest: 0,
            digests_agree: true,
            failed: 0,
            counts: Vec::new(),
            log_bytes: 0,
        }
    }
}

impl Group {
    /// Folds one more pass in. Every pass must have replayed the same
    /// input on a freshly built system.
    pub fn fold(&mut self, pass: Pass) {
        fold_best(&mut self.best_ns, &pass.op_ns);
        self.wall_ns = self.wall_ns.min(pass.wall_ns);
        self.failed = self.failed.max(pass.failed);
        self.log_bytes = self.log_bytes.max(pass.log_bytes);
        if self.passes == 0 {
            (self.work, self.digest, self.counts) = (pass.work, pass.digest, pass.counts);
        } else {
            self.digests_agree &= pass.digest == self.digest;
        }
        self.passes += 1;
    }

    /// Runs `passes` passes and folds them.
    pub fn run(passes: usize, mut pass: impl FnMut() -> Pass) -> Group {
        let mut group = Group::default();
        for _ in 0..passes {
            group.fold(pass());
        }
        group
    }

    /// The best times as floats, for the statistics.
    pub fn best(&self) -> Vec<f64> {
        self.best_ns.iter().map(|&ns| f64::from(ns)).collect()
    }

    /// The count called `name`, or 0 when this workload has none.
    pub fn count(&self, name: &str) -> f64 {
        count(&self.counts, name)
    }
}

/// The count called `name` in `counts`, or 0.
fn count(counts: &[(&'static str, f64)], name: &str) -> f64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Median of `values`; the mean of the middle two for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by linear interpolation between order
/// statistics; both equal the only value of a one-element slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// The `p`-th percentile (0 < p < 1) of ascending `sorted` by nearest
/// rank, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The gated tail of ascending `sorted` and the percentile it stands
/// for: p99 from 1 000 samples up; below that the upper quartile, taken
/// as the mean of the order statistics from the 70th to the 80th
/// percentile; `None` below 50 samples, where fewer than [`MIN_BEYOND`]
/// lie beyond the 80th.
///
/// The only short series here is the 90 cells of the back-test grid, a
/// heavy-tailed mix of configurations and not a sample of one
/// distribution. The highest percentile with ten samples beyond it is
/// the eleventh dearest cell and moved between 2.9 and 4.3 µs from seed
/// to seed. The upper quartile by nearest rank is one cell in a stretch
/// where neighbours lie 5 to 10 % apart, and a cell or two changing
/// places moved it by as much (1.49 to 1.80 µs over six seeds on a quiet
/// machine); the mean of the ten cells around it moved by 2 %.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n >= 1000 {
        return percentile(sorted, 0.99).map(|v| (v, 0.99));
    }
    let rank = |per_cent: usize| (per_cent * n).div_ceil(100);
    if n < rank(80) + MIN_BEYOND {
        return None;
    }
    let band = &sorted[rank(70) - 1..rank(80)];
    Some((band.iter().sum::<f64>() / band.len() as f64, 0.75))
}

/// Median, gated tail and (where 10 000 samples allow it) p99.9 of one
/// latency series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile `tail` stands for ([`tail`]).
    pub tail_at: f64,
    /// The gated tail.
    pub tail: f64,
    /// p99.9, or 0 when the series is too short to carry it.
    pub p999: f64,
}

/// Summarises a latency series.
///
/// # Panics
///
/// Panics below 50 samples: no tail is supported there.
pub fn summarize(values: &[f64]) -> LatencySummary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (tail, tail_at) = tail(&v).expect("at least 50 operations per pass");
    LatencySummary {
        n: v.len(),
        p50: median(&v),
        tail_at,
        tail,
        p999: percentile(&v, 0.999).unwrap_or(0.0),
    }
}

/// What a single server that takes `service[i]` for request `i`, due at
/// `due_ns[i]`, does to an open-loop arrival schedule.
#[derive(Debug, Clone, Default)]
pub struct QueueRun {
    /// Completion minus due time per request: wait plus service.
    pub sojourn_ns: Vec<f64>,
    /// Start of service minus due time per request.
    pub wait_ns: Vec<f64>,
    /// Most requests due but not completed at any arrival.
    pub backlog_max: usize,
    /// Total service time over the span from first due to last done.
    pub busy_share: f64,
}

/// Replays `due_ns` (ascending) against a single FIFO server:
/// `done[i] = max(due[i], done[i-1]) + service[i]`. This equals a
/// real-time replay with the idle gaps skipped, so the generator is
/// never late.
pub fn single_server(due_ns: &[u64], service_ns: &[f64]) -> QueueRun {
    assert_eq!(due_ns.len(), service_ns.len());
    let mut run = QueueRun::default();
    let mut done: Vec<f64> = Vec::with_capacity(due_ns.len());
    let mut oldest_open = 0usize;
    let mut prev_done = 0.0f64;
    for (i, (&due, &service)) in due_ns.iter().zip(service_ns).enumerate() {
        let due = due as f64;
        let start = due.max(prev_done);
        prev_done = start + service;
        done.push(prev_done);
        run.wait_ns.push(start - due);
        run.sojourn_ns.push(prev_done - due);
        while done[oldest_open] <= due {
            oldest_open += 1;
        }
        run.backlog_max = run.backlog_max.max(i + 1 - oldest_open);
    }
    if let (Some(&first), Some(&last)) = (due_ns.first(), done.last()) {
        run.busy_share = service_ns.iter().sum::<f64>() / (last - first as f64);
    }
    run
}

/// FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Where and on what a results line was measured.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// The workload seed.
    pub seed: u64,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Processors available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
}

impl Stamp {
    /// Reads the machine context; fields that cannot be read say so.
    pub fn read(seed: u64) -> Self {
        let run = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".into())
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Stamp {
            seed,
            commit: run("git", &["rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: run("rustc", &["-V"]),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.999), None);
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.999), Some(9990.0));
    }

    #[test]
    fn the_tail_is_p99_from_a_thousand_samples_up_and_a_band_below() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((990.0, 0.99)));
        assert_eq!(tail(&v[..999]), Some((750.0, 0.75)));
        // Ranks 63 to 72 of 90: ten cells around the upper quartile.
        assert_eq!(tail(&v[..90]), Some((67.5, 0.75)));
        assert_eq!(tail(&v[..50]), Some((37.5, 0.75)));
        assert_eq!(tail(&v[..49]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn best_times_ignore_what_the_machine_added() {
        let mut passes = [vec![10u32, 20, 30], vec![11, 900, 31], vec![12, 21, 29]].into_iter();
        let group = Group::run(3, || Pass {
            op_ns: passes.next().expect("three passes"),
            digest: 5,
            ..Pass::default()
        });
        assert_eq!(group.best(), vec![10.0, 20.0, 29.0]);
        assert_eq!(group.passes, 3);
        assert!(group.digests_agree);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    /// Three requests due at 0, 10, 100 with services 30, 30, 5: the
    /// second waits 20 behind the first, the third finds the server idle.
    #[test]
    fn queue_recursion_matches_a_hand_computed_case() {
        let run = single_server(&[0, 10, 100], &[30.0, 30.0, 5.0]);
        assert_eq!(run.wait_ns, vec![0.0, 20.0, 0.0]);
        assert_eq!(run.sojourn_ns, vec![30.0, 50.0, 5.0]);
        assert_eq!(run.backlog_max, 2);
        assert!((run.busy_share - 65.0 / 105.0).abs() < 1e-12);
    }

    #[test]
    fn digest_is_stable() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut g = Fnv::default();
        g.write(b"foobar");
        assert_eq!(g.finish(), 0x8594_4171_f739_67e8);
    }
}
