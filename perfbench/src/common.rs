//! Shared plumbing: arguments, the metric table, statistics, process
//! readings, the span recorder and the result printer.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and short phases, for the self-test only.
    pub tiny: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut tiny = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
                "--seconds" => {
                    seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?);
                }
                "--trace" => trace = value()? == "1",
                "--tiny" => tiny = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            tiny,
        })
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Every end-to-end metric with its unit, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit, in report order. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("router.relay_ms_p50", "ms"),
    ("router.owner_ratio", "ratio"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.busy_ratio", "ratio"),
    ("serve.tenant_resolve_ms", "ms"),
    ("net.ping_rtt_ms_p50", "ms"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.request_bytes", "bytes"),
    ("net.reply_bytes", "bytes"),
    ("cache.lookup_hit_ms", "ms"),
    ("cache.churn_ms", "ms"),
    ("cache.lookup_miss_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("cache.entry_bytes", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("fed_knn.query_ms", "ms"),
    ("fed_knn.enc_instances_per_query", "count"),
    ("fed_knn.candidates_per_query", "count"),
    ("topk.fagin_ms_per_query", "ms"),
    ("topk.rows_consumed_per_query", "count"),
    ("similarity.ms", "ms"),
    ("maximizer.ms", "ms"),
    ("maximizer.gain_evals", "count"),
    ("he.keygen_s", "s"),
    ("he.encrypt_ms_per_ct", "ms"),
    ("he.add_us_per_ct", "us"),
    ("he.decrypt_ms_per_ct", "ms"),
    ("he.values_per_ct", "count"),
    ("he.session_share", "ratio"),
    ("he.reconcile_ratio", "ratio"),
    ("cluster.connect_ms", "ms"),
    ("cluster.wire_share", "ratio"),
    ("cluster.frames_per_query", "count"),
    ("cluster.bytes_per_query", "bytes"),
    ("cluster.reconnects", "count"),
    ("cluster.kills_observed", "count"),
    ("data.prepare_ms", "ms"),
    ("train.ms", "ms"),
    ("pipeline.sim_selection_s", "s"),
    ("pipeline.sim_training_s", "s"),
    ("pipeline.accuracy_mean", "ratio"),
    ("layers.relay_share", "ratio"),
    ("layers.wire_share", "ratio"),
    ("layers.queue_share", "ratio"),
    ("layers.resolve_share", "ratio"),
    ("layers.cache_share", "ratio"),
    ("layers.fed_knn_share", "ratio"),
    ("layers.similarity_share", "ratio"),
    ("layers.maximizer_share", "ratio"),
    ("layers.connect_share", "ratio"),
    ("layers.he_keygen_share", "ratio"),
    ("layers.he_encrypt_share", "ratio"),
    ("layers.he_add_share", "ratio"),
    ("layers.he_decrypt_share", "ratio"),
    ("layers.cluster_wire_share", "ratio"),
    ("layers.data_share", "ratio"),
    ("layers.train_share", "ratio"),
    ("layers.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run hands back to `main` for printing.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures (each also counted in `failed`).
    pub gate_failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload parameters for the fingerprint line.
    pub params: Vec<(&'static str, String)>,
    /// Extra human-readable facts for the summary line.
    pub notes: Vec<(&'static str, String)>,
    /// Shape and digest of the generated request stream (self-test).
    pub stream: Option<StreamShape>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    pub fn note(&mut self, name: &'static str, value: impl ToString) {
        self.notes.push((name, value.to_string()));
    }

    /// Records a failed correctness gate: the run is marked incorrect and
    /// the offending operation counts as failed.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.gate_failures.push(what());
        }
    }
}

/// The generated request stream: its length, a shape signature that must
/// not depend on the seed, and a digest that must.
#[derive(Clone, Debug)]
pub struct StreamShape {
    pub ops: usize,
    pub shape: String,
    pub digest: u64,
}

/// FNV-1a over bytes; used for stream digests only.
pub fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for &b in *p {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Derives an independent sub-seed (SplitMix64 finalizer).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile with at least ten samples beyond it: returns
/// `(value, percentile, samples beyond)`. Below eleven samples no such
/// percentile exists and the maximum is reported with zero beyond.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    if values.is_empty() {
        return (0.0, 0.0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return (v[n - 1], 100.0, 0);
    }
    let i = n - 11;
    (v[i], 100.0 * (i + 1) as f64 / n as f64, 10)
}

/// CPU seconds this process (every thread, in-process daemons included)
/// has used so far, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let tck: f64 =
        std::env::var("PERFBENCH_CLK_TCK").ok().and_then(|s| s.parse().ok()).unwrap_or(100.0);
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / tck
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end block every workload reports from its measured window.
pub struct Window {
    pub latencies_ms: Vec<f64>,
    pub ops: u64,
    pub wall: Duration,
    pub cpu_s: f64,
    /// `peak_rss_mb()` read as the window closed, before any gate or replay
    /// adds the benchmark's own memory.
    pub peak_rss_mb: f64,
}

pub fn report_end_to_end(out: &mut Outcome, setup_s: &[f64], w: &Window) {
    let (tail_ms, pct, beyond) = tail(&w.latencies_ms);
    let ops = w.ops.max(1) as f64;
    out.metric("setup_s", median(setup_s));
    out.metric("latency_p50_ms", median(&w.latencies_ms));
    out.metric("latency_tail_ms", tail_ms);
    out.metric("ops_per_s", w.ops as f64 / w.wall.as_secs_f64());
    out.metric("cpu_ms_per_op", w.cpu_s * 1e3 / ops);
    out.metric("peak_rss_mb", w.peak_rss_mb);
    out.note(
        "latency_tail",
        format!("p{pct:.1} of {} samples, {beyond} beyond", w.latencies_ms.len()),
    );
    out.note("setup_samples_s", format!("{setup_s:.4?}"));
}

/// A per-run scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = work_root().join(format!("run-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything the benchmark writes lives under this directory of the
/// checkout it runs from.
pub fn work_root() -> PathBuf {
    PathBuf::from(".bench_work")
}

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

/// One timed call into a layer, recorded from outside the program.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns.saturating_sub(self.start_ns)) as f64 / 1e6
    }
}

/// In-memory span store for one thread; written out once at the end.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new() }
    }

    pub fn enter(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, request, parent, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, request, parent, start_ns: ns(start), end_ns: ns(end) });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, request, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// Appends another recorder's spans, re-basing parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span in ms: its duration minus the part its
    /// children cover (children of one span never overlap here).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ms();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| (s.dur_ms() - c).max(0.0)).collect()
    }

    /// Sum of self times of the spans called `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        let selfs = self.self_ms();
        self.spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, t)| t).sum()
    }

    /// Durations of the spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ms).collect()
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}{}",
                sp.name,
                sp.request,
                sp.start_ns,
                sp.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        s.push(']');
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

pub fn json_obj(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{}:{}", json_str(k), v)).collect();
    format!("{{{}}}", body.join(","))
}
