//! The adcs benchmark: three seeded workloads over the synthesis flow,
//! each checked against references the flow did not produce.
//!
//! ```text
//! adcs-perfbench --workload <synth_full|explore_sweep|serve_mix>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` shadows each
//! operation with a replay through the layers' public functions and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object; the exit code is nonzero when any output was wrong.
//! `LAYERS.md` maps every metric to the layer and workload it belongs to.

mod alloc;
mod checks;
mod inputs;
mod replay;
mod serve;
mod sweep;
mod synth;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use trace::Layers;

/// Set-ups per set-up point; `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 5;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Command-line settings of one run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of each measured pass over the workload's inputs.
    pub pass_s: Vec<f64>,
    /// Seconds spent on repetitions of an operation beyond its one run
    /// in a pass; left out of `pass_s` like the set-ups.
    pub repeat_s: f64,
    /// Milliseconds of every repetition of each distinct operation (one
    /// design, sweep, search or job of the pass), by operation.
    pub op_ms: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    /// Failed operations by `input: error`.
    pub failures: BTreeMap<String, u64>,
    /// Outputs that disagreed with their reference.
    pub wrong: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Per-layer totals (traced runs only).
    pub layers: Layers,
    /// Wall seconds of the untraced operations a traced run shadowed.
    pub untraced_s: f64,
    /// Wall seconds of the replays.
    pub traced_s: f64,
    /// Summed wall seconds of the replayed operations and of the layer
    /// spans inside them (threads add up).
    pub replay_s: f64,
    pub attributed_s: f64,
}

impl Outcome {
    pub fn fail(&mut self, input: &str, error: impl std::fmt::Display) {
        *self
            .failures
            .entry(format!("{input}: {error}"))
            .or_default() += 1;
    }

    pub fn wrong(&mut self, input: &str, why: impl std::fmt::Display) {
        self.wrong.push(format!("{input}: {why}"));
    }

    pub fn op(&mut self, key: impl Into<String>, seconds: f64) {
        self.op_ms
            .entry(key.into())
            .or_default()
            .push(seconds * 1e3);
    }

    /// Each distinct operation's median latency over its repetitions.
    fn op_medians(&self) -> Vec<f64> {
        self.op_ms.values().map(|v| median(v)).collect()
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Sets up a pass's inputs [`SETUP_REPEATS`] times, timing each, and
    /// returns the last. Workloads set up before every operation (or
    /// pass), so the samples spread over the whole run; the repeats keep
    /// one cache-cold sample after a heavy operation from setting the
    /// median.
    pub fn setup<T>(&mut self, mut f: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let mut out = None;
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            out = Some(f()?);
            self.setup_s.push(t.elapsed().as_secs_f64());
        }
        out.ok_or_else(|| "no set-up ran".to_string())
    }

    /// Calls `pass` at least `min_passes` times, then until `seconds`
    /// would be exceeded by one more pass of the longest duration seen so
    /// far. A pass's time leaves out the set-ups and repetitions it timed.
    pub fn passes(
        &mut self,
        seconds: f64,
        min_passes: usize,
        mut pass: impl FnMut(&mut Outcome) -> Result<(), String>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let mut longest: f64 = 0.0;
        loop {
            let t = Instant::now();
            let setups = self.setup_s.len();
            let repeats = self.repeat_s;
            pass(self)?;
            let s = t.elapsed().as_secs_f64()
                - self.setup_s[setups..].iter().sum::<f64>()
                - (self.repeat_s - repeats);
            self.pass_s.push(s);
            longest = longest.max(s);
            if self.pass_s.len() >= min_passes && start.elapsed().as_secs_f64() + longest > seconds
            {
                return Ok(());
            }
        }
    }

    /// Records a traced replay against the untraced operation it shadows.
    pub fn shadowed(&mut self, untraced: f64, traced: f64, replay: f64, attributed: f64) {
        self.untraced_s += untraced;
        self.traced_s += traced;
        self.replay_s += replay;
        self.attributed_s += attributed;
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it.
fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The OS high-water mark of this process's resident set, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

const MB: f64 = 1024.0 * 1024.0;

fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let ok = o.attempted.saturating_sub(o.failed()) as f64 / o.attempted.max(1) as f64;
    vec![
        ("setup_s", median(&o.setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("ok_frac", ok, "frac"),
        ("pass_s", median(&o.pass_s), "s"),
        ("op_p50_ms", percentile(&o.op_medians(), 0.50), "ms"),
        ("op_p95_ms", percentile(&o.op_medians(), 0.95), "ms"),
    ]
}

/// Every per-layer metric, in `BENCHMARK.json` order; layers a workload
/// never calls report 0.
fn per_layer(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let l = &o.layers;
    let passes = o.pass_s.len().max(1) as f64;
    let per_pass = |k: &str| l.get(k) / passes;
    let overhead = if o.untraced_s > 0.0 {
        (o.traced_s - o.untraced_s) / o.untraced_s
    } else {
        0.0
    };
    let unattributed = if o.replay_s > 0.0 {
        (o.replay_s - o.attributed_s).max(0.0) / o.replay_s
    } else {
        0.0
    };
    vec![
        ("hfmin.spec.s", per_pass("hfmin.spec.s"), "s"),
        ("hfmin.primes.s", per_pass("hfmin.primes.s"), "s"),
        ("hfmin.cover.s", per_pass("hfmin.cover.s"), "s"),
        ("hfmin.cube_ops", per_pass("hfmin.cube_ops"), "count"),
        ("hfmin.primes", per_pass("hfmin.primes"), "count"),
        (
            "hfmin.max_controller_s",
            l.get("hfmin.max_controller_s"),
            "s",
        ),
        ("hfmin.peak_bytes", l.get("hfmin.peak_bytes"), "B"),
        ("mc.s", per_pass("mc.s"), "s"),
        ("mc.states", per_pass("mc.states"), "count"),
        ("mc.waves", per_pass("mc.waves"), "count"),
        ("mc.peak_frontier", l.get("mc.peak_frontier"), "count"),
        ("mc.states_per_s", l.ratio("mc.states", "mc.s"), "1/s"),
        ("mc.ample_hits", per_pass("mc.ample_hits"), "count"),
        ("mc.pruned", per_pass("mc.pruned"), "count"),
        ("mc.spilled_bytes", per_pass("mc.spilled_bytes"), "B"),
        ("mc.peak_bytes", l.get("mc.peak_bytes"), "B"),
        ("extract.stage0.s", per_pass("extract.stage0.s"), "s"),
        (
            "extract.stage0.repeat_frac",
            l.ratio("stage0.repeats", "stage0.calls"),
            "frac",
        ),
        ("extract.s", per_pass("extract.s"), "s"),
        ("extract.calls", per_pass("extract.calls"), "count"),
        ("extract.states", per_pass("extract.states"), "count"),
        ("lt.s", per_pass("lt.s"), "s"),
        ("lt.calls", per_pass("lt.calls"), "count"),
        ("reduce.s", per_pass("reduce.s"), "s"),
        ("reduce.calls", per_pass("reduce.calls"), "count"),
        (
            "reduce.states_removed",
            per_pass("reduce.states_removed"),
            "count",
        ),
        ("sim.s", per_pass("sim.s"), "s"),
        ("sim.calls", per_pass("sim.calls"), "count"),
        ("sim.firings", per_pass("sim.firings"), "count"),
        ("gt.s", per_pass("gt.s"), "s"),
        ("gt3.s", per_pass("gt3.s"), "s"),
        ("gt5.s", per_pass("gt5.s"), "s"),
        ("gt.arcs_removed", per_pass("gt.arcs_removed"), "count"),
        ("timing.queries", per_pass("timing.queries"), "count"),
        (
            "timing.hit_ratio",
            l.ratio("timing.hits", "timing.queries"),
            "frac",
        ),
        (
            "timing.canonical_runs",
            per_pass("timing.canonical_runs"),
            "count",
        ),
        (
            "timing.samples_run",
            per_pass("timing.samples_run"),
            "count",
        ),
        ("cdfg.reach.queries", per_pass("reach.queries"), "count"),
        (
            "cdfg.reach.hit_ratio",
            l.ratio("reach.hits", "reach.queries"),
            "frac",
        ),
        (
            "memo.minimize.hit_ratio",
            l.ratio("memo.minimize.hits", "memo.minimize.lookups"),
            "frac",
        ),
        (
            "memo.mc.hit_ratio",
            l.ratio("memo.mc.hits", "memo.mc.lookups"),
            "frac",
        ),
        ("store.open.s", per_pass("store.open.s"), "s"),
        ("store.flush.s", per_pass("store.flush.s"), "s"),
        ("store.flushes", per_pass("store.flushes"), "count"),
        ("store.disk_hits", per_pass("store.disk_hits"), "count"),
        ("store.appends", per_pass("store.appends"), "count"),
        ("store.bytes", l.get("store.bytes"), "B"),
        (
            "serve.admit_ms",
            l.ratio("serve.admit_ms", "serve.jobs"),
            "ms",
        ),
        (
            "serve.queue_wait_ms",
            l.ratio("serve.queue_wait_ms", "serve.jobs"),
            "ms",
        ),
        ("serve.run_ms", l.ratio("serve.run_ms", "serve.jobs"), "ms"),
        ("serve.rejected", per_pass("serve.rejected"), "count"),
        (
            "serve.cold_frac",
            l.ratio("serve.cold", "serve.completed"),
            "frac",
        ),
        (
            "serve.disk_frac",
            l.ratio("serve.disk", "serve.completed"),
            "frac",
        ),
        ("heap.peak_bytes", alloc::peak() as f64, "B"),
        ("trace.overhead_frac", overhead, "frac"),
        ("trace.unattributed_frac", unattributed, "frac"),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(o: &Outcome, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.wrong.is_empty(),
        o.attempted,
        o.failed()
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    s.push_str("}}");
    s
}

fn parse_args() -> Result<(String, Run), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut run = Run {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        let bad = |e: &dyn std::fmt::Display| format!("{} {value}: {e}", args[i]);
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => run.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => run.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => run.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, run))
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Start the rayon pool before anything is timed: every workload
    // reuses it, so its start-up is not a per-operation cost.
    rayon::join(|| (), || ());

    let mut o = Outcome::default();
    let res = match workload.as_str() {
        "synth_full" => synth::run(&run, &mut o),
        "explore_sweep" => sweep::run(&run, &mut o),
        "serve_mix" => serve::run(&run, &mut o),
        other => Err(format!("unknown workload `{other}`")),
    };
    if let Err(e) = res {
        eprintln!("error: {workload}: {e}");
        return ExitCode::FAILURE;
    }

    for line in &o.notes {
        println!("{line}");
    }
    println!(
        "memory: OS high-water mark {:.1} MB, heap high-water mark {:.1} MB",
        peak_rss_mb(),
        alloc::peak() as f64 / MB
    );
    if o.op_ms.len() <= 8 {
        for (op, ms) in &o.op_ms {
            let ms: Vec<String> = ms.iter().map(|v| format!("{v:.1}")).collect();
            println!("{op} ms: {}", ms.join(" "));
        }
    }
    for (f, n) in &o.failures {
        println!("failed x{n}: {f}");
    }
    for w in &o.wrong {
        println!("WRONG: {w}");
    }
    let metrics = if run.trace {
        per_layer(&o)
    } else {
        end_to_end(&o)
    };
    println!(
        "{workload}: seed {}, {} pass(es), {} attempted, {} failed, {} wrong",
        run.seed,
        o.pass_s.len(),
        o.attempted,
        o.failed(),
        o.wrong.len()
    );
    println!("{}", result_line(&o, &metrics));
    if o.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
