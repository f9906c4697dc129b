//! `serve_mix`: an in-process `adcs-serve` daemon (two workers, a store
//! directory that starts empty) under a closed loop of two clients. Each
//! client submits its next job when the last one is done. Jobs are synth
//! jobs with the in-flow model check on and logic off, over the four
//! paper designs and seeded random straight-line designs.
//!
//! A pass has two phases on one store directory. Phase A sees half the
//! designs for the first time (cold: computed, appended, flushed) and
//! resubmits seen ones (memory hits). The daemon then restarts; phase B
//! sees the phase-A designs again for the first time in the new process
//! (served from disk), the other half cold, and resubmissions.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use adcs::flow::{Flow, FlowOptions, SharedCaches};
use adcs_obs::report::RunReport;
use adcs_serve::client::{Client, JobEvent, Submission};
use adcs_serve::daemon::{ServeOptions, Server};
use adcs_serve::proto::{JobResult, JobSpec};

use crate::inputs::{self, Design, Rng};
use crate::replay::FlowSummary;
use crate::trace::Layers;
use crate::{checks, Outcome, Run};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Submissions of a design in each phase it appears in.
const PER_PHASE: usize = 4;

/// How a job's verdicts were served.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Source {
    Cold,
    Disk,
    Memory,
}

/// One pass: the design index of every job of each phase.
struct Stream {
    designs: Vec<Design>,
    phases: [Vec<usize>; 2],
}

/// `(structure seed, statements, units)` of the random designs. The set
/// is fixed, so every seed submits the same programs (with seeded
/// values) and the share of jobs the known model-check failures take
/// does not move with the seed.
const RANDOM: [(u64, usize, usize); 12] = [
    (1, 6, 2),
    (2, 8, 2),
    (3, 10, 3),
    (4, 8, 3),
    (5, 6, 2),
    (6, 8, 2),
    (7, 10, 3),
    (8, 8, 3),
    (9, 6, 2),
    (10, 8, 2),
    (11, 10, 3),
    (12, 8, 3),
];

fn shuffle(v: &mut [usize], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
}

/// The stream of pass number `pass`. The seed fixes the designs' values
/// and which half each design is dealt to; every pass deals the jobs of a
/// phase in a fresh order, so a run sees many pairings of concurrent
/// cold jobs instead of one (`peak_rss_mb` and `op_p95_ms` depend on
/// which cold jobs meet).
fn stream(seed: u64, pass: u64) -> Result<Stream, String> {
    let mut rng = Rng::new(seed);
    let mut designs = vec![
        inputs::diffeq(Some(&mut rng))?,
        inputs::gcd(Some(&mut rng))?,
        inputs::fir(Some(&mut rng))?,
        inputs::figure8(Some(&mut rng))?,
    ];
    for (structure, ops, fus) in RANDOM {
        designs.push(inputs::random(structure, ops, fus, &mut rng)?);
    }
    // Deal the designs into two halves in seeded order. Every design is
    // submitted 2 * PER_PHASE times a pass: a first-half design PER_PHASE
    // times in each phase, a second-half design all in phase B.
    let mut order: Vec<usize> = (0..designs.len()).collect();
    shuffle(&mut order, &mut rng);
    let (first, second) = order.split_at(order.len() / 2);
    let mut rng = Rng::for_input(seed, pass);
    let mut phase = |parts: &[(&[usize], usize)]| {
        let mut jobs: Vec<usize> = parts
            .iter()
            .flat_map(|&(ds, n)| ds.iter().flat_map(move |&d| std::iter::repeat_n(d, n)))
            .collect();
        shuffle(&mut jobs, &mut rng);
        jobs
    };
    let a = phase(&[(first, PER_PHASE)]);
    let b = phase(&[(first, PER_PHASE), (second, 2 * PER_PHASE)]);
    Ok(Stream {
        designs,
        phases: [a, b],
    })
}

fn spec(d: &Design) -> JobSpec {
    JobSpec {
        label: d.name.clone(),
        design: d.text.clone(),
        model_check: true,
        logic: false,
        ..JobSpec::default()
    }
}

/// The flow options a daemon worker derives from [`spec`]: the in-flow
/// check keeps the flow's bounded budget (under the daemon's default cap).
fn worker_options() -> FlowOptions {
    FlowOptions {
        model_check: true,
        ..FlowOptions::default()
    }
}

/// What one job ended in: its summary or its error.
type JobOut = Result<FlowSummary, String>;

/// What one job ended in on the worker path, with its transformed graph.
type WorkerOut = Result<(FlowSummary, adcs_cdfg::Cdfg), String>;

/// The run report of a job that completed, or the job's error.
fn report_of(res: &JobResult) -> Result<RunReport, String> {
    if !res.ok {
        return Err(res.error.clone());
    }
    RunReport::from_json(&res.report_json).map_err(|e| format!("report: {e:?}"))
}

fn summary_of(r: &RunReport) -> JobOut {
    let stage = |i: usize| r.stages.get(i).ok_or("report lacks a stage");
    let mut channels = [0; 3];
    let mut machines: [Vec<(String, usize, usize)>; 3] = Default::default();
    for i in 0..3 {
        let st = stage(i)?;
        channels[i] = st.channels as usize;
        machines[i] = st
            .machines
            .iter()
            .map(|m| (m.name.clone(), m.states as usize, m.transitions as usize))
            .collect();
    }
    Ok(FlowSummary {
        channels,
        machines,
        literals: r
            .logic
            .iter()
            .map(|l| (l.name.clone(), l.literals as usize))
            .collect(),
        mc: r.mc.as_ref().map(|m| (m.verdict.clone(), m.states)),
    })
}

/// One client-side job record. `result` is the daemon's answer, or why
/// there was none (`rejected: ...`, `transport: ...`).
struct Record {
    phase: usize,
    index: usize,
    latency_ms: f64,
    admit_ms: f64,
    queue_ms: f64,
    result: Result<JobResult, String>,
}

/// Submits one job and waits for `Done`, timing submit→Accepted,
/// Accepted→`started` and submit→Done.
fn client_job(addr: &str, spec: &JobSpec, phase: usize, index: usize) -> Record {
    let t0 = Instant::now();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut rec = Record {
        phase,
        index,
        latency_ms: 0.0,
        admit_ms: 0.0,
        queue_ms: 0.0,
        result: Err(String::new()),
    };
    let mut wait = || -> Result<JobResult, String> {
        let mut c = Client::connect(addr).map_err(|e| format!("transport: {e}"))?;
        match c.submit(spec).map_err(|e| format!("transport: {e}"))? {
            Submission::Accepted { .. } => rec.admit_ms = ms(t0),
            Submission::Rejected { reason, .. } => return Err(format!("rejected: {reason}")),
        }
        loop {
            match c.next_event().map_err(|e| format!("transport: {e}"))? {
                JobEvent::Progress { kind, .. } if kind == "started" => {
                    rec.queue_ms = ms(t0) - rec.admit_ms;
                }
                JobEvent::Progress { .. } => {}
                JobEvent::Done(res) => return Ok(res),
            }
        }
    };
    let result = wait();
    rec.latency_ms = ms(t0);
    rec.result = result;
    rec
}

/// Runs one phase's jobs through the daemon at `addr` from `CLIENTS`
/// closed-loop clients.
fn drive(addr: &str, phase: usize, jobs: &[usize], s: &Stream) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::new());
    thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                let Some(&d) = jobs.get(index) else { break };
                let rec = client_job(addr, &spec(&s.designs[d]), phase, index);
                records.lock().expect("records lock poisoned").push(rec);
            });
        }
    });
    let mut out = records.into_inner().expect("records lock poisoned");
    out.sort_by_key(|r| r.index);
    out
}

fn start(
    dir: &Path,
) -> Result<
    (
        String,
        thread::JoinHandle<std::io::Result<adcs_serve::daemon::ServeSummary>>,
    ),
    String,
> {
    let opts = ServeOptions {
        workers: WORKERS,
        cache_dir: Some(dir.to_path_buf()),
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", opts).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    Ok((addr, thread::spawn(move || server.run())))
}

fn stop(
    addr: &str,
    h: thread::JoinHandle<std::io::Result<adcs_serve::daemon::ServeSummary>>,
) -> Result<(), String> {
    Client::connect(addr)
        .map_err(|e| e.to_string())?
        .shutdown()
        .map_err(|e| e.to_string())?;
    h.join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map(|_| ())
        .map_err(|e| format!("daemon: {e}"))
}

/// One daemon pass: phase A, restart, phase B. Returns the job records.
fn daemon_pass(dir: &Path, s: &Stream) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (phase, jobs) in s.phases.iter().enumerate() {
        let (addr, h) = start(dir)?;
        records.extend(drive(&addr, phase, jobs, s));
        stop(&addr, h)?;
    }
    Ok(records)
}

fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench-work").join(format!("serve-{}", std::process::id()))
}

pub fn run(r: &Run, o: &mut Outcome) -> Result<(), String> {
    let root = work_dir();
    let _ = std::fs::remove_dir_all(&root);
    let res = measure(r, o, &root);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".perfbench-work");
    res
}

fn measure(r: &Run, o: &mut Outcome, root: &Path) -> Result<(), String> {
    let mut pass_no = 0;
    let mut first_seen: BTreeMap<usize, JobOut> = BTreeMap::new();
    let mut sources = [0u64; 3];
    let (mut samples_run, mut spilled) = (0, 0);
    o.passes(r.seconds, 1, |o| {
        pass_no += 1;
        let dir = root.join(format!("pass-{pass_no}"));
        // Each pass starts from an empty store directory.
        let s = o.setup(|| {
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            stream(r.seed, pass_no)
        })?;
        let t = Instant::now();
        let records = daemon_pass(&dir, &s)?;
        let untraced = t.elapsed().as_secs_f64();
        // Submissions so far of each design in each phase: the k-th
        // submission of a design in a phase meets the same cache state in
        // every pass, so it is one operation across the passes.
        let mut sightings: [HashMap<usize, usize>; 2] = Default::default();
        let mut outs = Vec::new();
        for rec in &records {
            let d = s.phases[rec.phase][rec.index];
            let design = &s.designs[d];
            o.attempted += 1;
            let k = sightings[rec.phase].entry(d).or_default();
            o.op(
                format!("{}:{}:{k}", rec.phase, design.name),
                rec.latency_ms / 1e3,
            );
            let first_in_process = *k == 0;
            *k += 1;
            let report = rec
                .result
                .as_ref()
                .map_err(Clone::clone)
                .and_then(report_of);
            let out: JobOut = report.as_ref().map_err(Clone::clone).and_then(summary_of);
            if let Ok(rep) = &report {
                samples_run += rep.timing.as_ref().map_or(0, |t| t.samples_run);
                spilled += rep.mc.as_ref().map_or(0, |m| m.spilled_bytes);
            }
            if let (Ok(res), Ok(_)) = (&rec.result, &out) {
                let src = if res.cold_misses() > 0 {
                    Source::Cold
                } else if first_in_process {
                    Source::Disk
                } else {
                    Source::Memory
                };
                sources[src as usize] += 1;
            }
            if r.trace {
                let l = &o.layers;
                l.add("serve.jobs", 1.0);
                l.add("serve.admit_ms", rec.admit_ms);
                l.add("serve.queue_wait_ms", rec.queue_ms);
                let run_ms = rec
                    .result
                    .as_ref()
                    .map_or(0.0, |res| res.elapsed_us as f64 / 1e3);
                l.add("serve.run_ms", run_ms);
                if rec
                    .result
                    .as_ref()
                    .is_err_and(|e| e.starts_with("rejected"))
                {
                    l.add("serve.rejected", 1.0);
                }
            }
            match &out {
                Ok(summary) if design.name == "diffeq" => {
                    if let Err(e) = checks::figure12(summary) {
                        o.wrong(&design.name, e);
                    }
                }
                Ok(_) => {}
                Err(e) => o.fail(&design.name, e),
            }
            // Cold, disk-served and memory-served answers must agree.
            match first_seen.get(&d) {
                Some(prev) if *prev != out => o.wrong(
                    &design.name,
                    format!("job answers differ: {prev:?} vs {out:?}"),
                ),
                Some(_) => {}
                None => {
                    first_seen.insert(d, out.clone());
                }
            }
            outs.push(out);
        }
        let _ = std::fs::remove_dir_all(&dir);
        if r.trace {
            let replay_dir = root.join(format!("replay-{pass_no}"));
            shadow(&replay_dir, &s, &records, &outs, untraced, o);
            let _ = std::fs::remove_dir_all(&replay_dir);
        }
        Ok(())
    })?;
    let jobs = sources.iter().sum::<u64>().max(1) as f64;
    if r.trace {
        o.layers
            .add("serve.cold", sources[Source::Cold as usize] as f64);
        o.layers
            .add("serve.disk", sources[Source::Disk as usize] as f64);
        o.layers.add("serve.completed", jobs);
    }
    o.notes.push(format!(
        "serve_jobs_per_s = {} / pass_s, serve_p50_ms = op_p50_ms, serve_p95_ms = op_p95_ms; \
         successful jobs cold {:.3}, disk {:.3}, memory {:.3}; \
         timing.samples_run {samples_run}, mc.spilled_bytes {spilled}",
        2 * PER_PHASE * (4 + RANDOM.len()),
        sources[0] as f64 / jobs,
        sources[1] as f64 / jobs,
        sources[2] as f64 / jobs
    ));
    Ok(())
}

/// The worker path without the protocol: `SharedCaches::open`, then per
/// job `Flow::with_caches(..).run` and `SharedCaches::flush`, on
/// `WORKERS` threads, restarting between the phases. Each job must end as
/// the daemon's did, and a completed job's transformed graph must compute
/// what the design's reference predicts.
fn shadow(
    dir: &Path,
    s: &Stream,
    records: &[Record],
    outs: &[JobOut],
    untraced: f64,
    o: &mut Outcome,
) {
    let t = Instant::now();
    let layers = &o.layers;
    let opts = worker_options();
    let (mut replay_s, mut attributed) = (0.0, 0.0);
    let mut results: Vec<(usize, usize, WorkerOut)> = Vec::new();
    for (phase, jobs) in s.phases.iter().enumerate() {
        let t_open = Instant::now();
        let caches = match SharedCaches::open(dir) {
            Ok(c) => c,
            Err(e) => {
                o.wrong("store", format!("open: {e}"));
                return;
            }
        };
        let open_s = t_open.elapsed().as_secs_f64();
        layers.add("store.open.s", open_s);
        replay_s += open_s;
        attributed += open_s;
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::new());
        thread::scope(|scope| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|_| {
                    scope.spawn(|| {
                        let t_worker = Instant::now();
                        let mut spans = 0.0;
                        loop {
                            let index = next.fetch_add(1, Ordering::SeqCst);
                            let Some(&d) = jobs.get(index) else { break };
                            let p = &s.designs[d].program;
                            let flow =
                                Flow::with_caches(p.cdfg.clone(), p.initial.clone(), &caches);
                            let t_run = Instant::now();
                            let res = flow.run(&opts);
                            let run_s = t_run.elapsed().as_secs_f64();
                            let t_flush = Instant::now();
                            let _ = caches.flush();
                            let flush_s = t_flush.elapsed().as_secs_f64();
                            layers.add("store.flush.s", flush_s);
                            layers.add("store.flushes", 1.0);
                            spans += run_s + flush_s;
                            let res = res
                                .map(|out| {
                                    record_flow(layers, &out);
                                    (FlowSummary::of(&out), out.cdfg)
                                })
                                .map_err(|e| e.to_string());
                            done.lock()
                                .expect("results lock poisoned")
                                .push((phase, index, res));
                        }
                        (t_worker.elapsed().as_secs_f64(), spans)
                    })
                })
                .collect();
            for w in workers {
                let (wall, spans) = w.join().expect("replay worker panicked");
                replay_s += wall;
                attributed += spans;
            }
        });
        let m = caches.metrics();
        layers.add("store.disk_hits", m.counter("cache.disk.hit").get() as f64);
        layers.add("store.appends", m.counter("cache.disk.append").get() as f64);
        let hits = m.counter("cache.mc.hit").get() as f64;
        layers.add("memo.mc.hits", hits);
        layers.add(
            "memo.mc.lookups",
            hits + m.counter("cache.mc.miss").get() as f64,
        );
        let mh = m.counter("cache.minimize.hit").get() as f64;
        layers.add("memo.minimize.hits", mh);
        layers.add(
            "memo.minimize.lookups",
            mh + m.counter("cache.minimize.miss").get() as f64,
        );
        if let Some(store) = caches.store() {
            layers.max("store.bytes", store.stat().log_bytes as f64);
        }
        results.extend(done.into_inner().expect("results lock poisoned"));
    }
    let wall = t.elapsed().as_secs_f64();

    results.sort_by_key(|(phase, index, _)| (*phase, *index));
    for ((phase, index, res), (rec, out)) in results.into_iter().zip(records.iter().zip(outs)) {
        let design = &s.designs[s.phases[phase][index]];
        if (phase, index) != (rec.phase, rec.index) {
            o.wrong(&design.name, "replay lost a job");
            continue;
        }
        match res {
            Ok((summary, g)) => {
                if Ok(&summary) != out.as_ref() {
                    o.wrong(
                        &design.name,
                        "worker-path replay differs from the daemon's answer",
                    );
                }
                if let Err(e) = design.check(&g) {
                    o.wrong(&design.name, e);
                }
            }
            Err(e) => {
                if out.as_ref().err() != Some(&e) {
                    o.wrong(
                        &design.name,
                        format!("replay failed with {e}, daemon answered {out:?}"),
                    );
                }
            }
        }
    }
    o.shadowed(untraced, wall, replay_s, attributed);
}

/// Folds one worker-path run's layer counters into the totals.
fn record_flow(layers: &Layers, out: &adcs::flow::FlowOutcome) {
    layers.add("reach.queries", out.reach_queries as f64);
    layers.add("reach.hits", out.reach_cache_hits as f64);
    layers.add("timing.queries", out.timing_queries as f64);
    layers.add("timing.hits", out.timing_cache_hits as f64);
    layers.add("timing.samples_run", out.timing_samples_run as f64);
    if out.mc_cache_misses > 0 {
        layers.add("mc.s", out.mc_elapsed.as_secs_f64());
        layers.add("mc.states", out.mc_states as f64);
        layers.add("mc.waves", out.mc_batches as f64);
        layers.max("mc.peak_frontier", out.mc_peak_frontier as f64);
        layers.add("mc.ample_hits", out.mc_ample_hits as f64);
        layers.add("mc.pruned", out.mc_pruned as f64);
        layers.add("mc.spilled_bytes", out.mc_spilled_bytes as f64);
    }
}
