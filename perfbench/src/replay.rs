//! The traced replay of `Flow::run`: the same public calls, in the same
//! order, each timed under its layer's name. A replay must reach the same
//! channels, controllers, literal counts and model-check verdict as the
//! untraced run it shadows; [`FlowSummary`] is what the two are compared
//! on.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use adcs::channel::ChannelMap;
use adcs::extract::{extract_cached, ControllerSpec, ExtractOptions, Extraction};
use adcs::flow::{FlowOptions, FlowOutcome, StageStats};
use adcs::gt::{
    gt1_loop_parallelism, gt2_remove_dominated, gt3_relative_timing_cached, gt4_merge_assignments,
    gt5_channel_elimination_cached,
};
use adcs::lt::{apply_all, LtOptions};
use adcs::mc::{model_check_system, McOptions, McVerdict};
use adcs::system::{system_parts, SystemDelays};
use adcs::{SynthError, TimingCache};
use adcs_cdfg::analysis::ReachCache;
use adcs_cdfg::benchmarks::RegFile;
use adcs_cdfg::Cdfg;
use adcs_hfmin::covering::Covering;
use adcs_hfmin::primes::dhf_primes_with_stats;
use adcs_hfmin::{controller_specs, Cover, HfminError, SynthOptions};
use adcs_sim::exec::{execute, ExecOptions};
use adcs_xbm::XbmMachine;
use rayon::prelude::*;

use crate::alloc;
use crate::trace::{Layers, Spans};

/// `(controller, states, transitions)` rows of one stage.
pub type Machines = Vec<(String, usize, usize)>;

/// What a flow run produced, in the terms the replay is checked on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowSummary {
    pub channels: [usize; 3],
    pub machines: [Machines; 3],
    pub literals: Vec<(String, usize)>,
    /// Model-check verdict kind and states, when the check ran.
    pub mc: Option<(String, u64)>,
}

fn rows(st: &StageStats) -> Machines {
    st.machines
        .iter()
        .map(|(n, s)| (n.clone(), s.states, s.transitions))
        .collect()
}

fn ctrl_rows(cs: &[ControllerSpec]) -> Machines {
    cs.iter()
        .map(|c| {
            let s = c.machine.stats();
            (c.machine.name().to_string(), s.states, s.transitions)
        })
        .collect()
}

impl FlowSummary {
    pub fn of(out: &FlowOutcome) -> Self {
        FlowSummary {
            channels: [
                out.unoptimized.channels,
                out.optimized_gt.channels,
                out.optimized_gt_lt.channels,
            ],
            machines: [
                rows(&out.unoptimized),
                rows(&out.optimized_gt),
                rows(&out.optimized_gt_lt),
            ],
            literals: out
                .logic
                .iter()
                .map(|l| (l.name.clone(), l.literals_single_output()))
                .collect(),
            mc: (out.mc_runs > 0).then(|| (out.mc_verdict.clone(), out.mc_states)),
        }
    }
}

/// The end state of a replayed run.
pub struct Final {
    pub summary: FlowSummary,
    pub cdfg: Cdfg,
}

/// A replayed run: its end state (or the error the flow would return) and
/// the wall and attributed seconds of the replay.
pub struct Replayed {
    pub result: Result<Final, String>,
    /// Hash of the stage-0 controllers' text, once stage 0 completed.
    pub stage0: Option<u64>,
    pub wall: f64,
    pub attributed: f64,
}

/// Replays `Flow::run(opts)` over `cdfg`, recording into `layers`.
/// `timing` plays the flow's shared GT3 cache.
pub fn flow(
    cdfg: &Cdfg,
    initial: &RegFile,
    opts: &FlowOptions,
    timing: &TimingCache,
    layers: &Layers,
) -> Replayed {
    let start = Instant::now();
    let mut sp = Spans::new(layers);
    // One reachability cache serves the whole run, as in the flow.
    let reach = ReachCache::new();
    let mut stage0 = None;
    let result = stages(cdfg, initial, opts, timing, &reach, &mut stage0, &mut sp)
        .map_err(|e| e.to_string());
    layers.add("reach.queries", reach.queries() as f64);
    layers.add("reach.hits", reach.hits() as f64);
    Replayed {
        result,
        stage0,
        wall: start.elapsed().as_secs_f64(),
        attributed: sp.attributed,
    }
}

/// `extract_cached`, timed under `key`, counting the call and the states
/// it extracted.
fn extract_timed(
    sp: &mut Spans<'_>,
    key: &'static str,
    g: &Cdfg,
    channels: &ChannelMap,
    opts: ExtractOptions,
    reach: &ReachCache,
) -> Result<Extraction, SynthError> {
    let ex = sp.run(&[key], || extract_cached(g, channels, &opts, reach))?;
    sp.layers.add("extract.calls", 1.0);
    let states: usize = ex
        .controllers
        .iter()
        .map(|c| c.machine.stats().states)
        .sum();
    sp.layers.add("extract.states", states as f64);
    Ok(ex)
}

/// `Flow::run`'s `reduce_all`: bisimulation-reduce every controller,
/// keeping the reduced machine when it validates.
fn reduce_all(sp: &mut Spans<'_>, cs: &mut [ControllerSpec]) -> Result<(), SynthError> {
    let layers = sp.layers;
    sp.run(&["reduce.s"], || {
        for c in cs {
            let (reduced, _) = adcs_xbm::reduce::reduce(&c.machine)?;
            layers.add("reduce.calls", 1.0);
            if adcs_xbm::validate::validate(&reduced).is_ok() {
                let (before, after) = (c.machine.stats().states, reduced.stats().states);
                layers.add("reduce.states_removed", before.saturating_sub(after) as f64);
                c.machine = reduced;
            }
        }
        Ok(())
    })
}

fn stages(
    cdfg: &Cdfg,
    initial: &RegFile,
    opts: &FlowOptions,
    timing: &TimingCache,
    reach: &ReachCache,
    stage0_key: &mut Option<u64>,
    sp: &mut Spans<'_>,
) -> Result<Final, SynthError> {
    let layers = sp.layers;

    // Stage 0: the unoptimized baseline.
    let channels0 = ChannelMap::per_arc(cdfg)?;
    let style = |style| ExtractOptions { style };
    let mut ex0 = extract_timed(
        sp,
        "extract.stage0.s",
        cdfg,
        &channels0,
        style(opts.baseline_style),
        reach,
    )?;
    if opts.reduce_states {
        reduce_all(sp, &mut ex0.controllers)?;
    }
    let stage0 = ctrl_rows(&ex0.controllers);
    layers.add("stage0.calls", 1.0);
    let mut h = DefaultHasher::new();
    for c in &ex0.controllers {
        adcs_xbm::format::to_text(&c.machine).hash(&mut h);
    }
    *stage0_key = Some(h.finish());

    // Stage 1: global transforms, verification, extraction.
    let mut g = cdfg.clone();
    let arcs_before = g.arc_count();
    if opts.gt1 {
        sp.run(&["gt.s"], || gt1_loop_parallelism(&mut g))?;
    }
    if opts.gt2 {
        sp.run(&["gt.s"], || gt2_remove_dominated(&mut g))?;
    }
    if opts.gt3 {
        let rep = sp.run(&["gt.s", "gt3.s"], || {
            gt3_relative_timing_cached(&mut g, initial, &opts.timing, timing)
        })?;
        layers.add("timing.queries", rep.timing.queries as f64);
        layers.add("timing.hits", rep.timing.cache_hits as f64);
        layers.add("timing.samples_run", rep.timing.samples_run as f64);
    }
    if opts.gt4 {
        sp.run(&["gt.s"], || gt4_merge_assignments(&mut g))?;
    }
    let channels = sp.run(&["gt.s", "gt5.s"], || {
        let mut channels = ChannelMap::per_arc(&g)?;
        gt5_channel_elimination_cached(&mut g, &mut channels, opts.gt5, reach)?;
        Ok::<_, SynthError>(channels)
    })?;
    layers.add(
        "gt.arcs_removed",
        arcs_before.saturating_sub(g.arc_count()) as f64,
    );
    if opts.verify_seeds > 0 {
        sp.run(&["sim.s"], || {
            verify(cdfg, &g, &channels, initial, opts, layers)
        })?;
    }
    let mut ex_gt = extract_timed(
        sp,
        "extract.s",
        &g,
        &channels,
        style(opts.optimized_style),
        reach,
    )?;
    if opts.reduce_states {
        reduce_all(sp, &mut ex_gt.controllers)?;
    }
    let stage1 = ctrl_rows(&ex_gt.controllers);

    // Stage 2: local transforms.
    let mut controllers = ex_gt.controllers;
    lt_all(sp, &mut controllers, &opts.lt)?;
    if opts.reduce_states {
        reduce_all(sp, &mut controllers)?;
    }
    let ex_lt = Extraction { controllers };
    let stage2 = ctrl_rows(&ex_lt.controllers);

    // Stage 2b: the in-flow model check (a fresh McCache misses, so the
    // flow searches exactly as below).
    let mut mc = None;
    if opts.model_check {
        let verdict = model_check(sp, &g, &channels, &ex_lt, initial, &opts.mc)?;
        if let McVerdict::Violation { kind, detail, .. } = &verdict {
            return Err(SynthError::Precondition(format!(
                "model check found a {kind:?}: {detail}"
            )));
        }
        let kind = if verdict.is_verified() {
            "verified"
        } else {
            "budget"
        };
        mc = Some((kind.to_string(), verdict.stats().states as u64));
    }

    // Stage 3: hazard-free logic, one covering pipeline per controller
    // fanned over the rayon pool as the flow does.
    let mut literals = Vec::new();
    if opts.synthesize_logic {
        let (results, peak) = sp.run(&["hfmin.s"], || {
            alloc::window(|| {
                ex_lt
                    .controllers
                    .par_iter()
                    .map(|c| synthesize(&c.machine, opts.synth, layers))
                    .collect::<Vec<_>>()
            })
        });
        layers.max("hfmin.peak_bytes", peak as f64);
        for (c, r) in ex_lt.controllers.iter().zip(results) {
            literals.push((c.machine.name().to_string(), r?));
        }
    }

    let summary = FlowSummary {
        channels: [channels0.count(), channels.count(), channels.count()],
        machines: [stage0, stage1, stage2],
        literals,
        mc,
    };
    Ok(Final { summary, cdfg: g })
}

/// `system_parts` + `model_check_system`, timed as the `mc` layer with
/// its heap peak.
fn model_check(
    sp: &mut Spans<'_>,
    g: &Cdfg,
    channels: &ChannelMap,
    ex: &Extraction,
    initial: &RegFile,
    opts: &McOptions,
) -> Result<McVerdict, SynthError> {
    let (verdict, peak) = sp.run(&["mc.s"], || {
        alloc::window(|| {
            let parts = system_parts(g, channels, ex, initial.clone(), SystemDelays::default())?;
            model_check_system(&parts, opts)
        })
    });
    sp.layers.max("mc.peak_bytes", peak as f64);
    let verdict = verdict?;
    record_mc(sp.layers, &verdict);
    Ok(verdict)
}

fn lt_all(
    sp: &mut Spans<'_>,
    cs: &mut [ControllerSpec],
    opts: &LtOptions,
) -> Result<(), SynthError> {
    sp.run(&["lt.s"], || apply_all(cs, opts))?;
    sp.layers.add("lt.calls", cs.len() as f64);
    Ok(())
}

/// `Flow::run`'s randomized verification: the transformed graph must end
/// with the original's registers and without wire-safety violations.
fn verify(
    original: &Cdfg,
    g: &Cdfg,
    channels: &ChannelMap,
    initial: &RegFile,
    opts: &FlowOptions,
    layers: &Layers,
) -> Result<(), SynthError> {
    let groups = channels.safety_groups(g);
    for seed in 0..opts.verify_seeds {
        let delays = opts.timing.delay_model(g, seed + 1);
        let reference = execute(original, initial.clone(), &delays, &ExecOptions::default())?;
        let exec_opts = ExecOptions {
            channel_groups: groups.clone(),
            ..ExecOptions::default()
        };
        let r = execute(g, initial.clone(), &delays, &exec_opts)?;
        layers.add("sim.calls", 2.0);
        layers.add(
            "sim.firings",
            (reference.firings.len() + r.firings.len()) as f64,
        );
        if r.registers != reference.registers {
            return Err(SynthError::Precondition(format!(
                "transformed graph diverges from the original under seed {seed}"
            )));
        }
        if let Some(v) = r.violations.first() {
            return Err(SynthError::Precondition(format!(
                "wire-safety violation under seed {seed}: {v:?}"
            )));
        }
    }
    Ok(())
}

/// Adds one verdict's search statistics to the `mc.*` layer totals.
fn record_mc(layers: &Layers, v: &McVerdict) {
    let s = v.stats();
    layers.add("mc.states", s.states as f64);
    layers.add("mc.waves", s.batches as f64);
    layers.max("mc.peak_frontier", s.peak_frontier as f64);
    layers.add("mc.ample_hits", s.ample_hits as f64);
    layers.add("mc.pruned", s.pruned as f64);
    layers.add("mc.spilled_bytes", s.spilled_bytes as f64);
}

/// `adcs_hfmin::synthesize` in single-output mode, split at its layer
/// boundaries: specification, DHF primes, covering. Returns the
/// single-output literal count.
fn synthesize(m: &XbmMachine, opts: SynthOptions, layers: &Layers) -> Result<usize, SynthError> {
    assert!(
        !opts.share_products,
        "the replay covers single-output synthesis only"
    );
    let start = Instant::now();
    let problem = layers.time("hfmin.spec.s", || controller_specs(m, opts))?;
    let covers: Vec<Result<Cover, HfminError>> = problem
        .specs
        .par_iter()
        .map(|(_, spec)| {
            let t = Instant::now();
            let parts = spec.check_consistency().map(|()| {
                (
                    spec.required_cubes(),
                    spec.off_cover(),
                    spec.privileged_cubes(),
                )
            });
            layers.add("hfmin.spec.s", t.elapsed().as_secs_f64());
            let (required, off, privileged) = parts?;
            if required.is_empty() {
                return Ok(Cover::new());
            }
            let (primes, stats) = layers.time("hfmin.primes.s", || {
                dhf_primes_with_stats(&required, &off, &privileged)
            })?;
            layers.add("hfmin.primes", primes.len() as f64);
            layers.time("hfmin.cover.s", || {
                let problem = Covering::build(&required, &primes)?;
                layers.add(
                    "hfmin.cube_ops",
                    (stats.cube_ops + problem.cube_ops()) as f64,
                );
                let chosen = if opts.minimize.exact {
                    match problem.solve_exact(opts.minimize.node_budget) {
                        Err(HfminError::SearchBudget(_)) => problem.solve_greedy(),
                        other => other?,
                    }
                } else {
                    problem.solve_greedy()
                };
                Ok(chosen.into_iter().map(|i| primes[i].clone()).collect())
            })
        })
        .collect();
    let mut literals = 0;
    for c in covers {
        literals += c?.literals();
    }
    layers.max("hfmin.max_controller_s", start.elapsed().as_secs_f64());
    Ok(literals)
}
