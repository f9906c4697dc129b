//! `explore_sweep`: the 64-subset exhaustive sweep on DIFFEQ, GCD, FIR
//! and figure8, logic and model check off, a fresh `Flow` per sweep.

use std::collections::HashSet;
use std::time::Instant;

use adcs::explore::{explore_exhaustive_flow, ExploreOptions, ExplorePoint, Objective};
use adcs::flow::{Flow, FlowOptions};
use adcs::lt::LtOptions;
use adcs::yun::FIGURE_12;
use adcs::TimingCache;
use rayon::prelude::*;

use crate::inputs::{self, Design, Render, Rng};
use crate::{replay, Outcome, Run};

const CANDIDATES: u32 = 64;

/// DIFFEQ, GCD, FIR, figure8.
const DESIGNS: [Render; 4] = [inputs::diffeq, inputs::gcd, inputs::fir, inputs::figure8];

pub fn run(r: &Run, o: &mut Outcome) -> Result<(), String> {
    let base = FlowOptions::default();
    let (mut samples_run, mut infeasible) = (0, 0);
    o.passes(r.seconds, 1, |o| {
        for (i, render) in (0..).zip(DESIGNS) {
            let d = o.setup(|| render(Some(&mut Rng::for_input(r.seed, i))))?;
            let t = Instant::now();
            let flow = Flow::new(d.program.cdfg.clone(), d.program.initial.clone());
            let res = explore_exhaustive_flow(
                &flow,
                &base,
                Objective::ChannelsThenStates,
                ExploreOptions::default(),
            );
            let untraced = t.elapsed().as_secs_f64();
            o.op(&d.name, untraced);
            o.attempted += 1;
            match res {
                Ok(points) => {
                    samples_run += points.iter().map(|p| p.timing_samples_run).sum::<u64>();
                    infeasible += CANDIDATES as usize - points.len();
                    if let Err(e) = check(&d, &points) {
                        o.wrong(&d.name, e);
                    }
                    if r.trace {
                        shadow(&d, &base, &points, untraced, o);
                    }
                }
                Err(e) => o.fail(&d.name, e),
            }
        }
        Ok(())
    })?;
    // Stage 0 extracts the untransformed graph under the baseline options,
    // which no candidate changes: candidates with equal baseline options
    // repeat an identical computation.
    let baselines: HashSet<_> = (0..CANDIDATES)
        .map(|m| {
            let o = options_for(m, &base);
            (format!("{:?}", o.baseline_style), o.reduce_states)
        })
        .collect();
    o.notes.push(format!(
        "sweep_candidates_per_s = {} / pass_s; infeasible candidates {infeasible}, \
         stage-0 repeat share {:.4}, timing.samples_run {samples_run}",
        DESIGNS.len() as u32 * CANDIDATES,
        f64::from(CANDIDATES - baselines.len() as u32) / f64::from(CANDIDATES)
    ));
    Ok(())
}

/// The ranking is complete and ordered; with no transform every arc is
/// its own channel; on DIFFEQ the best and the all-transforms candidates
/// reach Figure 12's five channels.
fn check(d: &Design, points: &[ExplorePoint]) -> Result<(), String> {
    let arcs = d.program.cdfg.inter_fu_arcs().len();
    let masks: HashSet<u32> = points.iter().map(ExplorePoint::bitmask).collect();
    if masks.len() != points.len() {
        return Err("a candidate appears twice".into());
    }
    if !points
        .windows(2)
        .all(|w| (w[0].score, w[0].bitmask()) < (w[1].score, w[1].bitmask()))
    {
        return Err("ranking is not sorted by (score, mask)".into());
    }
    let at = |mask: u32| points.iter().find(|p| p.bitmask() == mask);
    match at(0) {
        Some(p) if p.channels == arcs => {}
        other => {
            return Err(format!(
                "untransformed candidate {:?}, expected {arcs} channels",
                other.map(|p| p.channels)
            ))
        }
    }
    if points.iter().any(|p| p.channels > arcs) {
        return Err("a candidate has more channels than arcs".into());
    }
    if d.name == "diffeq" {
        let five = FIGURE_12[2].channels;
        let all = at(CANDIDATES - 1).map(|p| p.channels);
        if points[0].channels != five || all != Some(five) {
            return Err(format!(
                "best {} / all-transforms {all:?} channels, Figure 12 has {five}",
                points[0].channels
            ));
        }
    }
    Ok(())
}

/// The explorer's option set for a transform bitmask
/// `(gt1, gt2, gt3, gt4, gt5, lt)`, low bit first.
fn options_for(mask: u32, base: &FlowOptions) -> FlowOptions {
    let mut o = base.clone();
    o.gt1 = mask & 1 != 0;
    o.gt2 = mask & 2 != 0;
    o.gt3 = mask & 4 != 0;
    o.gt4 = mask & 8 != 0;
    if mask & 16 == 0 {
        o.gt5.multiplexing = false;
        o.gt5.concurrency_reduction = false;
        o.gt5.symmetrization = false;
    }
    if mask & 32 == 0 {
        o.lt = LtOptions {
            move_up_dones: false,
            mux_preselect: false,
            removable_acks: Vec::new(),
            share_signals: false,
        };
    }
    o
}

/// Replays all 64 candidates through the layers (over the rayon pool, as
/// the explorer runs them, sharing one timing cache as its `Flow` does)
/// and checks each against the sweep's point and the design's reference.
fn shadow(d: &Design, base: &FlowOptions, points: &[ExplorePoint], untraced: f64, o: &mut Outcome) {
    let timing = TimingCache::new();
    let t = Instant::now();
    let layers = &o.layers;
    let replays: Vec<(u32, replay::Replayed)> = (0..CANDIDATES)
        .into_par_iter()
        .map(|mask| {
            let opts = options_for(mask, base);
            let rep = replay::flow(&d.program.cdfg, &d.program.initial, &opts, &timing, layers);
            (mask, rep)
        })
        .collect();
    let wall = t.elapsed().as_secs_f64();
    o.layers
        .add("timing.canonical_runs", timing.canonical_runs() as f64);

    let mut seen = HashSet::new();
    let (mut replay_s, mut attributed) = (0.0, 0.0);
    for (mask, rep) in replays {
        replay_s += rep.wall;
        attributed += rep.attributed;
        if let Some(key) = rep.stage0 {
            if !seen.insert(key) {
                o.layers.add("stage0.repeats", 1.0);
            }
        }
        let point = points.iter().find(|p| p.bitmask() == mask);
        let name = format!("{} mask {mask}", d.name);
        match (rep.result, point) {
            (Ok(f), Some(p)) => {
                let s = f.summary;
                let states = s.machines[2].iter().map(|m| m.1).sum::<usize>();
                let transitions = s.machines[2].iter().map(|m| m.2).sum::<usize>();
                if (s.channels[2], states, transitions) != (p.channels, p.states, p.transitions) {
                    o.wrong(&name, "traced replay differs from the sweep's point");
                }
                if let Err(e) = d.check(&f.cdfg) {
                    o.wrong(&name, e);
                }
            }
            (Err(_), None) => {}
            (res, point) => o.wrong(
                &name,
                format!(
                    "replay {} but the sweep {}",
                    if res.is_ok() { "completed" } else { "failed" },
                    if point.is_some() {
                        "ranked it"
                    } else {
                        "dropped it"
                    }
                ),
            ),
        }
    }
    o.shadowed(untraced, wall, replay_s, attributed);
}
