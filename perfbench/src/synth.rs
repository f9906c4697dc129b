//! `synth_full`: what a designer runs, `adcs synth --logic --model-check`,
//! on DIFFEQ, FIR and GCD, each on fresh caches.

use std::time::Instant;

use adcs::flow::{Flow, FlowOptions};
use adcs::TimingCache;

use crate::inputs::{self, Design, Render, Rng};
use crate::replay::{self, FlowSummary};
use crate::{checks, Outcome, Run};

fn options() -> FlowOptions {
    FlowOptions {
        synthesize_logic: true,
        model_check: true,
        ..FlowOptions::default()
    }
}

/// DIFFEQ, FIR, GCD.
const DESIGNS: [Render; 3] = [inputs::diffeq, inputs::fir, inputs::gcd];

/// Passes an untraced run makes at least. A pass takes ~11 s, ~70% of
/// it FIR, so fewer would leave the medians of `pass_s` and of FIR's
/// latency resting on one or two samples.
const MIN_PASSES: usize = 3;

/// DIFFEQ is the median-latency design, so `op_p50_ms` is its latency. At
/// ~3 s a run against FIR's ~8 s, its median would rest on far fewer
/// seconds of samples than FIR's, on a host whose speed swings in phases
/// of seconds; so it runs once more after every untraced pass, outside
/// `pass_s`. Traced runs skip the repeat: their layer totals are per pass.
const DIFFEQ: usize = 0;

pub fn run(r: &Run, o: &mut Outcome) -> Result<(), String> {
    let opts = options();
    let mut totals = (0, 0);
    let min_passes = if r.trace { 1 } else { MIN_PASSES };
    o.passes(r.seconds, min_passes, |o| {
        for i in 0..DESIGNS.len() {
            design_op(r, &opts, i, &mut totals, o)?;
        }
        if !r.trace {
            let t = Instant::now();
            let setups = o.setup_s.len();
            design_op(r, &opts, DIFFEQ, &mut totals, o)?;
            o.repeat_s += t.elapsed().as_secs_f64() - o.setup_s[setups..].iter().sum::<f64>();
        }
        Ok(())
    })?;
    let (samples_run, spilled) = totals;
    o.notes.push(format!(
        "synth_suite_s (s per pass over the three designs) = pass_s; \
         timing.samples_run {samples_run}, mc.spilled_bytes {spilled}"
    ));
    Ok(())
}

/// Sets up design `i`, runs the flow on it, checks the result, and
/// shadows it when tracing. `totals` sums GT3's Monte-Carlo samples and
/// the model checker's spilled bytes.
fn design_op(
    r: &Run,
    opts: &FlowOptions,
    i: usize,
    totals: &mut (u64, u64),
    o: &mut Outcome,
) -> Result<(), String> {
    let render = DESIGNS[i];
    let d = o.setup(|| render(Some(&mut Rng::for_input(r.seed, i as u64))))?;
    let t = Instant::now();
    let flow = Flow::new(d.program.cdfg.clone(), d.program.initial.clone());
    let res = flow.run(opts);
    let untraced = t.elapsed().as_secs_f64();
    o.op(&d.name, untraced);
    o.attempted += 1;
    let summary = match &res {
        Ok(out) => {
            totals.0 += out.timing_samples_run;
            totals.1 += out.mc_spilled_bytes;
            let s = FlowSummary::of(out);
            check(&d, &s, &out.cdfg, o);
            Ok(s)
        }
        Err(e) => {
            o.fail(&d.name, e);
            Err(e.to_string())
        }
    };
    if r.trace {
        shadow(&d, opts, summary, untraced, o);
    }
    Ok(())
}

fn check(d: &Design, s: &FlowSummary, g: &adcs_cdfg::Cdfg, o: &mut Outcome) {
    let mut verdicts = vec![d.check(g)];
    if d.name == "diffeq" {
        verdicts.push(checks::figure12(s));
        verdicts.push(checks::figure13(s));
    }
    if s.channels[2] > s.channels[0] {
        verdicts.push(Err(format!("channels grew: {:?}", s.channels)));
    }
    for e in verdicts.into_iter().filter_map(Result::err) {
        o.wrong(&d.name, e);
    }
}

/// Replays the run through the layers and checks it reached the same
/// result as the untraced flow.
pub fn shadow(
    d: &Design,
    opts: &FlowOptions,
    untraced: Result<FlowSummary, String>,
    untraced_s: f64,
    o: &mut Outcome,
) {
    let timing = TimingCache::new();
    let rep = replay::flow(
        &d.program.cdfg,
        &d.program.initial,
        opts,
        &timing,
        &o.layers,
    );
    o.layers
        .add("timing.canonical_runs", timing.canonical_runs() as f64);
    o.shadowed(untraced_s, rep.wall, rep.wall, rep.attributed);
    let replayed = rep.result.map(|f| f.summary);
    if replayed != untraced {
        o.wrong(
            &d.name,
            format!("traced replay {replayed:?} differs from the flow's {untraced:?}"),
        );
    }
}
