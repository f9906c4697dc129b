//! Exhaustive-interleaving verification of the DIFFEQ controller
//! networks (`adcs::mc`): where the randomized timed simulations sample
//! delay assignments, these tests cover *all* of them — and pin down
//! exactly which timing assumptions the paper's architecture (§2.2) and
//! optimizations (§5) rely on.

use adcs::channel::ChannelMap;
use adcs::extract::{extract, ExpansionStyle, ExtractOptions, Extraction};
use adcs::flow::{Flow, FlowOptions};
use adcs::mc::{model_check_system, McOptions, McOrder, McVerdict, McViolationKind};
use adcs::system::{system_parts, SystemDelays, SystemParts};
use adcs_cdfg::benchmarks::{diffeq, diffeq_reference, DiffeqDesign, DiffeqParams};

/// One Euler iteration keeps the exhaustive space tractable.
fn one_iter() -> DiffeqParams {
    DiffeqParams {
        x0: 0,
        y0: 1,
        u0: 2,
        dx: 1,
        a: 1,
    }
}

fn baseline_parts(d: &DiffeqDesign) -> (ChannelMap, Extraction) {
    let channels = ChannelMap::per_arc(&d.cdfg).unwrap();
    let ex = extract(
        &d.cdfg,
        &channels,
        &ExtractOptions {
            style: ExpansionStyle::Sequential,
        },
    )
    .unwrap();
    (channels, ex)
}

fn check(parts: &SystemParts<'_>, opts: &McOptions) -> McVerdict {
    model_check_system(parts, opts).unwrap()
}

#[test]
fn unoptimized_network_is_delay_insensitive_under_the_setup_assumption() {
    // The 17-channel baseline quiesces with the reference result under
    // EVERY wire/datapath delay assignment, given only the burst-mode
    // setup-time assumption on sampled condition levels.
    let params = one_iter();
    let d = diffeq(params).unwrap();
    let (channels, ex) = baseline_parts(&d);
    let parts = system_parts(
        &d.cdfg,
        &channels,
        &ex,
        d.initial.clone(),
        SystemDelays::default(),
    )
    .unwrap();
    match check(&parts, &McOptions::default()) {
        McVerdict::Verified { outcome, stats } => {
            let get = |n: &str| {
                outcome
                    .iter()
                    .find(|(r, _)| r.name() == n)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            let (x, y, u) = diffeq_reference(params);
            assert_eq!((get("X"), get("Y"), get("U")), (x, y, u));
            assert_eq!(stats.terminals, 1, "a unique quiescent outcome");
            assert!(stats.states > 10_000, "nontrivial space: {stats:?}");
        }
        other => panic!("expected full verification, got {other:?}"),
    }
}

#[test]
fn the_level_setup_assumption_is_load_bearing_even_for_the_baseline() {
    // With condition-level updates racing the rest of the network, some
    // interleaving samples a stale level and diverges — the architecture's
    // fundamental-mode assumption is not introduced by the optimizations.
    let d = diffeq(one_iter()).unwrap();
    let (channels, ex) = baseline_parts(&d);
    let parts = system_parts(
        &d.cdfg,
        &channels,
        &ex,
        d.initial.clone(),
        SystemDelays::default(),
    )
    .unwrap();
    let opts = McOptions {
        synchronous_levels: false,
        ..McOptions::default()
    };
    match check(&parts, &opts) {
        McVerdict::Violation { kind, .. } => {
            assert_eq!(kind, McViolationKind::DivergentOutcome)
        }
        other => panic!("expected a level race, got {other:?}"),
    }
}

#[test]
fn the_optimized_network_relies_on_relative_timing() {
    // The GT5-multiplexed channels are only safe because operation
    // latency exceeds a wire hop (§5). Dropping the timing regime lets the
    // checker put two events in flight on one multiplexed channel wire —
    // the transmission interference the paper's analysis excludes. The
    // violating interleaving is deep and narrow (it sits past wave 19 of a
    // space whose 19th wave is already >10⁶ states wide), so the hunt uses
    // the depth-first order: the wave search would exhaust any affordable
    // budget before reaching it.
    let d = diffeq(one_iter()).unwrap();
    let out = Flow::new(d.cdfg.clone(), d.initial.clone())
        .run(&FlowOptions::default())
        .unwrap();
    let ex = Extraction {
        controllers: out.controllers.clone(),
    };
    let parts = system_parts(
        &out.cdfg,
        &out.channels,
        &ex,
        d.initial.clone(),
        SystemDelays::default(),
    )
    .unwrap();
    let opts = McOptions {
        synchronous_levels: false,
        order: McOrder::Depth,
        ..McOptions::default()
    };
    match check(&parts, &opts) {
        McVerdict::Violation {
            kind,
            detail,
            stats,
            ..
        } => {
            assert_eq!(kind, McViolationKind::WireInterference, "{detail}");
            assert!(detail.contains("ch"), "on a channel wire: {detail}");
            assert!(stats.states < 4_000_000, "found within budget: {stats:?}");
        }
        other => panic!("expected wire interference, got {other:?}"),
    }
}

#[test]
fn the_optimized_zero_iteration_run_verifies_without_any_assumption() {
    // When the loop body never executes, the optimized network's straight
    // path is fully delay-insensitive — levels racing included.
    let params = DiffeqParams {
        x0: 3,
        y0: 1,
        u0: 2,
        dx: 1,
        a: 3,
    };
    let d = diffeq(params).unwrap();
    let out = Flow::new(d.cdfg.clone(), d.initial.clone())
        .run(&FlowOptions::default())
        .unwrap();
    let ex = Extraction {
        controllers: out.controllers.clone(),
    };
    let parts = system_parts(
        &out.cdfg,
        &out.channels,
        &ex,
        d.initial.clone(),
        SystemDelays::default(),
    )
    .unwrap();
    for sync in [true, false] {
        let opts = McOptions {
            synchronous_levels: sync,
            ..McOptions::default()
        };
        match check(&parts, &opts) {
            McVerdict::Verified { outcome, .. } => {
                let x = outcome.iter().find(|(r, _)| r.name() == "X").unwrap().1;
                assert_eq!(x, 3);
            }
            other => panic!("sync={sync}: expected verification, got {other:?}"),
        }
    }
}

#[test]
fn the_full_optimized_space_exceeds_any_small_budget() {
    // Documenting the scale: GT1's cross-iteration overlap makes even the
    // one-iteration optimized network's interleaving space huge (probed
    // past 6M states); a small budget must report Budget, not a false
    // verdict either way.
    let d = diffeq(one_iter()).unwrap();
    let out = Flow::new(d.cdfg.clone(), d.initial.clone())
        .run(&FlowOptions::default())
        .unwrap();
    let ex = Extraction {
        controllers: out.controllers.clone(),
    };
    let parts = system_parts(
        &out.cdfg,
        &out.channels,
        &ex,
        d.initial.clone(),
        SystemDelays::default(),
    )
    .unwrap();
    let opts = McOptions {
        max_states: 20_000,
        ..McOptions::default()
    };
    match check(&parts, &opts) {
        McVerdict::Budget(stats) => {
            // The reported count is clamped to the budget — it never
            // overshoots by the remainder of the wave that hit it.
            assert_eq!(stats.states, 20_000, "{stats:?}");
            assert!(stats.batches >= 1, "{stats:?}");
        }
        other => panic!("expected budget, got {other:?}"),
    }
}

#[test]
fn thread_count_never_changes_the_verdict_on_a_real_system() {
    // The sharded-frontier search merges per-chunk discoveries in global
    // state order, so worker count is unobservable: the GCD baseline must
    // produce bit-identical verdicts (outcome, stats, trace) at 1 and 3
    // threads.
    use adcs_cdfg::benchmarks::gcd;
    let d = gcd(2, 1).unwrap();
    let channels = ChannelMap::per_arc(&d.cdfg).unwrap();
    let ex = extract(
        &d.cdfg,
        &channels,
        &ExtractOptions {
            style: ExpansionStyle::Sequential,
        },
    )
    .unwrap();
    let parts = system_parts(
        &d.cdfg,
        &channels,
        &ex,
        d.initial.clone(),
        SystemDelays::default(),
    )
    .unwrap();
    let at = |threads| {
        let opts = McOptions {
            threads: Some(threads),
            ..McOptions::default()
        };
        format!("{:?}", check(&parts, &opts))
    };
    assert_eq!(at(1), at(3));
}

#[test]
fn a_repeat_sweep_is_served_from_the_warm_mc_cache() {
    // Exploring the same design twice over one Flow: the second sweep's
    // model checks must all be answered by the cross-candidate McCache —
    // zero new searches — and rank the candidates identically.
    use adcs::explore::{explore_exhaustive_flow, ExploreOptions, Objective};
    use adcs::flow::Flow;
    let d = diffeq(one_iter()).unwrap();
    let flow = Flow::new(d.cdfg, d.initial);
    let base = FlowOptions {
        verify_seeds: 2,
        model_check: true,
        mc: McOptions {
            max_states: 2_000,
            ..McOptions::default()
        },
        ..FlowOptions::default()
    };
    let opts = ExploreOptions::sequential();
    let cold =
        explore_exhaustive_flow(&flow, &base, Objective::ChannelsThenStates, opts.clone()).unwrap();
    let misses_cold = flow.mc_cache().misses();
    let hits_cold = flow.mc_cache().hits();
    let runs_cold: u64 = cold.iter().map(|p| p.mc_runs).sum();
    assert_eq!(runs_cold, cold.len() as u64, "every candidate checked once");
    assert!(misses_cold >= 1);
    let warm = explore_exhaustive_flow(&flow, &base, Objective::ChannelsThenStates, opts).unwrap();
    assert_eq!(
        flow.mc_cache().misses(),
        misses_cold,
        "the repeat sweep must not run a single new search"
    );
    let warm_runs: u64 = warm.iter().map(|p| p.mc_runs).sum();
    let warm_hits = flow.mc_cache().hits() - hits_cold;
    assert!(
        warm_hits * 2 >= warm_runs,
        "warm sweep skipped {warm_hits}/{warm_runs} checks — expected >= 50%"
    );
    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.config, w.config, "warm sweep must rank identically");
        assert_eq!(c.score, w.score);
        assert_eq!(c.mc_states, w.mc_states, "cached stats are replayed");
    }
}

#[test]
fn gcd_baseline_with_conditionals_is_delay_insensitive() {
    // The checker also covers IF/ELSE decision distribution: the
    // unoptimized GCD network (conditional branches inside the loop)
    // verifies for all delays under the setup-time assumption, landing on
    // gcd(2,1) = 1 in every interleaving.
    use adcs_cdfg::benchmarks::{gcd, gcd_reference};
    let d = gcd(2, 1).unwrap();
    let channels = ChannelMap::per_arc(&d.cdfg).unwrap();
    let ex = extract(
        &d.cdfg,
        &channels,
        &ExtractOptions {
            style: ExpansionStyle::Sequential,
        },
    )
    .unwrap();
    let parts = system_parts(
        &d.cdfg,
        &channels,
        &ex,
        d.initial.clone(),
        SystemDelays::default(),
    )
    .unwrap();
    match check(&parts, &McOptions::default()) {
        McVerdict::Verified { outcome, stats } => {
            let x = outcome.iter().find(|(r, _)| r.name() == "x").unwrap().1;
            assert_eq!(x, gcd_reference(2, 1));
            assert_eq!(stats.terminals, 1);
        }
        other => panic!("expected verification, got {other:?}"),
    }
}

/// The verdicts `pinned_real_system_verdicts` renders, one
/// `name<TAB>{verdict:?}` line each, in order.
const PINNED: &str = include_str!("data/mc_pinned_verdicts.txt");

/// A straight-line random program whose optimized network has two events
/// in flight on one multiplexed channel within the flow's bounded budget.
fn failing_random_parts() -> (adcs::flow::FlowOutcome, adcs_cdfg::benchmarks::RandomDesign) {
    let d = adcs_cdfg::benchmarks::random_straight_line(8, 8, 3).unwrap();
    let out = Flow::new(d.cdfg.clone(), d.initial.clone())
        .run(&FlowOptions::default())
        .unwrap();
    (out, d)
}

#[test]
fn pinned_real_system_verdicts() {
    // Byte-for-byte verdicts (outcome or detail, trace, and every
    // statistic) of checks on real SystemDatapath networks. Any change to
    // delivery semantics, visit order, or the counters shows up here.
    let mut got: Vec<(String, String)> = Vec::new();
    let mut pin = |name: &str, v: McVerdict| got.push((name.to_string(), format!("{v:?}")));

    let d = diffeq(one_iter()).unwrap();
    let (channels, ex) = baseline_parts(&d);
    let parts = system_parts(
        &d.cdfg,
        &channels,
        &ex,
        d.initial.clone(),
        SystemDelays::default(),
    )
    .unwrap();
    pin("diffeq_baseline_por", check(&parts, &McOptions::default()));
    let full = McOptions {
        por: false,
        ..McOptions::default()
    };
    pin("diffeq_baseline_full", check(&parts, &full));
    let race = McOptions {
        synchronous_levels: false,
        ..McOptions::default()
    };
    pin("diffeq_baseline_level_race", check(&parts, &race));

    let out = Flow::new(d.cdfg.clone(), d.initial.clone())
        .run(&FlowOptions::default())
        .unwrap();
    let ex = Extraction {
        controllers: out.controllers.clone(),
    };
    let parts = system_parts(
        &out.cdfg,
        &out.channels,
        &ex,
        d.initial.clone(),
        SystemDelays::default(),
    )
    .unwrap();
    let hunt = McOptions {
        synchronous_levels: false,
        order: McOrder::Depth,
        ..McOptions::default()
    };
    pin("diffeq_optimized_interference", check(&parts, &hunt));

    use adcs_cdfg::benchmarks::gcd;
    let g = gcd(2, 1).unwrap();
    let channels = ChannelMap::per_arc(&g.cdfg).unwrap();
    let ex = extract(
        &g.cdfg,
        &channels,
        &ExtractOptions {
            style: ExpansionStyle::Sequential,
        },
    )
    .unwrap();
    let parts = system_parts(
        &g.cdfg,
        &channels,
        &ex,
        g.initial.clone(),
        SystemDelays::default(),
    )
    .unwrap();
    pin("gcd_baseline", check(&parts, &McOptions::default()));

    let (out, r) = failing_random_parts();
    let ex = Extraction {
        controllers: out.controllers.clone(),
    };
    let parts = system_parts(
        &out.cdfg,
        &out.channels,
        &ex,
        r.initial.clone(),
        SystemDelays::default(),
    )
    .unwrap();
    pin(
        "random_8_optimized",
        check(&parts, &FlowOptions::default().mc),
    );

    let rendered: String = got.iter().map(|(n, v)| format!("{n}\t{v}\n")).collect();
    if rendered != PINNED {
        let moved: Vec<&str> = got
            .iter()
            .filter(|(n, v)| !PINNED.contains(&format!("{n}\t{v}\n")))
            .map(|(n, _)| n.as_str())
            .collect();
        panic!("pinned verdicts moved: {moved:?}; they now render as\n{rendered}");
    }
}
