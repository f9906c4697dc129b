//! Property-based tests over randomly generated straight-line CDFGs: the
//! builder's derived constraints must always produce graphs that validate,
//! execute deterministically, and stay value-equivalent under GT2/GT4 and
//! arbitrary delay jitter.

#[path = "common/program.rs"]
mod program;

use adcs_cdfg::benchmarks::RegFile;
use adcs_sim::exec::{execute, ExecOptions};
use adcs_sim::DelayModel;
use program::{build, initial, program_strategy, Program};
use proptest::prelude::*;

/// Reference: execute the statements in program order.
fn reference(p: &Program) -> RegFile {
    let mut regs = initial();
    for (_, s) in &p.stmts {
        let stmt: adcs_cdfg::RtlStatement = s.parse().unwrap();
        let v = stmt.eval(|r| regs[r]);
        regs.insert(stmt.dest.clone(), v);
    }
    regs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_output_always_validates(p in program_strategy()) {
        let g = build(&p);
        prop_assert!(adcs_cdfg::validate::validate(&g).is_ok());
        prop_assert!(adcs_cdfg::validate::crossing_arcs(&g).is_empty());
    }

    #[test]
    fn execution_matches_program_order_semantics(p in program_strategy()) {
        let g = build(&p);
        let r = execute(&g, initial(), &DelayModel::uniform(1), &ExecOptions::default()).unwrap();
        prop_assert!(r.finished);
        let want = reference(&p);
        for (reg, v) in &want {
            prop_assert_eq!(r.registers.get(reg), Some(v), "{}", reg);
        }
    }

    #[test]
    fn execution_is_delay_insensitive(p in program_strategy(), seed in 0u64..32) {
        // The derived constraint arcs must make the dataflow outcome
        // independent of unit delays.
        let g = build(&p);
        let want = reference(&p);
        let delays = DelayModel::uniform(1).with_jitter(seed, 5);
        let r = execute(&g, initial(), &delays, &ExecOptions::default()).unwrap();
        for (reg, v) in &want {
            prop_assert_eq!(r.registers.get(reg), Some(v), "{}", reg);
        }
    }

    #[test]
    fn gt2_preserves_values(p in program_strategy(), seed in 0u64..16) {
        let mut g = build(&p);
        adcs::gt::gt2_remove_dominated(&mut g).unwrap();
        let want = reference(&p);
        let delays = DelayModel::uniform(1).with_jitter(seed, 4);
        let r = execute(&g, initial(), &delays, &ExecOptions::default()).unwrap();
        for (reg, v) in &want {
            prop_assert_eq!(r.registers.get(reg), Some(v), "{}", reg);
        }
    }

    #[test]
    fn gt2_only_removes_dominated_arcs(p in program_strategy()) {
        let mut g = build(&p);
        let before = g.arc_count();
        let rep = adcs::gt::gt2_remove_dominated(&mut g).unwrap();
        prop_assert_eq!(g.arc_count() + rep.removed.len(), before);
        // After GT2, no arc is dominated any more.
        for (id, _) in g.arcs() {
            prop_assert!(!adcs::gt::certain_dominated(&g, id));
        }
    }

    #[test]
    fn reach_cache_matches_fresh_bfs_under_mutation(
        p in program_strategy(),
        edits in proptest::collection::vec((0usize..64, 0usize..64, 0usize..3), 1..8),
        probes in proptest::collection::vec((0usize..64, 0usize..64, 0u32..2), 4..10),
    ) {
        // The memoized cache must stay coherent across arbitrary arc
        // insertions and removals: every answer equals a fresh BFS on the
        // current graph, with one long-lived cache spanning all edits
        // (invalidation rides on the graph's version stamp).
        use adcs_cdfg::analysis::{reaches_within, ReachCache};
        use adcs_cdfg::{ArcId, NodeId, Role};

        let mut g = build(&p);
        let cache = ReachCache::new();
        let nodes: Vec<NodeId> = g.nodes().map(|(id, _)| id).collect();
        prop_assert!(!nodes.is_empty());
        for &(a, b, action) in &edits {
            let arcs: Vec<ArcId> = g.arcs().map(|(id, _)| id).collect();
            match action {
                0 => {
                    let src = nodes[a % nodes.len()];
                    let dst = nodes[b % nodes.len()];
                    g.add_arc(src, dst, Role::Scheduling, a % 2 == 1);
                }
                1 if !arcs.is_empty() => {
                    g.remove_arc(arcs[a % arcs.len()]).unwrap();
                }
                _ => {}
            }
            let live: Vec<ArcId> = g.arcs().map(|(id, _)| id).collect();
            for &(x, y, w) in &probes {
                let src = nodes[x % nodes.len()];
                let dst = nodes[y % nodes.len()];
                let exclude = if x % 3 == 0 || live.is_empty() {
                    None
                } else {
                    Some(live[y % live.len()])
                };
                prop_assert_eq!(
                    cache.reaches_within(&g, src, dst, w, exclude),
                    reaches_within(&g, src, dst, w, exclude),
                    "cache diverged: {} -> {} within {} excluding {:?}",
                    src, dst, w, exclude
                );
            }
        }
        // The cache actually caches: with no interleaved edit, repeating a
        // query must be answered from memory.
        let hits_before = cache.hits();
        let src = nodes[0];
        let dst = nodes[nodes.len() - 1];
        let fresh = reaches_within(&g, src, dst, 1, None);
        prop_assert_eq!(cache.reaches_within(&g, src, dst, 1, None), fresh);
        prop_assert_eq!(cache.reaches_within(&g, src, dst, 1, None), fresh);
        prop_assert!(cache.hits() > hits_before);
    }

    #[test]
    fn gt4_preserves_values_with_moves(p in program_strategy(), seed in 0u64..8) {
        // Append register moves so GT4 has merge candidates.
        let mut p = p;
        p.stmts.push((0, "r4 := r0".to_string()));
        p.stmts.push((1, "r3 := r1".to_string()));
        let mut g = build(&p);
        adcs::gt::gt4_merge_assignments(&mut g).unwrap();
        let want = reference(&p);
        let delays = DelayModel::uniform(1).with_jitter(seed, 4);
        let r = execute(&g, initial(), &delays, &ExecOptions::default()).unwrap();
        for (reg, v) in &want {
            prop_assert_eq!(r.registers.get(reg), Some(v), "{}", reg);
        }
    }
}
