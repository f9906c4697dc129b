//! The random straight-line program strategy shared by the property
//! tests: a few statements over a small register set, bound onto 2-3
//! units.

use adcs_cdfg::benchmarks::RegFile;
use adcs_cdfg::builder::CdfgBuilder;
use adcs_cdfg::{Cdfg, Reg};
use proptest::prelude::*;

/// A random straight-line program over a small register set, with random
/// binding onto 2-3 units.
#[derive(Clone, Debug)]
pub struct Program {
    pub stmts: Vec<(usize, String)>,
    pub nfus: usize,
}

pub fn program_strategy() -> impl Strategy<Value = Program> {
    let regs = ["r0", "r1", "r2", "r3", "r4"];
    let ops = ["+", "-", "*"];
    let stmt = (0usize..5, 0usize..5, 0usize..3, 0usize..5, 0usize..3).prop_map(
        move |(d, a, op, b, fu)| {
            (
                fu,
                format!("{} := {} {} {}", regs[d], regs[a], ops[op], regs[b]),
            )
        },
    );
    (proptest::collection::vec(stmt, 1..12), 2usize..4).prop_map(|(stmts, nfus)| Program {
        stmts: stmts.into_iter().map(|(fu, s)| (fu % 3, s)).collect(),
        nfus,
    })
}

pub fn build(p: &Program) -> Cdfg {
    let mut b = CdfgBuilder::new();
    let fus: Vec<_> = (0..p.nfus).map(|i| b.add_fu(format!("FU{i}"))).collect();
    for (fu, s) in &p.stmts {
        b.stmt(fus[fu % p.nfus], s).unwrap();
    }
    b.finish().unwrap()
}

pub fn initial() -> RegFile {
    (0..5)
        .map(|i| (Reg::new(format!("r{i}")), i as i64 + 1))
        .collect()
}
