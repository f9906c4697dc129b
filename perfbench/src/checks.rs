//! Output checks against the paper's published DIFFEQ figures — the
//! exact Figure 12 channel column and the Figure 12/13 orderings that
//! `tests/figure_numbers.rs` pins.

use adcs::yun::FIGURE_12;

use crate::replay::{FlowSummary, Machines};

fn states(m: &Machines, name: &str) -> Result<usize, String> {
    m.iter()
        .find(|(n, _, _)| n == name)
        .map(|(_, s, _)| *s)
        .ok_or_else(|| format!("no controller {name}"))
}

/// Figure 12: 17 → 5 → 5 channels, every controller shrinks at every
/// stage, ALU2 is the largest and MUL2 the smallest, at least 2x overall.
pub fn figure12(s: &FlowSummary) -> Result<(), String> {
    let want = [
        FIGURE_12[0].channels,
        FIGURE_12[1].channels,
        FIGURE_12[2].channels,
    ];
    if s.channels != want {
        return Err(format!("channels {:?}, Figure 12 has {want:?}", s.channels));
    }
    for name in ["ALU1", "ALU2", "MUL1", "MUL2"] {
        let [u, g, l] = [0, 1, 2].map(|i| states(&s.machines[i], name));
        let (u, g, l) = (u?, g?, l?);
        if !(u > g && g > l) {
            return Err(format!("{name} states {u} -> {g} -> {l} do not shrink"));
        }
    }
    for m in &s.machines {
        if states(m, "ALU2")? < states(m, "ALU1")? || states(m, "MUL2")? > states(m, "MUL1")? {
            return Err(format!("controller size order broken: {m:?}"));
        }
    }
    let total = |m: &Machines| m.iter().map(|(_, st, _)| st).sum::<usize>();
    if total(&s.machines[2]) * 2 > total(&s.machines[0]) {
        return Err("less than 2x total state reduction".into());
    }
    Ok(())
}

/// Figure 13's gate-level ordering: MUL2 is the cheapest controller and
/// ALU2 costs more than MUL1.
pub fn figure13(s: &FlowSummary) -> Result<(), String> {
    let lit = |name: &str| {
        s.literals
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, l)| *l)
            .ok_or_else(|| format!("no logic for {name}"))
    };
    let (alu1, alu2, mul1, mul2) = (lit("ALU1")?, lit("ALU2")?, lit("MUL1")?, lit("MUL2")?);
    if mul2 < mul1 && mul2 < alu1 && mul1 < alu2 {
        Ok(())
    } else {
        Err(format!(
            "literal order broken: ALU1 {alu1}, ALU2 {alu2}, MUL1 {mul1}, MUL2 {mul2}"
        ))
    }
}
