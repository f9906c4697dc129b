//! Seeded inputs. Every design reaches the program as generated `.adcs`
//! text, together with the register values a reference the flow did not
//! produce predicts for it: the pure-software models of
//! `adcs_cdfg::benchmarks`, or the small models written out below.
//!
//! The seed moves data values only, never control flow, so the work a
//! design costs is the same for every seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use adcs_cdfg::benchmarks::{
    diffeq_reference, gcd_reference, random_straight_line, DiffeqParams, RegFile,
};
use adcs_cdfg::node::NodeKind;
use adcs_cdfg::parse::{parse_program, ParsedProgram};
use adcs_cdfg::rtl::RtlStatement;
use adcs_cdfg::Cdfg;
use adcs_sim::exec::{execute, ExecOptions};
use adcs_sim::DelayModel;

/// SplitMix64: a small deterministic generator for the workload seeds.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    /// The stream for input number `input` of a workload run with `seed`.
    pub fn for_input(seed: u64, input: u64) -> Self {
        let mut r = Rng::new(seed);
        r.0 ^= input.wrapping_mul(0xD1B5_4A32_D192_ED03);
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Renders one design, drawing its values from the generator if given.
pub type Render = fn(Option<&mut Rng>) -> Result<Design, String>;

/// One generated design: its text, the parsed program, and the final
/// registers its reference model predicts.
#[derive(Clone)]
pub struct Design {
    pub name: String,
    pub text: String,
    pub program: ParsedProgram,
    pub expect: Vec<(String, i64)>,
}

impl Design {
    fn new(name: &str, text: String, expect: Vec<(String, i64)>) -> Result<Design, String> {
        let program = parse_program(&text).map_err(|e| format!("{name}: {e}"))?;
        let d = Design {
            name: name.to_string(),
            text,
            program,
            expect,
        };
        // The rendered program must itself compute what the reference
        // predicts, or a later mismatch would blame the flow wrongly.
        d.check(&d.program.cdfg)
            .map_err(|e| format!("{name} as rendered: {e}"))?;
        Ok(d)
    }

    /// Simulates `g` from this design's initial registers and compares the
    /// registers the reference fixes.
    pub fn check(&self, g: &Cdfg) -> Result<(), String> {
        check_registers(g, &self.program.initial, &self.expect)
    }
}

/// Simulates `g` under unit delays and under a jittered delay model and
/// compares the named registers with `expect` after each run.
pub fn check_registers(
    g: &Cdfg,
    initial: &RegFile,
    expect: &[(String, i64)],
) -> Result<(), String> {
    for delays in [
        DelayModel::uniform(1),
        DelayModel::uniform(2).with_jitter(7, 3),
    ] {
        let r = execute(g, initial.clone(), &delays, &ExecOptions::default())
            .map_err(|e| format!("simulation: {e}"))?;
        for (reg, want) in expect {
            let got = r.register(reg);
            if got != Some(*want) {
                return Err(format!(
                    "register {reg}: simulated {got:?}, reference {want}"
                ));
            }
        }
    }
    Ok(())
}

fn inits(text: &mut String, regs: &[(&str, i64)]) {
    for (r, v) in regs {
        let _ = writeln!(text, "init {r} {v}");
    }
    text.push('\n');
}

/// DIFFEQ (Figure 1's schedule and binding). The seed picks `y0` and
/// `u0`; `x0`, `dx` and `a` stay at five iterations.
pub fn diffeq(rng: Option<&mut Rng>) -> Result<Design, String> {
    let mut p = DiffeqParams::default();
    if let Some(rng) = rng {
        p.y0 = rng.range(1, 9);
        p.u0 = rng.range(1, 9);
    }
    let mut t = String::from("fu ALU1\nfu MUL1\nfu MUL2\nfu ALU2\n\n");
    inits(
        &mut t,
        &[
            ("X", p.x0),
            ("Y", p.y0),
            ("U", p.u0),
            ("X1", p.x0),
            ("dx", p.dx),
            ("2dx", 2 * p.dx),
            ("a", p.a),
            ("C", i64::from(p.x0 < p.a)),
            ("A", 0),
            ("B", 0),
            ("M1", 0),
            ("M2", 0),
        ],
    );
    t.push_str(
        "stmt ALU1 B := 2dx + dx
loop ALU2 C
  stmt MUL1 M1 := U * X1
  stmt MUL2 M2 := U * dx
  stmt ALU2 X := X + dx
  stmt ALU1 A := Y + M1
  stmt ALU2 Y := Y + M2
  stmt MUL1 M1 := A * B
  stmt ALU2 X1 := X
  stmt ALU1 U := U - M1
  stmt ALU2 C := X < a
endloop ALU2
",
    );
    let (x, y, u) = diffeq_reference(p);
    Design::new(
        "diffeq",
        t,
        vec![("X".into(), x), ("Y".into(), y), ("U".into(), u)],
    )
}

/// Euclid's subtractive GCD on `(4k, 3k)`: three subtractions for every
/// `k`, so the seed moves values but not the loop count.
pub fn gcd(rng: Option<&mut Rng>) -> Result<Design, String> {
    let k = rng.map_or(12, |r| r.range(2, 16));
    let (x0, y0) = (4 * k, 3 * k);
    let mut t = String::from("fu CMP\nfu SUB\n\n");
    inits(&mut t, &[("x", x0), ("y", y0), ("c", 1), ("d", 0)]);
    t.push_str(
        "stmt CMP c := x != y
loop CMP c
  stmt CMP d := x < y
  if CMP d
    stmt SUB y := y - x
  else
    stmt SUB x := x - y
  endif CMP
  stmt CMP c := x != y
endloop CMP
",
    );
    let g = gcd_reference(x0, y0);
    Design::new("gcd", t, vec![("x".into(), g), ("y".into(), g)])
}

/// The 4-tap FIR loop on two multipliers and one adder (one iteration).
pub fn fir(rng: Option<&mut Rng>) -> Result<Design, String> {
    let (mut xs, mut cs) = ([1, 2, 3, 4], [4, 3, 2, 1]);
    if let Some(rng) = rng {
        for v in xs.iter_mut().chain(cs.iter_mut()) {
            *v = rng.range(1, 9);
        }
    }
    let mut t = String::from("fu MUL1\nfu MUL2\nfu ALU\n\n");
    inits(
        &mut t,
        &[
            ("x0", xs[0]),
            ("x1", xs[1]),
            ("x2", xs[2]),
            ("x3", xs[3]),
            ("c0", cs[0]),
            ("c1", cs[1]),
            ("c2", cs[2]),
            ("c3", cs[3]),
            ("p0", 0),
            ("p1", 0),
            ("acc", 0),
            ("n", 2),
            ("one", 1),
            ("k", 1),
        ],
    );
    t.push_str(
        "stmt ALU k := n != one
loop ALU k
  stmt MUL1 p0 := x0 * c0
  stmt MUL2 p1 := x1 * c1
  stmt ALU acc := p0 + p1
  stmt MUL1 p0 := x2 * c2
  stmt MUL2 p1 := x3 * c3
  stmt ALU acc := acc + p0
  stmt ALU acc := acc + p1
  stmt ALU n := n - one
  stmt ALU k := n != one
endloop ALU
",
    );
    let acc: i64 = xs.iter().zip(cs).map(|(x, c)| x * c).sum();
    Design::new(
        "fir",
        t,
        vec![("acc".into(), acc), ("n".into(), 1), ("k".into(), 0)],
    )
}

/// The shape of Figure 8 (GT5.2 concurrency reduction).
pub fn figure8(rng: Option<&mut Rng>) -> Result<Design, String> {
    let (x, y) = rng.map_or((7, 3), |r| (r.range(1, 9), r.range(1, 9)));
    let mut t = String::from("fu ALU1\nfu MUL1\nfu ALU2\n\n");
    inits(
        &mut t,
        &[
            ("x", x),
            ("y", y),
            ("a", 0),
            ("w", 0),
            ("m", 0),
            ("m2", 0),
            ("s", 0),
            ("t", 0),
        ],
    );
    t.push_str(
        "stmt ALU1 a := x + y
stmt ALU1 w := x - y
stmt MUL1 m := a * a
stmt MUL1 m2 := w * w
stmt ALU2 s := m + w
stmt ALU2 t := m2 + s
",
    );
    let (a, w) = (x + y, x - y);
    let s = a * a + w;
    Design::new("figure8", t, vec![("s".into(), s), ("t".into(), w * w + s)])
}

/// A `random_straight_line` design rendered to text: statements in
/// program order, each on the unit the generator bound it to. The
/// generator's `structure` seed fixes the program; `rng` picks the
/// initial register values, and the final ones are recomputed by
/// evaluating the statements in program order.
pub fn random(structure: u64, n_ops: usize, n_fus: usize, rng: &mut Rng) -> Result<Design, String> {
    let d = random_straight_line(structure, n_ops, n_fus).map_err(|e| e.to_string())?;
    let mut regs: BTreeMap<String, i64> = d
        .initial
        .keys()
        .map(|r| (r.name().to_string(), rng.range(1, 9)))
        .collect();
    let mut t = String::new();
    for (_, fu) in d.cdfg.fus() {
        let _ = writeln!(t, "fu {}", fu.name());
    }
    let init: Vec<(&str, i64)> = regs.iter().map(|(r, v)| (r.as_str(), *v)).collect();
    inits(&mut t, &init);
    let mut ops: Vec<_> = d
        .cdfg
        .nodes()
        .filter_map(|(_, n)| match (&n.kind, n.fu) {
            (NodeKind::Op { stmt, .. } | NodeKind::Assign { stmt }, Some(fu)) => {
                Some((n.seq, fu, stmt.to_string()))
            }
            _ => None,
        })
        .collect();
    ops.sort_by_key(|(seq, _, _)| *seq);
    for (_, fu, stmt) in ops {
        let unit = d.cdfg.fu(fu).map_err(|e| e.to_string())?.name().to_string();
        let _ = writeln!(t, "stmt {unit} {stmt}");
    }
    for text in &d.statements {
        let stmt: RtlStatement = text.parse().map_err(|e| format!("{text}: {e}"))?;
        let v = stmt.eval(|r| regs[r.name()]);
        regs.insert(stmt.dest.name().to_string(), v);
    }
    Design::new(
        &format!("random-{structure}"),
        t,
        regs.into_iter().collect(),
    )
}
