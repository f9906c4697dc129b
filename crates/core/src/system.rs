//! End-to-end system simulation: the extracted controllers, wired by
//! their channels, driving a behavioural datapath — the paper's target
//! architecture (Figure 2) in executable form.
//!
//! The datapath reacts to each controller's local handshakes: mux selects
//! and register-mux selects acknowledge after a small delay, the unit
//! `Go` computes the node's RTL statement (acknowledging after the unit
//! latency), and the register write latches the value and updates the
//! condition levels. Running the network to quiescence and comparing the
//! final register file against the software reference validates the whole
//! synthesis result, controllers included.

use std::collections::HashMap;

use adcs_cdfg::benchmarks::RegFile;
use adcs_cdfg::{Cdfg, NodeId, Reg};
use adcs_sim::network::{Datapath, DatapathResponse, Network, Wire, WireEnd};
use adcs_sim::SimError;
use adcs_xbm::SignalId;

use crate::channel::ChannelMap;
use crate::error::SynthError;
use crate::extract::{ControllerSpec, Extraction, LocalRole, SignalRole};
use crate::mc::{McAction, McDatapath, McDatapathSpec};

/// Per-unit latency used for `Go` acknowledges.
#[derive(Clone, Debug)]
pub struct SystemDelays {
    /// Latency of a unit operation (`GoReq+ .. GoAck+`).
    pub op: u64,
    /// Latency of mux selects, register writes, and wire hops.
    pub small: u64,
}

impl Default for SystemDelays {
    fn default() -> Self {
        SystemDelays { op: 3, small: 1 }
    }
}

/// The behavioural datapath shared by all controllers.
#[derive(Clone)]
pub struct SystemDatapath {
    regs: RegFile,
    /// `(machine, signal)` -> what to do (LT5-forked wires carry several).
    actions: HashMap<(usize, u32), Vec<Action>>,
    /// Condition level wires to refresh when a register is written:
    /// `(machine, signal, register)`.
    levels: Vec<(usize, SignalId, Reg)>,
    /// Statement bodies by `(node, stmt index)`.
    stmts: HashMap<(NodeId, usize), adcs_cdfg::RtlStatement>,
    delays: SystemDelays,
    /// Total register writes performed (a progress metric).
    pub writes: usize,
}

#[derive(Clone, Copy, Debug, Hash)]
enum Action {
    /// Acknowledge on the given signal after the small delay.
    AckSmall(SignalId),
    /// Acknowledge after the op delay (unit completion).
    AckOp(SignalId),
    /// Execute the statement `(node, stmt)` and then acknowledge.
    Write(NodeId, usize, SignalId),
}

impl SystemDatapath {
    /// Final register values.
    pub fn registers(&self) -> &RegFile {
        &self.regs
    }

    /// Reads one register by name.
    pub fn register(&self, name: &str) -> Option<i64> {
        self.regs.get(&Reg::new(name)).copied()
    }

    /// Hashes everything that determines how this datapath behaves under
    /// the model checker: actions, statement bodies, condition-level
    /// bindings, and the current register file — all in sorted order so
    /// the digest is map-iteration independent. Delays are excluded (the
    /// checker explores all delivery orders), as is the `writes`
    /// diagnostic counter.
    pub fn behavior_hash<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        let mut acts: Vec<(&(usize, u32), &Vec<Action>)> = self.actions.iter().collect();
        acts.sort_by_key(|(k, _)| **k);
        acts.hash(h);
        let mut lv: Vec<(usize, usize, &Reg)> = self
            .levels
            .iter()
            .map(|(m, s, r)| (*m, s.index(), r))
            .collect();
        lv.sort();
        lv.hash(h);
        let mut st: Vec<(usize, usize, &adcs_cdfg::RtlStatement)> = self
            .stmts
            .iter()
            .map(|(&(n, i), s)| (n.index(), i, s))
            .collect();
        st.sort_by_key(|&(n, i, _)| (n, i));
        st.hash(h);
        let mut regs: Vec<(&Reg, i64)> = self.regs.iter().map(|(r, &v)| (r, v)).collect();
        regs.sort();
        regs.hash(h);
    }

    /// The condition-level wire ends this datapath refreshes on register
    /// writes, as `(machine, signal)` pairs.
    pub fn level_ends(&self) -> Vec<(usize, SignalId)> {
        self.levels.iter().map(|&(m, s, _)| (m, s)).collect()
    }
}

impl McDatapath for SystemDatapath {
    /// The register file, the statement bodies (sorted by node and
    /// statement), and the action table with delays dropped.
    fn spec(&self) -> McDatapathSpec {
        let mut keys: Vec<&(NodeId, usize)> = self.stmts.keys().collect();
        keys.sort_by_key(|&&(n, i)| (n.index(), i));
        let index: HashMap<&(NodeId, usize), usize> =
            keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut actions: Vec<((usize, u32), Vec<McAction>)> = self
            .actions
            .iter()
            .map(|(&key, list)| {
                let list = list
                    .iter()
                    .map(|a| match *a {
                        Action::AckSmall(ack) | Action::AckOp(ack) => McAction::Ack(ack),
                        Action::Write(node, stmt, ack) => McAction::Write {
                            stmt: index.get(&(node, stmt)).copied(),
                            ack,
                        },
                    })
                    .collect();
                (key, list)
            })
            .collect();
        actions.sort_by_key(|(key, _)| *key);
        McDatapathSpec {
            regs: self.regs.iter().map(|(r, &v)| (r.clone(), v)).collect(),
            stmts: keys.iter().map(|k| self.stmts[k].clone()).collect(),
            actions,
            levels: self.levels.clone(),
        }
    }
}

impl Datapath for SystemDatapath {
    fn on_output(
        &mut self,
        machine: usize,
        signal: SignalId,
        value: bool,
        _time: u64,
    ) -> DatapathResponse {
        let Some(actions) = self.actions.get(&(machine, signal.index() as u32)).cloned() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for action in actions {
            match action {
                Action::AckSmall(ack) => out.push((machine, ack, value, self.delays.small)),
                Action::AckOp(ack) => out.push((machine, ack, value, self.delays.op)),
                Action::Write(node, stmt, ack) => {
                    out.push((machine, ack, value, self.delays.small));
                    if value {
                        // Rising write request: latch the statement's value.
                        if let Some(s) = self.stmts.get(&(node, stmt)) {
                            let v = s.eval(|r| self.regs.get(r).copied().unwrap_or(0));
                            self.regs.insert(s.dest.clone(), v);
                            self.writes += 1;
                            // Refresh condition levels watching this register.
                            for (m, lvl, reg) in &self.levels {
                                if *reg == s.dest {
                                    out.push((*m, *lvl, v != 0, self.delays.small));
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// A ready-to-run system: controllers + wires + datapath.
pub struct System<'m> {
    network: Network<'m, SystemDatapath>,
    /// Environment injections: `(machine, signal)` to toggle at start.
    kicks: Vec<(usize, SignalId)>,
    /// Initial condition levels: `(machine, signal, value)`.
    level_init: Vec<(usize, SignalId, bool)>,
}

/// The constituents of a system, before they are wired into a running
/// [`Network`]: the controllers, the channel wires, the behavioural
/// datapath, and the environment stimuli. [`build_system`] assembles these
/// into a [`System`]; `crate::mc` explores them exhaustively instead.
pub struct SystemParts<'m> {
    /// The controller machines, network-indexed.
    pub machines: Vec<&'m adcs_xbm::XbmMachine>,
    /// Channel wires (one per channel, possibly multi-way).
    pub wires: Vec<Wire>,
    /// The behavioural datapath, seeded with the initial register file.
    pub datapath: SystemDatapath,
    /// Environment start events: `(machine, signal)` to toggle once.
    pub kicks: Vec<(usize, SignalId)>,
    /// Initial condition levels: `(machine, signal, value)`.
    pub level_init: Vec<(usize, SignalId, bool)>,
}

/// Builds the system for an extraction.
///
/// # Errors
///
/// [`SynthError::Extract`] on inconsistent channel/signal wiring.
pub fn build_system<'m>(
    g: &Cdfg,
    channels: &ChannelMap,
    extraction: &'m Extraction,
    initial: RegFile,
    delays: SystemDelays,
) -> Result<System<'m>, SynthError> {
    let parts = system_parts(g, channels, extraction, initial, delays)?;
    let network = Network::new_from_refs(parts.machines, parts.wires, parts.datapath)?;
    Ok(System {
        network,
        kicks: parts.kicks,
        level_init: parts.level_init,
    })
}

/// Computes the wiring, datapath and stimuli of the system for an
/// extraction, without starting a simulator.
///
/// # Errors
///
/// [`SynthError::Extract`] on inconsistent channel/signal wiring.
pub fn system_parts<'m>(
    g: &Cdfg,
    channels: &ChannelMap,
    extraction: &'m Extraction,
    initial: RegFile,
    delays: SystemDelays,
) -> Result<SystemParts<'m>, SynthError> {
    let ctrls: &[ControllerSpec] = &extraction.controllers;
    // Wires: one per channel, from the sender's chN output to every
    // receiver's chN input.
    let mut wires = Vec::new();
    for (ci, ch) in channels.channels().iter().enumerate() {
        let sender_idx = ctrls
            .iter()
            .position(|c| c.fu == ch.sender)
            .ok_or_else(|| SynthError::Extract(format!("no controller for sender of ch{ci}")))?;
        let from_sig = ctrls[sender_idx].channel_signal(ci).ok_or_else(|| {
            SynthError::Extract(format!(
                "controller {} does not drive ch{ci}",
                ctrls[sender_idx].machine.name()
            ))
        })?;
        let mut to = Vec::new();
        for &recv in &ch.receivers {
            let ri = ctrls.iter().position(|c| c.fu == recv).ok_or_else(|| {
                SynthError::Extract(format!("no controller for receiver of ch{ci}"))
            })?;
            let sig = ctrls[ri].channel_signal(ci).ok_or_else(|| {
                SynthError::Extract(format!(
                    "controller {} does not listen on ch{ci}",
                    ctrls[ri].machine.name()
                ))
            })?;
            to.push(WireEnd {
                machine: ri,
                signal: sig,
            });
        }
        wires.push(Wire {
            from: WireEnd {
                machine: sender_idx,
                signal: from_sig,
            },
            to,
            delay: delays.small,
        });
    }

    // Datapath actions from signal roles.
    let mut actions = HashMap::new();
    let mut levels = Vec::new();
    let mut stmts = HashMap::new();
    let mut kicks = Vec::new();
    let mut level_init = Vec::new();
    for (mi, c) in ctrls.iter().enumerate() {
        for (sig, _info) in c.machine.signals() {
            match c.role(sig) {
                SignalRole::Local { node, stmt, role } => {
                    let (node, stmt, role) = (*node, *stmt, *role);
                    if role.is_ack() {
                        continue;
                    }
                    let ack_sig = find_local(c, node, stmt, role.partner())?;
                    let action = match role {
                        LocalRole::GoReq => Action::AckOp(ack_sig),
                        LocalRole::WrReq => Action::Write(node, stmt, ack_sig),
                        _ => Action::AckSmall(ack_sig),
                    };
                    // LT5 may have fused this wire into another: the
                    // carrier wire drives this consumer too.
                    let carrier = c.resolve_alias(sig);
                    actions
                        .entry((mi, carrier.index() as u32))
                        .or_insert_with(Vec::new)
                        .push(action);
                    // Record the statement body.
                    let kind = &g.node(node)?.kind;
                    let all = kind.statements();
                    if let Some(s) = all.get(stmt) {
                        stmts.insert((node, stmt), (*s).clone());
                    }
                }
                SignalRole::CondLevel { reg } => {
                    levels.push((mi, sig, reg.clone()));
                    let v = initial.get(reg).copied().unwrap_or(0);
                    level_init.push((mi, sig, v != 0));
                }
                SignalRole::EnvIn { .. } => kicks.push((mi, sig)),
                _ => {}
            }
        }
    }

    let datapath = SystemDatapath {
        regs: initial,
        actions,
        levels,
        stmts,
        delays,
        writes: 0,
    };
    let machines: Vec<&adcs_xbm::XbmMachine> = ctrls.iter().map(|c| &c.machine).collect();
    Ok(SystemParts {
        machines,
        wires,
        datapath,
        kicks,
        level_init,
    })
}

fn find_local(
    c: &ControllerSpec,
    node: NodeId,
    stmt: usize,
    role: LocalRole,
) -> Result<SignalId, SynthError> {
    c.roles
        .iter()
        .enumerate()
        .find_map(|(i, r)| match r {
            SignalRole::Local {
                node: n,
                stmt: s,
                role: rr,
            } if *n == node && *s == stmt && *rr == role => Some(SignalId::from_raw(i as u32)),
            _ => None,
        })
        .ok_or_else(|| SynthError::Extract(format!("missing local {role:?} for {node}/{stmt}")))
}

impl<'m> System<'m> {
    /// Runs the system to quiescence; returns the final time.
    ///
    /// # Errors
    ///
    /// Propagates network failures (burst ambiguity, event budget).
    pub fn run(&mut self, max_events: usize) -> Result<u64, SimError> {
        for &(m, sig, v) in &self.level_init {
            self.network.inject(m, sig, v, 0);
        }
        for &(m, sig) in &self.kicks {
            self.network.inject_toggle(m, sig, 1);
        }
        self.network.run(max_events)
    }

    /// The datapath (for reading back registers).
    pub fn datapath(&self) -> &SystemDatapath {
        self.network.datapath()
    }

    /// Current state of controller `idx` (diagnostics).
    pub fn machine_state(&self, idx: usize) -> adcs_xbm::StateId {
        self.network.machine(idx).state()
    }

    /// Current value of a signal on controller `idx` (diagnostics).
    pub fn signal_value(&self, idx: usize, sig: SignalId) -> bool {
        self.network.machine(idx).value(sig)
    }

    /// Enables signal-change recording for [`Self::to_vcd`].
    pub fn record_trace(&mut self, on: bool) {
        self.network.record_trace(on);
    }

    /// Renders the recorded trace as a VCD document (one scope per
    /// controller); view it with any waveform viewer.
    pub fn to_vcd(&self, extraction: &Extraction) -> String {
        let machines: Vec<&adcs_xbm::XbmMachine> =
            extraction.controllers.iter().map(|c| &c.machine).collect();
        adcs_sim::vcd::to_vcd(&machines, self.network.trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::Extraction;
    use crate::flow::{Flow, FlowOptions};
    use adcs_cdfg::benchmarks::{diffeq, diffeq_reference, DiffeqParams};

    #[test]
    fn diffeq_system_end_to_end_matches_reference() {
        let d = diffeq(DiffeqParams::default()).unwrap();
        let flow = Flow::new(d.cdfg.clone(), d.initial.clone());
        let out = flow.run(&FlowOptions::default()).unwrap();
        let ex = Extraction {
            controllers: out.controllers.clone(),
        };
        let mut sys = build_system(
            &out.cdfg,
            &out.channels,
            &ex,
            d.initial.clone(),
            SystemDelays::default(),
        )
        .unwrap();
        sys.run(500_000).unwrap();
        let (x, y, u) = diffeq_reference(d.params);
        assert_eq!(sys.datapath().register("X"), Some(x));
        assert_eq!(sys.datapath().register("Y"), Some(y));
        assert_eq!(sys.datapath().register("U"), Some(u));
    }

    #[test]
    fn diffeq_system_works_across_datapath_speeds() {
        let d = diffeq(DiffeqParams {
            x0: 0,
            y0: 1,
            u0: 2,
            dx: 1,
            a: 4,
        })
        .unwrap();
        let flow = Flow::new(d.cdfg.clone(), d.initial.clone());
        let out = flow.run(&FlowOptions::default()).unwrap();
        let (x, y, u) = diffeq_reference(d.params);
        // The LT transforms assume unit operations are slower than the
        // control/wire hops (the paper's "user-supplied timing
        // information"); combinations honouring that margin must work.
        for (op, small) in [(3, 1), (5, 1), (6, 2), (9, 3)] {
            let ex = Extraction {
                controllers: out.controllers.clone(),
            };
            let mut sys = build_system(
                &out.cdfg,
                &out.channels,
                &ex,
                d.initial.clone(),
                SystemDelays { op, small },
            )
            .unwrap();
            sys.run(500_000).unwrap();
            assert_eq!(
                sys.datapath().register("X"),
                Some(x),
                "op={op} small={small}"
            );
            assert_eq!(
                sys.datapath().register("Y"),
                Some(y),
                "op={op} small={small}"
            );
            assert_eq!(
                sys.datapath().register("U"),
                Some(u),
                "op={op} small={small}"
            );
        }
    }

    #[test]
    fn too_fast_datapath_breaks_the_lt_timing_assumption() {
        // Negative test: with operation latency equal to the wire hop the
        // relative-timing assumptions of LT1/LT4 are violated and the
        // computation may diverge — this documents that the transforms are
        // timing-dependent, exactly as the paper states.
        let d = diffeq(DiffeqParams::default()).unwrap();
        let flow = Flow::new(d.cdfg.clone(), d.initial.clone());
        let out = flow.run(&FlowOptions::default()).unwrap();
        let ex = Extraction {
            controllers: out.controllers.clone(),
        };
        let mut sys = build_system(
            &out.cdfg,
            &out.channels,
            &ex,
            d.initial.clone(),
            SystemDelays { op: 1, small: 1 },
        )
        .unwrap();
        let _ = sys.run(500_000);
        let (x, y, u) = diffeq_reference(d.params);
        let got = (
            sys.datapath().register("X"),
            sys.datapath().register("Y"),
            sys.datapath().register("U"),
        );
        assert_ne!(
            got,
            (Some(x), Some(y), Some(u)),
            "if this starts passing, tighten the margin documentation"
        );
    }

    #[test]
    fn diffeq_system_trace_exports_as_vcd() {
        let d = diffeq(DiffeqParams::default()).unwrap();
        let flow = Flow::new(d.cdfg.clone(), d.initial.clone());
        let out = flow.run(&FlowOptions::default()).unwrap();
        let ex = Extraction {
            controllers: out.controllers.clone(),
        };
        let mut sys = build_system(
            &out.cdfg,
            &out.channels,
            &ex,
            d.initial.clone(),
            SystemDelays::default(),
        )
        .unwrap();
        sys.record_trace(true);
        sys.run(500_000).unwrap();
        let vcd = sys.to_vcd(&ex);
        assert!(vcd.contains("$scope module ALU1 $end"));
        assert!(vcd.contains("$enddefinitions"));
        // The run produced thousands of changes; the dump must carry them.
        assert!(vcd.lines().count() > 500, "{}", vcd.lines().count());
    }

    #[test]
    fn diffeq_system_without_lt_also_works() {
        // The GT-only controllers (no local transforms) must drive the
        // datapath to the same result.
        let d = diffeq(DiffeqParams::default()).unwrap();
        let flow = Flow::new(d.cdfg.clone(), d.initial.clone());
        let opts = FlowOptions {
            lt: crate::lt::LtOptions {
                move_up_dones: false,
                mux_preselect: false,
                removable_acks: Vec::new(),
                share_signals: false,
            },
            ..FlowOptions::default()
        };
        let out = flow.run(&opts).unwrap();
        let ex = Extraction {
            controllers: out.controllers.clone(),
        };
        let mut sys = build_system(
            &out.cdfg,
            &out.channels,
            &ex,
            d.initial.clone(),
            SystemDelays::default(),
        )
        .unwrap();
        sys.run(500_000).unwrap();
        let (x, y, u) = diffeq_reference(d.params);
        assert_eq!(sys.datapath().register("X"), Some(x));
        assert_eq!(sys.datapath().register("Y"), Some(y));
        assert_eq!(sys.datapath().register("U"), Some(u));
    }
}
