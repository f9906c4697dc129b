//! A reference interpreter for XBM machines.
//!
//! Enabling is *value-based*: a transition out of the current state fires
//! once every compulsory edge's signal has reached its target value and
//! every sampled level matches. Directed don't-cares impose no wait. This
//! matches burst-mode semantics for well-formed machines, where the entry
//! labelling guarantees a compulsory edge's target differs from the value
//! the signal had when the state was entered.
//!
//! The interpreter is used by the system simulator in `adcs-sim` to run
//! whole controller networks, and directly in tests.

use crate::error::XbmError;
use crate::machine::{StateId, TermKind, XbmMachine};
use crate::signal::SignalId;

/// An executing instance of an [`XbmMachine`].
#[derive(Clone, Debug)]
pub struct Interp<'m> {
    m: &'m XbmMachine,
    state: StateId,
    values: Vec<bool>,
}

impl<'m> Interp<'m> {
    /// Starts the machine in its initial state with reset signal values.
    pub fn new(m: &'m XbmMachine) -> Self {
        Interp {
            m,
            state: m.initial(),
            values: m.signals().map(|(_, s)| s.initial).collect(),
        }
    }

    /// The machine being interpreted.
    pub fn machine(&self) -> &'m XbmMachine {
        self.m
    }

    /// Current state.
    pub fn state(&self) -> StateId {
        self.state
    }

    /// Current value of a signal.
    pub fn value(&self, s: SignalId) -> bool {
        self.values[s.index()]
    }

    /// Index of the unique enabled transition out of the current state, if
    /// any.
    ///
    /// # Errors
    ///
    /// [`XbmError::Structure`] if more than one transition is enabled (a
    /// maximal-set violation at runtime).
    pub fn enabled(&self) -> Result<Option<usize>, XbmError> {
        let mut found = None;
        for (idx, t) in self.m.transitions_from(self.state) {
            let mut ok = t.input.iter().any(|term| term.kind.is_compulsory());
            for term in &t.input {
                let v = self.values[term.signal.index()];
                match term.kind {
                    TermKind::Rise | TermKind::Fall => {
                        if v != term.kind.target() {
                            ok = false;
                        }
                    }
                    TermKind::LevelHigh | TermKind::LevelLow => {
                        if v != term.kind.target() {
                            ok = false;
                        }
                    }
                    TermKind::DdcRise | TermKind::DdcFall => {}
                }
            }
            if ok {
                if let Some(prev) = found {
                    return Err(XbmError::Structure(format!(
                        "transitions #{prev} and #{idx} both enabled in {}",
                        self.state
                    )));
                }
                found = Some(idx);
            }
        }
        Ok(found)
    }

    /// Applies one input change, then fires every transition that becomes
    /// enabled (cascading). Returns the output changes `(signal, new value)`
    /// in firing order.
    ///
    /// # Errors
    ///
    /// * [`XbmError::UnknownSignal`] / [`XbmError::Direction`] — not an
    ///   input of this machine.
    /// * [`XbmError::Structure`] — runtime burst ambiguity.
    pub fn set_input(&mut self, s: SignalId, v: bool) -> Result<Vec<(SignalId, bool)>, XbmError> {
        let info = self.m.signal(s)?;
        if !info.input {
            return Err(XbmError::Direction {
                signal: s,
                expected_input: true,
            });
        }
        self.values[s.index()] = v;
        self.run()
    }

    /// Toggles an input (transition-signalling convenience).
    ///
    /// # Errors
    ///
    /// Same as [`Self::set_input`].
    pub fn pulse_input(&mut self, s: SignalId) -> Result<Vec<(SignalId, bool)>, XbmError> {
        let cur = self.value(s);
        self.set_input(s, !cur)
    }

    /// Fires enabled transitions until quiescent; returns output changes.
    ///
    /// # Errors
    ///
    /// [`XbmError::Structure`] on runtime ambiguity or a runaway machine
    /// (more firings than transitions squared — a livelock guard).
    pub fn run(&mut self) -> Result<Vec<(SignalId, bool)>, XbmError> {
        let mut changes = Vec::new();
        let guard = self
            .m
            .transitions()
            .len()
            .saturating_mul(self.m.transitions().len())
            + 16;
        for _ in 0..guard {
            let Some(idx) = self.enabled()? else {
                return Ok(changes);
            };
            let t = &self.m.transitions()[idx];
            for &o in &t.output {
                let nv = !self.values[o.index()];
                self.values[o.index()] = nv;
                changes.push((o, nv));
            }
            self.state = t.to;
        }
        Err(XbmError::Structure(format!(
            "machine {} did not quiesce (livelock?)",
            self.m.name()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Term, XbmBuilder};

    fn handshake() -> XbmMachine {
        let mut b = XbmBuilder::new("hs");
        let req = b.input("req", false);
        let ack = b.output("ack", false);
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.transition(s0, s1, [Term::rise(req)], [ack]).unwrap();
        b.transition(s1, s0, [Term::fall(req)], [ack]).unwrap();
        b.finish(s0).unwrap()
    }

    #[test]
    fn four_phase_handshake_runs() {
        let m = handshake();
        let req = m.signal_by_name("req").unwrap();
        let ack = m.signal_by_name("ack").unwrap();
        let mut i = Interp::new(&m);
        assert_eq!(i.set_input(req, true).unwrap(), vec![(ack, true)]);
        assert_eq!(i.set_input(req, false).unwrap(), vec![(ack, false)]);
        assert_eq!(i.state(), m.initial());
    }

    #[test]
    fn pulse_toggles() {
        let m = handshake();
        let req = m.signal_by_name("req").unwrap();
        let mut i = Interp::new(&m);
        i.pulse_input(req).unwrap();
        assert!(i.value(req));
        i.pulse_input(req).unwrap();
        assert!(!i.value(req));
    }

    #[test]
    fn ddc_inputs_do_not_block() {
        let mut b = XbmBuilder::new("ddc");
        let a = b.input("a", false);
        let early = b.input("early", false);
        let x = b.output("x", false);
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let s2 = b.state("s2");
        b.transition(s0, s1, [Term::rise(a), Term::ddc(early, true)], [x])
            .unwrap();
        b.transition(s1, s2, [Term::rise(early)], [x]).unwrap();
        b.transition(s2, s0, [Term::fall(a), Term::fall(early)], [])
            .unwrap();
        let m = b.finish(s0).unwrap();

        // Early arrival before the compulsory edge: both orders work.
        let mut i = Interp::new(&m);
        assert!(i.set_input(early, true).unwrap().is_empty()); // too early, no fire yet? no: burst needs a+
        let out = i.set_input(a, true).unwrap();
        // a+ completes the first burst AND early=1 immediately satisfies
        // the second: two firings cascade.
        assert_eq!(out.len(), 2);
        assert_eq!(i.state(), s2);

        // Late arrival: one at a time.
        let mut j = Interp::new(&m);
        assert_eq!(j.set_input(a, true).unwrap().len(), 1);
        assert_eq!(j.set_input(early, true).unwrap().len(), 1);
        assert_eq!(j.state(), s2);
    }

    #[test]
    fn levels_choose_the_branch() {
        let mut b = XbmBuilder::new("cond");
        let go = b.input("go", false);
        let c = b.input_kind("c", crate::signal::SignalKind::Level, false);
        let t = b.output("t", false);
        let e = b.output("e", false);
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let s2 = b.state("s2");
        b.transition(s0, s1, [Term::rise(go), Term::level(c, true)], [t])
            .unwrap();
        b.transition(s0, s2, [Term::rise(go), Term::level(c, false)], [e])
            .unwrap();
        b.transition(s1, s0, [Term::fall(go)], [t]).unwrap();
        b.transition(s2, s0, [Term::fall(go)], [e]).unwrap();
        let m = b.finish(s0).unwrap();

        let mut i = Interp::new(&m);
        i.set_input(c, true).unwrap();
        let out = i.set_input(go, true).unwrap();
        assert_eq!(out, vec![(t, true)]);
        i.set_input(go, false).unwrap();

        i.set_input(c, false).unwrap();
        let out = i.set_input(go, true).unwrap();
        assert_eq!(out, vec![(e, true)]);
    }

    #[test]
    fn rejects_setting_outputs() {
        let m = handshake();
        let ack = m.signal_by_name("ack").unwrap();
        let mut i = Interp::new(&m);
        assert!(matches!(
            i.set_input(ack, true),
            Err(XbmError::Direction { .. })
        ));
    }

    #[test]
    fn runtime_ambiguity_is_reported() {
        let mut b = XbmBuilder::new("amb");
        let x = b.input("x", false);
        let o = b.output("o", false);
        let p = b.output("p", false);
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let s2 = b.state("s2");
        b.transition(s0, s1, [Term::rise(x)], [o]).unwrap();
        b.transition(s0, s2, [Term::rise(x)], [p]).unwrap();
        let m = b.finish(s0).unwrap();
        let mut i = Interp::new(&m);
        assert!(matches!(i.set_input(x, true), Err(XbmError::Structure(_))));
    }
}
