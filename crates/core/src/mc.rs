//! Exhaustive interleaving exploration ("model checking") of a controller
//! network.
//!
//! The randomized network simulation in `adcs-sim` samples delay
//! assignments; this module instead explores **every** delivery order of
//! in-flight events, proving a network correct for *all* wire and datapath
//! delays — or producing the interleaving that breaks it. The paper's §5
//! is explicit that the optimized controllers rely on *relative timing*
//! (operation latency exceeding wire hops); this checker demonstrates the
//! claim in both directions:
//!
//! * the network verifies under the architecture's standing assumptions
//!   (condition levels settle before they are sampled — the burst-mode
//!   *setup-time* assumption, [`McOptions::synchronous_levels`]);
//! * with that assumption also dropped, the checker exhibits a concrete
//!   level race, evidencing that the assumption is load-bearing rather
//!   than decorative.
//!
//! The state space is the product of controller configurations (state +
//! signal values), the register file, and the multiset of in-flight
//! events. Per-wire event order is preserved (a physical wire is FIFO);
//! events on *different* wires commute and both orders are explored.
//! Loops terminate because the data is concrete, so the space is finite;
//! [`McOptions::max_states`] bounds the search anyway.
//!
//! # Architecture: sharded-frontier breadth-first search
//!
//! The search proceeds in **waves** (breadth-first levels). Each wave's
//! frontier lives in a packed [`Arena`]: every state is a fixed number of
//! `u64` words (machine states, signal-value bitset, register presence
//! bitset + values) plus a flat run of 8-byte pending events. The network
//! is compiled once per search onto that word layout (`Net`): per-signal
//! wire fanout and datapath actions, each machine's transitions grouped
//! by source state, and each statement reduced to register slots. A
//! successor is the parent's words copied into the chunk's output buffer
//! and stepped in place — no interpreter, register map, or re-encoding on
//! the hot path, and no allocation once the per-worker buffers are warm.
//! The frontier is split into contiguous chunks expanded in parallel (the
//! offline rayon shim's deterministic ordered-batch pattern, as in
//! `timing.rs`); each worker
//! only *reads* the sharded visited set, and the merge that follows runs
//! sequentially in global state order, inserting discoveries shard by
//! shard without any locking. Verdicts, statistics, and counterexample
//! traces are therefore **bit-identical between 1 and N threads**: the
//! first violation is the one with the lowest (wave, state, event) index
//! no matter how the chunks were scheduled, and a chunk that stops early
//! at a violation only ever discards work *later* in that order.
//!
//! The visited set is split into `2^shard_bits` fingerprint-sharded
//! sub-sets ([`McOptions::shard_bits`]) storing **128-bit fingerprints**
//! of the canonicalized states rather than full clones — 16 bytes per
//! state, which is what allows the raised default state budget. The
//! fingerprint is one pass over the words and events into two 64-bit
//! multiply-fold lanes with their own seeds and multipliers; one lane
//! picks the shard, the other is the in-shard hash. A fingerprint
//! collision would silently prune a distinct state. With `n` visited
//! states the probability is ≲ n²/2¹²⁹ (about 10⁻²⁶ even at the default
//! budget) *if* the two lanes behave like independent uniform hashes of
//! the distinct states — an assumption about the mixing, not a proof: the
//! lanes are fixed-seed multiply-fold mixes, not a keyed universal family,
//! so adversarially structured state sets could do worse, and no test can
//! observe a collision directly. The fingerprint is never persisted (spill
//! segments die with their search, and [`McCache`] keys use
//! `StableHasher`), so the hash can change between versions freely.
//!
//! The wave order returns the *shallowest* counterexample — but by the
//! same token it cannot reach a violation that only occurs many events
//! deep in a wide space (a frontier already millions of states wide
//! cannot afford another wave). [`McOrder::Depth`] instead dives along
//! one interleaving at a time through the same expansion machinery: a
//! deep-narrow counterexample such as the §5 channel interference falls
//! out in milliseconds, at the price of a non-minimal trace and a
//! single-threaded (still deterministic) search.
//!
//! # Partial-order reduction
//!
//! Asynchronous firings commute: delivering two events whose target
//! machines share no wires, no wire endpoints, no datapath registers, and
//! no condition-level watches reaches the same state in either order.
//! With [`McOptions::por`] (on by default) the checker precomputes that
//! **static independence relation** from the network topology and the
//! datapath's static action table ([`McDatapathSpec`]), and at each state
//! expands only an *ample* subset of the pending events: the events of
//! one connected component of the dependence graph restricted to the
//! machines with pending events (the component with the fewest events,
//! ties to the lowest machine index — a deterministic choice). Events in
//! other components can
//! neither create events into, receive events from, nor clash with the
//! chosen component, so every pruned interleaving commutes into an
//! explored one. The standard **cycle proviso** guards against a reduced
//! cycle postponing a pruned event forever: a reduced state none of whose
//! ample successors is new is re-expanded in full at its (deterministic)
//! merge position. The pairwise relation is local — it does not chase
//! multi-hop creation chains through machines with no pending events —
//! so full expansion stays available as the reference oracle
//! (`por: false`) and the property tests assert verdict agreement.
//!
//! # Disk spilling
//!
//! [`McOptions::spill_dir`] bounds search memory: when the visited
//! shards outgrow their half of [`McOptions::memory_budget`] they are
//! flushed to sorted fingerprint segment files (membership by per-segment
//! binary search), and when the next-wave frontier outgrows its quarter
//! it is flushed to packed frontier segments replayed in append order on
//! the following wave. The global merge order is identical to the
//! unspilled run, so verdicts, traces, and every statistic except the
//! spill counters themselves are bit-identical at any memory cap.
//!
//! Re-verification across explorer candidates is avoided by [`McCache`]:
//! verdicts are memoized under a structural fingerprint of the machine
//! set ⊕ wire network ⊕ stimuli ⊕ datapath behavior, so candidates that
//! synthesize identical controller networks skip the search entirely.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::{self, File};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use adcs_cache::store::ns;
use adcs_cache::{checksum64, StableHasher, Store};
use adcs_cdfg::rtl::{Op, Operand, RtlStatement};
use adcs_cdfg::Reg;
use adcs_obs::lock_recover;
use adcs_obs::metrics::{Counter, Metrics};
use adcs_sim::network::Wire;
use adcs_xbm::{SignalId, StateId, XbmError, XbmMachine};
use rayon::prelude::*;

use crate::error::SynthError;
use crate::system::SystemParts;

/// A datapath the model checker can compile: it describes its initial
/// register file and its static reaction table once per check, and the
/// checker executes that description directly on packed states.
pub trait McDatapath {
    /// The description the checker compiles (see [`McDatapathSpec`]).
    fn spec(&self) -> McDatapathSpec;
}

impl McDatapath for () {
    fn spec(&self) -> McDatapathSpec {
        // No datapath: machine firings only interact over the wires.
        McDatapathSpec::default()
    }
}

/// A datapath as the model checker sees it: how it reacts when a machine
/// output toggles, with delays dropped (the checker explores every order).
#[derive(Clone, Debug, Default)]
pub struct McDatapathSpec {
    /// The initial register file.
    pub regs: Vec<(Reg, i64)>,
    /// Statement bodies, referred to by index from [`McAction::Write`].
    /// Their destinations join the initial registers in the packed
    /// register file.
    pub stmts: Vec<RtlStatement>,
    /// Reactions keyed by `(machine, raw output signal)`, each list in
    /// firing order.
    pub actions: Vec<((usize, u32), Vec<McAction>)>,
    /// Condition-level wire ends `(machine, signal)` set to `value != 0`
    /// whenever the watched register is written, in refresh order.
    pub levels: Vec<(usize, SignalId, Reg)>,
}

/// One reaction of the datapath to a toggle of a machine output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McAction {
    /// Acknowledge on this input of the firing machine, with the output's
    /// new value.
    Ack(SignalId),
    /// Acknowledge like [`McAction::Ack`]; on a rising output first
    /// execute statement `stmt` (when present) and refresh the level ends
    /// watching its destination.
    Write {
        /// Index into [`McDatapathSpec::stmts`].
        stmt: Option<usize>,
        /// The acknowledge input.
        ack: SignalId,
    },
}

/// Environment stimuli and timing-assumption annotations for a check.
#[derive(Clone, Debug, Default)]
pub struct McStimuli {
    /// Start events: `(machine, signal)` toggled once, concurrently.
    pub kicks: Vec<(usize, SignalId)>,
    /// Condition levels set (synchronously) before the start events.
    pub level_init: Vec<(usize, SignalId, bool)>,
    /// Level wire ends covered by the setup-time assumption (see
    /// [`McOptions::synchronous_levels`]).
    pub levels: Vec<(usize, SignalId)>,
}

/// Traversal order of the exhaustive search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum McOrder {
    /// Parallel sharded-frontier breadth-first search (the default):
    /// covers the space wave by wave and returns the *shallowest*
    /// counterexample, bit-identically at every thread count.
    #[default]
    Wave,
    /// Sequential depth-first hunt: dives along one interleaving at a
    /// time, reaching counterexamples that live deeper than any
    /// affordable breadth-first budget. The trace found is not minimal,
    /// and the search runs on one thread (but is still deterministic).
    Depth,
}

/// Options for [`model_check`].
#[derive(Clone, Debug)]
pub struct McOptions {
    /// Abort with [`McVerdict::Budget`] after this many distinct states.
    pub max_states: usize,
    /// Deliver condition-level updates synchronously with the register
    /// write that causes them (the burst-mode setup-time assumption: a
    /// sampled level is stable by the time its trigger edge arrives).
    /// With `false`, level updates race the rest of the network.
    pub synchronous_levels: bool,
    /// Worker threads for frontier expansion. `None` uses the ambient
    /// rayon pool (honouring `RAYON_NUM_THREADS`); `Some(n)` installs a
    /// dedicated `n`-thread pool. The verdict, statistics, and
    /// counterexample trace are identical for every thread count.
    pub threads: Option<usize>,
    /// `log2` of the visited-set shard count. Sharding bounds per-set
    /// rehash cost on multi-million-state searches; the count is fixed up
    /// front (independent of the thread count) so `McStats::shards` and
    /// every other statistic stay thread-count invariant.
    pub shard_bits: u32,
    /// Traversal order: the wave search (default) or the depth-first
    /// hunt. See [`McOrder`].
    pub order: McOrder,
    /// Partial-order reduction: restrict each expansion to an ample
    /// subset of the pending events whose pruned orders provably commute
    /// into explored ones (see the module docs). `false` is the full
    /// reference expansion. The verdict *kind* is unchanged either way;
    /// with POR the state counts shrink and a violation trace may differ
    /// (a commuted representative of the same failure).
    pub por: bool,
    /// Spill directory for bounded-memory searches: the visited shards
    /// and wave frontiers overflow into checksummed segment files under a
    /// unique subdirectory (removed when the search ends). `None` keeps
    /// the whole search in memory. Wave order only.
    pub spill_dir: Option<PathBuf>,
    /// Approximate in-memory byte budget for the visited set (half) and
    /// the wave frontier (a quarter) before they spill. Requires
    /// `spill_dir`; defaults to 512 MiB when `spill_dir` is set. Verdicts
    /// and traces are bit-identical at any budget — only the
    /// `McStats::spilled_*` counters vary.
    pub memory_budget: Option<usize>,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            // Visited states cost 16 bytes each (one 128-bit fingerprint
            // spread over the shards), so a budget that used to cost
            // gigabytes now fits comfortably.
            max_states: 4_000_000,
            synchronous_levels: true,
            threads: None,
            shard_bits: 6,
            order: McOrder::Wave,
            por: true,
            spill_dir: None,
            memory_budget: None,
        }
    }
}

/// Search statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct McStats {
    /// Distinct composite states visited.
    pub states: usize,
    /// Quiescent (no in-flight events) states reached.
    pub terminals: usize,
    /// Largest number of concurrently in-flight events seen.
    pub max_pending: usize,
    /// Visited-set shards (`2^shard_bits`, thread-count independent).
    pub shards: usize,
    /// Breadth-first waves expanded (each wave is one parallel batch);
    /// under [`McOrder::Depth`], individual state expansions.
    pub batches: usize,
    /// Largest single-wave frontier (depth order: deepest stack) seen.
    pub peak_frontier: usize,
    /// `true` when the state budget cut a wave mid-merge — some expanded
    /// state had successors discarded, so sibling coverage is partial.
    /// `false` for [`McVerdict::Budget`] hit exactly on a wave boundary.
    pub truncated: bool,
    /// States expanded with a reduced (ample) event set that stayed
    /// reduced — partial-order reduction hits.
    pub ample_hits: u64,
    /// Eligible commuting firings the reduction pruned at those states.
    pub pruned: u64,
    /// Bytes written to spill segment files (visited + frontier). The
    /// three `spilled_*`/`reread_waves` counters are the only statistics
    /// that depend on [`McOptions::memory_budget`]; everything else is
    /// bit-identical at any budget.
    pub spilled_bytes: u64,
    /// Spill segment files written.
    pub spilled_segments: u64,
    /// Waves that re-read at least one spilled frontier segment.
    pub reread_waves: u64,
}

/// What kind of counterexample the search found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McViolationKind {
    /// Two events in flight on one wire leg — transition-signalling
    /// transmission interference (the receiver would miss both).
    WireInterference,
    /// A controller hit a runtime burst ambiguity, rejected an input, or
    /// failed to quiesce.
    Ambiguity,
    /// Two interleavings quiesce with different register files, or a
    /// deadlocked interleaving quiesces early.
    DivergentOutcome,
}

/// The result of an exhaustive exploration.
#[derive(Clone, Debug)]
pub enum McVerdict {
    /// Every interleaving quiesces with the same outcome.
    Verified {
        /// The unique terminal register file.
        outcome: Vec<(Reg, i64)>,
        /// Search statistics.
        stats: McStats,
    },
    /// A counterexample interleaving exists.
    Violation {
        /// Counterexample category.
        kind: McViolationKind,
        /// Human-readable description of the failing delivery.
        detail: String,
        /// The event sequence reaching the failure, oldest first, rendered
        /// as `machine.signal~` (toggle) or `machine.signal=v` (level set).
        /// Under [`McOrder::Wave`] this is the shallowest counterexample
        /// and hence a shortest trace; [`McOrder::Depth`] makes no such
        /// promise.
        trace: Vec<String>,
        /// Search statistics at the point of failure.
        stats: McStats,
    },
    /// The state budget was exhausted before the space was covered; no
    /// violation was found in the explored prefix.
    Budget(McStats),
}

impl McVerdict {
    /// Whether the network verified completely.
    pub fn is_verified(&self) -> bool {
        matches!(self, McVerdict::Verified { .. })
    }

    /// The statistics of the search, whatever its outcome.
    pub fn stats(&self) -> &McStats {
        match self {
            McVerdict::Verified { stats, .. } => stats,
            McVerdict::Violation { stats, .. } => stats,
            McVerdict::Budget(stats) => stats,
        }
    }
}

/// One in-flight event: a toggle (channel wire) or an explicit set
/// (datapath response), destined for one machine input. Packed into 8
/// bytes: the pending lists are most of a wave's successor buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PendEv {
    signal: SignalId,
    machine: u16,
    /// `None` = toggle at delivery; `Some(v)` = set to `v`.
    set: Option<bool>,
}

const _: () = assert!(std::mem::size_of::<PendEv>() == 8);

impl PendEv {
    fn new(machine: usize, signal: SignalId, set: Option<bool>) -> PendEv {
        PendEv {
            signal,
            // validate_network bounds the machine count by u16::MAX.
            machine: machine as u16,
            set,
        }
    }

    fn machine(self) -> usize {
        usize::from(self.machine)
    }

    /// The event as one fingerprint word.
    fn word(self) -> u64 {
        let tag = match self.set {
            None => 0u64,
            Some(false) => 1,
            Some(true) => 2,
        };
        self.signal.index() as u64 | u64::from(self.machine) << 32 | tag << 48
    }
}

/// Stable-sorts the in-flight events by destination, preserving per-wire
/// FIFO order (same-destination events keep their arrival order).
fn canonicalize(pending: &mut [PendEv]) {
    pending.sort_by_key(|e| (e.machine, e.signal.index()));
}

/// Whether `pending[i]` is eligible for delivery: the oldest event per
/// destination (a physical wire delivers in order; distinct wires
/// commute). On a canonicalized list these are exactly the run starts.
fn eligible_at(pending: &[PendEv], i: usize) -> bool {
    i == 0 || {
        let (a, b) = (pending[i - 1], pending[i]);
        a.machine != b.machine || a.signal != b.signal
    }
}

#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// 128-bit fingerprint of a canonicalized packed state, in one pass over
/// its words and pending events: two 64-bit multiply-fold lanes with
/// their own seeds, multipliers and rotation, so a collision in one lane
/// says nothing about the other (see the module docs for the odds). The
/// high lane picks the visited shard, the low lane hashes within it.
fn fingerprint(fixed: &[u64], pending: &[PendEv]) -> u128 {
    const SEED_HI: u64 = 0x9e37_79b9_7f4a_7c15;
    const SEED_LO: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const MUL_HI: u64 = 0xbf58_476d_1ce4_e5b9;
    const MUL_LO: u64 = 0x94d0_49bb_1331_11eb;
    let (mut hi, mut lo) = (SEED_HI, SEED_LO);
    let words = fixed
        .iter()
        .copied()
        .chain(pending.iter().map(|e| e.word()));
    for x in words {
        hi = fold_mul(hi ^ x, MUL_HI);
        lo = fold_mul(lo.rotate_left(29) ^ x, MUL_LO);
    }
    // The fixed part has one width per search; the pending count
    // separates states whose event runs differ only in length.
    let n = pending.len() as u64;
    hi = fold_mul(hi ^ n, MUL_LO);
    lo = fold_mul(lo ^ n.rotate_left(32), MUL_HI);
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Hasher of the fingerprint sets: the low lane of a fingerprint is
/// already a mixed hash, so it passes through unchanged.
#[derive(Clone, Copy, Default)]
struct LaneHasher(u64);

impl Hasher for LaneHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u128(&mut self, fp: u128) {
        self.0 = fp as u64;
    }
}

type FpSet = HashSet<u128, BuildHasherDefault<LaneHasher>>;

/// The static pairwise dependence relation over *endpoints* — the
/// `(machine, input signal)` pairs an event can target — as bitmask
/// rows: `dependent(a, b)` holds when firing a pending event at endpoint
/// `a` and one at endpoint `b` may not commute. Endpoint granularity is
/// what makes the reduction bite on real networks: a handful of
/// controllers multiplex dozens of logically-independent handshakes, so
/// a machine-level relation would glue everything together.
///
/// An endpoint's static *effects* are derived from the transitions its
/// signal can complete (any transition mentioning the signal — a sound
/// over-approximation of burst attribution):
///
/// * **fired machines** — the target machine itself, plus (under
///   synchronous levels) every machine whose condition level a triggered
///   write refreshes, closed transitively (the cascade fires them inside
///   the same atomic step);
/// * **created endpoints** — wire fanout targets of the triggered
///   outputs, datapath acknowledge endpoints, and (under asynchronous
///   levels) the refreshed level endpoints;
/// * **read/written registers** — the register slots of the statements
///   the triggered outputs run.
///
/// Two endpoints are dependent when their fired-machine sets overlap
/// (including `a == b`'s machine), one creates into the other (FIFO
/// order and the interference clash check both observe the queue), both
/// create into a common endpoint (their creations race on one FIFO), or
/// their register footprints conflict (`W ∩ (R ∪ W) ≠ ∅` either way).
///
/// The relation is *local*: it does not chase multi-hop creation chains
/// (an event whose firing wakes a machine whose later firing would
/// conflict). The cycle proviso re-expands ample-closed states in full,
/// and full expansion (`por: false`) is the reference oracle — the
/// regression proptests assert verdict agreement between the two.
struct Por {
    /// Dense endpoint row by global signal bit; `u32::MAX` for outputs.
    row: Vec<u32>,
    /// Row width of `dep` in u64 words.
    words: usize,
    /// Row-major endpoint-pair dependence bitmatrix.
    dep: Vec<u64>,
}

/// ORs row `src` into row `dst` of a row-major bitmatrix; reports change.
fn or_rows(v: &mut [u64], dst: usize, src: usize, w: usize) -> bool {
    let mut changed = false;
    for k in 0..w {
        let s = v[src * w + k];
        let d = &mut v[dst * w + k];
        if *d | s != *d {
            *d |= s;
            changed = true;
        }
    }
    changed
}

fn rows_overlap(v: &[u64], a: usize, b: usize, w: usize) -> bool {
    (0..w).any(|k| v[a * w + k] & v[b * w + k] != 0)
}

impl Por {
    /// Builds the relation from the compiled network's tables: machine
    /// transitions, wire fanout, and the datapath actions per output.
    fn build(net: &Net<'_>, sync_levels: bool) -> Por {
        // Endpoint universe: every input signal of every machine, in
        // global signal bit order.
        let mut row: Vec<u32> = Vec::with_capacity(net.ends.len());
        let mut eps: Vec<(usize, u32)> = Vec::new();
        for (m, machine) in net.machines.iter().enumerate() {
            for (sid, si) in machine.signals() {
                if si.input {
                    row.push(eps.len() as u32);
                    eps.push((m, sid.index() as u32));
                } else {
                    row.push(u32::MAX);
                }
            }
        }
        let ne = eps.len();
        let mwords = net.machines.len().div_ceil(64).max(1);
        let ewords = ne.div_ceil(64).max(1);
        let rwords = net.regs.len().div_ceil(64).max(1);
        let set =
            |v: &mut [u64], r: usize, w: usize, k: usize| v[r * w + k / 64] |= 1u64 << (k % 64);

        // Per-endpoint effect rows.
        let mut fired = vec![0u64; ne * mwords];
        let mut cr = vec![0u64; ne * ewords];
        let mut rd = vec![0u64; ne * rwords];
        let mut wr = vec![0u64; ne * rwords];
        let mut casc: Vec<Vec<u32>> = vec![Vec::new(); ne];
        for (e, &(m, s)) in eps.iter().enumerate() {
            set(&mut fired, e, mwords, m);
            for t in net.machines[m].transitions() {
                // Attribute `t`'s effects to this endpoint only when the
                // signal can gate `t`'s enabling: compulsory edges must
                // arrive and sampled levels must match, but a directed
                // don't-care imposes no wait, so delivering it can never
                // fire `t`.
                if !t.input.iter().any(|term| term.signal.index() as u32 == s) {
                    continue;
                }
                for &o in &t.output {
                    let info = &net.ends[net.bit(m, o)];
                    for &(tm, ts) in span(&net.fanout, &info.fanout) {
                        match row[net.bit(usize::from(tm), ts)] {
                            u32::MAX => {}
                            te => set(&mut cr, e, ewords, te as usize),
                        }
                    }
                    for act in span(&net.acts, &info.acts) {
                        match row[net.bit(m, act.ack)] {
                            u32::MAX => {}
                            te => set(&mut cr, e, ewords, te as usize),
                        }
                        let Some(st) = act.stmt.map(|i| &net.stmts[i as usize]) else {
                            continue;
                        };
                        for src in [st.lhs, st.rhs] {
                            if let Src::Slot(k) = src {
                                set(&mut rd, e, rwords, k);
                            }
                        }
                        set(&mut wr, e, rwords, st.dest);
                        for &(lm, ls) in span(&net.refresh, &st.levels) {
                            match row[net.bit(usize::from(lm), ls)] {
                                u32::MAX => {}
                                te if sync_levels => casc[e].push(te),
                                te => set(&mut cr, e, ewords, te as usize),
                            }
                        }
                    }
                }
            }
        }

        // Synchronous level cascades fire the watcher endpoints inside
        // the writer's step: fold each cascade target's effects (and its
        // own cascade targets) into the writer, to a fixpoint.
        if sync_levels {
            loop {
                let mut changed = false;
                for e in 0..ne {
                    let targets = casc[e].clone();
                    for &t in &targets {
                        let t = t as usize;
                        if t == e {
                            continue;
                        }
                        changed |= or_rows(&mut fired, e, t, mwords);
                        changed |= or_rows(&mut cr, e, t, ewords);
                        changed |= or_rows(&mut rd, e, t, rwords);
                        changed |= or_rows(&mut wr, e, t, rwords);
                        let extra = casc[t].clone();
                        for x in extra {
                            if !casc[e].contains(&x) {
                                casc[e].push(x);
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        let mut dep = vec![0u64; ne * ewords];
        let mark = |dep: &mut Vec<u64>, a: usize, b: usize| {
            dep[a * ewords + b / 64] |= 1u64 << (b % 64);
            dep[b * ewords + a / 64] |= 1u64 << (a % 64);
        };
        for a in 0..ne {
            mark(&mut dep, a, a);
            for b in a + 1..ne {
                let creates_into = (cr[a * ewords + b / 64] >> (b % 64)) & 1 == 1
                    || (cr[b * ewords + a / 64] >> (a % 64)) & 1 == 1;
                let w_vs_rw = |x: usize, y: usize| {
                    (0..rwords).any(|k| {
                        wr[x * rwords + k] & (rd[y * rwords + k] | wr[y * rwords + k]) != 0
                    })
                };
                if rows_overlap(&fired, a, b, mwords)
                    || creates_into
                    || rows_overlap(&cr, a, b, ewords)
                    || w_vs_rw(a, b)
                    || w_vs_rw(b, a)
                {
                    mark(&mut dep, a, b);
                }
            }
        }
        Por {
            row,
            words: ewords,
            dep,
        }
    }

    #[inline]
    fn dependent(&self, a: usize, b: usize) -> bool {
        (self.dep[a * self.words + b / 64] >> (b % 64)) & 1 == 1
    }

    /// Selects the ample component for a canonicalized pending list,
    /// filling `keep[i]` per event. Returns `false` when the state needs
    /// full expansion (fewer than two components, or an event targets an
    /// endpoint outside the static universe). Deterministic: the
    /// component with the fewest pending events wins, ties to the lowest
    /// endpoint (= lowest `(machine, signal)`, since the list is
    /// canonicalized). Empirically the small-component rule beats a
    /// stable lowest-endpoint rule by ~4x explored states on DIFFEQ.
    fn select(
        &self,
        net: &Net<'_>,
        pend: &[PendEv],
        eps: &mut Vec<usize>,
        uf: &mut Vec<u32>,
        cnt: &mut Vec<u32>,
        keep: &mut Vec<bool>,
    ) -> bool {
        // One entry per run of equal-(machine, signal) events.
        eps.clear();
        for (i, e) in pend.iter().enumerate() {
            if eligible_at(pend, i) {
                match self.row[net.bit(e.machine(), e.signal)] {
                    u32::MAX => return false,
                    ep => eps.push(ep as usize),
                }
            }
        }
        let n = eps.len();
        if n < 2 {
            return false;
        }
        fn find(uf: &mut [u32], mut i: usize) -> usize {
            while uf[i] as usize != i {
                let p = uf[i] as usize;
                uf[i] = uf[p];
                i = p;
            }
            i
        }
        uf.clear();
        uf.extend(0..n as u32);
        for i in 0..n {
            for j in i + 1..n {
                if self.dependent(eps[i], eps[j]) {
                    let (ri, rj) = (find(uf, i), find(uf, j));
                    if ri != rj {
                        // Union to the smaller root: each component's root
                        // is its least local index = its least endpoint.
                        let (lo, hi) = if ri < rj { (ri, rj) } else { (rj, ri) };
                        uf[hi] = lo as u32;
                    }
                }
            }
        }
        let roots = (0..n).filter(|&i| uf[i] as usize == i).count();
        if roots < 2 {
            return false;
        }
        cnt.clear();
        cnt.resize(n, 0);
        let mut run = usize::MAX;
        for (i, _) in pend.iter().enumerate() {
            if eligible_at(pend, i) {
                run = run.wrapping_add(1);
            }
            cnt[find(uf, run)] += 1;
        }
        let mut best = usize::MAX;
        let mut best_cnt = u32::MAX;
        for r in 0..n {
            if uf[r] as usize == r && cnt[r] < best_cnt {
                best_cnt = cnt[r];
                best = r;
            }
        }
        keep.clear();
        run = usize::MAX;
        for (i, _) in pend.iter().enumerate() {
            if eligible_at(pend, i) {
                run = run.wrapping_add(1);
            }
            keep.push(find(uf, run) == best);
        }
        true
    }
}

/// The visited set, split into `2^bits` fingerprint-indexed sub-sets.
///
/// Workers only *read* the in-memory tier during parallel expansion (the
/// frontier's pre-filter, [`Self::contains_mem`] — a false negative only
/// costs merge work); all inserts happen in the sequential per-wave
/// merge, so no shard ever needs a lock — the determinism comes from the
/// batch pattern, not from synchronization. With a spill directory
/// attached, shards that outgrow the budget compact to one sorted
/// fingerprint segment each and membership falls back to a binary
/// search over that segment.
struct ShardedVisited {
    shards: Vec<FpSet>,
    mask: u64,
    count: usize,
    disk: Option<VisitedDisk>,
}

impl ShardedVisited {
    fn new(bits: u32) -> Self {
        let n = 1usize << bits.min(12);
        ShardedVisited {
            shards: (0..n).map(|_| FpSet::default()).collect(),
            mask: (n - 1) as u64,
            count: 0,
            disk: None,
        }
    }

    fn attach_disk(&mut self, dir: Arc<SpillDir>, budget: usize) {
        self.disk = Some(VisitedDisk {
            dir,
            budget: budget.max(VISITED_ENTRY_BYTES),
            segs: (0..self.shards.len()).map(|_| Vec::new()).collect(),
            mem_entries: 0,
            spilled_bytes: 0,
            spilled_segments: 0,
        });
    }

    #[inline]
    fn shard_of(&self, fp: u128) -> usize {
        ((fp >> 64) as u64 & self.mask) as usize
    }

    /// In-memory membership only — the workers' lock-free pre-filter. A
    /// spilled fingerprint reads as absent here; the merge-side
    /// [`Self::insert`] is the exact check.
    #[inline]
    fn contains_mem(&self, fp: u128) -> bool {
        self.shards[self.shard_of(fp)].contains(&fp)
    }

    /// Exact insert across both tiers. Only called from the sequential
    /// merge (disk segment reads share the file cursor).
    fn insert(&mut self, fp: u128) -> Result<bool, SynthError> {
        let s = self.shard_of(fp);
        if self.shards[s].contains(&fp) {
            return Ok(false);
        }
        if let Some(d) = &self.disk {
            for seg in &d.segs[s] {
                if seg.contains(fp)? {
                    return Ok(false);
                }
            }
        }
        self.shards[s].insert(fp);
        self.count += 1;
        if let Some(d) = self.disk.as_mut() {
            d.mem_entries += 1;
            if d.mem_entries * VISITED_ENTRY_BYTES > d.budget {
                // Compacting flush: each shard's in-memory fingerprints
                // merge with its existing segment into a fresh sorted one,
                // so a shard never owns more than a single segment file —
                // membership stays one binary search and the descriptor
                // count stays bounded no matter how small the budget is.
                for (shard, set) in self.shards.iter_mut().enumerate() {
                    if set.is_empty() {
                        continue;
                    }
                    let mut fps: Vec<u128> = set.drain().collect();
                    for seg in d.segs[shard].drain(..) {
                        fps.extend(seg.read_all()?);
                        spill_io(fs::remove_file(&seg.path), "remove compacted segment")?;
                    }
                    fps.sort_unstable();
                    let path = d
                        .dir
                        .path
                        .join(format!("v{}-{}.seg", shard, d.dir.next_seq()));
                    let seg = VisitedSeg::write(&path, &fps)?;
                    d.spilled_bytes += SEG_HEADER + 16 * fps.len() as u64;
                    d.spilled_segments += 1;
                    d.segs[shard].push(seg);
                }
                d.mem_entries = 0;
            }
        }
        Ok(true)
    }

    fn spill_counters(&self) -> (u64, u64) {
        match &self.disk {
            Some(d) => (d.spilled_bytes, d.spilled_segments),
            None => (0, 0),
        }
    }
}

/// Approximate resident bytes per in-memory visited fingerprint (the
/// 16-byte key plus `HashSet` table overhead) — the unit of the visited
/// half of the memory budget.
const VISITED_ENTRY_BYTES: usize = 48;

/// Disk tier of the visited set: per-shard lists of sorted segments.
struct VisitedDisk {
    dir: Arc<SpillDir>,
    budget: usize,
    segs: Vec<Vec<VisitedSeg>>,
    mem_entries: usize,
    spilled_bytes: u64,
    spilled_segments: u64,
}

/// Segment header/footer framing shared by visited and frontier spill
/// files, reusing the `adcs-cache` idiom: an 8-byte magic, a count, and a
/// `checksum64` over the payload.
const SEG_HEADER: u64 = 8 + 8 + 8;
const VSEG_MAGIC: &[u8; 8] = b"ADCSMCV1";
const FSEG_MAGIC: &[u8; 8] = b"ADCSMCF1";

/// A unique per-search spill subdirectory, removed (best effort) when
/// the search's stores drop.
struct SpillDir {
    path: PathBuf,
    seq: AtomicU64,
}

impl SpillDir {
    fn create(base: &Path) -> Result<Arc<SpillDir>, SynthError> {
        static SEARCHES: AtomicU64 = AtomicU64::new(0);
        let path = base.join(format!(
            "mc-{}-{}",
            std::process::id(),
            SEARCHES.fetch_add(1, Ordering::Relaxed)
        ));
        spill_io(fs::create_dir_all(&path), "create spill dir")?;
        Ok(Arc::new(SpillDir {
            path,
            seq: AtomicU64::new(0),
        }))
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

fn spill_io<T>(r: std::io::Result<T>, what: &str) -> Result<T, SynthError> {
    r.map_err(|e| SynthError::Precondition(format!("mc spill: {what}: {e}")))
}

/// The sorted fingerprint segment of a visited shard: header then
/// little-endian `u128`s in ascending order. Membership is a binary
/// search over the file (opened per probe — holding every segment open
/// would exhaust descriptors under small budgets); `min`/`max` reject
/// most probes without touching the file at all.
struct VisitedSeg {
    path: PathBuf,
    count: u64,
    min: u128,
    max: u128,
}

impl VisitedSeg {
    fn write(path: &Path, fps: &[u128]) -> Result<VisitedSeg, SynthError> {
        let mut payload = Vec::with_capacity(fps.len() * 16);
        for fp in fps {
            payload.extend_from_slice(&fp.to_le_bytes());
        }
        let mut file = spill_io(
            File::options()
                .read(true)
                .write(true)
                .create_new(true)
                .open(path),
            "create visited segment",
        )?;
        spill_io(file.write_all(VSEG_MAGIC), "write header")?;
        spill_io(
            file.write_all(&(fps.len() as u64).to_le_bytes()),
            "write header",
        )?;
        spill_io(
            file.write_all(&checksum64(&payload).to_le_bytes()),
            "write header",
        )?;
        spill_io(file.write_all(&payload), "write payload")?;
        Ok(VisitedSeg {
            path: path.to_path_buf(),
            count: fps.len() as u64,
            min: fps.first().copied().unwrap_or(0),
            max: fps.last().copied().unwrap_or(0),
        })
    }

    fn contains(&self, fp: u128) -> Result<bool, SynthError> {
        if fp < self.min || fp > self.max {
            return Ok(false);
        }
        let mut f = spill_io(File::open(&self.path), "open visited segment")?;
        let mut buf = [0u8; 16];
        let (mut lo, mut hi) = (0u64, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            spill_io(f.seek(SeekFrom::Start(SEG_HEADER + mid * 16)), "seek")?;
            spill_io(f.read_exact(&mut buf), "read")?;
            let v = u128::from_le_bytes(buf);
            match v.cmp(&fp) {
                std::cmp::Ordering::Equal => return Ok(true),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(false)
    }

    /// Reads the whole sorted payload back (checksum-verified) — the
    /// input side of a shard compaction.
    fn read_all(&self) -> Result<Vec<u128>, SynthError> {
        let mut f = spill_io(File::open(&self.path), "open visited segment")?;
        spill_io(f.seek(SeekFrom::Start(16)), "seek")?;
        let mut sum = [0u8; 8];
        spill_io(f.read_exact(&mut sum), "read checksum")?;
        let mut payload = vec![0u8; self.count as usize * 16];
        spill_io(f.read_exact(&mut payload), "read payload")?;
        if checksum64(&payload) != u64::from_le_bytes(sum) {
            return Err(SynthError::Precondition(
                "mc spill: visited segment checksum mismatch".into(),
            ));
        }
        Ok(payload
            .chunks_exact(16)
            .map(|c| u128::from_le_bytes(c.try_into().expect("sized")))
            .collect())
    }
}

/// One link of a counterexample trace: the event whose delivery produced
/// this state, chained back to the initial state. Nodes are shared
/// between sibling states via `Arc` (the trace spine is a tree overlaid
/// on the search).
#[derive(Debug)]
struct TraceNode {
    prev: Option<Arc<TraceNode>>,
    ev: PendEv,
}

impl Drop for TraceNode {
    // Unlink iteratively: recursive drop of a deep chain would overflow
    // the stack on long searches.
    fn drop(&mut self) {
        let mut cur = self.prev.take();
        while let Some(node) = cur {
            match Arc::try_unwrap(node) {
                Ok(mut n) => cur = n.prev.take(),
                Err(_) => break,
            }
        }
    }
}

/// A packed wave of frontier states, structure-of-arrays style: `width`
/// fixed words per state (machine states + signal bitset + register
/// presence/values), a flat run of pending events, and the trace spine.
struct Arena {
    width: usize,
    fixed: Vec<u64>,
    pend: Vec<PendEv>,
    pend_idx: Vec<usize>,
    trace: Vec<Option<Arc<TraceNode>>>,
}

impl Arena {
    fn new(width: usize) -> Self {
        Arena {
            width,
            fixed: Vec::new(),
            pend: Vec::new(),
            pend_idx: vec![0],
            trace: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.trace.len()
    }

    fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    fn push(&mut self, fixed: &[u64], pend: &[PendEv], trace: Option<Arc<TraceNode>>) {
        debug_assert_eq!(fixed.len(), self.width);
        self.fixed.extend_from_slice(fixed);
        self.pend.extend_from_slice(pend);
        self.pend_idx.push(self.pend.len());
        self.trace.push(trace);
    }

    fn fixed(&self, i: usize) -> &[u64] {
        &self.fixed[i * self.width..(i + 1) * self.width]
    }

    fn pending(&self, i: usize) -> &[PendEv] {
        &self.pend[self.pend_idx[i]..self.pend_idx[i + 1]]
    }

    fn trace(&self, i: usize) -> &Option<Arc<TraceNode>> {
        &self.trace[i]
    }

    fn clear(&mut self) {
        self.fixed.clear();
        self.pend.clear();
        self.pend_idx.clear();
        self.pend_idx.push(0);
        self.trace.clear();
    }

    /// Drops the last state — the depth-first hunt uses the arena as its
    /// stack.
    fn pop(&mut self) {
        self.trace.pop();
        self.pend_idx.pop();
        self.pend
            .truncate(*self.pend_idx.last().expect("index sentinel"));
        self.fixed.truncate(self.trace.len() * self.width);
    }
}

/// The under-construction next wave: an in-memory tail [`Arena`] plus
/// zero or more spilled segments. On the following wave the segments are
/// replayed in append order before the tail, so the global merge order —
/// and with it the verdict, trace, and every non-spill statistic — is
/// identical to the unspilled run.
struct FrontierStore {
    tail: Arena,
    segs: Vec<FrontierSeg>,
    total: usize,
    tail_bytes: usize,
    /// Trace length of every state in this wave (the BFS depth); feeds
    /// the byte estimate, since a replayed trace chain is unshared.
    depth: usize,
    spill: Option<FrontierSpill>,
}

struct FrontierSpill {
    dir: Arc<SpillDir>,
    budget: usize,
    spilled_bytes: u64,
    spilled_segments: u64,
}

/// One spilled frontier segment; the file is deleted on drop (a consumed
/// wave's segments are never re-read).
struct FrontierSeg {
    path: PathBuf,
    count: u64,
}

impl Drop for FrontierSeg {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Estimated resident bytes of one frontier state: packed words, pending
/// events, one arena slot, and the worst-case (unshared) trace chain.
fn frontier_state_bytes(words: usize, pend: usize, depth: usize) -> usize {
    words * 8 + pend * std::mem::size_of::<PendEv>() + depth * 48 + 64
}

impl FrontierStore {
    fn new(width: usize, spill: Option<FrontierSpill>) -> FrontierStore {
        FrontierStore {
            tail: Arena::new(width),
            segs: Vec::new(),
            total: 0,
            tail_bytes: 0,
            depth: 0,
            spill,
        }
    }

    fn push(
        &mut self,
        fixed: &[u64],
        pend: &[PendEv],
        trace: Option<Arc<TraceNode>>,
    ) -> Result<(), SynthError> {
        let words = self.tail.width;
        let npend = pend.len();
        self.tail.push(fixed, pend, trace);
        self.total += 1;
        if let Some(sp) = &mut self.spill {
            self.tail_bytes += frontier_state_bytes(words, npend, self.depth);
            if self.tail_bytes > sp.budget {
                let path = sp.dir.path.join(format!("f{}.seg", sp.dir.next_seq()));
                let bytes = write_frontier_seg(&path, &self.tail)?;
                sp.spilled_bytes += bytes;
                sp.spilled_segments += 1;
                self.segs.push(FrontierSeg {
                    path,
                    count: self.tail.len() as u64,
                });
                self.tail.clear();
                self.tail_bytes = 0;
            }
        }
        Ok(())
    }

    /// Re-materializes segment `i` as an arena (trace chains rebuilt
    /// root-first).
    fn load_seg(&self, i: usize) -> Result<Arena, SynthError> {
        read_frontier_seg(&self.segs[i].path, self.tail.width, self.segs[i].count)
    }

    /// Empties the store for reuse as the next wave at trace depth
    /// `depth`; consumed segment files are deleted by their drops.
    fn reset(&mut self, depth: usize) {
        self.tail.clear();
        self.segs.clear();
        self.total = 0;
        self.tail_bytes = 0;
        self.depth = depth;
    }

    fn spill_counters(&self) -> (u64, u64) {
        match &self.spill {
            Some(s) => (s.spilled_bytes, s.spilled_segments),
            None => (0, 0),
        }
    }
}

fn encode_ev(out: &mut Vec<u8>, e: &PendEv) {
    out.extend_from_slice(&u32::from(e.machine).to_le_bytes());
    out.extend_from_slice(&(e.signal.index() as u32).to_le_bytes());
    out.push(match e.set {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
}

fn decode_ev(b: &[u8], pos: &mut usize) -> Result<PendEv, SynthError> {
    let m: [u8; 4] = take(b, pos, 4)?.try_into().expect("sized");
    let s: [u8; 4] = take(b, pos, 4)?.try_into().expect("sized");
    let set = match take(b, pos, 1)?[0] {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        x => {
            return Err(SynthError::Precondition(format!(
                "mc spill: corrupt frontier event tag {x}"
            )))
        }
    };
    let machine = u16::try_from(u32::from_le_bytes(m))
        .map_err(|_| SynthError::Precondition("mc spill: corrupt frontier event machine".into()))?;
    Ok(PendEv {
        signal: SignalId::from_raw(u32::from_le_bytes(s)),
        machine,
        set,
    })
}

fn take<'a>(b: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], SynthError> {
    let s = b
        .get(*pos..*pos + n)
        .ok_or_else(|| SynthError::Precondition("mc spill: truncated frontier segment".into()))?;
    *pos += n;
    Ok(s)
}

/// Serializes a frontier arena: per state the fixed words, the pending
/// events, and the *full* trace path root-first (chain sharing is a
/// memory optimization, not part of the state). Returns bytes written.
fn write_frontier_seg(path: &Path, arena: &Arena) -> Result<u64, SynthError> {
    let mut payload = Vec::new();
    let mut spine: Vec<PendEv> = Vec::new();
    for i in 0..arena.len() {
        for w in arena.fixed(i) {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        let pend = arena.pending(i);
        payload.extend_from_slice(&(pend.len() as u32).to_le_bytes());
        for e in pend {
            encode_ev(&mut payload, e);
        }
        spine.clear();
        let mut cur = arena.trace(i).as_ref();
        while let Some(node) = cur {
            spine.push(node.ev);
            cur = node.prev.as_ref();
        }
        payload.extend_from_slice(&(spine.len() as u32).to_le_bytes());
        for e in spine.iter().rev() {
            encode_ev(&mut payload, e);
        }
    }
    let mut file = spill_io(File::create(path), "create frontier segment")?;
    spill_io(file.write_all(FSEG_MAGIC), "write header")?;
    spill_io(
        file.write_all(&(arena.len() as u64).to_le_bytes()),
        "write header",
    )?;
    spill_io(
        file.write_all(&checksum64(&payload).to_le_bytes()),
        "write header",
    )?;
    spill_io(file.write_all(&payload), "write payload")?;
    Ok(SEG_HEADER + payload.len() as u64)
}

fn read_frontier_seg(path: &Path, width: usize, count: u64) -> Result<Arena, SynthError> {
    let mut file = spill_io(File::open(path), "open frontier segment")?;
    let mut head = [0u8; SEG_HEADER as usize];
    spill_io(file.read_exact(&mut head), "read header")?;
    if &head[0..8] != FSEG_MAGIC {
        return Err(SynthError::Precondition(
            "mc spill: frontier segment magic mismatch".into(),
        ));
    }
    let n = u64::from_le_bytes(head[8..16].try_into().expect("sized"));
    let want = u64::from_le_bytes(head[16..24].try_into().expect("sized"));
    if n != count {
        return Err(SynthError::Precondition(
            "mc spill: frontier segment count mismatch".into(),
        ));
    }
    let mut payload = Vec::new();
    spill_io(file.read_to_end(&mut payload), "read payload")?;
    if checksum64(&payload) != want {
        return Err(SynthError::Precondition(
            "mc spill: frontier segment checksum mismatch".into(),
        ));
    }
    let mut arena = Arena::new(width);
    let mut pos = 0usize;
    let mut fixed = vec![0u64; width];
    let mut pend: Vec<PendEv> = Vec::new();
    for _ in 0..n {
        for w in fixed.iter_mut() {
            let bytes: [u8; 8] = take(&payload, &mut pos, 8)?.try_into().expect("sized");
            *w = u64::from_le_bytes(bytes);
        }
        let np: [u8; 4] = take(&payload, &mut pos, 4)?.try_into().expect("sized");
        pend.clear();
        for _ in 0..u32::from_le_bytes(np) {
            let e = decode_ev(&payload, &mut pos)?;
            pend.push(e);
        }
        let nt: [u8; 4] = take(&payload, &mut pos, 4)?.try_into().expect("sized");
        let mut trace: Option<Arc<TraceNode>> = None;
        for _ in 0..u32::from_le_bytes(nt) {
            let ev = decode_ev(&payload, &mut pos)?;
            trace = Some(Arc::new(TraceNode { prev: trace, ev }));
        }
        arena.push(&fixed, &pend, trace);
    }
    Ok(arena)
}

/// The network of one check, compiled onto the packed state words: the
/// machines' control states (two per word), the signal-value bitset, and
/// the register file as a presence bitset plus one value word per
/// register in the sorted universe. Signals are numbered by *global
/// signal bit* — machine-major, signal-minor — and every table below is
/// indexed by it. Successor generation copies a parent's words and runs
/// [`Net::step`] on the copy; nothing is decoded or re-encoded.
struct Net<'a> {
    machines: &'a [&'a XbmMachine],
    /// Global signal bit of each machine's signal 0.
    base: Vec<u32>,
    state_words: usize,
    sig_words: usize,
    presence_words: usize,
    regs: Vec<Reg>,
    words: usize,
    /// Per global signal bit.
    ends: Vec<EndInfo>,
    /// Wire fanout targets, sliced by [`EndInfo::fanout`].
    fanout: Vec<(u16, SignalId)>,
    /// Datapath actions, sliced by [`EndInfo::acts`].
    acts: Vec<Act>,
    stmts: Vec<Stmt>,
    /// Level ends refreshed by statement writes, sliced by
    /// [`Stmt::levels`].
    refresh: Vec<(u16, SignalId)>,
    /// Per machine.
    tables: Vec<Table>,
    /// Every machine's transitions, grouped by source state and in index
    /// order within a group.
    trans: Vec<Trans>,
    /// `(global bit, target value)` of compulsory and level terms.
    terms: Vec<(u32, bool)>,
    outs: Vec<SignalId>,
}

/// What happens at one endpoint (global signal bit).
#[derive(Clone, Default)]
struct EndInfo {
    input: bool,
    /// A condition-level end delivered inside its writer's step.
    sync_level: bool,
    fanout: Range<u32>,
    acts: Range<u32>,
}

/// One datapath reaction to an output toggle: acknowledge on `ack`, and
/// on a rising output first run statement `stmt`.
#[derive(Clone, Copy)]
struct Act {
    ack: SignalId,
    stmt: Option<u32>,
}

/// A statement compiled to register slots.
struct Stmt {
    dest: usize,
    op: Op,
    lhs: Src,
    rhs: Src,
    levels: Range<u32>,
}

#[derive(Clone, Copy)]
enum Src {
    Slot(usize),
    Const(i64),
}

/// A machine's transition index: `from[q]..from[q + 1]` is the slice of
/// [`Net::trans`] leaving state `q`.
struct Table {
    from: Vec<u32>,
    /// The livelock guard: at most `T² + 16` firings per input change.
    guard: usize,
}

/// A transition that can fire (it has a compulsory term).
struct Trans {
    index: u32,
    to: u32,
    terms: Range<u32>,
    outs: Range<u32>,
}

fn span<'v, T>(v: &'v [T], r: &Range<u32>) -> &'v [T] {
    &v[r.start as usize..r.end as usize]
}

/// A delivery that cannot proceed: the violation kind and its detail.
type StepError = (McViolationKind, String);

/// Steps one delivery may take through synchronous level updates before
/// the cascade counts as unsettled.
const CASCADE_GUARD: usize = 10_000;

/// Per-worker buffers of [`Net::step`].
#[derive(Default)]
struct StepScratch {
    immediate: VecDeque<(u16, SignalId, bool)>,
    changes: Vec<(SignalId, bool)>,
}

impl<'a> Net<'a> {
    fn compile(
        machines: &'a [&'a XbmMachine],
        wires: &[Wire],
        dp: &McDatapathSpec,
        stimuli: &McStimuli,
        sync_levels: bool,
    ) -> Result<Net<'a>, SynthError> {
        let mut base = Vec::with_capacity(machines.len());
        let mut ends: Vec<EndInfo> = Vec::new();
        for m in machines {
            base.push(u32::try_from(ends.len()).map_err(|_| {
                SynthError::Precondition(format!(
                    "machine {} has more signals than the packed state layout supports",
                    m.name()
                ))
            })?);
            ends.extend(m.signals().map(|(_, si)| EndInfo {
                input: si.input,
                ..EndInfo::default()
            }));
        }
        let bit_of = |what: &str, m: usize, s: SignalId| -> Result<usize, SynthError> {
            match machines.get(m) {
                Some(machine) if s.index() < machine.signals().count() => {
                    Ok(base[m] as usize + s.index())
                }
                _ => Err(SynthError::Precondition(format!(
                    "datapath {what} references signal #{} of machine #{m}, outside the network",
                    s.index()
                ))),
            }
        };
        let mut regs: Vec<Reg> = dp.regs.iter().map(|(r, _)| r.clone()).collect();
        regs.extend(dp.stmts.iter().map(|s| s.dest.clone()));
        regs.sort();
        regs.dedup();
        if sync_levels {
            for &(m, s) in &stimuli.levels {
                ends[base[m] as usize + s.index()].sync_level = true;
            }
        }

        // Wire fanout and datapath actions, grouped by driving endpoint
        // in declaration order.
        let mut by_src: Vec<Vec<(u16, SignalId)>> = vec![Vec::new(); ends.len()];
        for w in wires {
            by_src[base[w.from.machine] as usize + w.from.signal.index()]
                .extend(w.to.iter().map(|e| (e.machine as u16, e.signal)));
        }
        let mut acts_by_src: Vec<Vec<Act>> = vec![Vec::new(); ends.len()];
        for &((m, s), ref list) in &dp.actions {
            let src = bit_of("action", m, SignalId::from_raw(s))?;
            for action in list {
                let (ack, stmt) = match *action {
                    McAction::Ack(ack) => (ack, None),
                    McAction::Write { stmt, ack } => (ack, stmt),
                };
                bit_of("acknowledge", m, ack)?;
                if stmt.is_some_and(|i| i >= dp.stmts.len()) {
                    return Err(SynthError::Precondition(format!(
                        "datapath action on machine #{m} runs a statement outside its table"
                    )));
                }
                acts_by_src[src].push(Act {
                    ack,
                    stmt: stmt.map(|i| i as u32),
                });
            }
        }
        let mut fanout = Vec::new();
        let mut acts = Vec::new();
        for (e, info) in ends.iter_mut().enumerate() {
            let at = fanout.len() as u32;
            fanout.extend_from_slice(&by_src[e]);
            info.fanout = at..fanout.len() as u32;
            let at = acts.len() as u32;
            acts.extend_from_slice(&acts_by_src[e]);
            info.acts = at..acts.len() as u32;
        }

        let slot = |r: &Reg| regs.binary_search(r).ok();
        let src = |o: Option<&Operand>| match o {
            Some(Operand::Reg(r)) => slot(r).map_or(Src::Const(0), Src::Slot),
            Some(Operand::Const(c)) => Src::Const(*c),
            None => Src::Const(0),
        };
        let mut refresh = Vec::new();
        let mut stmts = Vec::with_capacity(dp.stmts.len());
        for s in &dp.stmts {
            let at = refresh.len() as u32;
            for &(m, lvl, ref reg) in &dp.levels {
                if *reg == s.dest {
                    bit_of("level", m, lvl)?;
                    refresh.push((m as u16, lvl));
                }
            }
            stmts.push(Stmt {
                dest: slot(&s.dest).expect("destinations are in the universe"),
                op: s.op,
                lhs: src(Some(&s.lhs)),
                rhs: src(s.rhs.as_ref()),
                levels: at..refresh.len() as u32,
            });
        }

        let mut tables = Vec::with_capacity(machines.len());
        let mut trans = Vec::new();
        let mut terms = Vec::new();
        let mut outs = Vec::new();
        for (m, machine) in machines.iter().enumerate() {
            let ts = machine.transitions();
            let nstates = ts
                .iter()
                .flat_map(|t| [t.from.index(), t.to.index()])
                .chain([machine.initial().index()])
                .max()
                .map_or(0, |q| q + 1);
            let mut by_state: Vec<Vec<Trans>> = (0..nstates).map(|_| Vec::new()).collect();
            for (index, t) in ts.iter().enumerate() {
                // A burst without a compulsory edge never fires.
                if !t.input.iter().any(|term| term.kind.is_compulsory()) {
                    continue;
                }
                let at = terms.len() as u32;
                terms.extend(
                    t.input
                        .iter()
                        .filter(|term| !term.kind.is_ddc())
                        .map(|term| (base[m] + term.signal.index() as u32, term.kind.target())),
                );
                let term_range = at..terms.len() as u32;
                let at = outs.len() as u32;
                outs.extend(t.output.iter().copied());
                by_state[t.from.index()].push(Trans {
                    index: index as u32,
                    to: t.to.index() as u32,
                    terms: term_range,
                    outs: at..outs.len() as u32,
                });
            }
            let mut from = Vec::with_capacity(nstates + 1);
            for group in by_state {
                from.push(trans.len() as u32);
                trans.extend(group);
            }
            from.push(trans.len() as u32);
            tables.push(Table {
                from,
                guard: ts.len().saturating_mul(ts.len()) + 16,
            });
        }

        let state_words = machines.len().div_ceil(2);
        let sig_words = ends.len().div_ceil(64);
        let presence_words = regs.len().div_ceil(64);
        Ok(Net {
            machines,
            base,
            state_words,
            sig_words,
            presence_words,
            words: state_words + sig_words + presence_words + regs.len(),
            regs,
            ends,
            fanout,
            acts,
            stmts,
            refresh,
            tables,
            trans,
            terms,
            outs,
        })
    }

    /// The packed reset state: initial control states and signal values,
    /// and the datapath's initial register file.
    fn initial(&self, dp: &McDatapathSpec) -> Vec<u64> {
        let mut w = vec![0u64; self.words];
        for (m, machine) in self.machines.iter().enumerate() {
            self.set_state(&mut w, m, machine.initial().index() as u32);
            for (s, si) in machine.signals() {
                self.put(&mut w, self.bit(m, s), si.initial);
            }
        }
        let (pbase, vbase) = (self.reg_base(), self.reg_base() + self.presence_words);
        for (r, v) in &dp.regs {
            let k = self
                .regs
                .binary_search(r)
                .expect("registers are in the universe");
            w[pbase + k / 64] |= 1u64 << (k % 64);
            w[vbase + k] = *v as u64;
        }
        w
    }

    /// First word of the register-file section (presence + values); two
    /// packed states have equal register files iff these suffixes match.
    fn reg_base(&self) -> usize {
        self.state_words + self.sig_words
    }

    /// Decodes the register-file section (`reg_base()` onward) into the
    /// canonical sorted register list.
    fn decode_reg_words(&self, regwords: &[u64]) -> Vec<(Reg, i64)> {
        let vbase = self.presence_words;
        self.regs
            .iter()
            .enumerate()
            .filter(|(slot, _)| (regwords[slot / 64] >> (slot % 64)) & 1 == 1)
            .map(|(slot, r)| (r.clone(), regwords[vbase + slot] as i64))
            .collect()
    }

    fn bit(&self, m: usize, s: SignalId) -> usize {
        self.base[m] as usize + s.index()
    }

    fn get(&self, w: &[u64], bit: usize) -> bool {
        (w[self.state_words + bit / 64] >> (bit % 64)) & 1 == 1
    }

    fn put(&self, w: &mut [u64], bit: usize, v: bool) {
        let word = &mut w[self.state_words + bit / 64];
        *word = (*word & !(1u64 << (bit % 64))) | (u64::from(v) << (bit % 64));
    }

    fn state(&self, w: &[u64], m: usize) -> usize {
        ((w[m / 2] >> ((m % 2) * 32)) & 0xffff_ffff) as usize
    }

    fn set_state(&self, w: &mut [u64], m: usize, q: u32) {
        let sh = (m % 2) * 32;
        w[m / 2] = (w[m / 2] & !(0xffff_ffff << sh)) | (u64::from(q) << sh);
    }

    fn read(&self, w: &[u64], src: Src) -> i64 {
        match src {
            Src::Slot(k) => w[self.reg_base() + self.presence_words + k] as i64,
            Src::Const(c) => c,
        }
    }

    fn machine_error(&self, m: usize, e: XbmError) -> StepError {
        (
            McViolationKind::Ambiguity,
            format!("{}: {e}", self.machines[m].name()),
        )
    }

    /// Delivers one event to the packed state `w`, cascading machine
    /// firings into wire toggles and datapath responses. Synchronous
    /// level updates are applied within the same step; everything else
    /// joins `pend`.
    fn step(
        &self,
        w: &mut [u64],
        pend: &mut Vec<PendEv>,
        ev: PendEv,
        sc: &mut StepScratch,
    ) -> Result<(), StepError> {
        let StepScratch { immediate, changes } = sc;
        immediate.clear();
        let v = ev
            .set
            .unwrap_or_else(|| !self.get(w, self.bit(ev.machine(), ev.signal)));
        immediate.push_back((ev.machine, ev.signal, v));
        let mut guard = 0usize;
        while let Some((m16, s, v)) = immediate.pop_front() {
            guard += 1;
            if guard > CASCADE_GUARD {
                return Err((
                    McViolationKind::Ambiguity,
                    "synchronous level cascade did not settle".into(),
                ));
            }
            let m = usize::from(m16);
            let bit = self.bit(m, s);
            if !self.ends[bit].input {
                let e = XbmError::Direction {
                    signal: s,
                    expected_input: true,
                };
                return Err(self.machine_error(m, e));
            }
            self.put(w, bit, v);
            changes.clear();
            self.fire(w, m, changes)
                .map_err(|e| self.machine_error(m, e))?;
            for &(o, val) in changes.iter() {
                let info = &self.ends[self.bit(m, o)];
                // Channel wires: one toggle per receiving leg; a leg
                // already carrying an undelivered toggle is transmission
                // interference.
                for &(tm, ts) in span(&self.fanout, &info.fanout) {
                    if pend
                        .iter()
                        .any(|p| p.machine == tm && p.signal == ts && p.set.is_none())
                    {
                        let target = self.machines[usize::from(tm)];
                        let name = target.signal(ts).map(|si| si.name.as_str()).unwrap_or("");
                        return Err((
                            McViolationKind::WireInterference,
                            format!("two events in flight on wire {name} of {}", target.name()),
                        ));
                    }
                    pend.push(PendEv {
                        signal: ts,
                        machine: tm,
                        set: None,
                    });
                }
                // Datapath reactions (delays dropped: all orders explored).
                for act in span(&self.acts, &info.acts) {
                    self.respond(immediate, pend, m16, act.ack, val);
                    let Some(si) = act.stmt.filter(|_| val) else {
                        continue;
                    };
                    let st = &self.stmts[si as usize];
                    let x = st.op.apply(self.read(w, st.lhs), self.read(w, st.rhs));
                    let pbase = self.reg_base();
                    w[pbase + st.dest / 64] |= 1u64 << (st.dest % 64);
                    w[pbase + self.presence_words + st.dest] = x as u64;
                    for &(lm, ls) in span(&self.refresh, &st.levels) {
                        self.respond(immediate, pend, lm, ls, x != 0);
                    }
                }
            }
        }
        Ok(())
    }

    /// Routes one datapath response: into the running step for a
    /// synchronous level end, onto the pending list otherwise.
    fn respond(
        &self,
        immediate: &mut VecDeque<(u16, SignalId, bool)>,
        pend: &mut Vec<PendEv>,
        m: u16,
        s: SignalId,
        v: bool,
    ) {
        if self.ends[self.bit(usize::from(m), s)].sync_level {
            immediate.push_back((m, s, v));
        } else {
            pend.push(PendEv {
                signal: s,
                machine: m,
                set: Some(v),
            });
        }
    }

    /// Fires machine `m`'s enabled transitions until it quiesces,
    /// appending its output changes in firing order. A transition is
    /// enabled once every compulsory edge and sampled level of its burst
    /// matches; two at once is a runtime burst ambiguity.
    fn fire(
        &self,
        w: &mut [u64],
        m: usize,
        changes: &mut Vec<(SignalId, bool)>,
    ) -> Result<(), XbmError> {
        let table = &self.tables[m];
        for _ in 0..table.guard {
            let q = self.state(w, m);
            let group = match table.from.get(q..q + 2) {
                Some(&[lo, hi]) => &self.trans[lo as usize..hi as usize],
                _ => &[],
            };
            let mut found: Option<&Trans> = None;
            for t in group {
                let enabled = span(&self.terms, &t.terms)
                    .iter()
                    .all(|&(b, target)| self.get(w, b as usize) == target);
                if !enabled {
                    continue;
                }
                if let Some(prev) = found {
                    return Err(XbmError::Structure(format!(
                        "transitions #{} and #{} both enabled in {}",
                        prev.index,
                        t.index,
                        StateId::from_raw(q as u32)
                    )));
                }
                found = Some(t);
            }
            let Some(t) = found else {
                return Ok(());
            };
            for &o in span(&self.outs, &t.outs) {
                let b = self.bit(m, o);
                let nv = !self.get(w, b);
                self.put(w, b, nv);
                changes.push((o, nv));
            }
            self.set_state(w, m, t.to);
        }
        Err(XbmError::Structure(format!(
            "machine {} did not quiesce (livelock?)",
            self.machines[m].name()
        )))
    }
}

/// Per-worker scratch: the step buffers, the successor's pending list,
/// the chunk's emitted fingerprints, and the partial-order reduction
/// buffers, so the expansion loop is allocation-free once warm.
#[derive(Default)]
struct Ctx {
    step: StepScratch,
    pend: Vec<PendEv>,
    /// Fingerprints the current chunk already emitted: a later duplicate
    /// would only fail its merge-side insert, so it is dropped here.
    seen: FpSet,
    // Partial-order reduction scratch (see `Por::select`).
    por_mach: Vec<usize>,
    por_uf: Vec<u32>,
    por_cnt: Vec<u32>,
    por_keep: Vec<bool>,
}

/// What one frontier state produced.
enum StateOut {
    /// Quiescent — no in-flight events.
    Terminal,
    /// Expanded into `n` successors that passed the pre-filter. With
    /// `reduced`, only the ample events were delivered and `pruned`
    /// eligible commuting firings were skipped (the merge re-expands the
    /// state in full if the cycle proviso demands it).
    Expanded { n: u32, reduced: bool, pruned: u32 },
    /// Delivery of `ev` failed; the chunk stopped here.
    Violation {
        kind: McViolationKind,
        detail: String,
        ev: PendEv,
    },
}

struct SuccMeta {
    fp: u128,
    pend_len: u32,
    ev: PendEv,
}

/// One chunk's discoveries, packed for the sequential merge.
struct ChunkOut {
    results: Vec<StateOut>,
    fixed: Vec<u64>,
    pend: Vec<PendEv>,
    meta: Vec<SuccMeta>,
}

/// Expands `range` of the frontier into `ChunkOut`. Stops at the first
/// violating delivery: everything it would have produced afterwards is
/// strictly later in the global (state, event) order, so the merge never
/// misses an earlier counterexample.
///
/// A successor whose fingerprint the chunk already emitted is dropped:
/// the merge inserts the earlier copy first, so the later one could only
/// fail its insert — under the budget stop, the cycle proviso's
/// `any_new`, and the depth hunt alike.
fn expand_chunk(
    ctx: &mut Ctx,
    net: &Net<'_>,
    frontier: &Arena,
    range: Range<usize>,
    visited: &ShardedVisited,
    por: Option<&Por>,
) -> Result<ChunkOut, SynthError> {
    let mut out = ChunkOut {
        results: Vec::with_capacity(range.len()),
        fixed: Vec::new(),
        pend: Vec::new(),
        meta: Vec::new(),
    };
    ctx.seen.clear();
    'states: for g in range {
        let pend = frontier.pending(g);
        if pend.is_empty() {
            out.results.push(StateOut::Terminal);
            continue;
        }
        let reduced = match por {
            Some(p) => p.select(
                net,
                pend,
                &mut ctx.por_mach,
                &mut ctx.por_uf,
                &mut ctx.por_cnt,
                &mut ctx.por_keep,
            ),
            None => false,
        };
        let fixed = frontier.fixed(g);
        let marks = (out.fixed.len(), out.pend.len(), out.meta.len());
        let mut n_succ = 0u32;
        let mut pruned = 0u32;
        for i in 0..pend.len() {
            if !eligible_at(pend, i) {
                continue;
            }
            if reduced && !ctx.por_keep[i] {
                pruned += 1;
                continue;
            }
            let mark = out.fixed.len();
            out.fixed.extend_from_slice(fixed);
            ctx.pend.clear();
            ctx.pend.extend_from_slice(pend);
            let ev = ctx.pend.remove(i);
            if let Err((kind, detail)) =
                net.step(&mut out.fixed[mark..], &mut ctx.pend, ev, &mut ctx.step)
            {
                // Drop this state's earlier successors: the merge returns
                // at the violation, so they would only desync its cursors.
                out.fixed.truncate(marks.0);
                out.pend.truncate(marks.1);
                out.meta.truncate(marks.2);
                out.results.push(StateOut::Violation { kind, detail, ev });
                break 'states;
            }
            canonicalize(&mut ctx.pend);
            let fp = fingerprint(&out.fixed[mark..], &ctx.pend);
            if visited.contains_mem(fp) || !ctx.seen.insert(fp) {
                out.fixed.truncate(mark);
            } else {
                out.pend.extend_from_slice(&ctx.pend);
                let pend_len = u32::try_from(ctx.pend.len()).map_err(|_| {
                    SynthError::Precondition(
                        "pending-event set exceeds the packed successor limit".into(),
                    )
                })?;
                out.meta.push(SuccMeta { fp, pend_len, ev });
                n_succ += 1;
            }
        }
        out.results.push(StateOut::Expanded {
            n: n_succ,
            reduced,
            pruned,
        });
    }
    Ok(out)
}

/// Exhaustively explores every delivery order of the network's events.
///
/// Returns [`McVerdict::Verified`] when all interleavings quiesce in one
/// outcome, a [`McVerdict::Violation`] with the first counterexample in
/// traversal order otherwise (the shallowest one under the default
/// [`McOrder::Wave`]), or [`McVerdict::Budget`] if `opts.max_states` was
/// reached. The result is deterministic: identical for every thread
/// count (see the module docs).
///
/// # Errors
///
/// [`SynthError::Xbm`] if the initial level stimuli are rejected by a
/// machine (structural mis-wiring, as opposed to a search result).
pub fn model_check<D: McDatapath>(
    machines: &[&XbmMachine],
    wires: &[Wire],
    datapath: D,
    stimuli: &McStimuli,
    opts: &McOptions,
) -> Result<McVerdict, SynthError> {
    validate_network(machines, wires, stimuli)?;
    if opts.spill_dir.is_some() && opts.order == McOrder::Depth {
        return Err(SynthError::Precondition(
            "mc: spill_dir requires the wave order (the depth-first hunt is in-memory only)".into(),
        ));
    }
    if opts.memory_budget.is_some() && opts.spill_dir.is_none() {
        return Err(SynthError::Precondition(
            "mc: memory_budget without spill_dir has nothing to spill to".into(),
        ));
    }
    adcs_obs::span("mc.search", || {
        let verdict = match opts.threads {
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n.max(1))
                .build()
                .map_err(|e| SynthError::Precondition(format!("model-checker thread pool: {e}")))?
                .install(|| search(machines, wires, datapath, stimuli, opts)),
            None => search(machines, wires, datapath, stimuli, opts),
        }?;
        let s = verdict.stats();
        adcs_obs::meta("states", s.states as u64);
        adcs_obs::meta("batches", s.batches as u64);
        adcs_obs::meta("peak_frontier", s.peak_frontier as u64);
        Ok(verdict)
    })
}

/// Rejects wires and stimuli that reference machines or signals outside
/// the network before the search dereferences them — a malformed system
/// description must come back as an `Err`, not an index panic deep in
/// event delivery.
fn validate_network(
    machines: &[&XbmMachine],
    wires: &[Wire],
    stimuli: &McStimuli,
) -> Result<(), SynthError> {
    if machines.len() > usize::from(u16::MAX) {
        return Err(SynthError::Precondition(format!(
            "the network has {} machines; the checker packs machine indices into 16 bits",
            machines.len()
        )));
    }
    let check = |what: &str, m: usize, s: SignalId| -> Result<(), SynthError> {
        let machine = *machines.get(m).ok_or_else(|| {
            SynthError::Precondition(format!(
                "{what} references machine #{m}, but the network has {} machines",
                machines.len()
            ))
        })?;
        machine.signal(s).map_err(|_| {
            SynthError::Precondition(format!(
                "{what} references unknown signal #{} of machine {}",
                s.index(),
                machine.name()
            ))
        })?;
        Ok(())
    };
    for w in wires {
        check("wire source", w.from.machine, w.from.signal)?;
        for e in &w.to {
            check("wire sink", e.machine, e.signal)?;
        }
    }
    for &(m, s) in &stimuli.kicks {
        check("kick stimulus", m, s)?;
    }
    for &(m, s, _) in &stimuli.level_init {
        check("initial level", m, s)?;
    }
    for &(m, s) in &stimuli.levels {
        check("level end", m, s)?;
    }
    Ok(())
}

fn search<D: McDatapath>(
    machines: &[&XbmMachine],
    wires: &[Wire],
    datapath: D,
    stimuli: &McStimuli,
    opts: &McOptions,
) -> Result<McVerdict, SynthError> {
    let spec = datapath.spec();
    let net = Net::compile(machines, wires, &spec, stimuli, opts.synchronous_levels)?;

    // Initial conditions are set synchronously, before the start events.
    let mut init_fixed = net.initial(&spec);
    let mut pending: Vec<PendEv> = Vec::new();
    let mut scratch = StepScratch::default();
    for &(m, s, v) in &stimuli.level_init {
        net.step(
            &mut init_fixed,
            &mut pending,
            PendEv::new(m, s, Some(v)),
            &mut scratch,
        )
        .map_err(|(_, detail)| SynthError::Extract(format!("initial levels: {detail}")))?;
    }
    for &(m, s) in &stimuli.kicks {
        pending.push(PendEv::new(m, s, None));
    }
    canonicalize(&mut pending);

    let por = opts.por.then(|| Por::build(&net, opts.synchronous_levels));
    let por = por.as_ref();

    if opts.order == McOrder::Depth {
        return search_depth(machines, &net, &init_fixed, &pending, opts, por);
    }

    let spill_dir = match &opts.spill_dir {
        Some(base) => Some(SpillDir::create(base)?),
        None => None,
    };
    let budget = opts.memory_budget.unwrap_or(DEFAULT_MEMORY_BUDGET);

    let mut visited = ShardedVisited::new(opts.shard_bits);
    if let Some(dir) = &spill_dir {
        visited.attach_disk(Arc::clone(dir), budget / 2);
    }
    visited.insert(fingerprint(&init_fixed, &pending))?;
    let fspill = |dir: &Option<Arc<SpillDir>>| {
        dir.as_ref().map(|d| FrontierSpill {
            dir: Arc::clone(d),
            budget: (budget / 4).max(1),
            spilled_bytes: 0,
            spilled_segments: 0,
        })
    };
    let mut cur = FrontierStore::new(net.words, fspill(&spill_dir));
    cur.push(&init_fixed, &pending, None)?;
    let mut nxt = FrontierStore::new(net.words, fspill(&spill_dir));

    let workers = rayon::current_num_threads().max(1);
    let ctx_pool: Vec<Mutex<Ctx>> = (0..workers).map(|_| Mutex::default()).collect();

    let mut stats = McStats {
        shards: visited.shards.len(),
        ..McStats::default()
    };
    // First-terminal register words (the `reg_base()` suffix); every
    // other terminal must match them exactly.
    let mut outcome: Option<Vec<u64>> = None;
    // Folds the budget-dependent spill counters into the stats; called
    // before every return.
    macro_rules! seal {
        () => {{
            let (vb, vs) = visited.spill_counters();
            let (cb, cs) = cur.spill_counters();
            let (nb, ns2) = nxt.spill_counters();
            stats.spilled_bytes = vb + cb + nb;
            stats.spilled_segments = vs + cs + ns2;
        }};
    }

    loop {
        if cur.total == 0 {
            break;
        }
        stats.peak_frontier = stats.peak_frontier.max(cur.total);
        if visited.count >= opts.max_states {
            // The mid-wave check below returns the moment the count first
            // exceeds the budget, so here count == max_states exactly: a
            // clean wave-boundary stop, no clamp needed.
            stats.states = visited.count;
            seal!();
            return Ok(McVerdict::Budget(stats));
        }
        stats.batches += 1;
        if !cur.segs.is_empty() {
            stats.reread_waves += 1;
        }
        nxt.depth = cur.depth + 1;

        // The wave's parts: every spilled segment in append order, then
        // the in-memory tail — the same global state order as an
        // unspilled frontier.
        let nseg = cur.segs.len();
        for part in 0..=nseg {
            let loaded;
            let frontier: &Arena = if part < nseg {
                loaded = cur.load_seg(part)?;
                &loaded
            } else {
                &cur.tail
            };
            if frontier.is_empty() {
                continue;
            }

            let n = frontier.len();
            let chunk = n.div_ceil(workers * 2).max(MIN_CHUNK);
            let nchunks = n.div_ceil(chunk);
            let outs: Vec<Result<ChunkOut, SynthError>> = (0..nchunks)
                .into_par_iter()
                .map(|c| {
                    let mut guard = loop {
                        // The shim runs at most `workers` closures at once, so
                        // a free context always exists; the spin is cold.
                        match ctx_pool.iter().find_map(|m| m.try_lock().ok()) {
                            Some(g) => break g,
                            None => std::thread::yield_now(),
                        }
                    };
                    expand_chunk(
                        &mut guard,
                        &net,
                        frontier,
                        c * chunk..((c + 1) * chunk).min(n),
                        &visited,
                        por,
                    )
                })
                .collect();

            // Sequential merge in global state order: this is what makes the
            // verdict, stats, and trace independent of the chunk schedule.
            for (c, out) in outs.into_iter().enumerate() {
                let out = out?;
                let (mut mcur, mut fcur, mut pcur) = (0usize, 0usize, 0usize);
                for (local, res) in out.results.iter().enumerate() {
                    let g = c * chunk + local;
                    stats.max_pending = stats.max_pending.max(frontier.pending(g).len());
                    match res {
                        StateOut::Terminal => {
                            stats.terminals += 1;
                            let regs = &frontier.fixed(g)[net.reg_base()..];
                            match &outcome {
                                None => outcome = Some(regs.to_vec()),
                                Some(first) if first.as_slice() != regs => {
                                    stats.states = visited.count;
                                    let detail = diff_outcomes(
                                        &net.decode_reg_words(first),
                                        &net.decode_reg_words(regs),
                                    );
                                    seal!();
                                    return Ok(McVerdict::Violation {
                                        kind: McViolationKind::DivergentOutcome,
                                        detail,
                                        trace: render_trace(machines, frontier.trace(g), None),
                                        stats,
                                    });
                                }
                                Some(_) => {}
                            }
                        }
                        StateOut::Violation { kind, detail, ev } => {
                            stats.states = visited.count;
                            seal!();
                            return Ok(McVerdict::Violation {
                                kind: *kind,
                                detail: detail.clone(),
                                trace: render_trace(machines, frontier.trace(g), Some(*ev)),
                                stats,
                            });
                        }
                        StateOut::Expanded {
                            n: n_succ,
                            reduced,
                            pruned,
                        } => {
                            let mut any_new = false;
                            for _ in 0..*n_succ {
                                let meta = &out.meta[mcur];
                                mcur += 1;
                                let fslice = &out.fixed[fcur..fcur + net.words];
                                fcur += net.words;
                                let pslice = &out.pend[pcur..pcur + meta.pend_len as usize];
                                pcur += meta.pend_len as usize;
                                if !visited.insert(meta.fp)? {
                                    continue;
                                }
                                any_new = true;
                                if visited.count > opts.max_states {
                                    stats.truncated = true;
                                    stats.states = opts.max_states;
                                    seal!();
                                    return Ok(McVerdict::Budget(stats));
                                }
                                nxt.push(
                                    fslice,
                                    pslice,
                                    Some(Arc::new(TraceNode {
                                        prev: frontier.trace(g).clone(),
                                        ev: meta.ev,
                                    })),
                                )?;
                            }
                            if *reduced {
                                if any_new {
                                    stats.ample_hits += 1;
                                    stats.pruned += u64::from(*pruned);
                                } else {
                                    // Cycle proviso: every ample successor
                                    // was already visited, so the reduced
                                    // move may close a cycle that postpones
                                    // a pruned event forever. Re-expand the
                                    // state in full at this (deterministic)
                                    // merge position.
                                    let full = {
                                        let mut g0 = lock_recover(&ctx_pool[0]);
                                        expand_chunk(
                                            &mut g0,
                                            &net,
                                            frontier,
                                            g..g + 1,
                                            &visited,
                                            None,
                                        )?
                                    };
                                    if let StateOut::Violation { kind, detail, ev } =
                                        &full.results[0]
                                    {
                                        stats.states = visited.count;
                                        seal!();
                                        return Ok(McVerdict::Violation {
                                            kind: *kind,
                                            detail: detail.clone(),
                                            trace: render_trace(
                                                machines,
                                                frontier.trace(g),
                                                Some(*ev),
                                            ),
                                            stats,
                                        });
                                    }
                                    let (mut ffcur, mut fpcur) = (0usize, 0usize);
                                    for meta in &full.meta {
                                        let fslice = &full.fixed[ffcur..ffcur + net.words];
                                        ffcur += net.words;
                                        let pslice =
                                            &full.pend[fpcur..fpcur + meta.pend_len as usize];
                                        fpcur += meta.pend_len as usize;
                                        if !visited.insert(meta.fp)? {
                                            continue;
                                        }
                                        if visited.count > opts.max_states {
                                            stats.truncated = true;
                                            stats.states = opts.max_states;
                                            seal!();
                                            return Ok(McVerdict::Budget(stats));
                                        }
                                        nxt.push(
                                            fslice,
                                            pslice,
                                            Some(Arc::new(TraceNode {
                                                prev: frontier.trace(g).clone(),
                                                ev: meta.ev,
                                            })),
                                        )?;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        std::mem::swap(&mut cur, &mut nxt);
        nxt.reset(cur.depth + 1);
    }

    stats.states = visited.count;
    seal!();
    Ok(McVerdict::Verified {
        outcome: outcome
            .map(|w| net.decode_reg_words(&w))
            .unwrap_or_default(),
        stats,
    })
}

/// Default [`McOptions::memory_budget`] when a spill directory is set
/// without one.
const DEFAULT_MEMORY_BUDGET: usize = 512 << 20;

/// Minimum frontier chunk: below this, parallel dispatch overhead beats
/// any expansion win, so small waves run as a single inline chunk.
const MIN_CHUNK: usize = 64;

/// The sequential depth-first hunt (see [`McOrder::Depth`]): the arena
/// doubles as the search stack and every pop runs through the same
/// single-state chunk expansion as the wave search, so delivery
/// semantics, violation detection, and budget accounting are shared.
fn search_depth(
    machines: &[&XbmMachine],
    net: &Net<'_>,
    init_fixed: &[u64],
    pending: &[PendEv],
    opts: &McOptions,
    por: Option<&Por>,
) -> Result<McVerdict, SynthError> {
    let mut ctx = Ctx::default();
    let mut visited = ShardedVisited::new(opts.shard_bits);
    visited.insert(fingerprint(init_fixed, pending))?;
    let mut stack = Arena::new(net.words);
    stack.push(init_fixed, pending, None);
    let mut stats = McStats {
        shards: visited.shards.len(),
        ..McStats::default()
    };
    let mut outcome: Option<Vec<u64>> = None;

    while !stack.is_empty() {
        stats.peak_frontier = stats.peak_frontier.max(stack.len());
        if visited.count >= opts.max_states {
            // The mid-push check below returns as soon as the count first
            // exceeds the budget, so here count == max_states exactly.
            stats.states = visited.count;
            return Ok(McVerdict::Budget(stats));
        }
        stats.batches += 1;
        let g = stack.len() - 1;
        stats.max_pending = stats.max_pending.max(stack.pending(g).len());
        let mut out = expand_chunk(&mut ctx, net, &stack, g..g + 1, &visited, por)?;
        if let StateOut::Expanded {
            reduced: true,
            pruned,
            ..
        } = out.results[0]
        {
            // Cycle proviso, depth flavor: if every ample successor is
            // already visited, the reduced move may close a cycle that
            // postpones a pruned event forever — fall back to the full
            // expansion of this state before popping it. Depth rejects
            // spill_dir up front, so the memory tier is the whole set and
            // contains_mem is exact here.
            let any_new = out.meta.iter().any(|m| !visited.contains_mem(m.fp));
            if !any_new {
                out = expand_chunk(&mut ctx, net, &stack, g..g + 1, &visited, None)?;
            } else {
                stats.ample_hits += 1;
                stats.pruned += u64::from(pruned);
            }
        }
        let trace = stack.trace(g).clone();
        match &out.results[0] {
            StateOut::Terminal => {
                stats.terminals += 1;
                let regs = &stack.fixed(g)[net.reg_base()..];
                match &outcome {
                    None => outcome = Some(regs.to_vec()),
                    Some(first) if first.as_slice() != regs => {
                        stats.states = visited.count;
                        let detail = diff_outcomes(
                            &net.decode_reg_words(first),
                            &net.decode_reg_words(regs),
                        );
                        return Ok(McVerdict::Violation {
                            kind: McViolationKind::DivergentOutcome,
                            detail,
                            trace: render_trace(machines, &trace, None),
                            stats,
                        });
                    }
                    Some(_) => {}
                }
                stack.pop();
            }
            StateOut::Violation { kind, detail, ev } => {
                stats.states = visited.count;
                return Ok(McVerdict::Violation {
                    kind: *kind,
                    detail: detail.clone(),
                    trace: render_trace(machines, &trace, Some(*ev)),
                    stats,
                });
            }
            StateOut::Expanded { .. } => {
                stack.pop();
                let mut offs = Vec::with_capacity(out.meta.len());
                let (mut fcur, mut pcur) = (0usize, 0usize);
                for meta in &out.meta {
                    offs.push((fcur, pcur));
                    fcur += net.words;
                    pcur += meta.pend_len as usize;
                }
                // Push in event order: LIFO then dives along the
                // highest-indexed event first, the traversal the retired
                // depth-first checker used.
                for (i, meta) in out.meta.iter().enumerate() {
                    if !visited.insert(meta.fp)? {
                        continue;
                    }
                    if visited.count > opts.max_states {
                        stats.truncated = true;
                        stats.states = opts.max_states;
                        return Ok(McVerdict::Budget(stats));
                    }
                    let (f, p) = offs[i];
                    stack.push(
                        &out.fixed[f..f + net.words],
                        &out.pend[p..p + meta.pend_len as usize],
                        Some(Arc::new(TraceNode {
                            prev: trace.clone(),
                            ev: meta.ev,
                        })),
                    );
                }
            }
        }
    }

    stats.states = visited.count;
    Ok(McVerdict::Verified {
        outcome: outcome
            .map(|w| net.decode_reg_words(&w))
            .unwrap_or_default(),
        stats,
    })
}

/// Convenience wrapper: checks the system a flow produced, using the
/// datapath's own level list for the setup-time assumption.
///
/// # Errors
///
/// Same as [`model_check`].
pub fn model_check_system(
    parts: &SystemParts<'_>,
    opts: &McOptions,
) -> Result<McVerdict, SynthError> {
    let stimuli = McStimuli {
        kicks: parts.kicks.clone(),
        level_init: parts.level_init.clone(),
        levels: parts.datapath.level_ends(),
    };
    model_check(
        &parts.machines,
        &parts.wires,
        parts.datapath.clone(),
        &stimuli,
        opts,
    )
}

fn diff_outcomes(a: &[(Reg, i64)], b: &[(Reg, i64)]) -> String {
    for (x, y) in a.iter().zip(b) {
        if x != y {
            return format!(
                "terminal register files diverge: {} = {} vs {} = {}",
                x.0, x.1, y.0, y.1
            );
        }
    }
    "terminal register files diverge".into()
}

/// Renders a trace spine (plus an optional final violating delivery) as
/// `machine.signal~` / `machine.signal=v` strings, oldest first.
fn render_trace(
    machines: &[&XbmMachine],
    spine: &Option<Arc<TraceNode>>,
    last: Option<PendEv>,
) -> Vec<String> {
    let mut evs: Vec<PendEv> = Vec::new();
    let mut cur = spine.as_ref();
    while let Some(node) = cur {
        evs.push(node.ev);
        cur = node.prev.as_ref();
    }
    evs.reverse();
    evs.extend(last);
    evs.iter()
        .map(|e| {
            let m = machines[e.machine()];
            let sig = m
                .signal(e.signal)
                .map(|si| si.name.clone())
                .unwrap_or_else(|_| format!("sig{}", e.signal.index()));
            match e.set {
                None => format!("{}.{}~", m.name(), sig),
                Some(v) => format!("{}.{}={}", m.name(), sig, u8::from(v)),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Cross-candidate verdict cache
// ---------------------------------------------------------------------------

type VerdictSlot = Arc<Mutex<Option<Arc<McVerdict>>>>;

/// Cross-candidate model-checking cache, mirroring `TimingCache` /
/// `MinimizeCache`: verdicts are memoized under a structural fingerprint
/// of machine set ⊕ wire network ⊕ stimuli ⊕ datapath behavior ⊕ the
/// verdict-relevant options, so explorer candidates that synthesize
/// identical controller networks skip verification entirely. Each entry
/// holds its own slot lock for the duration of the first check, so
/// concurrent racers on the same network share one search.
#[derive(Debug, Default)]
pub struct McCache {
    entries: Mutex<HashMap<u128, VerdictSlot>>,
    hits: Counter,
    misses: Counter,
    disk_hits: Counter,
    /// Persistent tier: verdicts keyed directly on the system fingerprint.
    store: Option<Arc<Store>>,
}

impl McCache {
    /// An empty cache with private counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache whose hit/miss counters live in `metrics` (as
    /// `cache.mc.hit` / `cache.mc.miss` / `cache.mc.disk_hit`), so the
    /// cache reports through the unified registry instead of keeping
    /// private atomics.
    pub fn with_metrics(metrics: &Metrics) -> Self {
        McCache {
            hits: metrics.counter("cache.mc.hit"),
            misses: metrics.counter("cache.mc.miss"),
            disk_hits: metrics.counter("cache.mc.disk_hit"),
            ..McCache::default()
        }
    }

    /// Attaches the persistent tier: slot misses consult `store` before
    /// searching, and fresh verdicts are written through.
    pub fn attach_store(&mut self, store: Arc<Store>) {
        self.store = Some(store);
    }

    /// Slot misses served by the persistent tier.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.get()
    }

    /// Checks hit since construction.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Checks missed (actually searched) since construction.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Memoized verdicts currently resident (including in-flight slots).
    pub fn entries(&self) -> u64 {
        lock_recover(&self.entries).len() as u64
    }

    /// Checks `parts`, reusing a memoized verdict when an identical
    /// network was already checked. Returns the verdict and whether it
    /// came from the cache.
    ///
    /// # Errors
    ///
    /// Same as [`model_check`] (errors are not cached).
    pub fn check_system(
        &self,
        parts: &SystemParts<'_>,
        opts: &McOptions,
    ) -> Result<(Arc<McVerdict>, bool), SynthError> {
        self.check_keyed(system_fingerprint(parts, opts), || {
            model_check_system(parts, opts)
        })
    }

    /// The generic memoization layer under [`Self::check_system`]: runs
    /// `run` only if `key` has no memoized verdict yet.
    ///
    /// Both locks recover from poisoning: a panicking candidate leaves
    /// the map and every slot structurally intact (entries are only ever
    /// written whole), so one failed check must not wedge the cache for
    /// every later candidate in an explore sweep.
    ///
    /// # Errors
    ///
    /// Propagates `run`'s error without caching it.
    pub fn check_keyed(
        &self,
        key: u128,
        run: impl FnOnce() -> Result<McVerdict, SynthError>,
    ) -> Result<(Arc<McVerdict>, bool), SynthError> {
        let slot = {
            let mut entries = lock_recover(&self.entries);
            Arc::clone(entries.entry(key).or_default())
        };
        let mut cell = lock_recover(&slot);
        if let Some(v) = cell.as_ref() {
            self.hits.inc();
            return Ok((Arc::clone(v), true));
        }
        if let Some(store) = &self.store {
            if let Some(v) = store
                .get(ns::MC, key)
                .and_then(|b| crate::persist::decode_mc(&b))
            {
                // A disk hit is a hit: no search ran, and the verdict is
                // bit-identical to the one proved for this fingerprint.
                self.hits.inc();
                self.disk_hits.inc();
                let v = Arc::new(v);
                *cell = Some(Arc::clone(&v));
                return Ok((v, true));
            }
        }
        self.misses.inc();
        let v = Arc::new(run()?);
        *cell = Some(Arc::clone(&v));
        if let Some(store) = &self.store {
            store.put(ns::MC, key, crate::persist::encode_mc(&v));
        }
        Ok((v, false))
    }
}

/// Structural fingerprint of everything a system check's verdict depends
/// on. Wire delays are deliberately excluded (the checker explores all
/// delay assignments); thread count likewise (the verdict is
/// thread-invariant), but `shard_bits` is included because it shows up in
/// [`McStats::shards`].
pub fn system_fingerprint(parts: &SystemParts<'_>, opts: &McOptions) -> u128 {
    // StableHasher (not DefaultHasher): this key addresses the persistent
    // verdict store, so it must mean the same network in every process.
    let mut h1 = StableHasher::with_salt(0x9e37_79b9_7f4a_7c15);
    hash_check_inputs(&mut h1, parts, opts);
    let mut h2 = StableHasher::with_salt(0xc2b2_ae3d_27d4_eb4f);
    hash_check_inputs(&mut h2, parts, opts);
    (u128::from(h1.finish()) << 64) | u128::from(h2.finish())
}

fn hash_check_inputs<H: Hasher>(h: &mut H, parts: &SystemParts<'_>, opts: &McOptions) {
    parts.machines.len().hash(h);
    for m in &parts.machines {
        hash_machine(h, m);
    }
    parts.wires.len().hash(h);
    for w in &parts.wires {
        (w.from.machine, w.from.signal.index()).hash(h);
        w.to.len().hash(h);
        for e in &w.to {
            (e.machine, e.signal.index()).hash(h);
        }
    }
    parts.kicks.len().hash(h);
    for &(m, s) in &parts.kicks {
        (m, s.index()).hash(h);
    }
    parts.level_init.len().hash(h);
    for &(m, s, v) in &parts.level_init {
        (m, s.index(), v).hash(h);
    }
    for (m, s) in parts.datapath.level_ends() {
        (m, s.index()).hash(h);
    }
    parts.datapath.behavior_hash(h);
    opts.max_states.hash(h);
    opts.synchronous_levels.hash(h);
    opts.shard_bits.hash(h);
    opts.order.hash(h);
    // POR changes the stats (and which counterexample a Violation lands
    // on), so reduced and full runs must not share a cache slot.
    // spill_dir / memory_budget are deliberately excluded: spilling is
    // verdict- and trace-invariant by construction.
    opts.por.hash(h);
}

fn hash_machine<H: Hasher>(h: &mut H, m: &XbmMachine) {
    m.name().hash(h);
    m.initial().index().hash(h);
    for (id, si) in m.signals() {
        (id.index(), si.name.as_str(), si.kind, si.input, si.initial).hash(h);
    }
    for (id, name) in m.states() {
        (id.index(), name).hash(h);
    }
    m.transitions().len().hash(h);
    for t in m.transitions() {
        (t.from.index(), t.to.index()).hash(h);
        t.input.hash(h);
        for o in &t.output {
            o.index().hash(h);
        }
    }
}

#[cfg(test)]
#[path = "../../../tests/common/program.rs"]
mod test_programs;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelMap;
    use crate::extract::{extract, ExpansionStyle, ExtractOptions, Extraction};
    use crate::flow::{Flow, FlowOptions};
    use crate::system::{system_parts, SystemDatapath, SystemDelays};
    use adcs_cdfg::benchmarks::{diffeq, gcd, DiffeqParams};
    use adcs_sim::network::{Datapath, WireEnd};
    use adcs_xbm::interp::Interp;
    use adcs_xbm::{Term, XbmBuilder};
    use proptest::prelude::*;

    /// in+ / out+ ; in- / out-.
    fn repeater(name: &str) -> XbmMachine {
        let mut b = XbmBuilder::new(name);
        let i = b.input("in", false);
        let o = b.output("out", false);
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.transition(s0, s1, [Term::rise(i)], [o]).unwrap();
        b.transition(s1, s0, [Term::fall(i)], [o]).unwrap();
        b.finish(s0).unwrap()
    }

    fn wire(fm: usize, fs: SignalId, tm: usize, ts: SignalId) -> Wire {
        Wire {
            from: WireEnd {
                machine: fm,
                signal: fs,
            },
            to: vec![WireEnd {
                machine: tm,
                signal: ts,
            }],
            delay: 1,
        }
    }

    /// A line or ring of `n` repeaters: machine `k` drives `k+1`, and with
    /// `ring` the last drives the first. Returns the machines plus the
    /// shared `in`/`out` signal ids (identical across repeaters).
    fn repeater_net(n: usize, ring: bool) -> (Vec<XbmMachine>, SignalId, SignalId, Vec<Wire>) {
        let ms: Vec<XbmMachine> = (0..n).map(|k| repeater(&format!("m{k}"))).collect();
        let i = ms[0].signal_by_name("in").unwrap();
        let o = ms[0].signal_by_name("out").unwrap();
        let hops = if ring { n } else { n - 1 };
        let wires: Vec<Wire> = (0..hops).map(|k| wire(k, o, (k + 1) % n, i)).collect();
        (ms, i, o, wires)
    }

    fn kick(machine: usize, signal: SignalId) -> McStimuli {
        McStimuli {
            kicks: vec![(machine, signal)],
            ..McStimuli::default()
        }
    }

    fn check(ms: &[XbmMachine], wires: &[Wire], stim: &McStimuli, opts: &McOptions) -> McVerdict {
        let refs: Vec<&XbmMachine> = ms.iter().collect();
        model_check(&refs, wires, (), stim, opts).unwrap()
    }

    #[test]
    fn open_chain_verifies() {
        // a -> b -> c, kicked once at a: every interleaving delivers the
        // one event down the chain.
        let (ms, i, _, wires) = repeater_net(3, false);
        let v = check(&ms, &wires, &kick(0, i), &McOptions::default());
        assert!(v.is_verified(), "{v:?}");
        let s = v.stats();
        assert_eq!(s.terminals, 1);
        assert!(s.max_pending <= 1);
        assert_eq!(s.shards, 64);
        assert!(s.batches >= 1);
        assert!(s.peak_frontier >= 1);
        assert!(!s.truncated);
    }

    #[test]
    fn ring_of_repeaters_verifies_and_quiesces() {
        // a -> b -> a is a 2-ring: repeaters toggle out on every in-edge,
        // making the ring oscillate forever. The state space is finite and
        // closed; no terminal exists, which the checker reports as
        // verified-with-zero-terminals.
        let (ms, i, _, wires) = repeater_net(2, true);
        let v = check(&ms, &wires, &kick(0, i), &McOptions::default());
        assert!(v.is_verified(), "{v:?}");
        assert_eq!(v.stats().terminals, 0);
        assert!(v.stats().states >= 4);
    }

    #[test]
    fn double_kick_on_one_wire_is_interference() {
        // A 2-way wire whose both legs hit the same input: one output
        // change queues two toggles on one leg -> interference.
        let sink = repeater("b");
        let i = sink.signal_by_name("in").unwrap();
        let mut b = XbmBuilder::new("dbl");
        let go = b.input("go", false);
        let x = b.output("x", false);
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let s2 = b.state("s2");
        b.transition(s0, s1, [Term::rise(go)], [x]).unwrap();
        b.transition(s1, s2, [Term::fall(go)], [x]).unwrap();
        let dbl = b.finish(s0).unwrap();
        let xsig = dbl.signal_by_name("x").unwrap();
        let gosig = dbl.signal_by_name("go").unwrap();
        let machines: Vec<&XbmMachine> = vec![&dbl, &sink];
        let wires = [Wire {
            from: WireEnd {
                machine: 0,
                signal: xsig,
            },
            to: vec![
                WireEnd {
                    machine: 1,
                    signal: i,
                },
                WireEnd {
                    machine: 1,
                    signal: i,
                },
            ],
            delay: 1,
        }];
        let v = model_check(
            &machines,
            &wires,
            (),
            &kick(0, gosig),
            &McOptions::default(),
        )
        .unwrap();
        match v {
            McVerdict::Violation { kind, trace, .. } => {
                assert_eq!(kind, McViolationKind::WireInterference);
                // The counterexample is the kick itself: dbl.go~ fires x,
                // whose 2-way wire immediately doubles up on b.in.
                assert_eq!(trace, vec!["dbl.go~".to_string()]);
            }
            other => panic!("expected interference, got {other:?}"),
        }
    }

    #[test]
    fn the_depth_hunt_agrees_with_the_wave_search() {
        // Full coverage visits the same state set in either order: state
        // and terminal counts must match on verified nets, and the hunt
        // must find the same interference kind on a broken one. POR is off
        // here because the reduced state set depends on traversal order
        // (the cycle proviso fires at different points); the por-on runs
        // below still have to agree on the verdict.
        let full = McOptions {
            por: false,
            ..McOptions::default()
        };
        let depth = McOptions {
            order: McOrder::Depth,
            ..full.clone()
        };
        for ring in [false, true] {
            let (ms, i, _, wires) = repeater_net(3, ring);
            let wave = check(&ms, &wires, &kick(0, i), &full);
            let deep = check(&ms, &wires, &kick(0, i), &depth);
            assert!(deep.is_verified(), "ring={ring}: {deep:?}");
            assert_eq!(deep.stats().states, wave.stats().states, "ring={ring}");
            assert_eq!(deep.stats().terminals, wave.stats().terminals);

            for order in [McOrder::Wave, McOrder::Depth] {
                let reduced = check(
                    &ms,
                    &wires,
                    &kick(0, i),
                    &McOptions {
                        order,
                        ..McOptions::default()
                    },
                );
                assert!(reduced.is_verified(), "ring={ring} {order:?}: {reduced:?}");
                assert!(
                    reduced.stats().states <= wave.stats().states,
                    "ring={ring} {order:?}: POR must never grow the space"
                );
            }
        }
    }

    #[test]
    fn budget_on_wave_boundary_is_clean() {
        let (ms, i, _, wires) = repeater_net(2, true);
        let opts = McOptions {
            max_states: 2,
            ..McOptions::default()
        };
        let v = check(&ms, &wires, &kick(0, i), &opts);
        match v {
            McVerdict::Budget(s) => {
                assert_eq!(s.states, 2);
                assert!(!s.truncated, "{s:?}");
            }
            other => panic!("expected budget, got {other:?}"),
        }
    }

    #[test]
    fn budget_mid_wave_is_clamped_and_flagged() {
        // Two disjoint chains kicked concurrently: the initial state has
        // two successors, and max_states = 2 admits only the first — the
        // merge must clamp the count and flag the truncation.
        let ms = [repeater("a"), repeater("b"), repeater("c"), repeater("d")];
        let i = ms[0].signal_by_name("in").unwrap();
        let o = ms[0].signal_by_name("out").unwrap();
        let wires = [wire(0, o, 1, i), wire(2, o, 3, i)];
        let stim = McStimuli {
            kicks: vec![(0, i), (2, i)],
            ..McStimuli::default()
        };
        let opts = McOptions {
            max_states: 2,
            // POR would (correctly) expand only one of the two independent
            // chains; this test wants the full two-successor expansion to
            // overrun the budget mid-wave.
            por: false,
            ..McOptions::default()
        };
        let v = check(&ms, &wires, &stim, &opts);
        match v {
            McVerdict::Budget(s) => {
                assert_eq!(s.states, 2, "clamped to the budget");
                assert!(s.truncated, "mid-wave cut must be flagged: {s:?}");
            }
            other => panic!("expected budget, got {other:?}"),
        }
    }

    #[test]
    fn por_prunes_independent_chains_without_changing_the_verdict() {
        // Two disjoint repeater chains kicked concurrently: every firing
        // on one chain commutes with every firing on the other, so the
        // ample set collapses each state to a single chain's events. The
        // reduced run must reach the same verdict on strictly fewer
        // states, and report its reduction in the new counters.
        let ms = [repeater("a"), repeater("b"), repeater("c"), repeater("d")];
        let i = ms[0].signal_by_name("in").unwrap();
        let o = ms[0].signal_by_name("out").unwrap();
        let wires = [wire(0, o, 1, i), wire(2, o, 3, i)];
        let stim = McStimuli {
            kicks: vec![(0, i), (2, i)],
            ..McStimuli::default()
        };
        let full = check(
            &ms,
            &wires,
            &stim,
            &McOptions {
                por: false,
                ..McOptions::default()
            },
        );
        let red = check(&ms, &wires, &stim, &McOptions::default());
        assert!(full.is_verified(), "{full:?}");
        assert!(red.is_verified(), "{red:?}");
        assert_eq!(full.stats().terminals > 0, red.stats().terminals > 0);
        assert!(
            red.stats().states < full.stats().states,
            "expected a reduction: por {} vs full {}",
            red.stats().states,
            full.stats().states
        );
        assert!(red.stats().ample_hits > 0, "{:?}", red.stats());
        assert!(red.stats().pruned > 0, "{:?}", red.stats());
        assert_eq!(full.stats().ample_hits, 0);
    }

    #[test]
    fn spilling_to_disk_changes_no_bit_of_the_verdict() {
        // A tiny memory budget forces both the visited shards and the
        // frontier through disk segments; the verdict Debug (outcome,
        // trace, stats) must match the in-memory run except for the spill
        // counters themselves.
        let dir = std::env::temp_dir().join(format!("adcs-mc-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (ms, i, _, wires) = repeater_net(3, true);
        let base = McOptions {
            por: false,
            ..McOptions::default()
        };
        let spilled = McOptions {
            spill_dir: Some(dir.clone()),
            memory_budget: Some(1), // force a spill on every insert
            ..base.clone()
        };
        let mem = check(&ms, &wires, &kick(0, i), &base);
        let disk = check(&ms, &wires, &kick(0, i), &spilled);
        assert_eq!(mem.stats().spilled_segments, 0);
        assert!(disk.stats().spilled_segments > 0, "{:?}", disk.stats());
        assert!(disk.stats().spilled_bytes > 0);
        // Zeroing the (intentionally budget-dependent) spill counters
        // must leave two bit-identical verdicts.
        let scrubbed = |v: &McVerdict| {
            let mut v = v.clone();
            let s = match &mut v {
                McVerdict::Verified { stats, .. } => stats,
                McVerdict::Violation { stats, .. } => stats,
                McVerdict::Budget(stats) => stats,
            };
            s.spilled_bytes = 0;
            s.spilled_segments = 0;
            s.reread_waves = 0;
            format!("{v:?}")
        };
        assert_eq!(scrubbed(&mem), scrubbed(&disk));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_spill_combinations_are_rejected() {
        let (ms, i, _, wires) = repeater_net(2, false);
        let refs: Vec<&XbmMachine> = ms.iter().collect();
        let depth_spill = McOptions {
            order: McOrder::Depth,
            spill_dir: Some(std::env::temp_dir()),
            ..McOptions::default()
        };
        assert!(model_check(&refs, &wires, (), &kick(0, i), &depth_spill).is_err());
        let budget_only = McOptions {
            memory_budget: Some(1 << 20),
            ..McOptions::default()
        };
        assert!(model_check(&refs, &wires, (), &kick(0, i), &budget_only).is_err());
    }

    #[test]
    fn thread_count_changes_nothing() {
        // Verified, violating, and budget-bound searches must be
        // bit-identical between 1 and 4 threads (Debug covers verdict,
        // outcome, stats, and trace).
        let (ring, ri, _, ring_wires) = repeater_net(3, true);
        let (chain, ci, _, chain_wires) = repeater_net(4, false);
        let cases: Vec<(&[XbmMachine], &[Wire], McStimuli, McOptions)> = vec![
            (&ring, &ring_wires, kick(0, ri), McOptions::default()),
            (
                &chain,
                &chain_wires,
                McStimuli {
                    kicks: vec![(0, ci), (2, ci)],
                    ..McStimuli::default()
                },
                McOptions::default(),
            ),
            (
                &ring,
                &ring_wires,
                kick(0, ri),
                McOptions {
                    max_states: 3,
                    ..McOptions::default()
                },
            ),
        ];
        for (ms, wires, stim, base) in cases {
            let one = check(
                ms,
                wires,
                &stim,
                &McOptions {
                    threads: Some(1),
                    ..base.clone()
                },
            );
            let four = check(
                ms,
                wires,
                &stim,
                &McOptions {
                    threads: Some(4),
                    ..base
                },
            );
            assert_eq!(format!("{one:?}"), format!("{four:?}"));
        }
    }

    #[test]
    fn cache_memoizes_by_key() {
        let (ms, i, _, wires) = repeater_net(3, false);
        let cache = McCache::new();
        let run = || {
            let refs: Vec<&XbmMachine> = ms.iter().collect();
            model_check(&refs, &wires, (), &kick(0, i), &McOptions::default())
        };
        let (a, hit_a) = cache.check_keyed(42, run).unwrap();
        let (b, hit_b) = cache.check_keyed(42, run).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        let (_, hit_c) = cache.check_keyed(43, run).unwrap();
        assert!(!hit_c);
        assert_eq!(cache.misses(), 2);
    }

    /// Regression: a candidate that panics mid-check used to poison the
    /// cache mutexes, so every later explore candidate died on
    /// `.expect("mc cache poisoned")`. The cache must absorb the panic
    /// and keep serving (and memoizing) subsequent candidates.
    #[test]
    fn cache_survives_a_panicking_candidate() {
        let (ms, i, _, wires) = repeater_net(3, false);
        let cache = McCache::new();
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.check_keyed(7, || panic!("candidate blew up"));
        }));
        assert!(poisoned.is_err());
        // Same key and a fresh key both still work...
        let run = || {
            let refs: Vec<&XbmMachine> = ms.iter().collect();
            model_check(&refs, &wires, (), &kick(0, i), &McOptions::default())
        };
        let (a, hit_a) = cache.check_keyed(7, run).unwrap();
        assert!(!hit_a, "the panicked slot must not look populated");
        let (b, hit_b) = cache.check_keyed(7, run).unwrap();
        assert!(hit_b, "...and memoization still functions afterwards");
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// The kind, detail and trace of a violation verdict.
    fn violation(v: McVerdict) -> (McViolationKind, String, Vec<String>) {
        match v {
            McVerdict::Violation {
                kind,
                detail,
                trace,
                ..
            } => (kind, detail, trace),
            other => panic!("expected a violation, got {other:?}"),
        }
    }

    #[test]
    fn two_enabled_transitions_are_an_ambiguity() {
        // One input edge completes both bursts out of s0.
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
        let v = check(&[m], &[], &kick(0, x), &McOptions::default());
        assert_eq!(
            violation(v),
            (
                McViolationKind::Ambiguity,
                "amb: structural violation: transitions #0 and #1 both enabled in q0".into(),
                vec!["amb.x~".into()],
            )
        );
    }

    #[test]
    fn a_machine_that_never_quiesces_is_a_livelock() {
        // x+ stays true, so the two states hand the burst back and forth
        // until the T^2 + 16 firing guard trips.
        let mut b = XbmBuilder::new("live");
        let x = b.input("x", false);
        let o = b.output("o", false);
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.transition(s0, s1, [Term::rise(x)], [o]).unwrap();
        b.transition(s1, s0, [Term::rise(x)], [o]).unwrap();
        let m = b.finish(s0).unwrap();
        let v = check(&[m], &[], &kick(0, x), &McOptions::default());
        assert_eq!(
            violation(v),
            (
                McViolationKind::Ambiguity,
                "live: structural violation: machine live did not quiesce (livelock?)".into(),
                vec!["live.x~".into()],
            )
        );
    }

    #[test]
    fn an_event_into_an_output_is_rejected() {
        let (ms, _, o, wires) = repeater_net(2, false);
        let v = check(&ms, &wires, &kick(0, o), &McOptions::default());
        assert_eq!(
            violation(v),
            (
                McViolationKind::Ambiguity,
                "m0: signal s1 used on the wrong side (expected input)".into(),
                vec!["m0.out~".into()],
            )
        );
    }

    /// Echoes every toggle of machine 0's `out` back onto its `back`
    /// input with the same value.
    struct Echo {
        out: SignalId,
        back: SignalId,
    }

    impl McDatapath for Echo {
        fn spec(&self) -> McDatapathSpec {
            McDatapathSpec {
                actions: vec![((0, self.out.index() as u32), vec![McAction::Ack(self.back)])],
                ..McDatapathSpec::default()
            }
        }
    }

    #[test]
    fn a_synchronous_level_loop_trips_the_cascade_guard() {
        // `o` starts high, so every firing echoes the opposite of the
        // level that caused it: a+ / o- echoes a- / o+ echoes a+ ... all
        // inside one synchronous step, until the 10,000-step guard.
        let mut b = XbmBuilder::new("osc");
        let a = b.input("a", false);
        let o = b.output("o", true);
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.transition(s0, s1, [Term::rise(a)], [o]).unwrap();
        b.transition(s1, s0, [Term::fall(a)], [o]).unwrap();
        let m = b.finish(s0).unwrap();
        let stim = McStimuli {
            kicks: vec![(0, a)],
            levels: vec![(0, a)],
            ..McStimuli::default()
        };
        let v = model_check(
            &[&m],
            &[],
            Echo { out: o, back: a },
            &stim,
            &McOptions::default(),
        )
        .unwrap();
        assert_eq!(
            violation(v),
            (
                McViolationKind::Ambiguity,
                "synchronous level cascade did not settle".into(),
                vec!["osc.a~".into()],
            )
        );
    }

    #[test]
    fn more_machines_than_the_event_packing_holds_is_a_precondition_error() {
        let m = repeater("m");
        let i = m.signal_by_name("in").unwrap();
        let refs = vec![&m; usize::from(u16::MAX) + 1];
        let r = model_check(&refs, &[], (), &kick(0, i), &McOptions::default());
        assert!(
            matches!(&r, Err(SynthError::Precondition(msg)) if msg.contains("16 bits")),
            "{r:?}"
        );
    }

    #[test]
    fn malformed_stimuli_and_wires_error_instead_of_panicking() {
        let (ms, i, _, wires) = repeater_net(2, false);
        let refs: Vec<&XbmMachine> = ms.iter().collect();
        // Kick aimed at a machine the network doesn't have.
        let bad_kick = kick(99, i);
        let r = model_check(&refs, &wires, (), &bad_kick, &McOptions::default());
        assert!(matches!(r, Err(SynthError::Precondition(_))), "{r:?}");
        // Wire sink pointing past the machine list.
        let mut bad_wires = wires.clone();
        if let Some(w) = bad_wires.first_mut() {
            if let Some(e) = w.to.first_mut() {
                e.machine = 99;
            }
        }
        let r = model_check(&refs, &bad_wires, (), &kick(0, i), &McOptions::default());
        assert!(matches!(r, Err(SynthError::Precondition(_))), "{r:?}");
        // Stimulus signal id outside the machine's signal set.
        let bad_sig = kick(0, SignalId::from_raw(10_000));
        let r = model_check(&refs, &wires, (), &bad_sig, &McOptions::default());
        assert!(matches!(r, Err(SynthError::Precondition(_))), "{r:?}");
    }

    /// The semantics the compiled step reproduces: one burst-mode
    /// interpreter per machine and the simulator's datapath.
    struct Reference<'m> {
        interps: Vec<Interp<'m>>,
        dp: SystemDatapath,
        fanout: HashMap<(usize, SignalId), Vec<WireEnd>>,
        levels: HashSet<(usize, SignalId)>,
        sync: bool,
    }

    impl Reference<'_> {
        fn deliver(&mut self, pend: &mut Vec<PendEv>, ev: PendEv) -> Result<(), StepError> {
            let mut immediate = VecDeque::new();
            let v = ev
                .set
                .unwrap_or(!self.interps[ev.machine()].value(ev.signal));
            immediate.push_back((ev.machine(), ev.signal, v));
            let mut guard = 0usize;
            while let Some((m, s, v)) = immediate.pop_front() {
                guard += 1;
                if guard > CASCADE_GUARD {
                    return Err((
                        McViolationKind::Ambiguity,
                        "synchronous level cascade did not settle".into(),
                    ));
                }
                let name = self.interps[m].machine().name();
                let changes = self.interps[m]
                    .set_input(s, v)
                    .map_err(|e| (McViolationKind::Ambiguity, format!("{name}: {e}")))?;
                for (o, val) in changes {
                    for end in self.fanout.get(&(m, o)).into_iter().flatten() {
                        let clash = pend.iter().any(|p| {
                            p.machine() == end.machine && p.signal == end.signal && p.set.is_none()
                        });
                        if clash {
                            let target = self.interps[end.machine].machine();
                            let sig = &target.signal(end.signal).unwrap().name;
                            return Err((
                                McViolationKind::WireInterference,
                                format!("two events in flight on wire {sig} of {}", target.name()),
                            ));
                        }
                        pend.push(PendEv::new(end.machine, end.signal, None));
                    }
                    for (rm, rs, rv, _) in self.dp.on_output(m, o, val, 0) {
                        if self.sync && self.levels.contains(&(rm, rs)) {
                            immediate.push_back((rm, rs, rv));
                        } else {
                            pend.push(PendEv::new(rm, rs, Some(rv)));
                        }
                    }
                }
            }
            Ok(())
        }

        /// The reference configuration in the compiled network's words.
        fn encode(&self, net: &Net<'_>) -> Vec<u64> {
            let mut w = vec![0u64; net.words];
            for (m, it) in self.interps.iter().enumerate() {
                net.set_state(&mut w, m, it.state().index() as u32);
                for (s, _) in it.machine().signals() {
                    net.put(&mut w, net.bit(m, s), it.value(s));
                }
            }
            let (pbase, vbase) = (net.reg_base(), net.reg_base() + net.presence_words);
            for (r, v) in self.dp.registers() {
                let k = net
                    .regs
                    .binary_search(r)
                    .expect("registers are in the universe");
                w[pbase + k / 64] |= 1u64 << (k % 64);
                w[vbase + k] = *v as u64;
            }
            w
        }
    }

    /// Walks `walks` random delivery orders of a system through the
    /// compiled step and the reference side by side, from the initial
    /// levels until the network quiesces, fails, or `max_steps` events
    /// were delivered. After every delivery the step's words must equal
    /// the reference configuration's encoding and the pending lists must
    /// match; a failing delivery must fail identically on both sides.
    fn walks_agree(
        parts: &SystemParts<'_>,
        sync: bool,
        mut rng: u64,
        walks: usize,
        max_steps: usize,
    ) -> Result<(), String> {
        let stimuli = McStimuli {
            kicks: parts.kicks.clone(),
            level_init: parts.level_init.clone(),
            levels: parts.datapath.level_ends(),
        };
        let spec = parts.datapath.spec();
        let net = Net::compile(&parts.machines, &parts.wires, &spec, &stimuli, sync).unwrap();
        let mut fanout: HashMap<(usize, SignalId), Vec<WireEnd>> = HashMap::new();
        for w in &parts.wires {
            fanout
                .entry((w.from.machine, w.from.signal))
                .or_default()
                .extend(w.to.iter().copied());
        }
        let start = Reference {
            interps: parts.machines.iter().map(|m| Interp::new(m)).collect(),
            dp: parts.datapath.clone(),
            fanout,
            levels: stimuli.levels.iter().copied().collect(),
            sync,
        };
        let init_words = net.initial(&spec);
        if init_words != start.encode(&net) {
            return Err("initial words differ".into());
        }
        let mut scratch = StepScratch::default();
        for walk in 0..walks {
            let mut reference = Reference {
                interps: start.interps.clone(),
                dp: start.dp.clone(),
                fanout: start.fanout.clone(),
                levels: start.levels.clone(),
                sync,
            };
            let mut w = init_words.clone();
            let (mut pend, mut want_pend) = (Vec::new(), Vec::new());
            // The first deliveries replay the initial levels; then each
            // step picks an eligible event at random.
            let mut events: Vec<PendEv> = stimuli
                .level_init
                .iter()
                .map(|&(m, s, v)| PendEv::new(m, s, Some(v)))
                .collect();
            let settle = events.len();
            for step in 0..max_steps {
                if step >= settle {
                    if step == settle {
                        for &(m, s) in &stimuli.kicks {
                            pend.push(PendEv::new(m, s, None));
                            want_pend.push(PendEv::new(m, s, None));
                        }
                    }
                    canonicalize(&mut pend);
                    canonicalize(&mut want_pend);
                    if pend != want_pend {
                        return Err(format!("walk {walk} step {step}: pending lists differ"));
                    }
                    let eligible: Vec<usize> =
                        (0..pend.len()).filter(|&i| eligible_at(&pend, i)).collect();
                    if eligible.is_empty() {
                        break;
                    }
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let i = eligible[(rng % eligible.len() as u64) as usize];
                    let ev = pend.remove(i);
                    want_pend.remove(i);
                    events.push(ev);
                }
                let ev = events[step];
                let got = net.step(&mut w, &mut pend, ev, &mut scratch);
                let want = reference.deliver(&mut want_pend, ev);
                if got != want {
                    return Err(format!("walk {walk} step {step}: {got:?} vs {want:?}"));
                }
                if got.is_err() {
                    break;
                }
                if w != reference.encode(&net) {
                    return Err(format!(
                        "walk {walk} step {step}: words differ after {ev:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The compiled step against the reference on random programs'
        /// networks: baseline or GT/LT-optimized, synchronous levels or
        /// racing.
        #[test]
        fn the_compiled_step_agrees_with_the_interpreter(
            p in test_programs::program_strategy(),
            optimized in 0usize..2,
            sync in 0usize..2,
            seed in 1u64..1_000_000,
        ) {
            let g = test_programs::build(&p);
            let init = test_programs::initial();
            let (cdfg, channels, controllers) = if optimized == 1 {
                let opts = FlowOptions {
                    verify_seeds: 1,
                    ..FlowOptions::default()
                };
                let Ok(out) = Flow::new(g, init.clone()).run(&opts) else {
                    return Ok(());
                };
                (out.cdfg, out.channels, out.controllers)
            } else {
                let channels = ChannelMap::per_arc(&g).unwrap();
                let style = ExtractOptions {
                    style: ExpansionStyle::Sequential,
                };
                let ex = extract(&g, &channels, &style).unwrap();
                (g, channels, ex.controllers)
            };
            let ex = Extraction { controllers };
            let parts = system_parts(&cdfg, &channels, &ex, init, SystemDelays::default()).unwrap();
            prop_assert_eq!(walks_agree(&parts, sync == 1, seed, 8, 400), Ok(()));
        }
    }

    #[test]
    fn the_compiled_step_agrees_on_the_benchmark_networks() {
        // Straight-line programs have no loops or branches; DIFFEQ and
        // GCD add condition levels, synchronous cascades and sampled
        // level terms.
        let one_iter = DiffeqParams {
            x0: 0,
            y0: 1,
            u0: 2,
            dx: 1,
            a: 1,
        };
        let d = diffeq(one_iter).unwrap();
        let g = gcd(6, 4).unwrap();
        for (cdfg, initial) in [(&d.cdfg, &d.initial), (&g.cdfg, &g.initial)] {
            let channels = ChannelMap::per_arc(cdfg).unwrap();
            let style = ExtractOptions {
                style: ExpansionStyle::Sequential,
            };
            let base = extract(cdfg, &channels, &style).unwrap();
            let out = Flow::new(cdfg.clone(), initial.clone())
                .run(&FlowOptions::default())
                .ok();
            let mut nets = vec![(cdfg, &channels, base)];
            if let Some(out) = &out {
                let ex = Extraction {
                    controllers: out.controllers.clone(),
                };
                nets.push((&out.cdfg, &out.channels, ex));
            }
            for (k, (cdfg, channels, ex)) in nets.iter().enumerate() {
                let parts =
                    system_parts(cdfg, channels, ex, initial.clone(), SystemDelays::default())
                        .unwrap();
                for sync in [true, false] {
                    let seed = 0x9e37_79b9 + k as u64 * 2 + u64::from(sync);
                    walks_agree(&parts, sync, seed, 12, 5_000).unwrap();
                }
            }
        }
    }
}
