//! The in-order pipeline timing engine.
//!
//! The engine is trace-driven: it consumes retired instructions (with their
//! operand values) in program order and computes, for each instruction, the
//! cycle at which it enters every stage of the chosen
//! [`Organization`](crate::Organization). It works in three parts:
//!
//! * **Facts.** [`RecordFacts`] distils one record, its cost vector and its
//!   cache/TLB outcomes into what timing reads: the per-stage table keys
//!   (fetch, operand, execute, memory, result and register-read bytes), the
//!   short-operand flag, the source and destination registers, whether the
//!   result is loaded, the control class (branch, `jr`/`jalr`, jump) and
//!   the fetch and data miss penalties. None of it depends on the
//!   organization, so a pass timing several organizations builds it once.
//! * **Tables.** At construction each organization is compiled into
//!   per-stage occupancy and used-byte tables plus the stage positions where
//!   results are produced and branches resolve, by evaluating the
//!   [`Organization`](crate::Organization) rule methods over every key
//!   value. Those methods stay the one statement of the paper's rules.
//! * **The step.** [`PipelineSim::observe_facts`] looks up each stage's
//!   occupancy (adding miss penalties) and runs the max-plus recurrence.
//!   Three kinds of constraints delay an instruction:
//!   - **structural**: a stage still busy processing the previous
//!     instruction's bytes (the dominant effect in the serial
//!     organizations);
//!   - **data hazards**: source operands bypassed from a producer that has
//!     not yet reached its producing stage (loads produce later than ALU
//!     results);
//!   - **control**: there is no branch prediction, so fetch stalls until a
//!     branch resolves (§3 of the paper).
//!
//!   Each stall cycle is charged to its binding cause for the §5
//!   bottleneck study.
//!
//! [`PipelineSim::observe`], [`PipelineSim::observe_with_cost`] and
//! [`PipelineSim::observe_step`] are adapters that supply what the caller
//! has not (the cost, the hierarchy walk, the facts) and end in the step.

use crate::organization::{Organization, Stage};
use crate::predictor::BimodalPredictor;
use crate::table::{Control, OrgTables, RecordFacts, NO_REG};
use sigcomp::cost::{instr_cost, step_memory, InstrCost};
use sigcomp::FunctRecoder;
use sigcomp_isa::ExecRecord;
use sigcomp_mem::{HierarchyConfig, HierarchyStats, MemStep, MemoryHierarchy};
use std::fmt;

/// Cycles lost to each cause, for the bottleneck study of §5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Stall cycles charged to each stage being busy with the previous
    /// instruction, indexed like the organization's stage list.
    pub structural: [u64; 7],
    /// Stall cycles waiting for source operands.
    pub data_hazard: u64,
    /// Stall cycles waiting for branch/jump resolution.
    pub control: u64,
}

impl StallBreakdown {
    /// Total stall cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.structural.iter().sum::<u64>() + self.data_hazard + self.control
    }

    /// Fraction of all stall cycles charged to structural hazards in the
    /// execute stage (the paper reports 72 % for the byte-serial pipeline).
    #[must_use]
    pub fn execute_structural_fraction(&self, org: &Organization) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let ex: u64 = [Stage::Execute, Stage::ExecuteHi]
            .iter()
            .filter_map(|&s| org.stage_index(s))
            .map(|i| self.structural[i])
            .sum();
        ex as f64 / total as f64
    }
}

/// The result of simulating one trace on one organization.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Organization name (for reports).
    pub organization: String,
    /// Retired instructions.
    pub instructions: u64,
    /// Total cycles until the last instruction left the pipeline.
    pub cycles: u64,
    /// Stall attribution.
    pub stalls: StallBreakdown,
    /// Memory-hierarchy counters accumulated during the run (all zero for a
    /// simulator built [`without_hierarchy`](PipelineSim::without_hierarchy),
    /// whose caller owns the counters).
    pub hierarchy: HierarchyStats,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branch mispredictions (zero when prediction is disabled — every
    /// branch then pays the full resolution stall, as in the paper).
    pub mispredictions: u64,
    /// Byte-lane-cycles each stage powered off because the extension bits
    /// marked the lanes insignificant, indexed like the organization's stage
    /// list (all zero for the 32-bit baseline, which cannot gate).
    pub gated_byte_cycles: [u64; 7],
    /// Byte-lane-cycles each stage was occupied for in total
    /// (`lane width × occupancy`, including miss penalties), indexed like
    /// the organization's stage list.
    pub total_byte_cycles: [u64; 7],
}

impl SimResult {
    /// Fraction of all stage lane-cycles that were gated off; zero when
    /// nothing was simulated (and for the baseline organization).
    #[must_use]
    pub fn gated_fraction(&self) -> f64 {
        let total: u64 = self.total_byte_cycles.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.gated_byte_cycles.iter().sum::<u64>() as f64 / total as f64
        }
    }

    /// Cycles per instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// CPI of this result relative to a baseline result (1.0 = identical,
    /// 1.79 = 79 % higher, as the paper quotes).
    #[must_use]
    pub fn relative_cpi(&self, baseline: &SimResult) -> f64 {
        if baseline.cpi() == 0.0 {
            0.0
        } else {
            self.cpi() / baseline.cpi()
        }
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} instructions, {} cycles, CPI {:.3}",
            self.organization,
            self.instructions,
            self.cycles,
            self.cpi()
        )
    }
}

/// A streaming cycle-level simulator for one pipeline organization.
///
/// Feed retired instructions with [`PipelineSim::observe`] (directly from the
/// interpreter, a stored [`Trace`](sigcomp_isa::Trace) or the statistical
/// synthesizer) and call [`PipelineSim::finish`] for the [`SimResult`].
///
/// Only the timing state is per-organization: a caller timing one stream on
/// several organizations builds them [`without_hierarchy`](Self::without_hierarchy),
/// walks one shared hierarchy, distils each record into [`RecordFacts`]
/// once, and feeds the facts to every simulator through
/// [`PipelineSim::observe_facts`].
#[derive(Debug, Clone)]
pub struct PipelineSim {
    org: Organization,
    /// What [`PipelineSim::observe`] distils and walks records with; `None`
    /// when the caller does both for several simulators.
    standalone: Option<Standalone>,
    /// The organization compiled into lookup tables.
    tables: OrgTables,
    /// Enter times of the previous instruction, per stage.
    prev_enter: [u64; 7],
    /// Busy-until times of the previous instruction, per stage.
    prev_busy: [u64; 7],
    /// Cycle at which each architectural register's latest value is available
    /// for bypass, plus the [`NO_REG`] sink for results nothing reads.
    reg_ready: [u64; NO_REG + 1],
    /// Earliest cycle the next instruction may be fetched (control hazards).
    fetch_allowed: u64,
    /// Optional branch predictor (the paper's future-work extension).
    predictor: Option<BimodalPredictor>,
    instructions: u64,
    completion: u64,
    branches: u64,
    mispredictions: u64,
    stalls: StallBreakdown,
    gated_byte_cycles: [u64; 7],
    total_byte_cycles: [u64; 7],
}

/// The recoding and memory hierarchy a standalone simulator owns.
#[derive(Debug, Clone)]
struct Standalone {
    recoder: FunctRecoder,
    hierarchy: MemoryHierarchy,
}

impl PipelineSim {
    /// Creates a simulator with the paper's memory-hierarchy parameters and
    /// the default function-code recoding.
    #[must_use]
    pub fn new(org: Organization) -> Self {
        Self::with_config(
            org,
            &HierarchyConfig::paper(),
            FunctRecoder::paper_default(),
        )
    }

    /// Creates a simulator with explicit hierarchy parameters and recoding.
    #[must_use]
    pub fn with_config(
        org: Organization,
        hierarchy: &HierarchyConfig,
        recoder: FunctRecoder,
    ) -> Self {
        let standalone = Standalone {
            recoder,
            hierarchy: MemoryHierarchy::new(hierarchy),
        };
        Self::build(org, Some(standalone))
    }

    /// Creates a simulator that owns no memory hierarchy: its caller
    /// computes each record's cost and walks a hierarchy, and passes both to
    /// [`PipelineSim::observe_step`] (or their [`RecordFacts`] to
    /// [`PipelineSim::observe_facts`]).
    #[must_use]
    pub fn without_hierarchy(org: Organization) -> Self {
        Self::build(org, None)
    }

    fn build(org: Organization, standalone: Option<Standalone>) -> Self {
        PipelineSim {
            standalone,
            tables: OrgTables::compile(&org),
            prev_enter: [0; 7],
            prev_busy: [0; 7],
            reg_ready: [0; NO_REG + 1],
            fetch_allowed: 0,
            predictor: None,
            instructions: 0,
            completion: 0,
            branches: 0,
            mispredictions: 0,
            stalls: StallBreakdown::default(),
            gated_byte_cycles: [0; 7],
            total_byte_cycles: [0; 7],
            org,
        }
    }

    /// Enables a bimodal branch predictor with the given number of two-bit
    /// counters. The paper's machines stall every branch until it resolves
    /// (§3); enabling prediction explores the "implications of branch
    /// prediction" the paper leaves to future study: correctly predicted
    /// branches no longer stall fetch, mispredicted ones still pay the full
    /// resolution latency.
    #[must_use]
    pub fn with_branch_prediction(mut self, entries: usize) -> Self {
        self.predictor = Some(BimodalPredictor::new(entries));
        self
    }

    /// The organization being simulated.
    #[must_use]
    pub fn organization(&self) -> &Organization {
        &self.org
    }

    /// Number of instructions observed so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Feeds one retired instruction through the timing model.
    ///
    /// # Panics
    ///
    /// On a simulator built [`without_hierarchy`](Self::without_hierarchy).
    pub fn observe(&mut self, rec: &ExecRecord) {
        let scheme = self.org.scheme();
        let cost = instr_cost(rec, scheme, &self.standalone().recoder);
        self.observe_with_cost(rec, &cost);
    }

    fn standalone(&mut self) -> &mut Standalone {
        self.standalone
            .as_mut()
            .expect("a simulator without a hierarchy is fed through observe_step")
    }

    /// [`PipelineSim::observe`] with the record's [`InstrCost`] supplied by
    /// the caller — for drivers that also feed an activity model and want to
    /// distil the record once instead of once per model. The cost must come
    /// from `instr_cost(rec, ...)` under this simulator's scheme and
    /// recoder, or the timing is meaningless.
    ///
    /// # Panics
    ///
    /// On a simulator built [`without_hierarchy`](Self::without_hierarchy).
    pub fn observe_with_cost(&mut self, rec: &ExecRecord, cost: &InstrCost) {
        let step = step_memory(&mut self.standalone().hierarchy, rec);
        self.observe_step(rec, cost, &step);
    }

    /// One instruction with its [`InstrCost`] and its memory outcomes
    /// ([`step_memory`] over a hierarchy with this simulator's parameters):
    /// distils them into [`RecordFacts`] and times those.
    pub fn observe_step(&mut self, rec: &ExecRecord, cost: &InstrCost, step: &MemStep) {
        self.observe_facts(&RecordFacts::new(rec, cost, step));
    }

    /// The timing step: one instruction's [`RecordFacts`] through this
    /// organization. Every per-stage quantity is a lookup in the tables
    /// compiled at construction; what remains is the max-plus recurrence
    /// over the stages and the attribution of each stall to its cause.
    pub fn observe_facts(&mut self, facts: &RecordFacts) {
        let tables = &self.tables;
        let depth = tables.depth;

        // Per-stage occupancy, including cache/TLB miss penalties.
        let mut occ = [0u64; 7];
        for (s, slot) in occ.iter_mut().enumerate().take(depth) {
            *slot = tables.occupancy(s, facts);
        }
        occ[0] += facts.fetch_penalty;
        occ[tables.memory] += facts.data_penalty;

        // Gated-lane occupancy: each occupied cycle powers the stage's lane
        // budget; the lanes the instruction's significant bytes don't need
        // are gated off (the baseline's tables say every lane is used).
        for (s, &stage_occ) in occ.iter().enumerate().take(depth) {
            let total = tables.lanes[s] * stage_occ;
            let used = tables.used(s, facts).min(total);
            self.gated_byte_cycles[s] += total - used;
            self.total_byte_cycles[s] += total;
        }

        // Source operands are needed at the execute stage; register 0 (and
        // a missing operand) is always ready.
        let operands_ready = self.reg_ready[facts.srcs[0]].max(self.reg_ready[facts.srcs[1]]);
        let mut enter = [0u64; 7];
        let mut busy = [0u64; 7];

        for s in 0..depth {
            // Structural constraint: the previous instruction must have both
            // finished using the stage and vacated its output latch.
            let vacated = if s + 1 < depth {
                self.prev_enter[s + 1].max(self.prev_busy[s])
            } else {
                self.prev_busy[s]
            };

            // Every organization streams: a stage hands the low-order byte
            // onward one cycle after it started.
            let (flow, control_bound) = if s == 0 {
                (vacated, self.fetch_allowed)
            } else {
                (enter[s - 1] + 1, 0)
            };
            let hazard_bound = if s == tables.execute {
                operands_ready
            } else {
                0
            };
            let structural_bound = if s == 0 { 0 } else { vacated };
            let start = flow
                .max(structural_bound)
                .max(hazard_bound)
                .max(control_bound);

            // Attribute the delay beyond simple flow to its binding cause.
            if start > flow {
                let gap = start - flow;
                if start == control_bound && s == 0 {
                    self.stalls.control += gap;
                } else if start == hazard_bound && hazard_bound >= structural_bound {
                    self.stalls.data_hazard += gap;
                } else {
                    // If the previous instruction had already finished its
                    // work in this stage but could not advance, the real
                    // bottleneck is the stage ahead of it — charge that one
                    // (this is how the paper's §5 bottleneck study counts the
                    // execute stage as the dominant cause of byte-serial
                    // stalls).
                    let blame = if s + 1 < depth && self.prev_enter[s + 1] > self.prev_busy[s] {
                        s + 1
                    } else {
                        s
                    };
                    self.stalls.structural[blame] += gap;
                }
            }

            enter[s] = start;
            busy[s] = start + occ[s];
        }

        // Publish the destination register's bypass-ready time.
        self.reg_ready[facts.dest] = busy[tables.produce[usize::from(facts.load)]];

        // Control hazards. Without a predictor (the paper's configuration)
        // the next fetch waits for resolution; with one, only mispredicted
        // branches pay the resolution latency. Direct jumps resolve at
        // decode; indirect jumps always wait for the resolve stage.
        match facts.control {
            Control::None => {}
            Control::Branch => {
                self.branches += 1;
                let correct = match self.predictor.as_mut() {
                    Some(p) => p.update(facts.pc, facts.taken),
                    None => false,
                };
                if !correct {
                    if self.predictor.is_some() {
                        self.mispredictions += 1;
                    }
                    self.fetch_allowed = self.fetch_allowed.max(busy[tables.resolve(facts)]);
                }
            }
            Control::Indirect => {
                self.fetch_allowed = self.fetch_allowed.max(busy[tables.resolve(facts)]);
            }
            Control::Jump => {
                self.fetch_allowed = self.fetch_allowed.max(busy[tables.decode]);
            }
        }

        self.completion = self.completion.max(busy[depth - 1]);
        self.prev_enter = enter;
        self.prev_busy = busy;
        self.instructions += 1;
    }

    /// Finishes the simulation and returns the result.
    #[must_use]
    pub fn finish(self) -> SimResult {
        SimResult {
            organization: self.org.name().to_owned(),
            instructions: self.instructions,
            cycles: self.completion,
            stalls: self.stalls,
            hierarchy: self
                .standalone
                .map(|own| own.hierarchy.stats())
                .unwrap_or_default(),
            branches: self.branches,
            mispredictions: self.mispredictions,
            gated_byte_cycles: self.gated_byte_cycles,
            total_byte_cycles: self.total_byte_cycles,
        }
    }

    /// Convenience: simulates an entire iterator of records.
    #[must_use]
    pub fn run<'a, I: IntoIterator<Item = &'a ExecRecord>>(mut self, records: I) -> SimResult {
        for rec in records {
            self.observe(rec);
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::OrgKind;
    use sigcomp_isa::{reg, Interpreter, ProgramBuilder, Trace};

    fn counter_trace(iterations: i32) -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(reg::T0, 0);
        b.li(reg::T1, iterations);
        b.dlabel("buf");
        b.space(4096);
        b.la(reg::A0, "buf");
        b.label("loop");
        b.andi(reg::T2, reg::T0, 0x3fc);
        b.addu(reg::T3, reg::A0, reg::T2);
        b.sw(reg::T0, reg::T3, 0);
        b.lw(reg::T4, reg::T3, 0);
        b.addiu(reg::T0, reg::T0, 1);
        b.bne(reg::T0, reg::T1, "loop");
        b.halt();
        let mut i = Interpreter::new(&b.assemble().unwrap());
        i.run(10_000_000).unwrap()
    }

    fn simulate(kind: OrgKind, trace: &Trace) -> SimResult {
        PipelineSim::new(Organization::new(kind)).run(trace.iter())
    }

    #[test]
    fn baseline_cpi_is_plausible() {
        let trace = counter_trace(2_000);
        let r = simulate(OrgKind::Baseline32, &trace);
        let cpi = r.cpi();
        // One instruction per cycle plus branch stalls, load-use and misses.
        assert!(cpi > 1.05 && cpi < 2.0, "baseline CPI {cpi}");
        assert_eq!(r.instructions, trace.len() as u64);
        assert!(r.cycles > r.instructions);
    }

    #[test]
    fn byte_serial_is_much_slower_than_baseline() {
        let trace = counter_trace(2_000);
        let base = simulate(OrgKind::Baseline32, &trace);
        let byte = simulate(OrgKind::ByteSerial, &trace);
        let rel = byte.relative_cpi(&base);
        assert!(
            rel > 1.3 && rel < 2.6,
            "byte-serial relative CPI {rel} (paper: ≈ 1.79)"
        );
    }

    #[test]
    fn organizations_order_as_in_the_paper() {
        let trace = counter_trace(3_000);
        let base = simulate(OrgKind::Baseline32, &trace);
        let byte = simulate(OrgKind::ByteSerial, &trace);
        let half = simulate(OrgKind::HalfwordSerial, &trace);
        let semi = simulate(OrgKind::SemiParallel, &trace);
        let compressed = simulate(OrgKind::ParallelCompressed, &trace);
        let skewed = simulate(OrgKind::ParallelSkewed, &trace);
        let bypass = simulate(OrgKind::SkewedBypass, &trace);

        // Fig. 4/6/10 ordering: byte-serial slowest, then halfword-serial,
        // then semi-parallel, then the parallel organizations near baseline.
        assert!(byte.cpi() >= half.cpi());
        assert!(half.cpi() >= semi.cpi() * 0.99);
        assert!(semi.cpi() > compressed.cpi());
        assert!(semi.cpi() > bypass.cpi());
        assert!(bypass.cpi() <= skewed.cpi() + 1e-9);
        // Everything is at least as slow as the baseline.
        for r in [&byte, &half, &semi, &compressed, &skewed, &bypass] {
            assert!(
                r.cpi() >= base.cpi() * 0.999,
                "{} CPI {} below baseline {}",
                r.organization,
                r.cpi(),
                base.cpi()
            );
        }
    }

    #[test]
    fn byte_serial_stalls_are_dominated_by_the_execute_stage() {
        let trace = counter_trace(3_000);
        let org = Organization::new(OrgKind::ByteSerial);
        let r = PipelineSim::new(org.clone()).run(trace.iter());
        let frac = r.stalls.execute_structural_fraction(&org);
        assert!(
            frac > 0.3,
            "execute-stage structural stalls should dominate, got {frac}"
        );
        assert!(r.stalls.total() > 0);
    }

    #[test]
    fn control_stalls_appear_for_branchy_code() {
        let trace = counter_trace(1_000);
        let r = simulate(OrgKind::Baseline32, &trace);
        assert!(r.stalls.control > 0);
    }

    #[test]
    fn gated_occupancy_is_reported_per_stage_for_every_organization() {
        let trace = counter_trace(2_000);
        for &kind in OrgKind::ALL {
            let org = Organization::new(kind);
            let r = PipelineSim::new(org.clone()).run(trace.iter());
            let gated: u64 = r.gated_byte_cycles.iter().sum();
            let total: u64 = r.total_byte_cycles.iter().sum();
            assert!(total > 0, "{}: no lane occupancy", r.organization);
            for s in 0..org.depth() {
                assert!(
                    r.gated_byte_cycles[s] <= r.total_byte_cycles[s],
                    "{} stage {s}: gated exceeds total",
                    r.organization
                );
                assert!(
                    r.total_byte_cycles[s] > 0,
                    "{} stage {s}: no occupancy",
                    r.organization
                );
            }
            // Stages beyond the organization's depth must stay untouched.
            for s in org.depth()..7 {
                assert_eq!(r.total_byte_cycles[s], 0, "{}", r.organization);
            }
            if kind == OrgKind::Baseline32 {
                assert_eq!(gated, 0, "the baseline cannot gate lanes");
                assert_eq!(r.gated_fraction(), 0.0);
            } else {
                assert!(
                    r.gated_fraction() > 0.05,
                    "{}: narrow counter values should gate lanes, got {}",
                    r.organization,
                    r.gated_fraction()
                );
            }
        }
    }

    #[test]
    fn serial_organizations_gate_less_than_wide_ones() {
        // A one-byte datapath reuses its single lane instead of gating
        // three; the full-width compressed organization gates the unused
        // upper lanes outright. On narrow data the wide machine must
        // therefore gate a larger fraction of its (larger) lane budget.
        let trace = counter_trace(2_000);
        let serial = PipelineSim::new(Organization::new(OrgKind::ByteSerial)).run(trace.iter());
        let wide =
            PipelineSim::new(Organization::new(OrgKind::ParallelCompressed)).run(trace.iter());
        let ex = Organization::new(OrgKind::ByteSerial)
            .stage_index(Stage::Execute)
            .unwrap();
        // The byte-serial execute stage has exactly one lane: it can never
        // gate it (the low byte is always significant).
        assert_eq!(serial.gated_byte_cycles[ex], 0);
        assert!(wide.gated_fraction() > serial.gated_fraction());
    }

    #[test]
    fn empty_simulation_reports_zero() {
        let sim = PipelineSim::new(Organization::new(OrgKind::Baseline32));
        let r = sim.finish();
        assert_eq!(r.instructions, 0);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.cpi(), 0.0);
        assert_eq!(r.stalls.total(), 0);
    }

    #[test]
    fn display_mentions_cpi() {
        let trace = counter_trace(200);
        let r = simulate(OrgKind::Baseline32, &trace);
        let s = r.to_string();
        assert!(s.contains("CPI"));
        assert!(s.contains("32-bit baseline"));
    }

    #[test]
    fn shared_hierarchy_replay_matches_standalone_simulators() {
        // One hierarchy walk feeding every organization times each exactly
        // like a simulator walking its own.
        let trace = counter_trace(1_500);
        let recoder = FunctRecoder::paper_default();
        let config = HierarchyConfig::paper();
        let orgs: Vec<Organization> = OrgKind::ALL.iter().map(|&k| Organization::new(k)).collect();
        let mut standalone: Vec<PipelineSim> = orgs
            .iter()
            .map(|o| PipelineSim::with_config(o.clone(), &config, recoder.clone()))
            .collect();
        let mut detached: Vec<PipelineSim> = orgs
            .iter()
            .map(|o| PipelineSim::without_hierarchy(o.clone()))
            .collect();
        let mut shared = MemoryHierarchy::new(&config);
        let scheme = orgs[1].scheme();
        for rec in &trace {
            let cost = instr_cost(rec, scheme, &recoder);
            let step = step_memory(&mut shared, rec);
            for sim in &mut standalone {
                sim.observe_with_cost(rec, &cost);
            }
            for sim in &mut detached {
                sim.observe_step(rec, &cost, &step);
            }
        }
        for (own, fed) in standalone.into_iter().zip(detached) {
            let own = own.finish();
            let fed = fed.finish();
            assert_eq!(own.hierarchy, shared.stats(), "{}", own.organization);
            assert_eq!(fed.hierarchy, HierarchyStats::default());
            assert_eq!(
                SimResult {
                    hierarchy: HierarchyStats::default(),
                    ..own
                },
                fed
            );
        }
    }

    #[test]
    fn hierarchy_stats_are_reported() {
        let trace = counter_trace(500);
        let r = simulate(OrgKind::Baseline32, &trace);
        assert!(r.hierarchy.il1.accesses >= trace.len() as u64);
        assert!(r.hierarchy.dl1.accesses > 0);
    }
}

#[cfg(test)]
mod prediction_tests {
    use super::*;
    use crate::organization::OrgKind;
    use sigcomp_isa::{reg, Interpreter, ProgramBuilder, Trace};

    fn loop_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(reg::T0, 0);
        b.li(reg::T1, 2_000);
        b.label("loop");
        b.addiu(reg::T2, reg::T0, 3);
        b.addiu(reg::T0, reg::T0, 1);
        b.bne(reg::T0, reg::T1, "loop");
        b.halt();
        Interpreter::new(&b.assemble().unwrap())
            .run(100_000)
            .unwrap()
    }

    #[test]
    fn branch_prediction_removes_most_control_stalls() {
        let trace = loop_trace();
        let org = Organization::new(OrgKind::Baseline32);
        let without = PipelineSim::new(org.clone()).run(trace.iter());
        let with = PipelineSim::new(org)
            .with_branch_prediction(512)
            .run(trace.iter());
        assert!(with.cycles < without.cycles);
        assert!(with.stalls.control < without.stalls.control / 2);
        // The backward loop branch is taken ~2000 times and falls through
        // once, so the bimodal predictor is nearly perfect.
        assert_eq!(with.branches, without.branches);
        assert!(with.branches > 1_000);
        assert!(with.mispredictions < with.branches / 50);
        assert_eq!(without.mispredictions, 0);
        // The predicted baseline approaches one instruction per cycle.
        assert!(with.cpi() < 1.3, "predicted baseline CPI {}", with.cpi());
    }

    #[test]
    fn prediction_also_helps_the_serial_organizations() {
        let trace = loop_trace();
        let org = Organization::new(OrgKind::ByteSerial);
        let without = PipelineSim::new(org.clone()).run(trace.iter());
        let with = PipelineSim::new(org)
            .with_branch_prediction(512)
            .run(trace.iter());
        assert!(with.cycles < without.cycles);
        // But the structural bottleneck remains: the byte-serial machine is
        // still well above one cycle per instruction even with perfect-ish
        // branch prediction.
        assert!(with.cpi() > 1.5);
    }
}
