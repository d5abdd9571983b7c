//! Per-record facts and per-organization lookup tables.
//!
//! The paper's organizations differ only in per-stage widths, skew and the
//! stages where results and branches resolve. Every per-stage rule of
//! [`Organization`] reads one small quantity of the record — the fetch
//! bytes, the widest operand, the execute bytes, the memory access, the
//! result bytes or the register-read bytes — so each rule is a function of
//! one [`Key`] with at most [`KEY_SPAN`] values. [`OrgTables::compile`]
//! evaluates the rules once per organization over every value of their key;
//! [`RecordFacts`] distils a record into those key values once, however
//! many organizations then time it.

use crate::organization::{is_short_operand, serial_ex_bytes, Organization, Stage};
use sigcomp::alu::AluOutcome;
use sigcomp::cost::{InstrCost, MemCost};
use sigcomp::ifetch::CompressedInstr;
use sigcomp_isa::{ExecRecord, Op};
use sigcomp_mem::MemStep;
use std::ops::RangeInclusive;

/// A per-record quantity that a stage's occupancy or used bytes depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Key {
    /// Bytes fetched from the compressed I-cache.
    Fetch,
    /// The widest source operand's significant bytes
    /// ([`InstrCost::max_operand_bytes`]).
    Operand,
    /// Bytes the execute stage streams: the ALU bytes, but never fewer than
    /// the widest operand. Multiply/divide operates up to 16 bytes.
    Execute,
    /// The data-cache access: 0 for none, `1 + sig` for a load and `6 + sig`
    /// for a store of `sig` significant bytes.
    Memory,
    /// Significant bytes written back (0 when nothing is written).
    Result,
    /// Bytes read through both register-file ports
    /// ([`InstrCost::regfile_read_bytes`]).
    RfRead,
}

/// Number of [`Key`]s.
const KEYS: usize = 6;

/// Entries in one stage table: every key value is below this.
pub(crate) const KEY_SPAN: usize = 17;

impl Key {
    /// Every value the key takes on a record [`keys_of`] can see.
    pub(crate) fn domain(self) -> RangeInclusive<u8> {
        match self {
            Key::Fetch => 3..=4,
            Key::Operand => 1..=4,
            Key::Execute => 1..=16,
            Key::Memory => 0..=10,
            Key::Result => 0..=4,
            Key::RfRead => 0..=8,
        }
    }

    /// The keys a stage's occupancy and its used bytes are looked up by.
    fn of_stage(stage: Stage) -> (Key, Key) {
        match stage {
            Stage::Fetch => (Key::Fetch, Key::Fetch),
            Stage::RegRead => (Key::Operand, Key::RfRead),
            Stage::Execute | Stage::ExecuteHi => (Key::Execute, Key::Execute),
            Stage::Memory | Stage::MemoryHi => (Key::Memory, Key::Memory),
            Stage::Writeback => (Key::Result, Key::Result),
        }
    }
}

/// The value of every [`Key`] for one cost vector, indexed by `Key as usize`.
pub(crate) fn keys_of(cost: &InstrCost) -> [u8; KEYS] {
    let memory = cost.mem.map_or(0, |m| {
        debug_assert!(m.sig_bytes <= 4, "a memory access moves at most a word");
        1 + m.sig_bytes + if m.is_store { 5 } else { 0 }
    });
    [
        cost.fetch.fetch_bytes,
        cost.max_operand_bytes(),
        serial_ex_bytes(cost),
        memory,
        cost.result_bytes.unwrap_or(0),
        cost.regfile_read_bytes(),
    ]
}

/// A cost vector whose `key` reads `value` and whose every other field is
/// the narrowest a record can have — the input the organization's rules are
/// evaluated on to fill one table entry.
fn probe(key: Key, value: u8) -> InstrCost {
    let mut cost = InstrCost {
        fetch: CompressedInstr {
            stored_word: 0,
            fetch_bytes: 3,
            needs_fourth_byte: false,
        },
        rs_bytes: None,
        rt_bytes: None,
        result_bytes: None,
        alu: None,
        mem: None,
        is_branch: false,
        is_jump: false,
        taken: false,
    };
    match key {
        Key::Fetch => cost.fetch.fetch_bytes = value,
        Key::Operand => cost.rs_bytes = Some(value),
        Key::Execute => {
            cost.alu = Some(AluOutcome {
                result: 0,
                bytes_operated: value,
                baseline_bytes: 4,
            });
        }
        Key::Memory => {
            cost.mem = (value > 0).then(|| MemCost {
                width_bytes: 4,
                sig_bytes: (value - 1) % 5,
                is_store: value > 5,
            });
        }
        Key::Result => cost.result_bytes = Some(value),
        Key::RfRead => {
            let rs = value.min(4);
            cost.rs_bytes = Some(rs);
            cost.rt_bytes = Some(value - rs);
        }
    }
    debug_assert_eq!(keys_of(&cost)[key as usize], value, "{key:?}");
    cost
}

/// How a record redirects fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Control {
    /// Fetch continues in order.
    None,
    /// A conditional branch: fetch waits for it to resolve (or, with a
    /// predictor, only when it was mispredicted).
    Branch,
    /// `jr`/`jalr`: the target comes from a register, so fetch waits for
    /// the branch-resolve stage.
    Indirect,
    /// A direct jump: the target is known at decode.
    Jump,
}

/// Register slot that absorbs writes with no observable destination (none,
/// or `$zero`). Slot 0 is never written, so a missing source reads 0.
pub(crate) const NO_REG: usize = 32;

/// What the timing step needs to know about one retired instruction. None
/// of it depends on the organization, so a caller timing one stream on
/// several organizations builds it once per record and feeds it to every
/// [`PipelineSim::observe_facts`](crate::PipelineSim::observe_facts).
#[derive(Debug, Clone, Copy)]
pub struct RecordFacts {
    /// Every [`Key`]'s value, indexed by `Key as usize`.
    pub(crate) keys: [u8; KEYS],
    /// [`Organization::is_short_operand`]: selects the resolve stage of the
    /// skewed organization with bypasses.
    pub(crate) short: bool,
    /// Source registers; 0 (`$zero`, always ready) where there is none.
    pub(crate) srcs: [usize; 2],
    /// Destination register, or [`NO_REG`].
    pub(crate) dest: usize,
    /// Whether the result comes from memory (its producing stage).
    pub(crate) load: bool,
    pub(crate) control: Control,
    /// The branch's PC and outcome, for the predictor.
    pub(crate) pc: u32,
    pub(crate) taken: bool,
    /// Cycles beyond a hit that the fetch and the data access took.
    pub(crate) fetch_penalty: u64,
    pub(crate) data_penalty: u64,
}

impl RecordFacts {
    /// Distils one record, its [`InstrCost`] and its memory outcomes
    /// ([`step_memory`](sigcomp::step_memory)). The cost must come from
    /// `instr_cost(rec, ...)` under the timed organization's scheme, and the
    /// outcomes from a hierarchy with the simulator's parameters.
    #[must_use]
    pub fn new(rec: &ExecRecord, cost: &InstrCost, step: &MemStep) -> Self {
        let (rs, rt) = rec.instr.src_regs();
        let src = |reg: Option<sigcomp_isa::Reg>| reg.map_or(0, usize::from);
        let control = if cost.is_branch {
            Control::Branch
        } else if matches!(rec.instr.op, Op::Jr | Op::Jalr) {
            Control::Indirect
        } else if cost.is_jump {
            Control::Jump
        } else {
            Control::None
        };
        RecordFacts {
            keys: keys_of(cost),
            short: is_short_operand(cost),
            srcs: [src(rs), src(rt)],
            dest: rec
                .instr
                .dest_reg()
                .filter(|reg| !reg.is_zero())
                .map_or(NO_REG, usize::from),
            load: rec.instr.op.is_load(),
            control,
            taken: cost.taken,
            pc: rec.pc,
            fetch_penalty: u64::from(step.fetch.latency.saturating_sub(1)),
            data_penalty: step
                .data
                .map_or(0, |d| u64::from(d.latency.saturating_sub(1))),
        }
    }
}

/// One organization compiled into lookup tables, indexed by pipeline
/// position (`0..depth`).
#[derive(Debug, Clone)]
pub(crate) struct OrgTables {
    pub(crate) depth: usize,
    /// [`Organization::occupancy`] per stage, by the stage's occupancy key.
    occupancy: [[u8; KEY_SPAN]; 7],
    occupancy_key: [usize; 7],
    /// [`Organization::stage_used_bytes`] per stage, by the stage's
    /// used-bytes key; `u32::MAX` ("every lane") where the organization
    /// cannot gate lanes.
    used: [[u32; KEY_SPAN]; 7],
    used_key: [usize; 7],
    /// [`Organization::lane_bytes`] per stage.
    pub(crate) lanes: [u64; 7],
    /// Position of the execute stage, where source operands are needed.
    pub(crate) execute: usize,
    /// Position of the memory stage, which pays data-cache misses.
    pub(crate) memory: usize,
    /// Position where a result is ready for bypass: `[ALU, load]`.
    pub(crate) produce: [usize; 2],
    /// Position where a branch or indirect jump resolves: `[long, short]`.
    resolve: [usize; 2],
    /// Position where a direct jump's target is known.
    pub(crate) decode: usize,
}

impl OrgTables {
    /// Evaluates the organization's rules over every value of their keys.
    pub(crate) fn compile(org: &Organization) -> Self {
        let depth = org.depth();
        assert!(depth <= 7, "the fixed stage arrays hold up to 7 stages");
        let position = |stage: Stage| {
            org.stage_index(stage)
                .unwrap_or_else(|| panic!("{} has no {stage:?} stage", org.name()))
        };
        let resolve_at = |short: bool| {
            let cost = if short {
                probe(Key::Operand, 1)
            } else {
                probe(Key::Operand, 4)
            };
            debug_assert_eq!(is_short_operand(&cost), short);
            position(org.branch_resolve_stage(&cost))
        };
        let mut tables = OrgTables {
            depth,
            occupancy: [[0; KEY_SPAN]; 7],
            occupancy_key: [0; 7],
            used: [[0; KEY_SPAN]; 7],
            used_key: [0; 7],
            lanes: [0; 7],
            execute: position(Stage::Execute),
            memory: position(Stage::Memory),
            produce: [
                position(org.alu_result_stage()),
                position(org.load_result_stage()),
            ],
            resolve: [resolve_at(false), resolve_at(true)],
            decode: position(Stage::RegRead),
        };
        for (s, &stage) in org.stages().iter().enumerate() {
            let (occupancy_key, used_key) = Key::of_stage(stage);
            tables.occupancy_key[s] = occupancy_key as usize;
            tables.used_key[s] = used_key as usize;
            tables.lanes[s] = u64::from(org.lane_bytes(stage));
            for v in occupancy_key.domain() {
                let cycles = org.occupancy(stage, &probe(occupancy_key, v));
                tables.occupancy[s][usize::from(v)] =
                    u8::try_from(cycles).expect("a stage occupancy fits in a byte");
            }
            for v in used_key.domain() {
                tables.used[s][usize::from(v)] = if org.gates_lanes() {
                    org.stage_used_bytes(stage, &probe(used_key, v))
                } else {
                    u32::MAX
                };
            }
        }
        tables
    }

    /// The stage's occupancy for a record, before miss penalties.
    #[inline]
    pub(crate) fn occupancy(&self, s: usize, facts: &RecordFacts) -> u64 {
        u64::from(self.occupancy[s][usize::from(facts.keys[self.occupancy_key[s]])])
    }

    /// The lanes the record's significant bytes keep powered in the stage
    /// (`u32::MAX` where the organization cannot gate).
    #[inline]
    pub(crate) fn used(&self, s: usize, facts: &RecordFacts) -> u64 {
        u64::from(self.used[s][usize::from(facts.keys[self.used_key[s]])])
    }

    /// Position where the record resolves if it is a branch or an
    /// indirect jump.
    #[inline]
    pub(crate) fn resolve(&self, facts: &RecordFacts) -> usize {
        self.resolve[usize::from(facts.short)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::OrgKind;
    use sigcomp::ExtScheme;

    /// The facts of a conditional branch with this cost vector.
    fn branch_facts(cost: &InstrCost) -> RecordFacts {
        RecordFacts {
            keys: keys_of(cost),
            short: is_short_operand(cost),
            srcs: [0, 0],
            dest: NO_REG,
            load: false,
            control: Control::Branch,
            pc: 0,
            taken: false,
            fetch_penalty: 0,
            data_penalty: 0,
        }
    }

    /// Every cost vector the rules can tell apart: fetch 3–4 bytes, each
    /// operand absent or 0–4 bytes, the ALU unused or 0–16 bytes (multiply
    /// and divide report up to 16), the result absent or 0–4 bytes, and no
    /// memory access or a load or store of 0–4 significant bytes.
    fn reachable_costs() -> Vec<InstrCost> {
        let widths = |max: u8| std::iter::once(None).chain((0..=max).map(Some));
        let mems = std::iter::once(None).chain([false, true].into_iter().flat_map(|is_store| {
            (0..=4).map(move |sig_bytes| {
                Some(MemCost {
                    width_bytes: 4,
                    sig_bytes,
                    is_store,
                })
            })
        }));
        let mut costs = Vec::new();
        for fetch_bytes in 3..=4 {
            for rs_bytes in widths(4) {
                for rt_bytes in widths(4) {
                    for alu_bytes in widths(16) {
                        for result_bytes in widths(4) {
                            for mem in mems.clone() {
                                let mut cost = probe(Key::Fetch, fetch_bytes);
                                cost.rs_bytes = rs_bytes;
                                cost.rt_bytes = rt_bytes;
                                cost.alu = alu_bytes.map(|bytes_operated| AluOutcome {
                                    result: 0,
                                    bytes_operated,
                                    baseline_bytes: 4,
                                });
                                cost.result_bytes = result_bytes;
                                cost.mem = mem;
                                costs.push(cost);
                            }
                        }
                    }
                }
            }
        }
        costs
    }

    #[test]
    fn timing_tables_match_the_organization_rules() {
        let costs = reachable_costs();
        assert_eq!(costs.len(), 2 * 6 * 6 * 18 * 6 * 11);
        let keys = [
            Key::Fetch,
            Key::Operand,
            Key::Execute,
            Key::Memory,
            Key::Result,
            Key::RfRead,
        ];
        let mut shorts = [0usize; 2];
        for cost in &costs {
            let facts = branch_facts(cost);
            for key in keys {
                assert!(
                    key.domain().contains(&facts.keys[key as usize]),
                    "{key:?} = {} is outside its table",
                    facts.keys[key as usize]
                );
            }
            shorts[usize::from(facts.short)] += 1;
        }
        assert!(shorts[0] > 0 && shorts[1] > 0, "both resolve entries run");

        for &kind in OrgKind::ALL {
            for &scheme in ExtScheme::ALL {
                let org = Organization::with_scheme(kind, scheme);
                let tables = OrgTables::compile(&org);
                let position = |stage| org.stage_index(stage).unwrap();
                assert_eq!(tables.depth, org.depth());
                assert_eq!(tables.decode, position(Stage::RegRead));
                assert_eq!(
                    tables.produce,
                    [
                        position(org.alu_result_stage()),
                        position(org.load_result_stage())
                    ]
                );
                for cost in &costs {
                    let facts = branch_facts(cost);
                    for (s, &stage) in org.stages().iter().enumerate() {
                        let at = || format!("{} {scheme:?} {stage:?} {cost:?}", org.name());
                        assert_eq!(
                            tables.occupancy(s, &facts),
                            u64::from(org.occupancy(stage, cost)),
                            "occupancy: {}",
                            at()
                        );
                        let used = if org.gates_lanes() {
                            org.stage_used_bytes(stage, cost)
                        } else {
                            u32::MAX
                        };
                        assert_eq!(tables.used(s, &facts), u64::from(used), "used: {}", at());
                    }
                    assert_eq!(
                        tables.resolve(&facts),
                        position(org.branch_resolve_stage(cost)),
                        "resolve: {} {scheme:?} {cost:?}",
                        org.name()
                    );
                }
            }
        }
    }
}
