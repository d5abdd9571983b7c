//! # sigcomp-static
//!
//! Static significance analysis: an abstract interpretation that proves,
//! per instruction, an upper bound on how many low-order bytes each
//! operand can ever need — the *static* counterpart of the dynamic
//! significance counting the paper's energy argument is built on
//! (Canal, González & Smith, MICRO 2000, §2).
//!
//! The pipeline is classic dataflow analysis:
//!
//! * [`Cfg`] — basic blocks over the decoded text segment, with successor
//!   edges from branch/jump resolution (indirect jumps conservatively
//!   target every block),
//! * [`Width`] / [`AbsState`] — the byte-significance lattice, a six-step
//!   chain `⊥ < 1 < 2 < 3 < 4 < ⊤` per register plus HI/LO,
//! * [`transfer`](mod@transfer) — per-opcode transfer functions mirroring the
//!   interpreter's `DISPATCH` semantics (each rule carries its soundness
//!   argument),
//! * [`analyze_program`] — the worklist fixpoint solver, yielding
//!   [`InstrBounds`] for every reachable instruction,
//! * [`WidthReport`] — per-opcode/per-register summaries and a predicted
//!   significance distribution comparable against dynamic
//!   [`sigcomp::SigStats`], with CSV/JSON export,
//! * [`verify_trace_against_bounds`] — the differential verifier: every
//!   dynamically recorded operand must respect its static bound, over the
//!   entire golden corpus, in CI.
//!
//! # Example
//!
//! ```
//! use sigcomp_static::{analyze_program, verify_trace_against_bounds, EntryState, WidthReport};
//! use sigcomp_isa::{program, reg, Instruction, Interpreter, Op, Program};
//!
//! let program = Program {
//!     text_base: program::DEFAULT_TEXT_BASE,
//!     text: [
//!         Instruction::imm(Op::Addiu, reg::T0, reg::ZERO, 42),
//!         Instruction::r3(Op::Addu, reg::T1, reg::T0, reg::T0),
//!         Instruction::r3(Op::Break, reg::ZERO, reg::ZERO, reg::ZERO),
//!     ]
//!     .iter()
//!     .map(Instruction::encode)
//!     .collect(),
//!     data_base: program::DEFAULT_DATA_BASE,
//!     data: vec![],
//!     entry: program::DEFAULT_TEXT_BASE,
//!     stack_top: program::DEFAULT_STACK_TOP,
//! };
//! let analysis = analyze_program(&program, EntryState::KernelBoot);
//! let report = WidthReport::from_analysis("example", &analysis);
//! assert!(report.predicted_saving() > 0.0);
//!
//! // The interpreter can never exceed the proven bounds.
//! let trace = Interpreter::new(&program).run(100).unwrap();
//! verify_trace_against_bounds(&analysis, trace.records()).unwrap();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod cfg;
pub mod lattice;
pub mod report;
pub mod transfer;
pub mod verify;

pub use analysis::{analyze_program, program_from_records, EntryState, StaticAnalysis};
pub use cfg::{Block, Cfg};
pub use lattice::{AbsState, Width};
pub use report::{OpWidthRow, WidthReport};
pub use transfer::{transfer, InstrBounds};
pub use verify::{verify_trace_against_bounds, OperandKind, VerifyError, VerifyReport};
