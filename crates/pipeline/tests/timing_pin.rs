//! Freezes the full [`SimResult`] of every organization, with and without
//! the bimodal branch predictor, on one program that exercises every
//! timing path: wide multiplies and divides, loads and stores of each
//! width, direct and register-indirect calls and returns, jumps, and
//! data-dependent branches that go both ways.
//!
//! The sweep engine's differentials compare the pipeline against itself;
//! this test compares it against recorded numbers, so a change to the
//! timing step that shifts any counter — including the predictor path,
//! which no sweep runs — fails here.

use sigcomp_isa::program::DEFAULT_TEXT_BASE;
use sigcomp_isa::reg::{
    A0, A1, A2, RA, S0, S1, S2, S3, S4, T0, T1, T2, T3, T4, T5, T6, T7, T9, V0, V1, ZERO,
};
use sigcomp_isa::{Interpreter, ProgramBuilder, Trace};
use sigcomp_pipeline::{OrgKind, Organization, PipelineSim, SimResult};

const ITERATIONS: i32 = 200;

fn mixed_trace() -> Trace {
    let mut b = ProgramBuilder::new();
    b.dlabel("buf");
    b.space(512);
    b.j("main");

    // Reached through `jalr`: its address is loaded from `here()`.
    let indirect = DEFAULT_TEXT_BASE + 4 * b.here();
    b.addu(V0, A1, A2);
    b.jr(RA);
    b.label("direct");
    b.xor(V1, A1, A2);
    b.jr(RA);

    b.label("main");
    b.li(S0, 0);
    b.li(S1, ITERATIONS);
    b.li(S2, 1_103_515_245);
    b.li(A1, 0x1234_5678);
    b.li(A2, 0x00ff);
    b.la(A0, "buf");
    b.li(T9, indirect as i32);

    b.label("loop");
    // Wide multiply/divide: a linear congruential step keeps a1 wide.
    b.multu(A1, S2);
    b.mflo(A1);
    b.addiu(A1, A1, 12_345);
    b.mult(A1, S0);
    b.mfhi(T1);
    b.ori(T2, S0, 7);
    b.div(A1, T2);
    b.mflo(T3);
    b.mfhi(T4);
    b.divu(A1, S2);
    b.mflo(T5);
    b.mthi(T3);
    b.mtlo(T4);

    // Stores and loads of every width at a data-dependent slot.
    b.andi(T6, A1, 0x1f8);
    b.addu(T7, A0, T6);
    b.sw(A1, T7, 0);
    b.sh(T1, T7, 4);
    b.sb(T5, T7, 7);
    b.lw(T0, T7, 0);
    b.lh(T1, T7, 4);
    b.lhu(T2, T7, 4);
    b.lb(T3, T7, 7);
    b.lbu(T4, T7, 7);
    b.addu(A2, T3, T4);

    // A direct call and a register-indirect one, each returning by `jr`.
    b.jal("direct");
    b.jalr(RA, T9);

    // Data-dependent branches: taken and untaken both occur.
    b.andi(T5, A1, 1);
    b.beq(T5, ZERO, "even");
    b.addu(S3, S3, A1);
    b.j("join");
    b.label("even");
    b.subu(S3, S3, A1);
    b.label("join");
    b.bltz(A1, "negative");
    b.addiu(S4, S4, 1);
    b.label("negative");
    b.blez(T0, "skip");
    b.sll(T0, T0, 3);
    b.label("skip");

    b.addiu(S0, S0, 1);
    b.bne(S0, S1, "loop");
    b.halt();
    Interpreter::new(&b.assemble().unwrap())
        .run(1_000_000)
        .unwrap()
}

fn fingerprint(r: &SimResult, predicted: bool) -> String {
    format!(
        "{} pred={predicted} insts={} cycles={} structural={:?} data={} control={} \
         branches={} mispred={} gated={:?} total={:?}",
        r.organization,
        r.instructions,
        r.cycles,
        r.stalls.structural,
        r.stalls.data_hazard,
        r.stalls.control,
        r.branches,
        r.mispredictions,
        r.gated_byte_cycles,
        r.total_byte_cycles,
    )
}

/// Recorded before the timing step was compiled into per-organization
/// lookup tables.
const EXPECTED: &[&str] = &[
    "32-bit baseline pred=false insts=7700 cycles=11852 structural=[0, 0, 770, 1176, 0, 0, 0] data=200 control=3097 branches=800 mispred=0 gated=[0, 0, 0, 0, 0, 0, 0] total=[31928, 61600, 30800, 33224, 30800, 0, 0]",
    "32-bit baseline pred=true insts=7700 cycles=10800 structural=[0, 0, 770, 1176, 0, 0, 0] data=200 control=2045 branches=800 mispred=274 gated=[0, 0, 0, 0, 0, 0, 0] total=[31928, 61600, 30800, 33224, 30800, 0, 0]",
    "byte-serial pred=false insts=7700 cycles=30866 structural=[0, 0, 27580, 1516, 398, 0, 0] data=2947 control=6963 branches=800 mispred=0 gated=[7862, 3144, 0, 6706, 3101, 0, 0] total=[34470, 15400, 27019, 9610, 13691, 0, 0]",
    "byte-serial pred=true insts=7700 cycles=29811 structural=[0, 0, 30247, 1516, 398, 0, 0] data=2947 control=4465 branches=800 mispred=274 gated=[7862, 3144, 0, 6706, 3101, 0, 0] total=[34470, 15400, 27019, 9610, 13691, 0, 0]",
    "halfword-serial pred=false insts=7700 cycles=18039 structural=[0, 0, 6724, 1178, 0, 0, 0] data=999 control=4097 branches=800 mispred=0 gated=[7862, 6614, 301, 13412, 6202, 0, 0] total=[34470, 30800, 28004, 17412, 19816, 0, 0]",
    "halfword-serial pred=true insts=7700 cycles=16986 structural=[0, 0, 7343, 1178, 0, 0, 0] data=999 control=2653 branches=800 mispred=274 gated=[7862, 6614, 301, 13412, 6202, 0, 0] total=[34470, 30800, 28004, 17412, 19816, 0, 0]",
    "byte semi-parallel pred=false insts=7700 cycles=19903 structural=[0, 0, 10385, 2920, 0, 0, 0] data=952 control=3897 branches=800 mispred=0 gated=[7862, 10330, 3609, 6706, 8914, 0, 0] total=[34470, 30800, 30628, 9610, 19504, 0, 0]",
    "byte semi-parallel pred=true insts=7700 cycles=18850 structural=[0, 0, 11004, 2920, 0, 0, 0] data=952 control=2453 branches=800 mispred=274 gated=[7862, 10330, 3609, 6706, 8914, 0, 0] total=[34470, 30800, 30628, 9610, 19504, 0, 0]",
    "byte-parallel skewed pred=false insts=7700 cycles=16061 structural=[0, 0, 970, 570, 1176, 0, 0] data=400 control=3796 branches=800 mispred=0 gated=[7862, 37245, 1813, 7336, 14506, 14602, 20210] total=[34470, 61600, 15400, 15400, 16612, 15400, 30800]",
    "byte-parallel skewed pred=true insts=7700 cycles=14483 structural=[0, 0, 970, 570, 1176, 0, 0] data=400 control=2218 branches=800 mispred=274 gated=[7862, 37245, 1813, 7336, 14506, 14602, 20210] total=[34470, 61600, 15400, 15400, 16612, 15400, 30800]",
    "byte-parallel compressed pred=false insts=7700 cycles=16486 structural=[0, 2159, 636, 1226, 0, 0, 0] data=46 control=2744 branches=800 mispred=0 gated=[7862, 72237, 9149, 31120, 20210, 0, 0] total=[34470, 96592, 30800, 34024, 30800, 0, 0]",
    "byte-parallel compressed pred=true insts=7700 cycles=15661 structural=[0, 2387, 636, 1226, 0, 0, 0] data=46 control=1692 branches=800 mispred=274 gated=[7862, 72237, 9149, 31120, 20210, 0, 0] total=[34470, 96592, 30800, 34024, 30800, 0, 0]",
    "byte-parallel skewed + bypasses pred=false insts=7700 cycles=15662 structural=[0, 0, 970, 570, 1176, 0, 0] data=400 control=3397 branches=800 mispred=0 gated=[7862, 37245, 1813, 7336, 14506, 14602, 20210] total=[34470, 61600, 15400, 15400, 16612, 15400, 30800]",
    "byte-parallel skewed + bypasses pred=true insts=7700 cycles=14382 structural=[0, 0, 970, 570, 1176, 0, 0] data=400 control=2117 branches=800 mispred=274 gated=[7862, 37245, 1813, 7336, 14506, 14602, 20210] total=[34470, 61600, 15400, 15400, 16612, 15400, 30800]",
];

#[test]
fn timing_pin_full_results_with_and_without_prediction() {
    let trace = mixed_trace();
    let mut actual = Vec::new();
    for &kind in OrgKind::ALL {
        for predicted in [false, true] {
            let mut sim = PipelineSim::new(Organization::new(kind));
            if predicted {
                sim = sim.with_branch_prediction(512);
            }
            actual.push(fingerprint(&sim.run(trace.iter()), predicted));
        }
    }
    assert_eq!(actual, EXPECTED);
}
