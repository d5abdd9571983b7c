//! Conformance tests for the `.sctrace` portable trace format: deterministic
//! property-style encode→decode identity over varied real executions, plus
//! adversarial malformed-input cases that must surface named errors — never
//! panics, never silently-wrong traces.

use sigcomp_isa::tracefile::{
    collect_records, payload_digest, write_trace, TraceFileError, TraceReader, TraceWriter,
};
use sigcomp_isa::{
    reg, DecodedTrace, ExecRecord, Instruction, Interpreter, MemAccess, Op, ProgramBuilder, Trace,
};
use std::io::Cursor;

/// A kernel that exercises every record shape the format can carry:
/// arithmetic, shifts, mult/div + HI/LO, all load/store widths, taken and
/// untaken branches, calls and returns.
fn rich_trace(scale: i32) -> Trace {
    let mut b = ProgramBuilder::new();
    b.dlabel("buf");
    b.words(&[0, 0, 0, 0]);
    b.li(reg::T0, scale);
    b.li(reg::T1, 3);
    b.jal("twiddle");
    b.la(reg::A0, "buf");
    b.sw(reg::V0, reg::A0, 0);
    b.lw(reg::T2, reg::A0, 0);
    b.sh(reg::V0, reg::A0, 4);
    b.lhu(reg::T3, reg::A0, 4);
    b.sb(reg::V0, reg::A0, 8);
    b.lb(reg::T4, reg::A0, 8);
    b.lbu(reg::T5, reg::A0, 8);
    b.mult(reg::T0, reg::T1);
    b.mflo(reg::T6);
    b.mfhi(reg::T7);
    b.li(reg::T8, 0);
    b.label("loop");
    b.addiu(reg::T8, reg::T8, 1);
    b.slt(reg::T9, reg::T8, reg::T1);
    b.bne(reg::T9, reg::ZERO, "loop");
    b.beq(reg::T8, reg::ZERO, "loop"); // never taken
    b.sra(reg::S0, reg::T0, 2);
    b.halt();
    b.label("twiddle");
    b.addu(reg::V0, reg::T0, reg::T1);
    b.sll(reg::V0, reg::V0, 1);
    b.jr(reg::RA);
    let program = b.assemble().expect("assembles");
    Interpreter::new(&program).run(100_000).expect("runs")
}

fn to_bytes(trace: &Trace, meta: &[(&str, &str)]) -> Vec<u8> {
    let mut writer = TraceWriter::new();
    for (key, value) in meta {
        writer.set_meta(key, value);
    }
    for rec in trace {
        writer.push(rec).expect("encodes");
    }
    let mut bytes = Vec::new();
    writer.finish(&mut bytes).expect("writes");
    bytes
}

fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceFileError> {
    collect_records(TraceReader::new(Cursor::new(bytes))?)
}

/// Byte offset of the first record (just past the `%%\n` header terminator).
fn payload_offset(bytes: &[u8]) -> usize {
    bytes
        .windows(3)
        .position(|w| w == b"%%\n")
        .expect("header terminator present")
        + 3
}

#[test]
fn encode_decode_is_the_identity_on_real_executions() {
    // Deterministic property-style sweep: different data scales change the
    // operand values, branch outcomes and significance patterns, but every
    // variant must survive the round trip record-for-record.
    for scale in [0, 1, -1, 127, -128, 1000, -100_000, i32::MAX, i32::MIN] {
        let trace = rich_trace(scale);
        assert!(trace.len() > 20, "scale {scale} produced a trivial trace");
        let restored = from_bytes(&to_bytes(&trace, &[])).expect("round trips");
        assert_eq!(
            restored.records(),
            trace.records(),
            "scale {scale} did not round-trip"
        );
    }
}

#[test]
fn empty_traces_round_trip() {
    let restored = from_bytes(&to_bytes(&Trace::new(), &[])).expect("round trips");
    assert!(restored.is_empty());
}

#[test]
fn metadata_round_trips_and_reserved_keys_are_ignored() {
    let trace = rich_trace(7);
    let bytes = to_bytes(
        &trace,
        &[
            ("source", "unit"),
            ("records", "999"), // reserved: must not override the header
            ("digest", "f00f"), // reserved
            ("BAD KEY", "x"),   // invalid key: dropped
            ("note", "has spaces and = signs"),
        ],
    );
    let reader = TraceReader::new(Cursor::new(&bytes)).expect("opens");
    assert_eq!(reader.records(), trace.len() as u64);
    assert_eq!(reader.meta_value("source"), Some("unit"));
    assert_eq!(reader.meta_value("note"), Some("has spaces and = signs"));
    assert_eq!(reader.meta_value("BAD KEY"), None);
    collect_records(reader).expect("payload intact");
}

#[test]
fn file_round_trip_via_write_trace_and_digest_agree() {
    let trace = rich_trace(42);
    let dir = std::env::temp_dir().join(format!("sctrace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.sctrace");
    let digest = write_trace(&path, &trace, &[("source", "test")]).expect("writes");
    assert_eq!(digest, payload_digest(&trace).unwrap());
    let restored = sigcomp_isa::read_trace(&path).expect("reads");
    assert_eq!(restored.records(), trace.records());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_records_are_named_not_panics() {
    let trace = rich_trace(9);
    let bytes = to_bytes(&trace, &[]);
    let offset = payload_offset(&bytes);
    // Cut the stream at every prefix length within the first few records:
    // each one must yield TruncatedRecord (or parse cleanly at an exact
    // record boundary — but never beyond record 3's worth of bytes).
    for cut in offset..(offset + 40) {
        match from_bytes(&bytes[..cut]) {
            Err(TraceFileError::TruncatedRecord { index }) => {
                assert!(index <= 3, "cut {cut}: index {index}");
            }
            other => panic!("cut {cut}: expected TruncatedRecord, got {other:?}"),
        }
    }
}

#[test]
fn oversized_record_counts_are_reported_as_truncation() {
    let trace = rich_trace(5);
    let bytes = to_bytes(&trace, &[]);
    let text = String::from_utf8_lossy(&bytes[..payload_offset(&bytes)]).into_owned();
    let inflated = text.replace(
        &format!("records={}", trace.len()),
        &format!("records={}", trace.len() as u64 + 1_000_000),
    );
    assert_ne!(inflated, text, "replacement must hit");
    let mut forged = inflated.into_bytes();
    forged.extend_from_slice(&bytes[payload_offset(&bytes)..]);
    match from_bytes(&forged) {
        Err(TraceFileError::TruncatedRecord { index }) => {
            assert_eq!(index, trace.len() as u64);
        }
        other => panic!("expected TruncatedRecord, got {other:?}"),
    }
}

#[test]
fn a_forged_record_count_is_the_same_named_error_on_both_decoders() {
    // The golden rawcaudio trace with only its header count inflated to
    // four trillion: decoding must not try to preallocate for it.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/rawcaudio.sctrace"
    );
    let bytes = std::fs::read(path).expect("golden trace");
    let offset = payload_offset(&bytes);
    let header = String::from_utf8_lossy(&bytes[..offset]).into_owned();
    let forged_header = header.replace("records=4332\n", "records=4000000000000\n");
    assert_ne!(forged_header, header, "replacement must hit");
    let mut forged = forged_header.into_bytes();
    forged.extend_from_slice(&bytes[offset..]);

    let streamed = from_bytes(&forged).unwrap_err();
    let arena =
        DecodedTrace::from_reader(TraceReader::new(Cursor::new(&forged)).unwrap()).unwrap_err();
    for err in [streamed, arena] {
        assert!(
            matches!(err, TraceFileError::TruncatedRecord { index: 4332 }),
            "{err:?}"
        );
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let trace = rich_trace(5);
    let mut bytes = to_bytes(&trace, &[]);
    bytes.push(0);
    assert!(matches!(
        from_bytes(&bytes),
        Err(TraceFileError::TrailingBytes)
    ));
}

#[test]
fn payload_corruption_is_caught_by_the_digest() {
    let trace = rich_trace(5);
    let mut bytes = to_bytes(&trace, &[]);
    // The last byte of the final record is part of a little-endian value
    // field, so the stream still parses — only the digest can catch it.
    *bytes.last_mut().unwrap() ^= 0x40;
    assert!(matches!(
        from_bytes(&bytes),
        Err(TraceFileError::DigestMismatch { .. })
    ));
}

#[test]
fn reserved_and_orphan_flag_bits_are_rejected() {
    let trace = rich_trace(5);
    let bytes = to_bytes(&trace, &[]);
    let offset = payload_offset(&bytes);
    for bad in [0x80u8, 1 << 5, 1 << 6] {
        // bit 7 reserved; store/taken bits without mem/branch. Record 0 is
        // `li` (no mem, no branch), so OR-ing these in is always invalid.
        let mut forged = bytes.clone();
        forged[offset] |= bad;
        match from_bytes(&forged) {
            Err(TraceFileError::BadFlags { index: 0, .. }) => {}
            other => panic!("flag {bad:#x}: expected BadFlags, got {other:?}"),
        }
    }
}

/// Hand-builds a single-record trace whose payload layout is known exactly,
/// so individual bytes can be attacked: `lui $t0` has no source reads, one
/// writeback, no memory access, no branch.
fn lui_record() -> ExecRecord {
    let instr = Instruction::imm(Op::Lui, reg::T0, reg::ZERO, 5);
    ExecRecord {
        seq: 0,
        pc: 0x0040_0000,
        word: instr.encode(),
        instr,
        rs_value: None,
        rt_value: None,
        writeback: Some((reg::T0, 5 << 16)),
        mem: None,
        branch: None,
    }
}

#[test]
fn out_of_range_writeback_registers_are_rejected() {
    let trace: Trace = [lui_record()].into_iter().collect();
    let bytes = to_bytes(&trace, &[]);
    let offset = payload_offset(&bytes);
    // Layout: flags(1) pc(4) word(4) reg(1) value(4) — reg at offset + 9.
    for bad_reg in [0u8, 32, 255] {
        let mut forged = bytes.clone();
        forged[offset + 9] = bad_reg;
        match from_bytes(&forged) {
            Err(TraceFileError::BadRegister { index: 0, reg }) => assert_eq!(reg, bad_reg),
            Err(TraceFileError::DigestMismatch { .. }) => {
                panic!("register must be validated before the digest")
            }
            other => panic!("reg {bad_reg}: expected BadRegister, got {other:?}"),
        }
    }
}

#[test]
fn invalid_memory_widths_are_rejected() {
    let rec = ExecRecord {
        seq: 0,
        pc: 0x0040_0000,
        word: 0, // NOP decodes
        instr: Instruction::NOP,
        rs_value: None,
        rt_value: None,
        writeback: None,
        mem: Some(MemAccess {
            addr: 0x1000_0000,
            width: 4,
            is_store: true,
            value: 9,
        }),
        branch: None,
    };
    let trace: Trace = [rec].into_iter().collect();
    let bytes = to_bytes(&trace, &[]);
    let offset = payload_offset(&bytes);
    // Layout: flags(1) pc(4) word(4) addr(4) width(1) value(4).
    let mut forged = bytes;
    forged[offset + 13] = 3;
    match from_bytes(&forged) {
        Err(TraceFileError::BadWidth { index: 0, width: 3 }) => {}
        other => panic!("expected BadWidth, got {other:?}"),
    }
}

#[test]
fn undecodable_instruction_words_are_rejected() {
    let trace: Trace = [lui_record()].into_iter().collect();
    let bytes = to_bytes(&trace, &[]);
    let offset = payload_offset(&bytes);
    let mut forged = bytes;
    // Overwrite the instruction word with unused opcode 0x3f.
    forged[offset + 5..offset + 9].copy_from_slice(&0xfc00_0000u32.to_le_bytes());
    match from_bytes(&forged) {
        Err(TraceFileError::UndecodableWord { index: 0, .. }) => {}
        other => panic!("expected UndecodableWord, got {other:?}"),
    }
}

#[test]
fn writer_rejects_unrepresentable_records() {
    // Sequence numbers must be 0..len.
    let mut skewed = lui_record();
    skewed.seq = 3;
    let mut writer = TraceWriter::new();
    assert!(matches!(
        writer.push(&skewed),
        Err(TraceFileError::NonSequentialSeq { index: 0, seq: 3 })
    ));

    // The stored word must re-decode to the stored instruction.
    let mut inconsistent = lui_record();
    inconsistent.word = 0; // NOP word, Lui instr
    assert!(matches!(
        TraceWriter::new().push(&inconsistent),
        Err(TraceFileError::InconsistentInstruction { index: 0 })
    ));

    // Architecturally-invisible $zero writebacks cannot be recorded.
    let mut to_zero = lui_record();
    to_zero.writeback = Some((reg::ZERO, 1));
    assert!(matches!(
        TraceWriter::new().push(&to_zero),
        Err(TraceFileError::BadRegister { index: 0, reg: 0 })
    ));

    // Invalid memory widths are caught on the way out, too.
    let mut bad_width = lui_record();
    bad_width.mem = Some(MemAccess {
        addr: 0,
        width: 3,
        is_store: false,
        value: 0,
    });
    assert!(matches!(
        TraceWriter::new().push(&bad_width),
        Err(TraceFileError::BadWidth { index: 0, width: 3 })
    ));
}

#[test]
fn a_failed_push_leaves_the_writer_usable() {
    // A rejected record must not leave partial bytes behind: skipping it and
    // continuing must still produce a well-formed, readable file.
    let mut writer = TraceWriter::new();
    let mut to_zero = lui_record();
    to_zero.writeback = Some((reg::ZERO, 1));
    assert!(writer.push(&to_zero).is_err());
    writer
        .push(&lui_record())
        .expect("writer still accepts records");
    let mut bytes = Vec::new();
    writer.finish(&mut bytes).expect("writes");
    let restored = from_bytes(&bytes).expect("file is well-formed after a rejected record");
    assert_eq!(restored.records(), &[lui_record()][..]);
}

#[test]
fn oversized_header_lines_are_rejected_without_buffering_the_input() {
    // A large newline-free file (e.g. a binary opened by mistake) must fail
    // with a named error after a bounded read, not be slurped into memory.
    let not_a_trace = vec![b'a'; 1 << 20];
    match TraceReader::new(Cursor::new(not_a_trace)) {
        Err(TraceFileError::OversizedHeaderLine { limit }) => assert!(limit <= 64 * 1024),
        other => panic!("expected OversizedHeaderLine, got {other:?}"),
    }
}

#[test]
fn unbounded_header_metadata_is_rejected() {
    // A crafted file with a valid magic line and endless short key=value
    // lines (no `%%`) must hit the total-header bound, not buffer the whole
    // stream into the metadata table.
    let mut crafted = b"sctrace 1\n".to_vec();
    for i in 0..200_000u32 {
        crafted.extend_from_slice(format!("k{i}=v\n").as_bytes());
    }
    match TraceReader::new(Cursor::new(crafted)) {
        Err(TraceFileError::OversizedHeader { limit }) => assert!(limit <= 1 << 20),
        other => panic!("expected OversizedHeader, got {other:?}"),
    }
}

#[test]
fn header_truncation_is_an_io_error_not_a_panic() {
    for text in ["", "sctrace 1\n", "sctrace 1\nrecords=1\n"] {
        match TraceReader::new(Cursor::new(text.as_bytes())) {
            Err(TraceFileError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("{text:?}: expected EOF error, got {other:?}"),
        }
    }
}

#[test]
fn errors_display_their_specifics() {
    let trace = rich_trace(5);
    let mut bytes = to_bytes(&trace, &[]);
    *bytes.last_mut().unwrap() ^= 0x40;
    let err = from_bytes(&bytes).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("digest"), "{text}");
    assert!(TraceFileError::TruncatedRecord { index: 17 }
        .to_string()
        .contains("17"));
}
