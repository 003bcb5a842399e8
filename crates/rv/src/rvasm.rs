//! A small two-pass RV32I assembler for the committed workload suite.
//!
//! This is a *suite-authoring* tool, not a general assembler: it emits
//! [`RvImage`] flat images whose code-pointer constants follow the
//! translation contract. Text labels materialized into registers (`la`)
//! or stored into data words (`.word handler`) are emitted as
//! *translated instruction indices*, computed with the translator's own
//! [`expansion_len`][crate::translate::expansion_len], so indirect
//! jumps through them land exactly where the substrate expects. Data
//! labels resolve to byte addresses. Text labels referenced this way
//! are automatically recorded in the image's address-taken table.
//!
//! Syntax: one instruction, label (`name:`), or directive per line;
//! `#` starts a comment. Sections via `.text` / `.data`; directives
//! `.entry <label>`, `.mem <bytes>`, `.base <bytes>`, `.word v, …`,
//! `.byte v, …`, `.zero <n>`. Pseudo-instructions: `li`, `la`, `mv`,
//! `neg`, `j`, `jr`, `call`, `ret`, `beqz`, `bnez`, `nop`.

use std::collections::HashMap;
use std::fmt;

use crate::decode::decode;
use crate::image::RvImage;
use crate::translate::expansion_len;

/// Default data-memory size (64 KiB) when no `.mem` directive is given.
const DEFAULT_MEM_BYTES: u32 = 1 << 16;
/// Default data-segment base: leaves a small null guard at address 0.
const DEFAULT_DATA_BASE: u32 = 16;

/// An assembly diagnostic with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RvAsmError {
    /// 1-based source line (0 for whole-program errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for RvAsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RvAsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, RvAsmError> {
    Err(RvAsmError {
        line,
        message: message.into(),
    })
}

/// Where a label points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LabelKind {
    /// Text label: RV instruction index.
    Text(u32),
    /// Data label: byte offset within the data segment.
    Data(u32),
}

/// One concrete RV instruction awaiting encoding; label operands are
/// resolved in pass 2.
#[derive(Debug, Clone)]
enum Proto {
    /// R-type.
    R {
        f7: u32,
        f3: u32,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    /// I-type arithmetic (opcode 0010011).
    IArith {
        f7: u32,
        f3: u32,
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    /// Load (opcode 0000011).
    Load {
        f3: u32,
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    /// `jalr` (opcode 1100111).
    Jalr {
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    /// Store.
    Store {
        f3: u32,
        rs2: u8,
        rs1: u8,
        imm: i32,
    },
    /// Conditional branch to a text label.
    Branch {
        f3: u32,
        rs1: u8,
        rs2: u8,
        label: String,
    },
    /// `lui`.
    Lui {
        rd: u8,
        imm20: u32,
    },
    /// `auipc`.
    Auipc {
        rd: u8,
        imm20: u32,
    },
    /// `jal` to a text label.
    Jal {
        rd: u8,
        label: String,
    },
    /// High half of `la rd, label` (`lui`), value resolved per contract.
    LaHi {
        rd: u8,
        label: String,
    },
    /// Low half of `la rd, label` (`addi rd, rd, lo`).
    LaLo {
        rd: u8,
        label: String,
    },
    /// `fence` / `ecall` / `ebreak`.
    Fence,
    Ecall,
    Ebreak,
}

impl Proto {
    /// How many substrate instructions this RV instruction expands to —
    /// must agree with `translate::expansion_len`, which is asserted in
    /// pass 2 against the actual decoded encoding.
    fn expansion(&self) -> u32 {
        match self {
            Proto::Jal { rd, .. } => {
                if *rd <= 1 {
                    1
                } else {
                    2
                }
            }
            Proto::Jalr { rd, imm, .. } => match (*rd, *imm) {
                (0 | 1, 0) => 1,
                (0 | 1, _) => 2,
                _ => 3,
            },
            _ => 1,
        }
    }
}

/// A value in a `.word` directive.
#[derive(Debug, Clone)]
enum DataWord {
    Int(i64),
    Label(String, usize), // + source line
}

fn parse_reg(tok: &str, line: usize) -> Result<u8, RvAsmError> {
    let named = |n: u8| Ok(n);
    match tok {
        "zero" => named(0),
        "ra" => named(1),
        "sp" => named(2),
        "gp" => named(3),
        "tp" => named(4),
        "t0" => named(5),
        "t1" => named(6),
        "t2" => named(7),
        "s0" | "fp" => named(8),
        "s1" => named(9),
        "t3" => named(28),
        "t4" => named(29),
        "t5" => named(30),
        "t6" => named(31),
        _ => {
            if let Some(n) = tok.strip_prefix('a') {
                if let Ok(i) = n.parse::<u8>() {
                    if n.len() == 1 && i <= 7 {
                        return Ok(10 + i);
                    }
                }
            }
            if let Some(n) = tok.strip_prefix('s') {
                if let Ok(i) = n.parse::<u8>() {
                    if (n.len() == 1 || (n.len() == 2 && i >= 10)) && (2..=11).contains(&i) {
                        return Ok(16 + i);
                    }
                }
            }
            if let Some(n) = tok.strip_prefix('x') {
                if let Ok(i) = n.parse::<u8>() {
                    if i < 32 && n == i.to_string() {
                        return Ok(i);
                    }
                }
            }
            err(line, format!("unknown register `{tok}`"))
        }
    }
}

fn parse_int(tok: &str, line: usize) -> Result<i64, RvAsmError> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let parsed = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    };
    match parsed {
        Ok(v) if neg => Ok(-v),
        Ok(v) => Ok(v),
        Err(_) => err(line, format!("bad integer `{tok}`")),
    }
}

fn check_imm12(v: i64, line: usize, what: &str) -> Result<i32, RvAsmError> {
    if (-2048..=2047).contains(&v) {
        Ok(v as i32)
    } else {
        err(line, format!("{what} {v} outside the 12-bit signed range"))
    }
}

/// Splits `off(reg)` into (offset, register).
fn parse_mem_operand(tok: &str, line: usize) -> Result<(i32, u8), RvAsmError> {
    let Some(open) = tok.find('(') else {
        return err(line, format!("expected `offset(reg)`, got `{tok}`"));
    };
    let Some(stripped) = tok[open..]
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
    else {
        return err(line, format!("expected `offset(reg)`, got `{tok}`"));
    };
    let off = if open == 0 {
        0
    } else {
        check_imm12(parse_int(&tok[..open], line)?, line, "offset")?
    };
    Ok((off, parse_reg(stripped, line)?))
}

/// The standard `%hi`/`%lo` split: `hi = (v + 0x800) >> 12` so that
/// `(hi << 12) + sext12(lo) == v` for any 32-bit value.
fn hi_lo(value: u32) -> (u32, i32) {
    let hi = value.wrapping_add(0x800) >> 12;
    let lo = (value.wrapping_sub(hi << 12)) as i32;
    (hi & 0xf_ffff, lo)
}

struct Assembler {
    protos: Vec<(Proto, usize)>, // + source line
    labels: HashMap<String, (LabelKind, usize)>,
    data: Vec<u8>,
    data_base: u32,
    mem_bytes: u32,
    entry_label: Option<(String, usize)>,
    data_words: Vec<(usize, DataWord)>, // byte offset in data, value
    in_data: bool,
    rv_index: u32,
}

impl Assembler {
    fn bind_label(&mut self, name: &str, line: usize) -> Result<(), RvAsmError> {
        let kind = if self.in_data {
            LabelKind::Data(self.data.len() as u32)
        } else {
            LabelKind::Text(self.rv_index)
        };
        if let Some((_, prev)) = self.labels.insert(name.to_string(), (kind, line)) {
            return err(line, format!("label `{name}` already bound at line {prev}"));
        }
        Ok(())
    }

    fn push(&mut self, proto: Proto, line: usize) {
        self.rv_index += 1;
        self.protos.push((proto, line));
    }

    fn push_li(&mut self, rd: u8, value: i64, line: usize) -> Result<(), RvAsmError> {
        if !(-(1 << 31)..(1i64 << 32)).contains(&value) {
            return err(line, format!("li value {value} outside the 32-bit range"));
        }
        let v32 = value as u32;
        if (-2048..=2047).contains(&(v32 as i32 as i64))
            && (value as i32 as i64) == (v32 as i32 as i64)
        {
            // Small constants: one addi from x0.
            self.push(
                Proto::IArith {
                    f7: 0,
                    f3: 0,
                    rd,
                    rs1: 0,
                    imm: v32 as i32,
                },
                line,
            );
        } else {
            let (hi, lo) = hi_lo(v32);
            self.push(Proto::Lui { rd, imm20: hi }, line);
            self.push(
                Proto::IArith {
                    f7: 0,
                    f3: 0,
                    rd,
                    rs1: rd,
                    imm: lo,
                },
                line,
            );
        }
        Ok(())
    }
}

/// Assembles RV32I source into a validated flat image.
///
/// # Errors
///
/// Returns [`RvAsmError`] with a 1-based source line for any syntax,
/// range, or label problem.
#[allow(clippy::too_many_lines)]
pub fn assemble_rv(source: &str) -> Result<RvImage, RvAsmError> {
    let mut a = Assembler {
        protos: Vec::new(),
        labels: HashMap::new(),
        data: Vec::new(),
        data_base: DEFAULT_DATA_BASE,
        mem_bytes: DEFAULT_MEM_BYTES,
        entry_label: None,
        data_words: Vec::new(),
        in_data: false,
        rv_index: 0,
    };

    // ---- Pass 1: parse lines into protos, bind labels. ----
    for (ln, raw) in source.lines().enumerate() {
        let line = ln + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let mut rest = text;
        while let Some(colon) = rest.find(':') {
            let (name, tail) = rest.split_at(colon);
            let name = name.trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                || name.starts_with('.')
            {
                break;
            }
            a.bind_label(name, line)?;
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let (mnemonic, operands) = match rest.split_once(char::is_whitespace) {
            Some((m, rest)) => (m, rest.trim()),
            None => (rest, ""),
        };
        let ops: Vec<&str> = if operands.is_empty() {
            Vec::new()
        } else {
            operands.split(',').map(str::trim).collect()
        };
        let want = |n: usize| -> Result<(), RvAsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                err(
                    line,
                    format!("`{mnemonic}` wants {n} operand(s), got {}", ops.len()),
                )
            }
        };

        if let Some(directive) = mnemonic.strip_prefix('.') {
            match directive {
                "text" => a.in_data = false,
                "data" => a.in_data = true,
                "entry" => {
                    want(1)?;
                    a.entry_label = Some((ops[0].to_string(), line));
                }
                "mem" => {
                    want(1)?;
                    let v = parse_int(ops[0], line)?;
                    if v <= 0 || v % 8 != 0 || v > i64::from(crate::image::MAX_MEM_BYTES) {
                        return err(line, format!("bad .mem size {v}"));
                    }
                    a.mem_bytes = v as u32;
                }
                "base" => {
                    want(1)?;
                    let v = parse_int(ops[0], line)?;
                    if v < 0 || v % 8 != 0 {
                        return err(line, format!("bad .base address {v}"));
                    }
                    a.data_base = v as u32;
                }
                "word" => {
                    if !a.in_data {
                        return err(line, ".word outside .data");
                    }
                    while !a.data.len().is_multiple_of(4) {
                        a.data.push(0);
                    }
                    for op in &ops {
                        let at = a.data.len();
                        if op
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                        {
                            a.data_words
                                .push((at, DataWord::Label((*op).to_string(), line)));
                        } else {
                            a.data_words.push((at, DataWord::Int(parse_int(op, line)?)));
                        }
                        a.data.extend_from_slice(&[0; 4]);
                    }
                }
                "byte" => {
                    if !a.in_data {
                        return err(line, ".byte outside .data");
                    }
                    for op in &ops {
                        let v = parse_int(op, line)?;
                        if !(-128..=255).contains(&v) {
                            return err(line, format!("byte value {v} out of range"));
                        }
                        a.data.push(v as u8);
                    }
                }
                "zero" => {
                    if !a.in_data {
                        return err(line, ".zero outside .data");
                    }
                    let n = parse_int(ops.first().copied().unwrap_or("0"), line)?;
                    if !(0..=1 << 24).contains(&n) {
                        return err(line, format!("bad .zero size {n}"));
                    }
                    a.data.extend(std::iter::repeat_n(0u8, n as usize));
                }
                _ => return err(line, format!("unknown directive `.{directive}`")),
            }
            continue;
        }

        if a.in_data {
            return err(line, "instruction inside .data section");
        }

        let reg = |i: usize| parse_reg(ops[i], line);
        match mnemonic {
            // R-type.
            "add" | "sub" | "sll" | "slt" | "sltu" | "xor" | "srl" | "sra" | "or" | "and" => {
                want(3)?;
                let (f7, f3) = match mnemonic {
                    "add" => (0, 0),
                    "sub" => (0x20, 0),
                    "sll" => (0, 1),
                    "slt" => (0, 2),
                    "sltu" => (0, 3),
                    "xor" => (0, 4),
                    "srl" => (0, 5),
                    "sra" => (0x20, 5),
                    "or" => (0, 6),
                    _ => (0, 7),
                };
                let p = Proto::R {
                    f7,
                    f3,
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    rs2: reg(2)?,
                };
                a.push(p, line);
            }
            // I-type arithmetic.
            "addi" | "slti" | "sltiu" | "xori" | "ori" | "andi" => {
                want(3)?;
                let f3 = match mnemonic {
                    "addi" => 0,
                    "slti" => 2,
                    "sltiu" => 3,
                    "xori" => 4,
                    "ori" => 6,
                    _ => 7,
                };
                let imm = check_imm12(parse_int(ops[2], line)?, line, "immediate")?;
                let p = Proto::IArith {
                    f7: 0,
                    f3,
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    imm,
                };
                a.push(p, line);
            }
            "slli" | "srli" | "srai" => {
                want(3)?;
                let shamt = parse_int(ops[2], line)?;
                if !(0..=31).contains(&shamt) {
                    return err(line, format!("shift amount {shamt} outside 0..=31"));
                }
                let (f7, f3) = match mnemonic {
                    "slli" => (0, 1),
                    "srli" => (0, 5),
                    _ => (0x20, 5),
                };
                let p = Proto::IArith {
                    f7,
                    f3,
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    imm: shamt as i32,
                };
                a.push(p, line);
            }
            // Loads / stores.
            "lb" | "lh" | "lw" | "lbu" | "lhu" => {
                want(2)?;
                let f3 = match mnemonic {
                    "lb" => 0,
                    "lh" => 1,
                    "lw" => 2,
                    "lbu" => 4,
                    _ => 5,
                };
                let (imm, rs1) = parse_mem_operand(ops[1], line)?;
                let p = Proto::Load {
                    f3,
                    rd: reg(0)?,
                    rs1,
                    imm,
                };
                a.push(p, line);
            }
            "sb" | "sh" | "sw" => {
                want(2)?;
                let f3 = match mnemonic {
                    "sb" => 0,
                    "sh" => 1,
                    _ => 2,
                };
                let (imm, rs1) = parse_mem_operand(ops[1], line)?;
                let p = Proto::Store {
                    f3,
                    rs2: reg(0)?,
                    rs1,
                    imm,
                };
                a.push(p, line);
            }
            // Branches.
            "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
                want(3)?;
                let f3 = match mnemonic {
                    "beq" => 0,
                    "bne" => 1,
                    "blt" => 4,
                    "bge" => 5,
                    "bltu" => 6,
                    _ => 7,
                };
                let p = Proto::Branch {
                    f3,
                    rs1: reg(0)?,
                    rs2: reg(1)?,
                    label: ops[2].to_string(),
                };
                a.push(p, line);
            }
            "beqz" | "bnez" => {
                want(2)?;
                let f3 = if mnemonic == "beqz" { 0 } else { 1 };
                let p = Proto::Branch {
                    f3,
                    rs1: reg(0)?,
                    rs2: 0,
                    label: ops[1].to_string(),
                };
                a.push(p, line);
            }
            // Jumps and calls.
            "jal" => {
                want(2)?;
                let p = Proto::Jal {
                    rd: reg(0)?,
                    label: ops[1].to_string(),
                };
                a.push(p, line);
            }
            "jalr" => {
                want(3)?;
                let imm = check_imm12(parse_int(ops[2], line)?, line, "offset")?;
                let p = Proto::Jalr {
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    imm,
                };
                a.push(p, line);
            }
            "j" => {
                want(1)?;
                let p = Proto::Jal {
                    rd: 0,
                    label: ops[0].to_string(),
                };
                a.push(p, line);
            }
            "call" => {
                want(1)?;
                let p = Proto::Jal {
                    rd: 1,
                    label: ops[0].to_string(),
                };
                a.push(p, line);
            }
            "jr" => {
                want(1)?;
                let p = Proto::Jalr {
                    rd: 0,
                    rs1: reg(0)?,
                    imm: 0,
                };
                a.push(p, line);
            }
            "ret" => {
                want(0)?;
                a.push(
                    Proto::Jalr {
                        rd: 0,
                        rs1: 1,
                        imm: 0,
                    },
                    line,
                );
            }
            // Upper immediates.
            "lui" | "auipc" => {
                want(2)?;
                let v = parse_int(ops[1], line)?;
                if !(0..=0xf_ffff).contains(&v) {
                    return err(line, format!("20-bit immediate {v} out of range"));
                }
                let rd = reg(0)?;
                let p = if mnemonic == "lui" {
                    Proto::Lui {
                        rd,
                        imm20: v as u32,
                    }
                } else {
                    Proto::Auipc {
                        rd,
                        imm20: v as u32,
                    }
                };
                a.push(p, line);
            }
            // Pseudos.
            "li" => {
                want(2)?;
                let rd = reg(0)?;
                let v = parse_int(ops[1], line)?;
                a.push_li(rd, v, line)?;
            }
            "la" => {
                want(2)?;
                let rd = reg(0)?;
                let label = ops[1].to_string();
                a.push(
                    Proto::LaHi {
                        rd,
                        label: label.clone(),
                    },
                    line,
                );
                a.push(Proto::LaLo { rd, label }, line);
            }
            "mv" => {
                want(2)?;
                let p = Proto::IArith {
                    f7: 0,
                    f3: 0,
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    imm: 0,
                };
                a.push(p, line);
            }
            "neg" => {
                want(2)?;
                let p = Proto::R {
                    f7: 0x20,
                    f3: 0,
                    rd: reg(0)?,
                    rs1: 0,
                    rs2: reg(1)?,
                };
                a.push(p, line);
            }
            "nop" => {
                want(0)?;
                a.push(
                    Proto::IArith {
                        f7: 0,
                        f3: 0,
                        rd: 0,
                        rs1: 0,
                        imm: 0,
                    },
                    line,
                );
            }
            "fence" => {
                a.push(Proto::Fence, line);
            }
            "ecall" => {
                want(0)?;
                a.push(Proto::Ecall, line);
            }
            "ebreak" => {
                want(0)?;
                a.push(Proto::Ebreak, line);
            }
            _ => return err(line, format!("unknown mnemonic `{mnemonic}`")),
        }
    }

    if a.protos.is_empty() {
        return err(0, "no instructions");
    }

    // ---- Index layout: translated index of each RV instruction. ----
    let mut tc_index = Vec::with_capacity(a.protos.len() + 1);
    let mut at = 0u32;
    for (p, _) in &a.protos {
        tc_index.push(at);
        at += p.expansion();
    }
    tc_index.push(at);

    // Label resolution helpers.
    let lookup = |name: &str, line: usize| -> Result<LabelKind, RvAsmError> {
        match a.labels.get(name) {
            Some((kind, _)) => Ok(*kind),
            None => err(line, format!("unbound label `{name}`")),
        }
    };
    // The contract value of a label when materialized into a register
    // or a data word: translated index for text, byte address for data.
    let mut indirect: Vec<u32> = Vec::new();
    let mut value_of = |kind: LabelKind| -> u32 {
        match kind {
            LabelKind::Text(rv) => {
                let byte = rv * 4;
                if !indirect.contains(&byte) {
                    indirect.push(byte);
                }
                tc_index[rv as usize]
            }
            LabelKind::Data(off) => a.data_base + off,
        }
    };

    // ---- Pass 2: encode. ----
    let mut text = Vec::with_capacity(a.protos.len());
    for (i, (p, line)) in a.protos.iter().enumerate() {
        let line = *line;
        let pc = (i as u32) * 4;
        let word = match p {
            Proto::R {
                f7,
                f3,
                rd,
                rs1,
                rs2,
            } => {
                (f7 << 25)
                    | (u32::from(*rs2) << 20)
                    | (u32::from(*rs1) << 15)
                    | (f3 << 12)
                    | (u32::from(*rd) << 7)
                    | 0b011_0011
            }
            Proto::IArith {
                f7,
                f3,
                rd,
                rs1,
                imm,
            } => {
                ((((*imm as u32) & 0xfff) | (f7 << 5)) << 20)
                    | (u32::from(*rs1) << 15)
                    | (f3 << 12)
                    | (u32::from(*rd) << 7)
                    | 0b001_0011
            }
            Proto::Load { f3, rd, rs1, imm } => {
                (((*imm as u32) & 0xfff) << 20)
                    | (u32::from(*rs1) << 15)
                    | (f3 << 12)
                    | (u32::from(*rd) << 7)
                    | 0b000_0011
            }
            Proto::Jalr { rd, rs1, imm } => {
                (((*imm as u32) & 0xfff) << 20)
                    | (u32::from(*rs1) << 15)
                    | (u32::from(*rd) << 7)
                    | 0b110_0111
            }
            Proto::Store { f3, rs2, rs1, imm } => {
                let imm = *imm as u32;
                (((imm >> 5) & 0x7f) << 25)
                    | (u32::from(*rs2) << 20)
                    | (u32::from(*rs1) << 15)
                    | (f3 << 12)
                    | ((imm & 0x1f) << 7)
                    | 0b010_0011
            }
            Proto::Branch {
                f3,
                rs1,
                rs2,
                label,
            } => {
                let LabelKind::Text(rv) = lookup(label, line)? else {
                    return err(line, format!("branch target `{label}` is a data label"));
                };
                let offset = i64::from(rv) * 4 - i64::from(pc);
                if !(-4096..=4094).contains(&offset) {
                    return err(line, format!("branch to `{label}` out of range ({offset})"));
                }
                let imm = offset as u32;
                (((imm >> 12) & 1) << 31)
                    | (((imm >> 5) & 0x3f) << 25)
                    | (u32::from(*rs2) << 20)
                    | (u32::from(*rs1) << 15)
                    | (f3 << 12)
                    | (((imm >> 1) & 0xf) << 8)
                    | (((imm >> 11) & 1) << 7)
                    | 0b110_0011
            }
            Proto::Lui { rd, imm20 } => (imm20 << 12) | (u32::from(*rd) << 7) | 0b011_0111,
            Proto::Auipc { rd, imm20 } => (imm20 << 12) | (u32::from(*rd) << 7) | 0b001_0111,
            Proto::Jal { rd, label } => {
                let LabelKind::Text(rv) = lookup(label, line)? else {
                    return err(line, format!("jump target `{label}` is a data label"));
                };
                let offset = i64::from(rv) * 4 - i64::from(pc);
                if !(-(1 << 20)..(1 << 20)).contains(&offset) {
                    return err(line, format!("jump to `{label}` out of range ({offset})"));
                }
                let imm = offset as u32;
                (((imm >> 20) & 1) << 31)
                    | (((imm >> 1) & 0x3ff) << 21)
                    | (((imm >> 11) & 1) << 20)
                    | (((imm >> 12) & 0xff) << 12)
                    | (u32::from(*rd) << 7)
                    | 0b110_1111
            }
            Proto::LaHi { rd, label } => {
                let (hi, _) = hi_lo(value_of(lookup(label, line)?));
                (hi << 12) | (u32::from(*rd) << 7) | 0b011_0111
            }
            Proto::LaLo { rd, label } => {
                let (_, lo) = hi_lo(value_of(lookup(label, line)?));
                (((lo as u32) & 0xfff) << 20)
                    | (u32::from(*rd) << 15)
                    | (u32::from(*rd) << 7)
                    | 0b001_0011
            }
            Proto::Fence => 0x0ff0_000f,
            Proto::Ecall => 0x0000_0073,
            Proto::Ebreak => 0x0010_0073,
        };
        // Cross-check: the emitted encoding must expand exactly as the
        // layout pass assumed, or every later label is off.
        let decoded = decode(word).map_err(|e| RvAsmError {
            line,
            message: format!("internal: emitted undecodable word: {e}"),
        })?;
        if expansion_len(&decoded) != p.expansion() {
            return err(line, "internal: expansion disagreement".to_string());
        }
        text.push(word);
    }

    // Data words with label values.
    for (at, word) in &a.data_words {
        let v: u32 = match word {
            DataWord::Int(v) => {
                if !(-(1i64 << 31)..(1i64 << 32)).contains(v) {
                    return err(0, format!(".word value {v} outside the 32-bit range"));
                }
                *v as u32
            }
            DataWord::Label(name, line) => value_of(lookup(name, *line)?),
        };
        a.data[*at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    // Entry point.
    let entry = match &a.entry_label {
        Some((name, line)) => match lookup(name, *line)? {
            LabelKind::Text(rv) => rv * 4,
            LabelKind::Data(_) => return err(*line, format!("entry `{name}` is a data label")),
        },
        None => 0,
    };

    let data_end = u64::from(a.data_base) + a.data.len() as u64;
    if data_end > u64::from(a.mem_bytes) {
        return err(
            0,
            format!(
                "data segment ({data_end} bytes end) exceeds .mem {}",
                a.mem_bytes
            ),
        );
    }

    indirect.sort_unstable();
    indirect.dedup();
    Ok(RvImage {
        entry,
        text,
        data_base: a.data_base,
        data: a.data,
        mem_bytes: a.mem_bytes,
        indirect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate;
    use tc_isa::{Machine, Reg, StepOutcome};

    fn run_source(src: &str, max: u64) -> Machine {
        let image = assemble_rv(src).expect("assembles");
        let t = translate(&image).expect("translates");
        let mut m = Machine::new(t.program.entry(), t.mem_words);
        for (base, words) in &t.image {
            m.load_image(*base, words);
        }
        for _ in 0..max {
            match m.step(&t.program).expect("no fault") {
                StepOutcome::Executed(_) => {}
                StepOutcome::Halted => break,
            }
        }
        m
    }

    #[test]
    fn assembles_a_loop_and_runs_it() {
        let m = run_source(
            "\
.entry main
main:
    li   t0, 0
    li   t1, 10
loop:
    add  t0, t0, t1
    addi t1, t1, -1
    bnez t1, loop
    ebreak
",
            1000,
        );
        assert!(m.is_halted());
        assert_eq!(m.reg(Reg::new(5)), 55);
    }

    #[test]
    fn la_of_data_labels_addresses_bytes() {
        let m = run_source(
            "\
.data
buf:
    .word 0x11223344
    .byte 7
.text
main:
    la   t0, buf
    lw   t1, 0(t0)
    lbu  t2, 4(t0)
    ebreak
",
            100,
        );
        assert!(m.is_halted());
        assert_eq!(m.reg(Reg::new(6)), 0x1122_3344);
        assert_eq!(m.reg(Reg::new(7)), 7);
    }

    #[test]
    fn text_labels_in_data_words_are_translated_indices() {
        // A jump table: the stored word must be the translated index of
        // `handler`, and the image must record it address-taken.
        let src = "\
.data
table:
    .word handler
.text
main:
    la   t0, table
    lw   t1, 0(t0)
    jr   t1
dead:
    ebreak
handler:
    li   a0, 42
    ebreak
";
        let image = assemble_rv(src).expect("assembles");
        // handler is at rv index 5 (la=2, lw, jr, ebreak); la expands
        // 1:1 here so translated == rv index.
        assert_eq!(image.indirect, vec![20]);
        let m = run_source(src, 100);
        assert!(m.is_halted());
        assert_eq!(m.reg(Reg::new(10)), 42);
    }

    #[test]
    fn li_handles_full_32_bit_constants() {
        let m = run_source(
            "\
main:
    li t0, 0x12345678
    li t1, -1
    li t2, 0x80000000
    ebreak
",
            10,
        );
        assert_eq!(m.reg(Reg::new(5)), 0x1234_5678);
        assert_eq!(m.reg(Reg::new(6)), u64::MAX);
        assert_eq!(m.reg(Reg::new(7)), 0xffff_ffff_8000_0000);
    }

    #[test]
    fn diagnostics_carry_line_numbers() {
        let e = assemble_rv("nop\nfrobnicate t0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("frobnicate"));
        let e = assemble_rv("addi t0, t1, 5000\n").unwrap_err();
        assert!(e.message.contains("12-bit"), "{e}");
        let e = assemble_rv("j nowhere\n").unwrap_err();
        assert!(e.message.contains("nowhere"), "{e}");
        assert!(assemble_rv("").is_err());
    }

    #[test]
    fn calls_and_returns_round_trip() {
        let m = run_source(
            "\
.entry main
main:
    li   sp, 65528
    li   a0, 5
    call double
    ebreak
double:
    add  a0, a0, a0
    ret
",
            100,
        );
        assert!(m.is_halted());
        assert_eq!(m.reg(Reg::new(10)), 10);
    }
}
