//! Architectural-state checkpoints: `tw checkpoint` writes one, and
//! `tw sim --from` resumes it.
//!
//! A checkpoint captures a [`Machine`]'s complete architectural state —
//! registers, memory, program counter, retired-instruction count, halt
//! flag — as a `tw-ckpt/v1` JSON document, so a long functional
//! fast-forward can be paid once and every later run resumed from the
//! saved position via [`Processor::run_from`].
//!
//! The format rides the workspace's hand-rolled JSON layer
//! ([`json`](super::json) to write, [`parse`](super::parse) to read).
//! The reader stores numbers as `f64`, which holds integers exactly
//! only up to 2^53 — register and memory words are full 64-bit values,
//! so they are written as `"0x…"` hex *strings* and round-trip
//! bit-identically. Addresses and counts that are structurally below
//! 2^32 stay plain numbers.
//!
//! Memory is stored sparsely: runs of consecutive non-zero words as
//! `[base, [words…]]` pairs. Workload images touch a small fraction of
//! the 64K-word address space, so checkpoints stay compact.
//!
//! [`Processor::run_from`]: crate::Processor::run_from

use tc_isa::{Addr, Machine, Reg};
use tc_workloads::Workload;

use super::error::TwError;
use super::json::Json;
use super::parse::{parse_json, Value};

/// Format marker of the checkpoint schema this module reads and
/// writes.
pub const CHECKPOINT_FORMAT: &str = "tw-ckpt/v1";

/// A parsed checkpoint: everything needed to rebuild the machine,
/// plus the workload identity it must be resumed against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Workload (benchmark) name the state belongs to.
    pub workload: String,
    /// Program counter (instruction index).
    pub pc: u32,
    /// Instructions retired so far (the stream position).
    pub retired: u64,
    /// Whether the machine has executed `halt`.
    pub halted: bool,
    /// Total data-memory size in words.
    pub mem_words: usize,
    /// Register file.
    pub regs: [u64; Reg::COUNT],
    /// Sparse memory image: `(base, words)` runs of non-zero words.
    pub mem: Vec<(usize, Vec<u64>)>,
}

impl Checkpoint {
    /// Captures `machine` (running `workload`) as a checkpoint.
    #[must_use]
    pub fn capture(workload: &Workload, machine: &Machine) -> Checkpoint {
        let mem = machine.memory();
        let mut runs: Vec<(usize, Vec<u64>)> = Vec::new();
        let mut i = 0;
        while i < mem.len() {
            if mem[i] == 0 {
                i += 1;
                continue;
            }
            let base = i;
            let mut words = Vec::new();
            while i < mem.len() && mem[i] != 0 {
                words.push(mem[i]);
                i += 1;
            }
            runs.push((base, words));
        }
        Checkpoint {
            workload: workload.name().to_owned(),
            pc: machine.pc().raw(),
            retired: machine.retired(),
            halted: machine.is_halted(),
            mem_words: mem.len(),
            regs: *machine.regs(),
            mem: runs,
        }
    }

    /// The structured (`tw-ckpt/v1`) form of this checkpoint.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("format", Json::Str(CHECKPOINT_FORMAT.to_owned())),
            ("workload", Json::Str(self.workload.clone())),
            ("pc", Json::UInt(u64::from(self.pc))),
            ("retired", Json::Str(hex(self.retired))),
            ("halted", Json::Bool(self.halted)),
            ("mem_words", Json::UInt(self.mem_words as u64)),
            (
                "regs",
                Json::Array(self.regs.iter().map(|&v| Json::Str(hex(v))).collect()),
            ),
            (
                "mem",
                Json::Array(
                    self.mem
                        .iter()
                        .map(|(base, words)| {
                            Json::Array(vec![
                                Json::UInt(*base as u64),
                                Json::Array(words.iter().map(|&w| Json::Str(hex(w))).collect()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds the architectural machine state, validating the
    /// checkpoint against the workload it is resumed on.
    pub fn restore(&self, workload: &Workload) -> Result<Machine, TwError> {
        if self.workload != workload.name() {
            return Err(TwError::runtime(format!(
                "checkpoint belongs to workload '{}', not '{}'",
                self.workload,
                workload.name()
            )));
        }
        if self.mem_words != workload.mem_words() {
            return Err(TwError::runtime(format!(
                "checkpoint memory is {} words but workload '{}' uses {}",
                self.mem_words,
                workload.name(),
                workload.mem_words()
            )));
        }
        if (self.pc as usize) > workload.program().len() {
            return Err(TwError::runtime(format!(
                "checkpoint pc {} is outside the {}-instruction program",
                self.pc,
                workload.program().len()
            )));
        }
        let mut mem = vec![0u64; self.mem_words];
        for (base, words) in &self.mem {
            let end = base.checked_add(words.len()).ok_or_else(|| {
                TwError::runtime("checkpoint memory run overflows the address space".to_owned())
            })?;
            if end > mem.len() {
                return Err(TwError::runtime(format!(
                    "checkpoint memory run [{base}, {end}) exceeds {} words",
                    mem.len()
                )));
            }
            mem[*base..end].copy_from_slice(words);
        }
        Ok(Machine::from_parts(
            self.regs,
            mem,
            Addr::new(self.pc),
            self.retired,
            self.halted,
        ))
    }
}

fn hex(v: u64) -> String {
    format!("{v:#x}")
}

/// Parses a `tw-ckpt/v1` document. Never panics: every malformation —
/// truncated text, wrong types, out-of-range numbers, bad hex — comes
/// back as a runtime [`TwError`].
pub fn parse_checkpoint(text: &str) -> Result<Checkpoint, TwError> {
    let v = parse_json(text).map_err(|e| TwError::runtime(format!("bad checkpoint JSON: {e}")))?;
    let format = field_str(&v, "format")?;
    if format != CHECKPOINT_FORMAT {
        return Err(TwError::runtime(format!(
            "unsupported checkpoint format '{format}' (expected '{CHECKPOINT_FORMAT}')"
        )));
    }
    let workload = field_str(&v, "workload")?.to_owned();
    let pc = field_index(&v, "pc")?;
    let pc = u32::try_from(pc)
        .map_err(|_| TwError::runtime(format!("checkpoint pc {pc} exceeds the address space")))?;
    let retired = parse_hex(field_str(&v, "retired")?, "retired")?;
    let halted = match v.get("halted") {
        Some(Value::Bool(b)) => *b,
        _ => return Err(missing("halted", "a boolean")),
    };
    let mem_words = usize::try_from(field_index(&v, "mem_words")?)
        .map_err(|_| TwError::runtime("checkpoint mem_words does not fit".to_owned()))?;

    let regs_v = v
        .get("regs")
        .and_then(Value::as_array)
        .ok_or_else(|| missing("regs", "an array"))?;
    if regs_v.len() != Reg::COUNT {
        return Err(TwError::runtime(format!(
            "checkpoint has {} registers, expected {}",
            regs_v.len(),
            Reg::COUNT
        )));
    }
    let mut regs = [0u64; Reg::COUNT];
    for (i, rv) in regs_v.iter().enumerate() {
        let s = rv
            .as_str()
            .ok_or_else(|| TwError::runtime(format!("register {i} is not a hex string")))?;
        regs[i] = parse_hex(s, "register")?;
    }

    let mem_v = v
        .get("mem")
        .and_then(Value::as_array)
        .ok_or_else(|| missing("mem", "an array"))?;
    let mut mem = Vec::with_capacity(mem_v.len());
    for run in mem_v {
        let pair = run
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| TwError::runtime("memory run is not a [base, words] pair".to_owned()))?;
        let base = usize::try_from(value_index(&pair[0], "memory base")?)
            .map_err(|_| TwError::runtime("memory base does not fit".to_owned()))?;
        let words_v = pair[1]
            .as_array()
            .ok_or_else(|| TwError::runtime("memory words is not an array".to_owned()))?;
        let mut words = Vec::with_capacity(words_v.len());
        for wv in words_v {
            let s = wv
                .as_str()
                .ok_or_else(|| TwError::runtime("memory word is not a hex string".to_owned()))?;
            words.push(parse_hex(s, "memory word")?);
        }
        mem.push((base, words));
    }

    Ok(Checkpoint {
        workload,
        pc,
        retired,
        halted,
        mem_words,
        regs,
        mem,
    })
}

fn missing(key: &str, want: &str) -> TwError {
    TwError::runtime(format!("checkpoint field '{key}' is missing or not {want}"))
}

fn field_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, TwError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| missing(key, "a string"))
}

/// Reads a field that must be a non-negative integer small enough to
/// be exact in `f64` (addresses and sizes, not data words).
fn field_index(v: &Value, key: &str) -> Result<u64, TwError> {
    let f = v
        .get(key)
        .filter(|f| f.as_f64().is_some())
        .ok_or_else(|| missing(key, "a number"))?;
    f.as_u64().ok_or_else(|| {
        TwError::runtime(format!(
            "checkpoint field '{key}' is not a whole non-negative integer"
        ))
    })
}

fn value_index(v: &Value, what: &str) -> Result<u64, TwError> {
    v.as_u64().ok_or_else(|| {
        let want = if v.as_f64().is_some() {
            "a whole non-negative integer"
        } else {
            "a number"
        };
        TwError::runtime(format!("{what} is not {want}"))
    })
}

fn parse_hex(s: &str, what: &str) -> Result<u64, TwError> {
    let digits = s
        .strip_prefix("0x")
        .or_else(|| s.strip_prefix("0X"))
        .unwrap_or(s);
    u64::from_str_radix(digits, 16)
        .map_err(|_| TwError::runtime(format!("checkpoint {what} '{s}' is not a hex value")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_workloads::Benchmark;

    #[test]
    fn round_trip_is_bit_identical() {
        let workload = Benchmark::Compress.build_scaled(2);
        let mut machine = workload.machine();
        let program = workload.program();
        let blocks = tc_isa::BlockCache::new(program);
        machine.fast_forward(program, &blocks, 10_000).unwrap();

        let ckpt = Checkpoint::capture(&workload, &machine);
        let text = ckpt.to_json().pretty();
        let parsed = parse_checkpoint(&text).unwrap();
        assert_eq!(parsed, ckpt);

        let restored = parsed.restore(&workload).unwrap();
        assert_eq!(restored.pc(), machine.pc());
        assert_eq!(restored.retired(), machine.retired());
        assert_eq!(restored.is_halted(), machine.is_halted());
        assert_eq!(restored.regs(), machine.regs());
        assert_eq!(restored.memory(), machine.memory());
    }

    #[test]
    fn large_words_survive_the_f64_parser() {
        let workload = Benchmark::Compress.build_scaled(2);
        let mut machine = workload.machine();
        let program = workload.program();
        let blocks = tc_isa::BlockCache::new(program);
        machine.fast_forward(program, &blocks, 5_000).unwrap();

        let mut ckpt = Checkpoint::capture(&workload, &machine);
        // Force a register value no f64 can hold exactly.
        ckpt.regs[7] = u64::MAX - 1;
        let parsed = parse_checkpoint(&ckpt.to_json().render()).unwrap();
        assert_eq!(parsed.regs[7], u64::MAX - 1);
    }

    #[test]
    fn wrong_workload_is_rejected() {
        let compress = Benchmark::Compress.build_scaled(2);
        let go = Benchmark::Go.build_scaled(2);
        let ckpt = Checkpoint::capture(&compress, &compress.machine());
        assert!(ckpt.restore(&go).is_err());
    }

    #[test]
    fn malformed_documents_error_without_panicking() {
        for text in [
            "",
            "{",
            "null",
            "[]",
            r#"{"format":"tw-ckpt/v9"}"#,
            r#"{"format":"tw-ckpt/v1"}"#,
            r#"{"format":"tw-ckpt/v1","workload":"x","pc":-1}"#,
            r#"{"format":"tw-ckpt/v1","workload":"x","pc":1.5}"#,
            r#"{"format":"tw-ckpt/v1","workload":"x","pc":0,"retired":"zz"}"#,
        ] {
            assert!(parse_checkpoint(text).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn pc_boundary_values_convert_checked_not_truncated() {
        // `pc` crosses the document's only u64→u32 conversion: u32::MAX
        // must parse exactly and u32::MAX + 1 must error — a lossy cast
        // would silently fold it to 0.
        let doc = |pc: u64| {
            format!(
                r#"{{"format":"tw-ckpt/v1","workload":"x","pc":{pc},"retired":"0x0",
                    "halted":false,"mem_words":0,"regs":[{regs}],"mem":[]}}"#,
                regs = vec!["\"0x0\""; Reg::COUNT].join(",")
            )
        };
        let max = parse_checkpoint(&doc(u64::from(u32::MAX))).unwrap();
        assert_eq!(max.pc, u32::MAX);
        let over = parse_checkpoint(&doc(u64::from(u32::MAX) + 1)).unwrap_err();
        assert!(over.message().contains("address space"), "{over}");
        assert!(parse_checkpoint(&doc(u64::from(u32::MAX) - 1)).is_ok());
    }

    #[test]
    fn oversized_memory_run_is_rejected_at_restore() {
        let workload = Benchmark::Compress.build_scaled(2);
        let mut ckpt = Checkpoint::capture(&workload, &workload.machine());
        ckpt.mem.push((ckpt.mem_words - 1, vec![1, 2, 3]));
        assert!(ckpt.restore(&workload).is_err());
    }
}
