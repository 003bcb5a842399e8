//! Crash-consistent artifact I/O: atomic writes and a CRC32 integrity
//! envelope.
//!
//! Every durable artifact the `tw` binary produces (`tw-ckpt/v1`,
//! `tw-plan/v1`, `tw-bench/v1`, Chrome traces) flows through
//! [`write_atomic`]: the bytes land in a temp file *in the target
//! directory*, are fsynced, and are then renamed over the final path.
//! A crash at any point leaves either the complete old artifact or the
//! complete new one at the final path — never a truncated hybrid. Torn
//! temp files are invisible to readers (they live under a dotted
//! `.name.tmp.pid.seq` name) and are overwritten or ignored on the next
//! run.
//!
//! Atomicity protects the rename window; the **CRC32 envelope** protects
//! everything after it (bit rot, partial copies, truncation in transit).
//! [`stamp`] splices a `"crc32"` field — 8 hex digits over the entire
//! document with the field itself zeroed — into the top of a rendered
//! JSON object; [`verify`] recomputes and compares. The field is
//! additive: every artifact parser in the workspace looks fields up by
//! name and ignores extras, so stamped artifacts load everywhere, and
//! unstamped artifacts from older versions verify as
//! [`Integrity::Unstamped`] and load unchanged. The CRC32 (IEEE,
//! reflected 0xEDB88320) is vendored below, consistent with the
//! workspace's no-external-crates discipline.
//!
//! Crashes cannot be scheduled in a test, so [`write_atomic_with`]
//! accepts an injected [`IoFaultKind`] from `tc-fault` that dies at the
//! two interesting points (torn temp write, crash before rename); the
//! contract tests drive it to prove the final path survives.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use tc_fault::chaos::IoFaultKind;

use super::error::TwError;

/// CRC32 lookup table (IEEE polynomial, reflected), built at compile
/// time.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// The CRC32 (IEEE 802.3) of `bytes` — the same checksum `gzip`,
/// `zlib`, and PNG use.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(*b)) & 0xFF) as usize];
    }
    !crc
}

/// The placeholder digits a stamp is computed over; [`verify`] restores
/// them before recomputing.
const CRC_PLACEHOLDER: &str = "00000000";

/// The verification outcome for an artifact's integrity envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrity {
    /// A `"crc32"` stamp was present and matched.
    Verified(u32),
    /// No stamp — an artifact from before the envelope existed (or an
    /// external document). Accepted: the envelope is additive.
    Unstamped,
}

/// Splices a CRC32 stamp into a rendered JSON object.
///
/// The `"crc32"` field is inserted as the *first* member — right after
/// the opening brace — so truncation anywhere later in the document
/// cannot silently drop it. The checksum covers every byte of the
/// final text with the stamp digits zeroed, including any trailing
/// newline. Text that is not a non-empty JSON object (nothing we stamp)
/// is returned unchanged.
#[must_use]
pub fn stamp(text: &str) -> String {
    let (insert_at, before, after) = if text.starts_with("{\n") {
        (2, "  \"crc32\": \"", "\",\n")
    } else if text.starts_with("{\"") {
        (1, "\"crc32\":\"", "\",")
    } else {
        return text.to_string();
    };
    let mut out =
        String::with_capacity(text.len() + before.len() + CRC_PLACEHOLDER.len() + after.len());
    out.push_str(&text[..insert_at]);
    out.push_str(before);
    let pos = out.len();
    out.push_str(CRC_PLACEHOLDER);
    out.push_str(after);
    out.push_str(&text[insert_at..]);
    let digits = format!("{:08x}", crc32(out.as_bytes()));
    out.replace_range(pos..pos + CRC_PLACEHOLDER.len(), &digits);
    out
}

/// Checks the integrity envelope of `text`.
///
/// Returns [`Integrity::Unstamped`] when no `"crc32"` field exists
/// (legacy artifacts load unchanged), [`Integrity::Verified`] when the
/// recomputed checksum matches, and a one-line description on mismatch
/// — the caller wraps it with the file path.
pub fn verify(text: &str) -> Result<Integrity, String> {
    let Some((start, end)) = find_stamp(text) else {
        return Ok(Integrity::Unstamped);
    };
    let digits = &text[start..end];
    let Ok(stored) = u32::from_str_radix(digits, 16) else {
        return Err(format!(
            "crc32 stamp '{digits}' is not 8 hex digits (artifact is corrupt)"
        ));
    };
    let mut zeroed = text.to_string();
    zeroed.replace_range(start..end, CRC_PLACEHOLDER);
    let computed = crc32(zeroed.as_bytes());
    if computed == stored {
        Ok(Integrity::Verified(stored))
    } else {
        Err(format!(
            "crc32 mismatch: stored {stored:08x}, computed {computed:08x} \
             (artifact is corrupt or truncated)"
        ))
    }
}

/// Locates the 8 stamp digits: the value of the first `"crc32"` member.
fn find_stamp(text: &str) -> Option<(usize, usize)> {
    let key = text.find("\"crc32\"")?;
    let rest = &text[key + 7..];
    let after_colon = rest.trim_start().strip_prefix(':')?;
    let value = after_colon.trim_start().strip_prefix('"')?;
    let start = text.len() - value.len();
    let end = start + value.find('"')?;
    (end - start == 8).then_some((start, end))
}

/// Monotonic sequence for temp-file names, so concurrent writers in one
/// process never collide.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces `path` with `text`: temp file in the same
/// directory, write, fsync, rename, directory fsync. A crash mid-write
/// leaves the previous contents of `path` intact.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    write_atomic_with(path, text, None)
}

/// [`write_atomic`] with an injectable crash point for contract tests.
///
/// `TornTemp` writes only a prefix of the bytes and then fails;
/// `CrashBeforeRename` writes and syncs the full temp file but fails
/// before the rename publishes it. Both leave the temp file behind —
/// exactly what a real crash would — and both must leave `path`
/// untouched.
pub fn write_atomic_with(path: &Path, text: &str, injected: Option<IoFaultKind>) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("not a writable file path: {}", path.display()),
        )
    })?;
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        name.to_string_lossy(),
        std::process::id(),
        seq
    ));

    let mut file = File::create(&tmp)?;
    match injected {
        Some(IoFaultKind::TornTemp) => {
            let half = text.len() / 2;
            file.write_all(&text.as_bytes()[..half])?;
            let _ = file.flush();
            return Err(io::Error::other("injected crash: torn temp write"));
        }
        Some(IoFaultKind::CrashBeforeRename) => {
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
            return Err(io::Error::other("injected crash: before rename"));
        }
        None => {}
    }

    let written = file
        .write_all(text.as_bytes())
        .and_then(|()| file.sync_all());
    drop(file);
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Make the rename itself durable. Failure here is not actionable
    // (the data is already at the final path); best effort.
    #[cfg(unix)]
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Reads an artifact and checks its integrity envelope, mapping every
/// failure to a one-line [`TwError`] naming the path. This is the read
/// half every `tw` artifact consumer uses: corruption surfaces as
/// `tw: <path>: crc32 mismatch: …` instead of a downstream parse error.
pub fn read_verified(path: &str) -> Result<String, TwError> {
    let text = fs::read_to_string(path)
        .map_err(|e| TwError::runtime(format!("cannot read {path}: {e}")))?;
    match verify(&text) {
        Ok(_) => Ok(text),
        Err(why) => Err(TwError::runtime(format!("{path}: {why}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer checks against the IEEE CRC32 everyone else computes.
    #[test]
    fn crc32_matches_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn stamp_then_verify_round_trips_pretty_and_compact() {
        for text in [
            "{\n  \"format\": \"tw-ckpt/v1\",\n  \"n\": 3\n}\n",
            "{\"schema\":\"tw-plan/v1\",\"branches\":[]}",
        ] {
            let stamped = stamp(text);
            assert!(stamped.contains("\"crc32\""));
            match verify(&stamped) {
                Ok(Integrity::Verified(_)) => {}
                other => panic!("expected verified, got {other:?}"),
            }
            // Stamping is idempotent-adjacent: the stamped text still
            // parses and keeps every original field.
            let doc = super::super::parse::parse_json(&stamped).expect("stamped text parses");
            assert!(doc.get("crc32").is_some());
        }
    }

    #[test]
    fn verify_detects_every_single_byte_flip() {
        let stamped = stamp("{\n  \"format\": \"tw-ckpt/v1\",\n  \"cycles\": 12345\n}\n");
        // A flip inside the envelope itself (the `"crc32": "…"` member)
        // can at worst make the artifact look unstamped — the additive
        // envelope cannot distinguish "never stamped" from "stamp
        // destroyed". What it guarantees: no flip anywhere verifies as
        // intact, and every flip outside the envelope is a hard error.
        let env_start = stamped.find("\"crc32\"").unwrap();
        let (_, digits_end) = find_stamp(&stamped).unwrap();
        let envelope = env_start..=digits_end;
        for i in 0..stamped.len() {
            let mut bytes = stamped.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(corrupt) = String::from_utf8(bytes) else {
                continue;
            };
            let got = verify(&corrupt);
            assert!(
                !matches!(got, Ok(Integrity::Verified(_))),
                "flip at byte {i} verified as intact"
            );
            if !envelope.contains(&i) {
                assert!(got.is_err(), "flip at byte {i} went undetected: {got:?}");
            }
        }
    }

    #[test]
    fn verify_detects_truncation() {
        let stamped = stamp("{\n  \"format\": \"tw-ckpt/v1\",\n  \"cycles\": 12345\n}\n");
        for keep in [stamped.len() / 2, stamped.len() - 1] {
            assert!(
                verify(&stamped[..keep]).is_err(),
                "truncation to {keep} bytes accepted"
            );
        }
    }

    #[test]
    fn unstamped_text_is_accepted_as_legacy() {
        assert_eq!(
            verify("{\"schema\":\"tw-bench/v1\",\"cells\":[]}"),
            Ok(Integrity::Unstamped)
        );
        assert_eq!(verify("not json at all"), Ok(Integrity::Unstamped));
    }

    #[test]
    fn non_object_text_is_not_stamped() {
        assert_eq!(stamp("[1,2,3]"), "[1,2,3]");
        assert_eq!(stamp(""), "");
    }

    #[test]
    fn write_atomic_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("tw-artifact-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replace.json");
        write_atomic(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crashes_never_touch_the_final_path() {
        let dir = std::env::temp_dir().join(format!("tw-artifact-crash-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let v1 = stamp("{\n  \"format\": \"tw-ckpt/v1\",\n  \"generation\": 1\n}\n");
        write_atomic(&path, &v1).unwrap();

        let v2 = stamp("{\n  \"format\": \"tw-ckpt/v1\",\n  \"generation\": 2\n}\n");
        for kind in [IoFaultKind::TornTemp, IoFaultKind::CrashBeforeRename] {
            let err = write_atomic_with(&path, &v2, Some(kind))
                .expect_err("injected crash must surface as an error");
            assert!(err.to_string().contains("injected crash"));
            let survivor = fs::read_to_string(&path).unwrap();
            assert_eq!(survivor, v1, "{kind:?} damaged the final path");
            assert!(matches!(verify(&survivor), Ok(Integrity::Verified(_))));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_verified_names_the_path_and_the_mismatch() {
        let dir = std::env::temp_dir().join(format!("tw-artifact-read-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ok.json");
        write_atomic(&path, &stamp("{\n  \"format\": \"x\"\n}\n")).unwrap();
        assert!(read_verified(&path.to_string_lossy()).is_ok());

        let bad = dir.join("bad.json");
        let mut text = stamp("{\n  \"format\": \"x\",\n  \"n\": 7\n}\n");
        text = text.replace("\"n\": 7", "\"n\": 9");
        fs::write(&bad, text).unwrap();
        let err = read_verified(&bad.to_string_lossy()).expect_err("corrupt must fail");
        assert_eq!(err.exit_code(), 1);
        assert!(
            err.message().contains("crc32 mismatch"),
            "{}",
            err.message()
        );
        assert!(err.message().contains("bad.json"));

        let err = read_verified("/nonexistent/missing.json").expect_err("missing must fail");
        assert_eq!(err.exit_code(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
