//! Round-granular checkpoint/resume for the federated engine.
//!
//! Every `k` rounds (and at the final round) `FedSim` writes the complete
//! server-side state — next round index, global parameters and buffers,
//! the SCAFFOLD control variates (server `c` plus a *sparse* map of the
//! client `cᵢ` that have ever trained), the codecs' error-feedback
//! residuals, the accumulated [`RoundRecord`]s and the running
//! accuracy/byte folds — as one binary file. Parties absent from the
//! sparse maps hold the implicit all-zero vector, so checkpoint size
//! scales with the participating cohort history, never with `N`. Because
//! all of the engine's randomness is derived *statelessly* from `(run
//! seed, round, party)`, this state is sufficient:
//! [`FedSim::resume`](crate::FedSim::resume) reproduces the uninterrupted
//! run's trajectory bit-for-bit.
//!
//! ## File layout (format v4)
//!
//! ```text
//! magic "NIIDCKPT" (8) | version u32
//! meta section:      u64 len | round_next u64 | seed u64 | algorithm str
//!                    | n_parties u64 | sample_fraction f64 | min_quorum f64
//!                    | fault_plan (u8 0 = none, 1 = str follows) | codec str
//!                    | best_accuracy f64 | final_accuracy f64 | total_bytes u64
//! state section:     u64 len | global_params f32s | global_buffers f32s | server_c f32s
//! client_c section:  u64 len | u32 count | (party u64 | f32s)*   ids strictly increasing
//! residuals section: u64 len | u32 count | (party u64 | f32s)*   ids strictly increasing
//! records section:   u64 len | u32 count | record*
//! ```
//!
//! Every integer and float is little-endian; `f32s` is a `u32` count then
//! the exact bits, `str` a `u32` byte count then UTF-8, and a record is
//! its ten [`RoundRecord`] fields in declaration order (`test_accuracy`
//! as a 0/1 tag plus the `f64` when present). Floats are stored as bits,
//! so NaN payloads, `-0.0` and subnormals survive exactly. Decoding goes
//! through the same bounds-checked reader as the network frames
//! (`wire.rs`): each length is checked against the bytes that remain
//! before anything is allocated, every section must be consumed exactly,
//! and trailing bytes are refused. The encoding is canonical — a file
//! that decodes re-encodes to the same bytes.
//!
//! Writes are atomic-by-rename (`checkpoint.bin.tmp` → fsync →
//! `checkpoint.bin`), so a kill mid-write leaves the previous checkpoint
//! intact rather than a torn file.

use crate::error::FlError;
use crate::metrics::RoundRecord;
use crate::wire::{put_count, put_f32s, put_f64, put_str, put_u32, put_u64, DecodeError, Reader};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// First eight bytes of every checkpoint file.
const CHECKPOINT_MAGIC: [u8; 8] = *b"NIIDCKPT";

/// Checkpoint format version written to / expected from the file.
///
/// Version history:
/// * 1 — JSON; dense `client_c` (one array per party, empty for parties
///   that never trained) and no cohort/fault configuration fields.
/// * 2 — JSON; `client_c` is sparse (only parties holding a non-zero
///   SCAFFOLD variate appear), so the file size tracks the set of parties
///   ever selected instead of `N`; adds `sample_fraction`, `min_quorum`
///   and `fault_plan` so resume can refuse a changed cohort/fault
///   schedule.
/// * 3 — JSON; adds the update `codec` spec string and the sparse
///   per-party error-feedback `residuals` kept by lossy codecs
///   ([`crate::compress`]), so a compressed run resumes bit-for-bit and
///   resume refuses a changed codec.
/// * 4 — the same fields in the binary layout of the module docs: about
///   4 bytes per `f32` instead of ~22 as text. JSON files (v1–v3) fail
///   the magic check.
pub const CHECKPOINT_VERSION: u32 = 4;

/// When and where `FedSim` writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory holding `checkpoint.bin` (created on first write).
    pub dir: PathBuf,
    /// Write every `every` rounds (the final round is always written).
    pub every: usize,
}

impl CheckpointPolicy {
    /// A policy writing `dir/checkpoint.bin` every `every` rounds.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every,
        }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> PathBuf {
        self.dir.join("checkpoint.bin")
    }
}

/// A complete, resumable snapshot of a run after some round.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The first round the resumed run must execute.
    pub round_next: usize,
    /// The run seed (resume refuses a mismatched config).
    pub seed: u64,
    /// Algorithm name (compatibility check).
    pub algorithm: String,
    /// Total party count (compatibility check).
    pub n_parties: usize,
    /// Per-round cohort fraction (compatibility check: a resume under a
    /// different fraction would sample different parties every round).
    pub sample_fraction: f64,
    /// Quorum policy (compatibility check: a different quorum turns the
    /// same fault schedule into a different pass/fail trajectory).
    pub min_quorum: f64,
    /// Fault-plan spec string ([`crate::fault::FaultPlan`]'s `Display`
    /// form, `None` for fault-free runs) — compatibility check.
    pub fault_plan: Option<String>,
    /// Update-codec spec string ([`crate::compress::UpdateCodec`]'s
    /// `Display` form) — compatibility check: resuming under a different
    /// codec would diverge from the uninterrupted run.
    pub codec: String,
    /// Aggregated global parameters after round `round_next - 1`.
    pub global_params: Vec<f32>,
    /// Aggregated global buffers (empty for buffer-free models).
    pub global_buffers: Vec<f32>,
    /// SCAFFOLD server control variate (empty otherwise).
    pub server_c: Vec<f32>,
    /// Sparse SCAFFOLD client variates: `(party id, cᵢ)` sorted by id,
    /// holding only parties that have trained under SCAFFOLD. Every party
    /// absent here has the implicit all-zero variate, so the checkpoint
    /// carries no per-party residency for the never-selected majority of
    /// a cross-device population.
    pub client_c: Vec<(usize, Vec<f32>)>,
    /// Sparse error-feedback residuals kept by lossy codecs: `(party id,
    /// residual)` sorted by id, holding only parties that have encoded a
    /// lossy update. Empty for `dense` runs.
    pub residuals: Vec<(usize, Vec<f32>)>,
    /// Round records accumulated so far.
    pub records: Vec<RoundRecord>,
    /// Best evaluated accuracy so far.
    pub best_accuracy: f64,
    /// Most recent evaluated accuracy.
    pub final_accuracy: f64,
    /// Cumulative traffic so far.
    pub total_bytes: usize,
}

/// Smallest encoded sparse-map entry: party id plus an empty vector.
const MIN_PAIR_BYTES: usize = 8 + 4;
/// Smallest encoded record (`test_accuracy` absent).
const MIN_RECORD_BYTES: usize = 8 * 9 + 1;
/// Largest encoded record (`test_accuracy` present).
const MAX_RECORD_BYTES: usize = MIN_RECORD_BYTES + 8;

/// Append a `u64`-length-prefixed section written by `body`.
fn put_section(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    put_u64(buf, 0);
    body(buf);
    let len = (buf.len() - at - 8) as u64;
    buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

/// Split the next section off `r`; the caller must consume it exactly.
fn section<'a>(r: &mut Reader<'a>, what: &str) -> Result<Reader<'a>, DecodeError> {
    let len = r.u64(what)?;
    let len = usize::try_from(len)
        .map_err(|_| DecodeError(format!("{what} section length {len} overflows")))?;
    Ok(Reader::new(r.take(len, what)?))
}

fn read_usize(r: &mut Reader<'_>, what: &str) -> Result<usize, DecodeError> {
    let v = r.u64(what)?;
    usize::try_from(v).map_err(|_| DecodeError(format!("{what} {v} overflows usize")))
}

/// A 0/1 presence tag; any other byte is refused so the encoding stays
/// canonical.
fn read_flag(r: &mut Reader<'_>, what: &str) -> Result<bool, DecodeError> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(DecodeError(format!("{what} tag {other} is not 0 or 1"))),
    }
}

fn put_pairs(buf: &mut Vec<u8>, pairs: &[(usize, Vec<f32>)]) {
    put_count(buf, pairs.len());
    for (party, v) in pairs {
        put_u64(buf, *party as u64);
        put_f32s(buf, v);
    }
}

fn read_pairs(r: &mut Reader<'_>, field: &str) -> Result<Vec<(usize, Vec<f32>)>, DecodeError> {
    let n = r.count(MIN_PAIR_BYTES, field)?;
    let mut out: Vec<(usize, Vec<f32>)> = Vec::with_capacity(n);
    for i in 0..n {
        let party = read_usize(r, field)?;
        if let Some(&(prev, _)) = out.last() {
            if party <= prev {
                return Err(DecodeError(format!(
                    "{field} ids must be strictly increasing (entry {i}: {party} after {prev})"
                )));
            }
        }
        out.push((party, r.f32_vec(field)?));
    }
    Ok(out)
}

fn put_record(buf: &mut Vec<u8>, rec: &RoundRecord) {
    put_u64(buf, rec.round as u64);
    match rec.test_accuracy {
        Some(acc) => {
            buf.push(1);
            put_f64(buf, acc);
        }
        None => buf.push(0),
    }
    put_f64(buf, rec.avg_local_loss);
    put_u64(buf, rec.participants as u64);
    put_u64(buf, rec.down_bytes as u64);
    put_u64(buf, rec.up_bytes as u64);
    put_f64(buf, rec.local_wall_ms);
    put_f64(buf, rec.aggregate_wall_ms);
    put_f64(buf, rec.eval_wall_ms);
    put_u64(buf, rec.failures as u64);
}

fn read_record(r: &mut Reader<'_>) -> Result<RoundRecord, DecodeError> {
    Ok(RoundRecord {
        round: read_usize(r, "record round")?,
        test_accuracy: if read_flag(r, "record test_accuracy")? {
            Some(r.f64("record test_accuracy")?)
        } else {
            None
        },
        avg_local_loss: r.f64("record avg_local_loss")?,
        participants: read_usize(r, "record participants")?,
        down_bytes: read_usize(r, "record down_bytes")?,
        up_bytes: read_usize(r, "record up_bytes")?,
        local_wall_ms: r.f64("record local_wall_ms")?,
        aggregate_wall_ms: r.f64("record aggregate_wall_ms")?,
        eval_wall_ms: r.f64("record eval_wall_ms")?,
        failures: read_usize(r, "record failures")?,
    })
}

impl Checkpoint {
    /// The file bytes (format v4, see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        let pairs = self.client_c.iter().chain(&self.residuals);
        let floats = self.global_params.len()
            + self.global_buffers.len()
            + self.server_c.len()
            + pairs.clone().map(|(_, v)| v.len()).sum::<usize>();
        let strings = self.algorithm.len()
            + self.codec.len()
            + self.fault_plan.as_ref().map_or(0, String::len);
        let mut buf = Vec::with_capacity(
            256 + strings
                + 4 * floats
                + MIN_PAIR_BYTES * pairs.count()
                + MAX_RECORD_BYTES * self.records.len(),
        );
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u32(&mut buf, CHECKPOINT_VERSION);
        put_section(&mut buf, |b| {
            put_u64(b, self.round_next as u64);
            put_u64(b, self.seed);
            put_str(b, &self.algorithm);
            put_u64(b, self.n_parties as u64);
            put_f64(b, self.sample_fraction);
            put_f64(b, self.min_quorum);
            match &self.fault_plan {
                Some(spec) => {
                    b.push(1);
                    put_str(b, spec);
                }
                None => b.push(0),
            }
            put_str(b, &self.codec);
            put_f64(b, self.best_accuracy);
            put_f64(b, self.final_accuracy);
            put_u64(b, self.total_bytes as u64);
        });
        put_section(&mut buf, |b| {
            put_f32s(b, &self.global_params);
            put_f32s(b, &self.global_buffers);
            put_f32s(b, &self.server_c);
        });
        put_section(&mut buf, |b| put_pairs(b, &self.client_c));
        put_section(&mut buf, |b| put_pairs(b, &self.residuals));
        put_section(&mut buf, |b| {
            put_count(b, self.records.len());
            for rec in &self.records {
                put_record(b, rec);
            }
        });
        buf
    }

    /// Parse file bytes written by [`encode`](Self::encode). Every
    /// malformed input — wrong magic or version, truncation, a lying
    /// length, trailing bytes — is a typed [`FlError::Checkpoint`].
    pub fn decode(bytes: &[u8]) -> Result<Self, FlError> {
        Self::decode_wire(bytes).map_err(|e| FlError::Checkpoint(e.0))
    }

    fn decode_wire(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.take(CHECKPOINT_MAGIC.len(), "magic")? != CHECKPOINT_MAGIC {
            return Err(DecodeError(format!(
                "bad magic: not a format v{CHECKPOINT_VERSION} binary checkpoint \
                 (JSON checkpoints of v1-v3 cannot be resumed)"
            )));
        }
        let version = r.u32("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(DecodeError(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }

        let mut m = section(&mut r, "meta")?;
        let round_next = read_usize(&mut m, "round_next")?;
        let seed = m.u64("seed")?;
        let algorithm = m.string("algorithm")?;
        let n_parties = read_usize(&mut m, "n_parties")?;
        let sample_fraction = m.f64("sample_fraction")?;
        let min_quorum = m.f64("min_quorum")?;
        let fault_plan = if read_flag(&mut m, "fault_plan")? {
            Some(m.string("fault_plan")?)
        } else {
            None
        };
        let codec = m.string("codec")?;
        let best_accuracy = m.f64("best_accuracy")?;
        let final_accuracy = m.f64("final_accuracy")?;
        let total_bytes = read_usize(&mut m, "total_bytes")?;
        m.finish("meta section")?;

        let mut s = section(&mut r, "state")?;
        let global_params = s.f32_vec("global_params")?;
        let global_buffers = s.f32_vec("global_buffers")?;
        let server_c = s.f32_vec("server_c")?;
        s.finish("state section")?;

        let mut s = section(&mut r, "client_c")?;
        let client_c = read_pairs(&mut s, "client_c")?;
        s.finish("client_c section")?;

        let mut s = section(&mut r, "residuals")?;
        let residuals = read_pairs(&mut s, "residuals")?;
        s.finish("residuals section")?;

        let mut s = section(&mut r, "records")?;
        let n = s.count(MIN_RECORD_BYTES, "records")?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(read_record(&mut s)?);
        }
        s.finish("records section")?;
        r.finish("checkpoint")?;

        Ok(Checkpoint {
            round_next,
            seed,
            algorithm,
            n_parties,
            sample_fraction,
            min_quorum,
            fault_plan,
            codec,
            global_params,
            global_buffers,
            server_c,
            client_c,
            residuals,
            records,
            best_accuracy,
            final_accuracy,
            total_bytes,
        })
    }

    /// Atomically write the checkpoint to `path`: the bytes go to
    /// `path` + `.tmp`, are fsynced, and renamed over `path` in one step.
    pub fn save(&self, path: &Path) -> Result<(), FlError> {
        let io_err = |stage: &str, e: std::io::Error| {
            FlError::Checkpoint(format!("{stage} {}: {e}", path.display()))
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| io_err("create dir for", e))?;
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
            f.write_all(&self.encode())
                .map_err(|e| io_err("write", e))?;
            f.sync_all().map_err(|e| io_err("sync", e))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| io_err("rename", e))
    }

    /// Load a checkpoint written by [`save`](Self::save).
    pub fn load(path: &Path) -> Result<Self, FlError> {
        let bytes = std::fs::read(path)
            .map_err(|e| FlError::Checkpoint(format!("read {}: {e}", path.display())))?;
        Self::decode_wire(&bytes)
            .map_err(|e| FlError::Checkpoint(format!("parse {}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "niid_ckpt_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            round_next: 3,
            seed: 42,
            algorithm: "scaffold".into(),
            n_parties: 4,
            sample_fraction: 0.5,
            min_quorum: 0.5,
            fault_plan: Some("crash=0.3,seed=7".into()),
            codec: "topk:0.25".into(),
            global_params: vec![0.5f32, -1.25, f32::MIN_POSITIVE, 3.0e-7],
            global_buffers: vec![1.0f32, 0.999],
            server_c: vec![0.125f32; 4],
            client_c: vec![(0, vec![0.1f32, 0.2, 0.3, 0.4]), (2, vec![-0.5; 4])],
            residuals: vec![(0, vec![0.01f32, -0.02, 0.0, 0.5]), (3, vec![0.75; 4])],
            records: vec![RoundRecord {
                round: 2,
                test_accuracy: Some(0.625),
                avg_local_loss: 0.420_130_5,
                participants: 4,
                down_bytes: 100,
                up_bytes: 75,
                local_wall_ms: 1.5,
                aggregate_wall_ms: 0.25,
                eval_wall_ms: 0.5,
                failures: 1,
            }],
            best_accuracy: 0.625,
            final_accuracy: 0.625,
            total_bytes: 175,
        }
    }

    /// Every checkpoint below must survive `encode` → `decode` unchanged,
    /// bit for bit (`PartialEq` on floats would let NaN payloads and
    /// `-0.0` slip through, so compare the re-encoded bytes too).
    fn round_trip(ck: &Checkpoint) -> Checkpoint {
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes, "re-encode differs");
        back
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let ck = sample();
        let back = round_trip(&ck);
        assert_eq!(ck, back);
        assert_eq!(back.global_params[2].to_bits(), f32::MIN_POSITIVE.to_bits());

        // Values text formats mangle: NaN payloads (quiet and signalling,
        // either sign), -0.0, subnormals and infinities in every vector,
        // and a NaN loss in the records.
        let awkward = vec![
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xff80_0001),
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x807f_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut ck = sample();
        ck.global_params = awkward.clone();
        ck.global_buffers = awkward.clone();
        ck.server_c = awkward.clone();
        ck.client_c = vec![(1, awkward.clone())];
        ck.residuals = vec![(5, awkward.clone())];
        ck.records[0].avg_local_loss = f64::from_bits(0x7ff8_0000_0000_beef);
        ck.records[0].test_accuracy = None;
        ck.best_accuracy = -0.0;
        let back = round_trip(&ck);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for v in [
            &back.global_params,
            &back.global_buffers,
            &back.server_c,
            &back.client_c[0].1,
            &back.residuals[0].1,
        ] {
            assert_eq!(bits(v), bits(&awkward));
        }
        assert_eq!(
            back.records[0].avg_local_loss.to_bits(),
            0x7ff8_0000_0000_beef
        );
        assert_eq!(back.records[0].test_accuracy, None);
        assert_eq!(back.best_accuracy.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn seeds_beyond_f64_precision_survive_the_round_trip() {
        // Derived trial seeds routinely exceed 2^53, where an f64 field
        // would round them and resume would refuse its own checkpoint as
        // "mismatched seed".
        let mut ck = sample();
        ck.seed = 5_394_581_959_906_326_589;
        assert_eq!(round_trip(&ck).seed, 5_394_581_959_906_326_589);
        ck.seed = u64::MAX;
        assert_eq!(round_trip(&ck).seed, u64::MAX);
    }

    #[test]
    fn save_load_round_trips_and_is_atomic() {
        let dir = temp_path("dir");
        let path = dir.join("checkpoint.bin");
        let ck = sample();
        ck.save(&path).unwrap();
        assert!(!dir.join("checkpoint.bin.tmp").exists(), "tmp renamed away");
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(ck, back);
        // Overwrite keeps the newest state.
        let mut ck2 = ck.clone();
        ck2.round_next = 9;
        ck2.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().round_next, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_errors_are_typed() {
        let missing = temp_path("missing").join("checkpoint.bin");
        assert!(matches!(
            Checkpoint::load(&missing),
            Err(FlError::Checkpoint(_))
        ));
        let garbled = temp_path("garbled");
        for junk in [&b""[..], b"NIID", b"\x00\xff garbage bytes \x13\x37"] {
            std::fs::write(&garbled, junk).unwrap();
            assert!(matches!(
                Checkpoint::load(&garbled),
                Err(FlError::Checkpoint(_))
            ));
        }
        // A format-v3 JSON checkpoint is refused by its magic, not
        // misread.
        std::fs::write(
            &garbled,
            r#"{"version":3,"round_next":3,"seed":"42","global_params":[0.5]}"#,
        )
        .unwrap();
        let err = Checkpoint::load(&garbled).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        // A wrong version behind the right magic is refused by version.
        for version in [3u32, 5, u32::MAX] {
            let mut bytes = sample().encode();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&garbled, bytes).unwrap();
            let err = Checkpoint::load(&garbled).unwrap_err();
            assert!(err.to_string().contains("version"), "{err}");
        }
        let _ = std::fs::remove_file(&garbled);
    }

    #[test]
    fn truncations_and_trailing_bytes_are_typed() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    Checkpoint::decode(&bytes[..cut]),
                    Err(FlError::Checkpoint(_))
                ),
                "prefix {cut} decoded"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        let err = Checkpoint::decode(&padded).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn sparse_client_c_rejects_unordered_ids() {
        let mut ck = sample();
        ck.client_c = vec![(2, vec![0.5; 4]), (0, vec![0.25; 4])];
        let err = Checkpoint::decode(&ck.encode()).unwrap_err();
        assert!(err.to_string().contains("strictly increasing"), "{err}");
        // Duplicates are unordered too.
        ck.client_c = vec![(1, vec![0.5; 4]), (1, vec![0.25; 4])];
        assert!(Checkpoint::decode(&ck.encode()).is_err());
        // Residuals share the same ordering contract.
        let mut ck = sample();
        ck.residuals = vec![(3, vec![0.5; 4]), (0, vec![0.25; 4])];
        let err = Checkpoint::decode(&ck.encode()).unwrap_err();
        assert!(err.to_string().contains("residuals ids"), "{err}");
    }

    #[test]
    fn fault_plan_none_round_trips() {
        let mut ck = sample();
        ck.fault_plan = None;
        let back = round_trip(&ck);
        assert_eq!(back.fault_plan, None);
        // An empty spec string is a plan, not an absent one.
        ck.fault_plan = Some(String::new());
        assert_eq!(round_trip(&ck).fault_plan, Some(String::new()));
    }

    #[test]
    fn policy_path_is_under_dir() {
        let p = CheckpointPolicy::new("/tmp/run7", 5);
        assert_eq!(p.path(), PathBuf::from("/tmp/run7/checkpoint.bin"));
        assert_eq!(p.every, 5);
    }
}
