//! Statevector checkpointing.
//!
//! Large statevector jobs run for hours at full-machine scale; being able
//! to snapshot the register (QuEST offers `writeRecordedQASMToFile` and
//! binary state dumps for the same reason) turns a 4,096-node failure
//! into a restart instead of a rerun. The format is a small self-
//! describing header plus raw little-endian interleaved amplitudes, so a
//! distributed job can write one shard per rank and reassemble on any
//! rank count whose shards concatenate to the same register.

use crate::single::SingleState;
use crate::storage::AmpStorage;
use qse_math::Complex64;

/// Magic bytes identifying a checkpoint ("QSEv1\0").
pub const MAGIC: &[u8; 6] = b"QSEv1\0";

/// Errors while reading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Not a checkpoint (bad magic).
    BadMagic,
    /// Header claims a size the payload does not match.
    LengthMismatch {
        /// Amplitudes promised by the header.
        expected: u64,
        /// Amplitudes actually present.
        actual: u64,
    },
    /// Register width out of supported range.
    BadWidth(u32),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a qse checkpoint (bad magic)"),
            CheckpointError::LengthMismatch { expected, actual } => write!(
                f,
                "checkpoint truncated: header promises {expected} amplitudes, found {actual}"
            ),
            CheckpointError::BadWidth(n) => write!(f, "unsupported register width {n}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serialises a full single-process state: magic, width (u32 LE), then
/// interleaved `re, im` f64 LE amplitudes.
pub fn save<S: AmpStorage>(state: &SingleState<S>) -> Vec<u8> {
    let len = state.storage().len();
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + len * 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&state.n_qubits().to_le_bytes());
    for i in 0..len {
        let a = state.storage().get(i);
        out.extend_from_slice(&a.re.to_le_bytes());
        out.extend_from_slice(&a.im.to_le_bytes());
    }
    out
}

/// Restores a state saved by [`save`].
pub fn load<S: AmpStorage>(bytes: &[u8]) -> Result<SingleState<S>, CheckpointError> {
    if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut header = [0u8; 4];
    header.copy_from_slice(&bytes[MAGIC.len()..MAGIC.len() + 4]);
    let n_qubits = u32::from_le_bytes(header);
    if n_qubits == 0 || n_qubits > 30 {
        return Err(CheckpointError::BadWidth(n_qubits));
    }
    let expected = 1u64 << n_qubits;
    let payload = &bytes[MAGIC.len() + 4..];
    let actual = (payload.len() / 16) as u64;
    if actual != expected || !payload.len().is_multiple_of(16) {
        return Err(CheckpointError::LengthMismatch { expected, actual });
    }
    let mut state: SingleState<S> = SingleState::zero_state(n_qubits);
    let mut word = [0u8; 8];
    for (i, chunk) in payload.chunks_exact(16).enumerate() {
        word.copy_from_slice(&chunk[..8]);
        let re = f64::from_le_bytes(word);
        word.copy_from_slice(&chunk[8..]);
        let im = f64::from_le_bytes(word);
        state.set_amplitude(i as u64, Complex64::new(re, im));
    }
    Ok(state)
}

/// Writes a checkpoint to a file.
pub fn save_to_file<S: AmpStorage>(
    state: &SingleState<S>,
    path: &std::path::Path,
) -> std::io::Result<()> {
    std::fs::write(path, save(state))
}

/// Reads a checkpoint from a file.
pub fn load_from_file<S: AmpStorage>(
    path: &std::path::Path,
) -> std::io::Result<Result<SingleState<S>, CheckpointError>> {
    Ok(load(&std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SoaStorage;
    use qse_circuit::random::{random_circuit, GatePool};
    use qse_math::approx::assert_slices_close;

    fn scrambled(n: u32) -> SingleState<SoaStorage> {
        let c = random_circuit(n, 60, GatePool::Full, 5);
        let mut s = SingleState::zero_state(n);
        s.run(&c);
        s
    }

    #[test]
    fn round_trip_preserves_amplitudes() {
        let s = scrambled(8);
        let bytes = save(&s);
        let restored: SingleState<SoaStorage> = load(&bytes).unwrap();
        assert_slices_close(&restored.to_vec(), &s.to_vec(), 0.0);
        assert_eq!(restored.n_qubits(), 8);
    }

    #[test]
    fn header_size_is_exact() {
        let s: SingleState<SoaStorage> = SingleState::zero_state(5);
        assert_eq!(save(&s).len(), 6 + 4 + 32 * 16);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load::<SoaStorage>(b"not a checkpoint").unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
        assert!(load::<SoaStorage>(&[]).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let s = scrambled(6);
        let mut bytes = save(&s);
        bytes.truncate(bytes.len() - 16);
        match load::<SoaStorage>(&bytes).unwrap_err() {
            CheckpointError::LengthMismatch { expected, actual } => {
                assert_eq!(expected, 64);
                assert_eq!(actual, 63);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_width_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            load::<SoaStorage>(&bytes).unwrap_err(),
            CheckpointError::BadWidth(99)
        );
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("qse_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.qse");
        let s = scrambled(6);
        save_to_file(&s, &path).unwrap();
        let restored: SingleState<SoaStorage> = load_from_file(&path).unwrap().unwrap();
        assert_slices_close(&restored.to_vec(), &s.to_vec(), 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
