//! What the run header reports about the host, and the memcpy ceiling
//! kernel rates are read against.

use qse_util::parallel::{num_threads, parallel_for_each};
use std::time::Instant;

/// The header's host facts.
pub struct Host {
    /// `git rev-parse HEAD` of `./.git`, or `unknown` without one.
    pub revision: String,
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// The `QSE_THREADS` override, if set.
    pub qse_threads: Option<String>,
    /// Workers the repository's thread pool actually uses.
    pub pool_threads: usize,
    /// CPU brand string.
    pub cpu_model: String,
    /// Per-instance L2 size, bytes (0 when unknown).
    pub l2_bytes: u64,
    /// Per-instance L3 size, bytes (0 when unknown).
    pub l3_bytes: u64,
}

impl Host {
    /// Probes the host.
    pub fn probe() -> Host {
        // `--git-dir` keeps git from searching the parent directories
        // when the working directory is not itself a checkout.
        let revision = std::process::Command::new("git")
            .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let (cpu_model, l2_bytes, l3_bytes) = cpuid::describe();
        Host {
            revision,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            qse_threads: std::env::var("QSE_THREADS").ok(),
            pool_threads: num_threads(),
            cpu_model,
            l2_bytes,
            l3_bytes,
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod cpuid {
    use std::arch::x86_64::__cpuid_count;

    /// Brand string and L2/L3 sizes from CPUID leaves 0x8000_0002..4
    /// and 4 (deterministic cache parameters).
    pub fn describe() -> (String, u64, u64) {
        // CPUID exists on every x86-64 processor; each leaf below is
        // only read after the maximum supported leaf has been checked.
        let max_ext = __cpuid_count(0x8000_0000, 0).eax;
        let brand = if max_ext >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid_count(leaf, 0);
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string()
        } else {
            "unknown".to_string()
        };
        let max_basic = __cpuid_count(0, 0).eax;
        let (mut l2, mut l3) = (0, 0);
        if max_basic >= 4 {
            for sub in 0..16 {
                let r = __cpuid_count(4, sub);
                if r.eax & 0x1f == 0 {
                    break;
                }
                let level = (r.eax >> 5) & 0x7;
                let ways = u64::from((r.ebx >> 22) + 1);
                let partitions = u64::from(((r.ebx >> 12) & 0x3ff) + 1);
                let line = u64::from((r.ebx & 0xfff) + 1);
                let sets = u64::from(r.ecx) + 1;
                let size = ways * partitions * line * sets;
                match level {
                    2 => l2 = size,
                    3 => l3 = size,
                    _ => {}
                }
            }
        }
        (brand, l2, l3)
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod cpuid {
    pub fn describe() -> (String, u64, u64) {
        ("unknown".to_string(), 0, 0)
    }
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the C `struct rusage` layout on 64-bit
    // Linux (two `timeval`s, then fourteen `long`s), and the pointer is
    // to a live, writable value for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    // Linux reports ru_maxrss in KiB.
    usage.maxrss as f64 / 1024.0
}

/// The memcpy ceiling: copy bandwidth (bytes read + bytes written per
/// second) of a parallel copy over the pool's workers.
pub struct Ceiling {
    /// Size of each of the two arrays, bytes.
    pub array_bytes: usize,
    /// Median GiB/s over the timed copies.
    pub gib_s: f64,
}

/// Largest array the ceiling allocates (two are live at once).
const MAX_ARRAY_BYTES: usize = 512 << 20;

/// Measures the memcpy ceiling with arrays of `4 × l3_bytes`, capped at
/// 512 MiB each so the probe stays small on hosts with a large L3.
pub fn memcpy_ceiling(l3_bytes: u64) -> Ceiling {
    let want = usize::try_from(l3_bytes.saturating_mul(4)).unwrap_or(MAX_ARRAY_BYTES);
    let array_bytes = want.clamp(64 << 20, MAX_ARRAY_BYTES);
    let len = array_bytes / 8;
    let src = vec![1.0f64; len];
    let mut dst = vec![0.0f64; len];
    const CHUNK: usize = 1 << 19; // 4 MiB of f64
    let copy = |dst: &mut [f64]| {
        let pairs: Vec<(&mut [f64], &[f64])> =
            dst.chunks_mut(CHUNK).zip(src.chunks(CHUNK)).collect();
        parallel_for_each(pairs, |(d, s)| d.copy_from_slice(s));
    };
    copy(&mut dst); // first touch
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        copy(std::hint::black_box(&mut dst));
        let s = t.elapsed().as_secs_f64();
        rates.push(2.0 * array_bytes as f64 / s / f64::from(1u32 << 30));
    }
    assert!(dst[len - 1] == 1.0, "copy landed");
    Ceiling {
        array_bytes,
        gib_s: crate::stats::median(&rates).expect("five copies"),
    }
}
