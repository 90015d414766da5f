//! Host facts recorded with every result: peak RSS of this process, the
//! core count the OS reports, and a measured effective-parallelism
//! figure, so a reader can tell a slow host from a regression. Also the
//! CPU spreading that keeps a one-caller run from hinging on which CPU
//! the scheduler picked.

use std::time::Instant;

use manta_store::splitmix64;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU mask in the kernel's `cpu_set_t` layout: 1024 bits.
type CpuSet = [u64; 16];

/// Spreads one caller's work evenly over the CPUs the calling thread may
/// use, by pinning it for each piece of work. The CPUs of a shared host
/// can differ in speed for minutes (a busy sibling hyperthread), and a
/// lone busy thread tends to stay on the CPU it started on, so an
/// unpinned run measures whichever CPU it got. Spread, every run sees
/// the same mix. Threads spawned while pinned inherit the pin, so only
/// callers that spawn none use this. Dropping it restores the thread's
/// mask.
pub struct CpuSpread {
    mask: Option<CpuSet>,
    cpus: Vec<usize>,
}

impl CpuSpread {
    pub fn new() -> CpuSpread {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let read =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
        let mask = (read == 0).then_some(mask);
        let cpus = mask.map_or_else(Vec::new, |m| {
            (0..1024)
                .filter(|&c| m[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        });
        CpuSpread { mask, cpus }
    }

    /// How many CPUs the work is spread over.
    pub fn count(&self) -> usize {
        self.cpus.len().max(1)
    }

    /// Pins the calling thread to allowed CPU `slot` modulo their number:
    /// set-up repetitions pass their index, so they alternate exactly.
    pub fn pin(&self, slot: u64) {
        if self.cpus.len() > 1 {
            let cpu = self.cpus[(slot % self.cpus.len() as u64) as usize];
            let mut one: CpuSet = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            set_mask(&one);
        }
    }

    /// Pins the calling thread to the allowed CPU op `k` hashes to, so
    /// the CPU an op gets is independent of which input it runs.
    pub fn place(&self, k: u64) {
        self.pin(splitmix64(k));
    }

    /// Restores the thread's own mask.
    pub fn unpin(&self) {
        if let Some(mask) = &self.mask {
            set_mask(mask);
        }
    }
}

impl Drop for CpuSpread {
    fn drop(&mut self) {
        self.unpin();
    }
}

/// Sets the calling thread's CPU mask; a refusal leaves it unpinned,
/// which only costs steadiness.
fn set_mask(mask: &CpuSet) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
}

/// `VmHWM` of this process in MiB, or `None` where `/proc` is absent.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `available_parallelism`, the figure `nproc` reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A CPU-bound spin of `iters` dependent multiply-xorshift steps.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}

/// How many cores' worth of throughput two CPU-bound threads get: the
/// time of two spins run one after the other divided by the time of the
/// same two spins run in parallel (2.0 on two free cores, 1.0 when the
/// host delivers one). The median of three trials.
pub fn effective_parallelism() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut trials: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(spin(std::hint::black_box(ITERS)));
            std::hint::black_box(spin(std::hint::black_box(ITERS)));
            let serial = t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::thread::scope(|s| {
                let spins = [(); 2].map(|()| s.spawn(|| spin(std::hint::black_box(ITERS))));
                for h in spins {
                    std::hint::black_box(h.join().expect("a spin thread cannot panic"));
                }
            });
            serial / t.elapsed().as_secs_f64()
        })
        .collect();
    trials.sort_by(f64::total_cmp);
    trials[1]
}
