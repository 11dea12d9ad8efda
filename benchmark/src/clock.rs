//! Timing that survives a noisy host.
//!
//! The sandbox this benchmark was sized on is a two-vCPU microVM on a
//! shared host. Three things it does to a measurement, each seen in
//! recorded series of the same binary on the same input:
//!
//! * **It takes the CPUs away.** `/proc/stat` counts the time as *steal*.
//!   One replay of `monitor-replay`, two threads, took anything from 0.37 s
//!   to 1.3 s of elapsed time within one run; elapsed minus stolen time was
//!   0.38–0.47 s throughout. And a thread that waits for another one whose
//!   CPU has been taken away keeps consuming CPU time itself: `fuzz-oracle`
//!   (whose `check_module` runs a four-worker pool) went from 1.1 to 3.0–3.6
//!   CPU seconds a unit for as long as such a spell lasted.
//! * **Its speed drifts.** The calibration kernel below ran at 3.4e8 to
//!   5.5e8 steps a second over a day, in levels that hold for minutes to
//!   hours (the core clock, and neighbours taking cache and memory
//!   bandwidth), and rates measured in raw CPU seconds moved with it: ten
//!   runs spread 5–28 % (quartile distance over median).
//! * **It stalls for a moment**, 0.5–10 s at a time, to 1.5x.
//!
//! The [`Meter`] takes a counter-measure against each:
//!
//! 1. **CPU time on one CPU.** A slice is timed with the CPU time the
//!    process consumed (`CLOCK_PROCESS_CPUTIME_ID`, all threads), which
//!    leaves out the time it was not running and most of the stolen time,
//!    and the process is restricted to the CPU it started on
//!    ([`pin_to_current_cpu`]), so that no thread of it ever spins or
//!    sleeps waiting for a CPU that is not there. Six runs of `fuzz-oracle`
//!    read 303–886 seeds/s without the restriction and 843–883 with it.
//!    Only `monitor-replay`, whose metric is how long two cooperating
//!    threads take together, keeps both CPUs and reads the elapsed time,
//!    **minus the time stolen** meanwhile.
//! 2. **Calibration.** Every slice is bracketed by a 0.2 ms calibration
//!    kernel ([`walk`]) — a little register machine that dispatches on a
//!    byte code and chains loads and stores through 4 MB, so that it loses
//!    speed to a slower clock and a contended cache the way the
//!    interpreter, the monitor's tables and the analysis do — and the
//!    slice's time is rescaled, in plain proportion, to a nominal machine
//!    that runs the kernel at [`NOMINAL_WALKS_PER_S`]. The kernel shares no
//!    code with the program under test, so a change to the program cannot
//!    move it. (A cache-resident kernel, which follows the core clock only,
//!    explained almost none of the variance; fitted per workload, the
//!    exponent on this one came out at 0.9–1.3, so it is left at 1.)
//! 3. **Repetition.** A unit of work is cut into the same slices every
//!    time, and each slice counts with the *median* of its rescaled times
//!    across repetitions.
//!
//! With all three, ten runs at ten seeds spread 3.5–7 % on every rate the
//! benchmark reports, in an hour in which the raw rates spread 5–28 %.
//! All times the benchmark reports are therefore *nominal* seconds;
//! `bench.clock_ratio` (host ÷ nominal speed) converts back, and the `info`
//! lines carry the unscaled rates.

use std::time::Instant;

use crate::stats::median;

/// Calibration-kernel steps per second of the nominal machine. The sizing
/// host makes about 5.3e8/s when undisturbed and 3.4e8/s at its worst; the
/// constant only fixes the unit, any host is rescaled to it.
pub const NOMINAL_WALKS_PER_S: f64 = 5.0e8;

/// Steps of one calibration try (≈0.2 ms).
const CAL_WALKS: u64 = 100_000;
/// Tries per calibration; the fastest wins, which also absorbs the first
/// try's cache refill after the workload evicted the kernel's memory.
const CAL_TRIES: usize = 3;
/// Words of the kernel's memory (4 MB: beyond the private caches).
const WALK_MEMORY: usize = 512 * 1024;
/// Bytes of the kernel's byte code.
const WALK_CODE: usize = 64 * 1024;
/// Bytes of the kernel's program, which repeats through the code array so
/// that the dispatch branch is predictable.
const WALK_PROGRAM: usize = 96;

/// Which clock a [`Meter`] reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// CPU time consumed by the whole process.
    ProcessCpu,
    /// Elapsed time less the time the hypervisor stole meanwhile.
    Wall,
}

/// CPU seconds the process has consumed, where the platform can tell.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_s() -> Option<f64> {
    /// `struct timespec` on 64-bit Linux: two C `long`s.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through `tp`,
    // which points to a live, properly aligned `Timespec` whose layout
    // matches the C struct on this target (gated above); it keeps no
    // reference past the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_s() -> Option<f64> {
    None
}

/// Restricts this thread, and every thread it spawns from now on, to the
/// CPU it is running on; returns that CPU, or `None` where the platform
/// cannot say or do it.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    /// A `cpu_set_t` of 1024 bits, the size glibc's own has.
    const WORDS: usize = 16;
    // SAFETY: `sched_getcpu` takes no arguments and only reads the calling
    // thread's state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok().filter(|&c| c < WORDS * 64)?;
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `sched_setaffinity` reads `cpusetsize` bytes through `mask`,
    // which points to a live array of exactly that many; pid 0 is the
    // calling thread; the call keeps no reference.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// Seconds the hypervisor has stolen from this VM's CPUs since boot (0
/// where `/proc/stat` does not say): the eighth counter of the `cpu` line,
/// in ticks of 10 ms.
fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The calibration kernel: a register machine that dispatches on a byte
/// code and whose loads and stores chain through `memory`, the address of
/// each taken from what an earlier one loaded.
#[inline(never)]
fn walk(code: &[u8], memory: &mut [u64], n: u64) -> u64 {
    let (code_mask, memory_mask) = (code.len() - 1, memory.len() - 1);
    let mut regs = [0u64; 16];
    for (i, reg) in regs.iter_mut().enumerate() {
        *reg = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    let (mut pc, mut acc) = (0usize, 0u64);
    for _ in 0..n {
        let (op, arg) = (code[pc & code_mask], code[(pc + 1) & code_mask]);
        let (a, b) = ((arg >> 4) as usize, (arg & 15) as usize);
        match op & 7 {
            0 => regs[a] = regs[a].wrapping_add(regs[b]),
            1 => regs[a] = regs[b].wrapping_mul(0x9e37_79b9_7f4a_7c15),
            2 => regs[a] = memory[regs[b] as usize & memory_mask],
            3 => memory[regs[b] as usize & memory_mask] = regs[a],
            4 => {
                if regs[a] & 1 == 0 {
                    pc = pc.wrapping_add((arg as usize & 7) * 2);
                }
            }
            5 => regs[a] ^= regs[b] >> 7,
            6 => acc = acc.wrapping_add(regs[a]),
            _ => regs[a] = regs[a].rotate_left(13) ^ pc as u64,
        }
        pc = pc.wrapping_add(2);
    }
    acc ^ regs[3]
}

/// One timed slice of work.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Operations the slice completed (the workload's own unit).
    pub ops: u64,
    /// Seconds on the meter's clock, not rescaled.
    pub raw_s: f64,
    /// Seconds on the nominal machine.
    pub nominal_s: f64,
}

/// A stopwatch that calibrates at every slice boundary.
#[derive(Debug)]
pub struct Meter {
    clock: Clock,
    epoch: Instant,
    code: Vec<u8>,
    memory: Vec<u64>,
    cal_before: f64,
    stolen_before: f64,
    started: f64,
    slices: Vec<Slice>,
    /// Every calibration so far: the host's speed as a share of the nominal
    /// machine's.
    cals: Vec<f64>,
}

impl Meter {
    /// A meter reading `clock` (the wall clock where the platform has no
    /// process CPU clock).
    pub fn new(clock: Clock) -> Self {
        let clock = if process_cpu_s().is_some() { clock } else { Clock::Wall };
        Meter {
            clock,
            epoch: Instant::now(),
            code: (0..WALK_CODE)
                .map(|i| (((i % WALK_PROGRAM) as u32).wrapping_mul(2_654_435_761) >> 24) as u8)
                .collect(),
            memory: (0..WALK_MEMORY as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            cal_before: 0.0,
            stolen_before: 0.0,
            started: 0.0,
            slices: Vec::new(),
            cals: Vec::new(),
        }
    }

    /// Which clock the meter ended up reading.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The clock as it reads.
    fn now(&self) -> f64 {
        match self.clock {
            Clock::ProcessCpu => process_cpu_s().expect("checked at construction"),
            Clock::Wall => self.epoch.elapsed().as_secs_f64(),
        }
    }

    /// Seconds stolen so far, for the clock that stolen time passes on.
    fn stolen(&self) -> f64 {
        match self.clock {
            Clock::ProcessCpu => 0.0,
            Clock::Wall => stolen_s(),
        }
    }

    /// The host's speed right now as a share of the nominal machine's.
    fn calibrate(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..CAL_TRIES {
            let started = self.now();
            std::hint::black_box(walk(
                &self.code,
                &mut self.memory,
                std::hint::black_box(CAL_WALKS),
            ));
            best = best.min(self.now() - started);
        }
        let speed = CAL_WALKS as f64 / best / NOMINAL_WALKS_PER_S;
        self.cals.push(speed);
        speed
    }

    /// Calibrates and starts the stopwatch. Work done before this call is
    /// not timed.
    pub fn begin(&mut self) {
        self.cal_before = self.calibrate();
        self.stolen_before = self.stolen();
        self.started = self.now();
    }

    /// Ends the running slice with `ops` operations, calibrates, and starts
    /// the next slice. The calibration itself is not timed.
    pub fn mark(&mut self, ops: u64) {
        let elapsed = self.now() - self.started;
        // Stolen time is summed over the CPUs and comes in ticks of 10 ms,
        // so on a short slice it can exceed what elapsed; a slice never
        // counts with less than a tenth of that.
        let raw_s = (elapsed - (self.stolen() - self.stolen_before)).max(0.1 * elapsed);
        let cal_after = self.calibrate();
        let scale = 0.5 * (self.cal_before + cal_after);
        self.slices.push(Slice { ops, raw_s, nominal_s: raw_s * scale });
        self.cal_before = cal_after;
        self.stolen_before = self.stolen();
        self.started = self.now();
    }

    /// Times `work` as one slice.
    pub fn slice<R>(&mut self, ops: u64, work: impl FnOnce() -> R) -> R {
        self.begin();
        let out = work();
        self.mark(ops);
        out
    }

    /// Removes and returns the slices recorded so far.
    pub fn take(&mut self) -> Vec<Slice> {
        std::mem::take(&mut self.slices)
    }

    /// Median host speed over every calibration so far, as a share of the
    /// nominal machine's: raw seconds ≈ nominal seconds ÷ this.
    pub fn clock_ratio(&self) -> f64 {
        median(&self.cals)
    }
}

/// Repetitions of one fixed unit of work, each a list of slices cut at the
/// same places.
#[derive(Debug, Default)]
pub struct Reps {
    /// `reps[r][j]` is slice `j` of repetition `r`.
    pub reps: Vec<Vec<Slice>>,
}

impl Reps {
    /// Runs `unit` until `seconds` have passed and at least `min_reps`
    /// repetitions are in, and never more than `max_reps`.
    pub fn run(
        meter: &mut Meter,
        seconds: f64,
        min_reps: usize,
        max_reps: usize,
        mut unit: impl FnMut(&mut Meter, usize),
    ) -> Reps {
        let started = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < max_reps
            && (reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds)
        {
            unit(meter, reps.len());
            reps.push(meter.take());
        }
        Reps { reps }
    }

    /// Each slice's nominal time: the median across repetitions.
    ///
    /// # Panics
    ///
    /// Panics when repetitions were cut into different numbers of slices —
    /// the unit of work is then not the same work every time.
    pub fn slice_times(&self) -> Vec<f64> {
        self.column_medians(|s| s.nominal_s)
    }

    /// Like [`Reps::slice_times`], in seconds as measured.
    pub fn raw_slice_times(&self) -> Vec<f64> {
        self.column_medians(|s| s.raw_s)
    }

    fn column_medians(&self, of: impl Fn(&Slice) -> f64) -> Vec<f64> {
        let Some(first) = self.reps.first() else { return Vec::new() };
        assert!(
            self.reps.iter().all(|r| r.len() == first.len()),
            "every repetition must be cut into the same slices"
        );
        (0..first.len())
            .map(|j| {
                let times: Vec<f64> = self.reps.iter().map(|r| of(&r[j])).collect();
                median(&times)
            })
            .collect()
    }

    /// Operations per slice (taken from the first repetition).
    pub fn slice_ops(&self) -> Vec<u64> {
        self.reps.first().map(|r| r.iter().map(|s| s.ops).collect()).unwrap_or_default()
    }

    /// Operations of one unit per nominal second, over the slices `keep`
    /// selects by index: all their operations over all their times.
    pub fn rate(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let (ops, secs) = self.totals(&self.slice_times(), keep);
        ops / secs
    }

    /// [`Reps::rate`] in seconds as measured.
    pub fn raw_rate(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let (ops, secs) = self.totals(&self.raw_slice_times(), keep);
        ops / secs
    }

    fn totals(&self, times: &[f64], keep: impl Fn(usize) -> bool) -> (f64, f64) {
        let ops = self.slice_ops();
        (0..times.len())
            .filter(|&j| keep(j))
            .fold((0.0, 0.0), |(o, s), j| (o + ops[j] as f64, s + times[j]))
    }

    /// The rate of the *typical* slice among those `keep` selects: the
    /// median, over slices, of operations per nominal second. Where slices
    /// are exchangeable draws (one injection each), this does not move with
    /// how many rare, very cheap or very dear draws a seed happened to
    /// produce, which the plain rate does.
    pub fn typical_rate(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let ops = self.slice_ops();
        let rates: Vec<f64> = self
            .slice_times()
            .iter()
            .enumerate()
            .filter(|(j, _)| keep(*j) && ops[*j] > 0)
            .map(|(j, secs)| ops[j] as f64 / secs)
            .collect();
        median(&rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(ops: u64, nominal_s: f64) -> Slice {
        Slice { ops, raw_s: 2.0 * nominal_s, nominal_s }
    }

    #[test]
    fn meter_records_one_slice_per_mark() {
        for clock in [Clock::ProcessCpu, Clock::Wall] {
            let mut m = Meter::new(clock);
            m.begin();
            std::hint::black_box((0..200_000u64).fold(0, |a, i| a ^ i.wrapping_mul(31)));
            m.mark(3);
            m.mark(4);
            let out = m.slice(5, || 7);
            assert_eq!(out, 7);
            let slices = m.take();
            assert_eq!(slices.iter().map(|s| s.ops).collect::<Vec<_>>(), vec![3, 4, 5]);
            assert!(slices.iter().all(|s| s.raw_s >= 0.0 && s.nominal_s >= 0.0));
            assert!(m.take().is_empty());
            assert!(m.clock_ratio() > 0.0);
        }
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        // (Other tests run on parallel threads of this process, so nothing
        // can be asserted about how little CPU time a sleep consumes.)
        let Some(before) = process_cpu_s() else { return };
        let (code, mut memory) = (vec![2u8; 64], vec![1u64; 1024]);
        std::hint::black_box(walk(&code, &mut memory, 2_000_000));
        let spent = process_cpu_s().expect("clock read once already") - before;
        assert!(spent > 0.0 && spent < 60.0, "2M kernel steps took {spent} CPU seconds");
    }

    #[test]
    fn pinning_keeps_a_thread_on_the_cpu_it_was_on() {
        // On a thread of its own: the affinity is the calling thread's.
        let pinned_twice = std::thread::spawn(|| (pin_to_current_cpu(), pin_to_current_cpu()));
        let (first, second) = pinned_twice.join().expect("pinning does not panic");
        assert_eq!(first, second);
    }

    #[test]
    fn stolen_time_never_runs_backwards() {
        let (before, after) = (stolen_s(), stolen_s());
        assert!(before >= 0.0 && after >= before);
    }

    #[test]
    fn each_slice_counts_with_its_median_repetition() {
        let reps = Reps {
            reps: vec![
                vec![slice(10, 1.0), slice(5, 2.0), slice(0, 0.5)],
                vec![slice(10, 9.0), slice(5, 1.6), slice(0, 0.5)],
                vec![slice(10, 1.2), slice(5, 1.8), slice(0, 0.4)],
            ],
        };
        assert_eq!(reps.slice_times(), vec![1.2, 1.8, 0.5]);
        assert_eq!(reps.raw_slice_times(), vec![2.4, 3.6, 1.0]);
        assert!((reps.rate(|_| true) - 15.0 / 3.5).abs() < 1e-12);
        assert!((reps.rate(|j| j == 1) - 5.0 / 1.8).abs() < 1e-12);
        assert!((reps.raw_rate(|_| true) - 15.0 / 7.0).abs() < 1e-12);
        // Slice rates 10/1.2 and 5/1.8; the zero-op tail slice has no rate.
        assert!((reps.typical_rate(|_| true) - (10.0 / 1.2 + 5.0 / 1.8) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn reps_run_honours_the_minimum() {
        let mut m = Meter::new(Clock::Wall);
        let reps = Reps::run(&mut m, 0.0, 3, 10, |m, _| m.slice(1, || ()));
        assert_eq!(reps.reps.len(), 3);
    }
}
