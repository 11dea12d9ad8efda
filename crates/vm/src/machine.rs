//! The machine cost model used by the deterministic simulated engine.
//!
//! The paper's performance numbers come from a 32-core machine built from
//! four 8-core AMD Opteron 6128 sockets — explicitly *not* symmetric: the
//! paper attributes the overhead bump from 1 to 2 threads to the OS placing
//! the two threads on different sockets, which turns shared accesses and
//! monitor-queue traffic into cross-socket traffic. [`MachineModel`]
//! captures exactly the costs that explanation needs:
//!
//! * threads are placed round-robin across sockets (the single-thread run
//!   stays on socket 0 with the monitor);
//! * every shared-memory access pays a near or far cost depending on
//!   whether the accessing thread's socket matches the region's home
//!   socket;
//! * every monitor event pays a near or far cost depending on the sender's
//!   socket (the monitor lives on socket 0);
//! * barriers cost a latency logarithmic in the number of participants,
//!   and lock handoffs a fixed cost — these grow the *communication* share
//!   of execution as threads are added, which is what amortizes the
//!   instrumentation overhead at high thread counts (paper Figure 7).

/// Cycle costs and topology of the simulated machine. There is one, the
/// paper's ([`MachineModel::opteron_6128`]): the simulator reads it
/// directly, it is not part of a run's configuration.
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Number of sockets (NUMA domains).
    pub sockets: u32,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// Cost of simple ALU ops, comparisons, jumps.
    pub alu: u64,
    /// Cost of multiplies.
    pub mul: u64,
    /// Cost of divides, remainders, square roots.
    pub div: u64,
    /// Cost of thread-local memory accesses.
    pub mem_local: u64,
    /// Cost of a shared access whose home socket matches the thread's.
    pub shared_near: u64,
    /// Cost of a cross-socket shared access.
    pub shared_far: u64,
    /// Extra cycles per shared access per additional active thread:
    /// coherence and interconnect contention. This is what makes the
    /// baseline program scale sublinearly (the paper: "due to communication
    /// and waiting among threads, the reduction in execution time is less
    /// than 2X"), which in turn amortizes the instrumentation overhead at
    /// high thread counts (Figure 7's downward slope).
    pub shared_contention: u64,
    /// Cost of an atomic fetch-add (on top of the shared access cost).
    pub atomic: u64,
    /// Cost of acquiring or releasing an uncontended mutex.
    pub lock: u64,
    /// Lock handoff penalty paid by a waiter when it is woken.
    pub lock_handoff: u64,
    /// Barrier cost per tree hop: total barrier latency is
    /// `barrier_base + barrier_hop * ceil(log2 nthreads)`.
    pub barrier_base: u64,
    /// See `barrier_base`.
    pub barrier_hop: u64,
    /// Cost of a call / return.
    pub call: u64,
    /// Cost of assembling a monitor event (hashing witnesses and keys).
    pub event_build: u64,
    /// Queue push when the sender shares the monitor's socket.
    pub event_near: u64,
    /// Queue push across sockets.
    pub event_far: u64,
    /// Cost of an `output` operation.
    pub output: u64,
    /// Determinism-enforcement cycles per shared access *per thread* in
    /// duplicated mode (the non-scaling term of Section VI).
    pub dup_tax: u64,
}

impl MachineModel {
    /// The four-socket, 32-core AMD Opteron 6128 configuration of the
    /// paper's testbed.
    pub const fn opteron_6128() -> Self {
        MachineModel {
            sockets: 4,
            cores_per_socket: 8,
            alu: 1,
            mul: 3,
            div: 20,
            mem_local: 2,
            shared_near: 8,
            shared_far: 40,
            shared_contention: 12,
            atomic: 25,
            lock: 20,
            lock_handoff: 40,
            barrier_base: 60,
            barrier_hop: 60,
            call: 4,
            event_build: 8,
            event_near: 50,
            event_far: 260,
            output: 4,
            dup_tax: 12,
        }
    }

    /// Total number of cores.
    pub fn cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Socket a thread runs on. A single application thread shares socket 0
    /// with the monitor; otherwise the OS spreads threads round-robin
    /// across sockets (the paper's observed placement).
    pub fn socket_of(&self, thread: u32, nthreads: u32) -> u32 {
        if nthreads <= 1 {
            0
        } else {
            thread % self.sockets
        }
    }

    /// Home socket of a shared region: regions are distributed round-robin
    /// over the sockets actually hosting threads.
    pub fn home_of(&self, region: u32, nthreads: u32) -> u32 {
        let active = self.sockets.min(nthreads.max(1));
        region % active
    }

    /// Cost of a shared access by `thread` to `region`, including the
    /// contention term that grows with the number of active threads.
    pub fn shared_access(&self, thread: u32, region: u32, nthreads: u32) -> u64 {
        let base = if self.socket_of(thread, nthreads) == self.home_of(region, nthreads) {
            self.shared_near
        } else {
            self.shared_far
        };
        base + self.shared_contention * u64::from(nthreads.saturating_sub(1))
    }

    /// Cost of pushing a monitor event from `thread` (monitor on socket 0).
    pub fn event_push(&self, thread: u32, nthreads: u32) -> u64 {
        if self.socket_of(thread, nthreads) == 0 {
            self.event_near
        } else {
            self.event_far
        }
    }

    /// Barrier release latency for `nthreads` participants (linear: a
    /// central-counter pthread barrier serializes arrivals).
    pub fn barrier_latency(&self, nthreads: u32) -> u64 {
        self.barrier_base + self.barrier_hop * u64::from(nthreads.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_is_colocated_with_monitor() {
        let m = MachineModel::opteron_6128();
        assert_eq!(m.socket_of(0, 1), 0);
        assert_eq!(m.event_push(0, 1), m.event_near);
    }

    #[test]
    fn two_threads_span_sockets() {
        let m = MachineModel::opteron_6128();
        assert_eq!(m.socket_of(0, 2), 0);
        assert_eq!(m.socket_of(1, 2), 1);
        // Thread 1's events cross sockets: the 1→2 thread overhead bump.
        assert_eq!(m.event_push(1, 2), m.event_far);
    }

    #[test]
    fn shared_access_cost_depends_on_home() {
        let m = MachineModel::opteron_6128();
        // 4 threads on 4 sockets; region 0 homed on socket 0. The
        // contention term applies uniformly.
        let contention = 3 * m.shared_contention;
        assert_eq!(m.shared_access(0, 0, 4), m.shared_near + contention);
        assert_eq!(m.shared_access(1, 0, 4), m.shared_far + contention);
        // Single-threaded: everything near, no contention.
        assert_eq!(m.shared_access(0, 3, 1), m.shared_near);
    }

    #[test]
    fn barrier_latency_grows_linearly() {
        let m = MachineModel::opteron_6128();
        assert!(m.barrier_latency(2) < m.barrier_latency(8));
        assert!(m.barrier_latency(8) < m.barrier_latency(32));
        assert_eq!(m.barrier_latency(32) - m.barrier_latency(16), 16 * m.barrier_hop);
    }

    #[test]
    fn shared_contention_grows_with_threads() {
        let m = MachineModel::opteron_6128();
        let at4 = m.shared_access(1, 0, 4);
        let at32 = m.shared_access(1, 0, 32);
        assert!(at32 > at4);
        assert_eq!(at32 - at4, 28 * m.shared_contention);
    }

    #[test]
    fn default_is_the_paper_testbed() {
        let m = MachineModel::opteron_6128();
        assert_eq!(m.cores(), 32);
        assert_eq!(m.sockets, 4);
    }
}
