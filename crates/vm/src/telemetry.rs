//! VM-side telemetry: simulated-cycle attribution by cost class.
//!
//! The simulator already reports *how long* the parallel section took
//! ([`crate::RunResult::parallel_cycles`]); these instruments say *where
//! the cycles went* — ALU vs. shared memory vs. monitor-event pushes —
//! which is what lets figure8/figure9 attribute instrumentation overhead
//! to queue pressure rather than check cost. All values are simulated
//! cycles, so they are deterministic for a given (program, config, seed)
//! and participate in the determinism contract.
//!
//! One simulated run is one OS thread, so the buckets are plain integers.
//! A [`crate::RunResult`] keeps them as they are; the `vm.cycles.*` names
//! exist only in the named view, [`crate::RunResult::telemetry`].

use bw_telemetry::TelemetrySnapshot;

use crate::thread::CostClass;

/// Cycle attribution buckets for one simulated run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VmTelemetry {
    /// Cycles in plain ALU / compare / jump instructions.
    pub cycles_alu: u64,
    /// Cycles in multiplies.
    pub cycles_mul: u64,
    /// Cycles in divides / sqrt.
    pub cycles_div: u64,
    /// Cycles in thread-local memory accesses.
    pub cycles_local_mem: u64,
    /// Cycles in shared-memory accesses.
    pub cycles_shared: u64,
    /// Cycles in atomic RMWs.
    pub cycles_atomic: u64,
    /// Cycles in calls/returns.
    pub cycles_call: u64,
    /// Cycles in output appends.
    pub cycles_output: u64,
    /// Cycles spent building and pushing monitor events (the paper's
    /// instrumentation overhead proper).
    pub cycles_events: u64,
    /// Cycles in lock/unlock/barrier machinery beyond the issuing
    /// instruction.
    pub cycles_sync: u64,
}

impl VmTelemetry {
    /// Attributes `cycles` to the bucket of a cost class.
    #[inline]
    pub(crate) fn add(&mut self, class: CostClass, cycles: u64) {
        *match class {
            CostClass::Alu => &mut self.cycles_alu,
            CostClass::Mul => &mut self.cycles_mul,
            CostClass::Div => &mut self.cycles_div,
            CostClass::LocalMem => &mut self.cycles_local_mem,
            CostClass::Shared(_) => &mut self.cycles_shared,
            CostClass::Atomic(_) => &mut self.cycles_atomic,
            CostClass::Call => &mut self.cycles_call,
            CostClass::Output => &mut self.cycles_output,
        } += cycles;
    }

    /// Appends the attribution to `s` under `vm.cycles.*` names.
    pub(crate) fn render_to(&self, s: &mut TelemetrySnapshot) {
        s.push_counter("vm.cycles.alu", self.cycles_alu);
        s.push_counter("vm.cycles.mul", self.cycles_mul);
        s.push_counter("vm.cycles.div", self.cycles_div);
        s.push_counter("vm.cycles.local_mem", self.cycles_local_mem);
        s.push_counter("vm.cycles.shared", self.cycles_shared);
        s.push_counter("vm.cycles.atomic", self.cycles_atomic);
        s.push_counter("vm.cycles.call", self.cycles_call);
        s.push_counter("vm.cycles.output", self.cycles_output);
        s.push_counter("vm.cycles.events", self.cycles_events);
        s.push_counter("vm.cycles.sync", self.cycles_sync);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_classes_map_to_distinct_buckets() {
        let mut t = VmTelemetry::default();
        t.add(CostClass::Shared(3), 10);
        t.add(CostClass::Atomic(0), 5);
        t.cycles_events += 7;
        assert_eq!(t.cycles_shared, 10);
        assert_eq!(t.cycles_atomic, 5);
        assert_eq!(t.cycles_alu, 0);
        let mut s = TelemetrySnapshot::new();
        t.render_to(&mut s);
        assert_eq!(s.counter("vm.cycles.shared"), Some(10));
        assert_eq!(s.counter("vm.cycles.events"), Some(7));
    }
}
