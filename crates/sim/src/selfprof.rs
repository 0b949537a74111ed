//! Simulator self-profiling primitives (host wall-clock, not guest time).
//!
//! Unlike [`crate::Stats`] — which counts *architectural* events and is
//! compared bit-for-bit by the determinism gates (lockstep fuzzing,
//! record/replay verify) — these profiles measure the simulator's own
//! wall-clock behaviour: how long the quantum engine spent stepping cores
//! and how long its master spent servicing their outputs at sync rounds.
//! They are kept strictly outside `Stats` so attaching one can never
//! perturb a digest or a counter comparison, and they are `Send + Sync` so
//! a telemetry server thread can read them while the engine runs.

use std::sync::{Arc, Mutex};

/// Accumulated wall-clock figures for the cluster quantum engine.
///
/// All durations are nanoseconds of *host* time. The engine has one
/// executor, the calling thread, so `worker_busy_ns` holds one entry once
/// a round has been recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineProfileData {
    /// Team launches profiled.
    pub teams: u64,
    /// Sync rounds executed (one step of every runnable core each).
    pub rounds: u64,
    /// Quantum boundaries reached (canonical TCDM merges).
    pub quanta: u64,
    /// Total wall time of the sync rounds: stepping the cores plus
    /// servicing their outputs.
    pub round_wall_ns: u64,
    /// Round wall time not spent stepping cores: the master servicing the
    /// round's outputs (line captures, external accesses, broadcasts).
    pub sync_stall_ns: u64,
    /// Core-stepping wall time, indexed by executor (only executor 0).
    pub worker_busy_ns: Vec<u64>,
}

impl EngineProfileData {
    /// Fraction of the profiled round wall time executor `w` spent
    /// stepping cores (0 when nothing was profiled).
    pub fn utilization(&self, w: usize) -> f64 {
        let busy = self.worker_busy_ns.get(w).copied().unwrap_or(0);
        if self.round_wall_ns == 0 {
            0.0
        } else {
            busy as f64 / self.round_wall_ns as f64
        }
    }
}

/// A cloneable, thread-safe handle onto an [`EngineProfileData`]
/// accumulator. The engine records; a telemetry thread snapshots
/// concurrently. The mutex is held only for short plain-data updates,
/// never across core execution.
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    inner: Arc<Mutex<EngineProfileData>>,
}

impl EngineProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sync round: its wall time and the part of it spent
    /// stepping cores. The round's stall is the rest.
    pub fn record_round(&self, wall_ns: u64, busy_ns: u64) {
        let mut d = self.inner.lock().expect("engine profile poisoned");
        d.rounds += 1;
        d.round_wall_ns += wall_ns;
        match d.worker_busy_ns.first_mut() {
            Some(b) => *b += busy_ns,
            None => d.worker_busy_ns.push(busy_ns),
        }
        d.sync_stall_ns += wall_ns.saturating_sub(busy_ns);
    }

    /// Records one completed team launch and its quantum count.
    pub fn record_team(&self, quanta: u64) {
        let mut d = self.inner.lock().expect("engine profile poisoned");
        d.teams += 1;
        d.quanta += quanta;
    }

    /// A consistent copy of the accumulated figures.
    pub fn snapshot(&self) -> EngineProfileData {
        self.inner.lock().expect("engine profile poisoned").clone()
    }

    /// Clears every accumulated figure.
    pub fn reset(&self) {
        *self.inner.lock().expect("engine profile poisoned") = EngineProfileData::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_accumulate_per_worker_and_stall() {
        let p = EngineProfile::new();
        assert_eq!(p.snapshot().utilization(0), 0.0, "nothing profiled yet");
        // Stall is the round wall time not spent stepping cores.
        p.record_round(1000, 900);
        p.record_round(600, 500);
        p.record_team(7);
        let d = p.snapshot();
        assert_eq!(d.rounds, 2);
        assert_eq!(d.teams, 1);
        assert_eq!(d.quanta, 7);
        assert_eq!(d.round_wall_ns, 1600);
        assert_eq!(d.worker_busy_ns, vec![1400], "one executor");
        assert_eq!(d.sync_stall_ns, 200);
        assert!((d.utilization(0) - 1400.0 / 1600.0).abs() < 1e-12);
        assert_eq!(d.utilization(9), 0.0, "unknown executor reads as idle");
    }

    #[test]
    fn stall_never_underflows_and_reset_clears() {
        let p = EngineProfile::new();
        // Busy exceeding wall (timer skew) must clamp, not wrap.
        p.record_round(100, 250);
        let d = p.snapshot();
        assert_eq!(d.sync_stall_ns, 0);
        p.reset();
        assert_eq!(p.snapshot(), EngineProfileData::default());
    }

    #[test]
    fn clones_share_the_accumulator() {
        let p = EngineProfile::new();
        let q = p.clone();
        p.record_team(3);
        assert_eq!(q.snapshot().quanta, 3);
    }
}
