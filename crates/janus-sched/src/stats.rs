//! Scheduler counters, absorbed by the unified metrics registry.

/// Monotone counters describing what the scheduler did during one run,
/// populated by the bound [`TaskSource`](crate::TaskSource).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks handed to workers (every task exactly once).
    pub dispatched: u64,
}

impl janus_obs::Snapshot for SchedStats {
    fn source(&self) -> &'static str {
        "sched"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        vec![("dispatched".to_string(), self.dispatched)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_obs::Snapshot;

    #[test]
    fn snapshot_exposes_every_counter() {
        let stats = SchedStats { dispatched: 3 };
        assert_eq!(stats.source(), "sched");
        assert_eq!(stats.counters(), vec![("dispatched".to_string(), 3)]);
    }
}
