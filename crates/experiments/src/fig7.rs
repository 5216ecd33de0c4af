//! Figure 7: concurrency efficiency of the Figure 6 runs.
//!
//! Efficiency is Σᵢ(tᵢ/tᶜᵢ) over the co-runners (see
//! [`neon_metrics::fairness::concurrency_efficiency`]): <1.0 means
//! device time was lost to scheduling or context switching, >1.0 means
//! synergy. The paper's ordering — engaged Timeslice loses the most,
//! Disengaged Timeslice less, Disengaged Fair Queueing the least — is
//! the figure's point.
//!
//! The runs are shared with Figure 6, which rides `neon-scenario`'s
//! parallel sweep runner — so this projection is parallel (and
//! serial-equivalence-tested) by construction.

use neon_metrics::Table;

use crate::fig6;

/// One efficiency cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application family.
    pub app: &'static str,
    /// Throttle request size.
    pub throttle_size: neon_sim::SimDuration,
    /// Scheduler.
    pub scheduler: neon_core::sched::SchedulerKind,
    /// Concurrency efficiency Σ(tᵢ/tᶜᵢ).
    pub efficiency: f64,
}

/// Projects efficiency rows out of already-computed Figure 6 rows.
pub fn from_fig6(rows: &[fig6::Row]) -> Vec<Row> {
    rows.iter()
        .map(|r| Row {
            app: r.app,
            throttle_size: r.throttle_size,
            scheduler: r.scheduler,
            efficiency: r.efficiency,
        })
        .collect()
}

/// Renders the efficiency table.
pub fn render(rows: &[Row]) -> String {
    let mut table = Table::new(vec!["pair".into(), "scheduler".into(), "efficiency".into()]);
    for r in rows {
        table.row(vec![
            format!("{} vs Throttle({})", r.app, r.throttle_size),
            r.scheduler.label().into(),
            format!("{:.2}", r.efficiency),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::sched::SchedulerKind;
    use neon_sim::SimDuration;

    #[test]
    fn efficiency_projection_preserves_values() {
        let fig6_rows = vec![fig6::Row {
            app: "DCT",
            throttle_size: SimDuration::from_micros(19),
            scheduler: SchedulerKind::Direct,
            app_slowdown: 1.2,
            throttle_slowdown: 2.4,
            efficiency: 0.92,
        }];
        let rows = from_fig6(&fig6_rows);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].efficiency - 0.92).abs() < 1e-12);
        assert!(render(&rows).contains("0.92"));
    }
}
