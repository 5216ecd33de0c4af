//! Figure 10: efficiency of concurrent executions for nonsaturating
//! workloads.
//!
//! The efficiency projection of the Figure 9 sweep, including the
//! direct-access column. At an 80 % Throttle off ratio the paper
//! reports losses relative to direct access of 36 % (Timeslice), 34 %
//! (Disengaged Timeslice) and essentially 0 % (Disengaged Fair
//! Queueing).
//!
//! The runs are shared with Figure 9, which rides `neon-scenario`'s
//! parallel sweep runner — so this projection is parallel (and
//! serial-equivalence-tested) by construction.

use neon_core::sched::SchedulerKind;
use neon_metrics::Table;

use crate::fig9;

/// One efficiency cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Throttle's off ratio.
    pub off_ratio: f64,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Concurrency efficiency.
    pub efficiency: f64,
    /// Loss relative to direct access at the same off ratio (present
    /// when the sweep includes the direct column).
    pub loss_vs_direct: Option<f64>,
}

/// Projects efficiency rows out of Figure 9 rows.
pub fn from_fig9(rows: &[fig9::Row]) -> Vec<Row> {
    rows.iter()
        .map(|r| {
            let direct = rows
                .iter()
                .find(|d| {
                    d.scheduler == SchedulerKind::Direct && (d.off_ratio - r.off_ratio).abs() < 1e-9
                })
                .map(|d| d.efficiency);
            let loss_vs_direct = direct.map(|d| {
                if d <= 0.0 {
                    0.0
                } else {
                    ((d - r.efficiency) / d).max(0.0)
                }
            });
            Row {
                off_ratio: r.off_ratio,
                scheduler: r.scheduler,
                efficiency: r.efficiency,
                loss_vs_direct,
            }
        })
        .collect()
}

/// Renders the efficiency table.
pub fn render(rows: &[Row]) -> String {
    let mut table = Table::new(vec![
        "off ratio".into(),
        "scheduler".into(),
        "efficiency".into(),
        "loss vs direct".into(),
    ]);
    for r in rows {
        table.row(vec![
            format!("{:.0}%", r.off_ratio * 100.0),
            r.scheduler.label().into(),
            format!("{:.2}", r.efficiency),
            r.loss_vs_direct
                .map(|l| format!("{:.0}%", l * 100.0))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_projection_is_relative_to_direct() {
        let fig9_rows = vec![
            fig9::Row {
                off_ratio: 0.8,
                scheduler: SchedulerKind::Direct,
                dct_slowdown: 1.2,
                throttle_slowdown: 1.0,
                efficiency: 1.8,
            },
            fig9::Row {
                off_ratio: 0.8,
                scheduler: SchedulerKind::Timeslice,
                dct_slowdown: 2.4,
                throttle_slowdown: 2.0,
                efficiency: 0.9,
            },
        ];
        let rows = from_fig9(&fig9_rows);
        let ts = rows
            .iter()
            .find(|r| r.scheduler == SchedulerKind::Timeslice)
            .unwrap();
        assert!((ts.loss_vs_direct.unwrap() - 0.5).abs() < 1e-9);
        let direct = rows
            .iter()
            .find(|r| r.scheduler == SchedulerKind::Direct)
            .unwrap();
        assert_eq!(direct.loss_vs_direct, Some(0.0));
    }
}
