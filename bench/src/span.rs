//! Spans of the traced run: one record per layer boundary, kept in
//! memory and written out when the run ends.
//!
//! A span is `{id, parent, cell, name, start_ns, end_ns, count}` on the
//! run's clock. Spans of one cell (or cache pass, or served request)
//! share its `cell` id. Boundaries crossed up to a million times per
//! cell — scheduler passes, predictor calls — are *folded*: one record
//! per (cell, layer) whose `count`, `busy_ns` and `max_ns` summarize the
//! calls, so memory stays bounded by the number of cells.

use std::time::Instant;

use serde::Value;

/// Calls into one layer from one cell, folded into a single record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fold {
    pub count: u64,
    pub busy_ns: u64,
    pub max_ns: u64,
    pub first_start_ns: u64,
    pub last_end_ns: u64,
}

impl Fold {
    /// Folds one call that ran from `t0` to `t1` on the clock started at
    /// `epoch`.
    #[inline]
    pub fn record(&mut self, epoch: Instant, t0: Instant, t1: Instant) {
        let ns = t1.duration_since(t0).as_nanos() as u64;
        if self.count == 0 {
            self.first_start_ns = t0.duration_since(epoch).as_nanos() as u64;
        }
        self.count += 1;
        self.busy_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.last_end_ns = t1.duration_since(epoch).as_nanos() as u64;
    }
}

/// One span record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for a cell's root.
    pub parent: Option<u32>,
    /// Shared by every span of one cell / pass / request.
    pub cell: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this record (1 for a plain span).
    pub count: u64,
    /// Time inside the layer: `end_ns - start_ns` for a plain span, the
    /// sum over calls for a folded one.
    pub busy_ns: u64,
    /// Longest single call.
    pub max_ns: u64,
}

/// The run's span store.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    cells: u32,
}

impl Spans {
    /// Opens a new cell and returns its shared id.
    pub fn new_cell(&mut self) -> u32 {
        self.cells += 1;
        self.cells - 1
    }

    /// Records a plain span and returns its id.
    pub fn push(
        &mut self,
        cell: u32,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let busy = end_ns.saturating_sub(start_ns);
        self.push_span(cell, parent, name, start_ns, end_ns, 1, busy, busy)
    }

    /// Records a folded layer under `parent`; layers never entered leave
    /// no record.
    pub fn push_fold(&mut self, cell: u32, parent: u32, name: &'static str, fold: &Fold) {
        if fold.count > 0 {
            self.push_span(
                cell,
                Some(parent),
                name,
                fold.first_start_ns,
                fold.last_end_ns,
                fold.count,
                fold.busy_ns,
                fold.max_ns,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &mut self,
        cell: u32,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
        busy_ns: u64,
        max_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            cell,
            name,
            start_ns,
            end_ns,
            count,
            busy_ns,
            max_ns,
        });
        id
    }

    pub fn count(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its busy time minus the part its child
    /// spans cover (a folded child covers its summed call time).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.busy_ns);
            }
        }
        own
    }

    /// The worst relative gap, over all cells, between a cell's root
    /// span and the sum of the self times of its spans. Zero when every
    /// child lies inside its parent; a child outliving its parent (clock
    /// trouble, a decorator bug) shows here.
    pub fn worst_self_sum_gap(&self) -> f64 {
        let own = self.self_times_ns();
        let mut sums = vec![0u64; self.cells as usize];
        let mut roots = vec![0u64; self.cells as usize];
        for (span, own_ns) in self.spans.iter().zip(&own) {
            sums[span.cell as usize] += own_ns;
            if span.parent.is_none() {
                roots[span.cell as usize] += span.busy_ns;
            }
        }
        sums.iter()
            .zip(&roots)
            .filter(|(_, &root)| root > 0)
            .map(|(&sum, &root)| (sum as f64 - root as f64).abs() / root as f64)
            .fold(0.0, f64::max)
    }

    /// The spans as a JSON array, in recording order.
    pub fn to_value(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        ("id".into(), Value::UInt(u64::from(s.id))),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p))),
                        ),
                        ("cell".into(), Value::UInt(u64::from(s.cell))),
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                        ("count".into(), Value::UInt(s.count)),
                        ("busy_ns".into(), Value::UInt(s.busy_ns)),
                        ("max_ns".into(), Value::UInt(s.max_ns)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_busy_minus_child_cover() {
        let mut spans = Spans::default();
        let cell = spans.new_cell();
        let root = spans.push(cell, None, "cell", 0, 1_000);
        let sim = spans.push(cell, Some(root), "sim.simulate", 100, 900);
        // 40 scheduler passes totalling 500 ns somewhere inside simulate.
        let fold = Fold {
            count: 40,
            busy_ns: 500,
            max_ns: 30,
            first_start_ns: 120,
            last_end_ns: 880,
        };
        spans.push_fold(cell, sim, "sim.scheduler", &fold);
        spans.push_fold(cell, sim, "core.predict", &Fold::default());
        spans.push(cell, Some(root), "metrics.fold", 900, 950);
        assert_eq!(spans.count(), 4, "a layer never entered leaves no span");
        // cell: 1000 - 800 - 50; simulate: 800 - 500; the leaves keep all.
        assert_eq!(spans.self_times_ns(), vec![150, 300, 500, 50]);
        assert_eq!(spans.worst_self_sum_gap(), 0.0);
    }

    #[test]
    fn a_child_outliving_its_parent_shows_as_a_gap() {
        let mut spans = Spans::default();
        let cell = spans.new_cell();
        let root = spans.push(cell, None, "cell", 0, 100);
        spans.push(cell, Some(root), "sim.simulate", 0, 150);
        // Self times: 0 (saturated) + 150 against a 100 ns root.
        assert!((spans.worst_self_sum_gap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fold_accumulates_count_total_and_max() {
        let epoch = Instant::now();
        let mut fold = Fold::default();
        let t0 = epoch + std::time::Duration::from_nanos(10);
        fold.record(epoch, t0, t0 + std::time::Duration::from_nanos(5));
        let t1 = epoch + std::time::Duration::from_nanos(40);
        fold.record(epoch, t1, t1 + std::time::Duration::from_nanos(20));
        assert_eq!(
            fold,
            Fold {
                count: 2,
                busy_ns: 25,
                max_ns: 20,
                first_start_ns: 10,
                last_end_ns: 60,
            }
        );
    }
}
