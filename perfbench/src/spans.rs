//! In-memory spans of the traced replay and their self-time arithmetic.
//!
//! A span is one call into a layer: the request it served, the layer,
//! its start and end (ns since the replay began) and the span that made
//! the call. A layer's self time is its spans' durations minus the part
//! of each interval that child spans cover.

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Request id. A span that serves a whole commit batch carries the
    /// id of the batch's first request.
    pub req: u64,
    /// Layer index (see `replay::Layer`).
    pub layer: usize,
    /// Start, ns since the replay began.
    pub start: u64,
    /// End, ns since the replay began.
    pub end: u64,
    /// Index of the calling span in the span list; `None` for a root.
    pub parent: Option<usize>,
}

/// Length of `[start, end)` not covered by any of `children`. Children
/// are clipped to the interval, and overlapping children are counted
/// once, so the result never goes below zero.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(start), e.min(end));
        if s >= e {
            continue;
        }
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    end.saturating_sub(start) - covered
}

/// Self time summed per layer over `spans` (`layers` = number of layer
/// indices in use).
pub fn self_times_by_layer(spans: &[Span], layers: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = vec![0u64; layers];
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        out[s.layer] += self_time(s.start, s.end, kids);
    }
    out
}

/// Summed duration of the root spans: the replay's traced total.
pub fn roots_total(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum()
}

/// Check that per-layer self times add up to `total` within `tol` (a
/// share of `total`). They do exactly when every span lies inside its
/// parent and no two children of one span overlap; anything else means
/// the decomposition double-counts or drops time.
pub fn reconcile(layer_self: &[u64], total: u64, tol: f64) -> Result<(), String> {
    let sum: u64 = layer_self.iter().sum();
    let gap = sum.abs_diff(total) as f64;
    if gap <= tol * total as f64 {
        Ok(())
    } else {
        Err(format!(
            "layer self times sum to {sum} ns but the replay took {total} ns"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: usize, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            req: 0,
            layer,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time(0, 100, &mut []), 100);
        assert_eq!(self_time(0, 100, &mut [(10, 20), (30, 50)]), 70);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // [10,40) ∪ [30,60) ∪ [55,58) covers 50 ns of the parent.
        assert_eq!(self_time(0, 100, &mut [(30, 60), (10, 40), (55, 58)]), 50);
        // Identical children cover once.
        assert_eq!(self_time(0, 100, &mut [(0, 50), (0, 50)]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time(10, 20, &mut [(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &mut [(0, 5), (25, 30)]), 10);
        assert_eq!(self_time(10, 20, &mut [(0, 40)]), 0);
    }

    #[test]
    fn nested_self_times_sum_to_the_root() {
        // root [0,100) ← a [10,50) ← b [20,30); root ← c [60,90)
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 50, Some(0)),
            span(2, 20, 30, Some(1)),
            span(1, 60, 90, Some(0)),
        ];
        let by_layer = self_times_by_layer(&spans, 3);
        assert_eq!(by_layer, vec![30, 60, 10]);
        assert_eq!(roots_total(&spans), 100);
        assert!(reconcile(&by_layer, roots_total(&spans), 0.0).is_ok());
    }

    #[test]
    fn reconcile_flags_overlapping_siblings() {
        // Two siblings overlap by 10 ns: their self times count the
        // overlap twice, so the layers exceed the root by 10 ns.
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 50, Some(0)),
            span(2, 40, 60, Some(0)),
        ];
        let by_layer = self_times_by_layer(&spans, 3);
        assert_eq!(by_layer, vec![50, 40, 20]);
        assert!(reconcile(&by_layer, 100, 0.05).is_err());
        assert!(reconcile(&by_layer, 100, 0.10).is_ok());
    }
}
