//! Helpers shared by the torture suites.

/// The points of `0..total` to sweep: all of them under
/// `BFU_TORTURE_FULL=1` (or when there are no more than `budget`), else a
/// deterministic stride subset of about `budget` points that always
/// includes the last one.
pub fn sweep_points(total: u64, budget: u64) -> Vec<u64> {
    let full = std::env::var("BFU_TORTURE_FULL").is_ok_and(|v| v == "1");
    if full || total <= budget {
        return (0..total).collect();
    }
    let stride = total.div_ceil(budget) as usize;
    let mut points: Vec<u64> = (0..total).step_by(stride).collect();
    if points.last() != Some(&(total - 1)) {
        points.push(total - 1);
    }
    points
}
