//! Two-phase dense tableau simplex with Bland's rule.

use crate::problem::{LinearProgram, LpError, Relation};
use crate::solution::Solution;

const EPS: f64 = 1e-9;

/// One row per constraint plus a working objective row, stored dense.
struct Tableau {
    /// `rows[i]` holds the constraint coefficients over all columns.
    rows: Vec<Vec<f64>>,
    /// Current right-hand side per row (always kept >= -EPS).
    rhs: Vec<f64>,
    /// Reduced-cost row for the phase currently being solved.
    cost: Vec<f64>,
    /// Objective-row constant (negated objective value).
    cost_rhs: f64,
    /// Column index of the basic variable for each row.
    basis: Vec<usize>,
    /// Columns that are artificial variables (never re-enter in phase 2).
    artificial: Vec<bool>,
}

impl Tableau {
    fn n_cols(&self) -> usize {
        self.cost.len()
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let scale = self.rows[row][col];
        debug_assert!(scale.abs() > EPS, "pivot on a (near-)zero element");
        for v in &mut self.rows[row] {
            *v /= scale;
        }
        self.rhs[row] /= scale;
        for r in 0..self.rows.len() {
            if r == row {
                continue;
            }
            let factor = self.rows[r][col];
            if factor.abs() > EPS {
                for c in 0..self.n_cols() {
                    let delta = factor * self.rows[row][c];
                    self.rows[r][c] -= delta;
                }
                self.rhs[r] -= factor * self.rhs[row];
            }
        }
        let factor = self.cost[col];
        if factor.abs() > EPS {
            for c in 0..self.n_cols() {
                let delta = factor * self.rows[row][c];
                self.cost[c] -= delta;
            }
            self.cost_rhs -= factor * self.rhs[row];
        }
        self.basis[row] = col;
    }

    /// Runs simplex iterations until optimality for a minimization problem.
    ///
    /// `allow` filters which columns may enter the basis.
    fn optimize(&mut self, allow: impl Fn(usize) -> bool) -> Result<(), LpError> {
        // Generous anti-runaway bound; Bland's rule already prevents cycling.
        let limit = 200 * (self.rows.len() + self.n_cols() + 10);
        for _ in 0..limit {
            // Bland: entering column = lowest index with negative reduced cost.
            let entering = (0..self.n_cols()).find(|&j| allow(j) && self.cost[j] < -EPS);
            let Some(col) = entering else {
                return Ok(());
            };
            // Ratio test; Bland tie-break on lowest basis column index.
            let mut best: Option<(usize, f64)> = None;
            for r in 0..self.rows.len() {
                let a = self.rows[r][col];
                if a > EPS {
                    let ratio = self.rhs[r] / a;
                    match best {
                        None => best = Some((r, ratio)),
                        Some((br, bratio)) => {
                            if ratio < bratio - EPS
                                || (ratio < bratio + EPS && self.basis[r] < self.basis[br])
                            {
                                best = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = best else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
        }
        Err(LpError::IterationLimit)
    }

    /// Installs a fresh cost row (for phase 2) and prices out basic columns.
    fn set_costs(&mut self, costs: &[f64]) {
        self.cost = costs.to_vec();
        self.cost_rhs = 0.0;
        for r in 0..self.rows.len() {
            let b = self.basis[r];
            let factor = self.cost[b];
            if factor.abs() > EPS {
                for c in 0..self.n_cols() {
                    let delta = factor * self.rows[r][c];
                    self.cost[c] -= delta;
                }
                self.cost_rhs -= factor * self.rhs[r];
            }
        }
    }
}

#[allow(clippy::needless_range_loop)] // several parallel arrays are indexed together
pub(crate) fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    let n = lp.n_vars();

    let mut rows: Vec<Vec<f64>> = lp.rows.clone();
    let mut relations = lp.relations.clone();
    let mut rhs = lp.rhs.clone();

    // Normalize to rhs >= 0.
    for i in 0..rows.len() {
        if rhs[i] < 0.0 {
            for v in &mut rows[i] {
                *v = -*v;
            }
            rhs[i] = -rhs[i];
            relations[i] = match relations[i] {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
    }

    let m = rows.len();
    // Column layout: [0..n) structural, then one slack/surplus per row that
    // needs one, then one artificial per row that needs one.
    let n_slack = relations
        .iter()
        .filter(|r| matches!(r, Relation::Le | Relation::Ge))
        .count();
    let n_art = relations
        .iter()
        .filter(|r| matches!(r, Relation::Ge | Relation::Eq))
        .count();
    let total = n + n_slack + n_art;

    let mut t = Tableau {
        rows: vec![vec![0.0; total]; m],
        rhs: rhs.clone(),
        cost: vec![0.0; total],
        cost_rhs: 0.0,
        basis: vec![usize::MAX; m],
        artificial: vec![false; total],
    };
    for (i, row) in rows.iter().enumerate() {
        t.rows[i][..n].copy_from_slice(row);
    }
    let mut slack_col = n;
    let mut art_col = n + n_slack;
    for i in 0..m {
        match relations[i] {
            Relation::Le => {
                t.rows[i][slack_col] = 1.0;
                t.basis[i] = slack_col;
                slack_col += 1;
            }
            Relation::Ge => {
                t.rows[i][slack_col] = -1.0;
                slack_col += 1;
                t.rows[i][art_col] = 1.0;
                t.artificial[art_col] = true;
                t.basis[i] = art_col;
                art_col += 1;
            }
            Relation::Eq => {
                t.rows[i][art_col] = 1.0;
                t.artificial[art_col] = true;
                t.basis[i] = art_col;
                art_col += 1;
            }
        }
    }

    // Phase 1: minimize the sum of artificials.
    if n_art > 0 {
        let phase1: Vec<f64> = (0..total)
            .map(|j| if t.artificial[j] { 1.0 } else { 0.0 })
            .collect();
        t.set_costs(&phase1);
        t.optimize(|_| true)?;
        let phase1_value = -t.cost_rhs;
        if phase1_value > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Drive any residual basic artificials out of the basis.
        for r in 0..m {
            if t.artificial[t.basis[r]] {
                if let Some(col) =
                    (0..total).find(|&j| !t.artificial[j] && t.rows[r][j].abs() > EPS)
                {
                    t.pivot(r, col);
                }
                // Otherwise the row is redundant: the artificial stays basic
                // at value zero and, being excluded from entering columns,
                // never becomes positive again.
            }
        }
    }

    // Phase 2: the real objective.
    let mut phase2 = vec![0.0; total];
    phase2[..n].copy_from_slice(&lp.objective);
    t.set_costs(&phase2);
    let artificial = t.artificial.clone();
    t.optimize(|j| !artificial[j])?;

    let mut x = vec![0.0; n];
    for r in 0..m {
        if t.basis[r] < n {
            x[t.basis[r]] = t.rhs[r].max(0.0);
        }
    }
    let objective: f64 = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    Ok(Solution::new(x, objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization() {
        // maximize 3x + 5y, as minimizing its negation.
        let mut lp = LinearProgram::minimize(vec![-3.0, -5.0]);
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 4.0);
        lp.add_constraint(vec![0.0, 2.0], Relation::Le, 12.0);
        lp.add_constraint(vec![3.0, 2.0], Relation::Le, 18.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective(), -36.0);
        assert_close(s.value(0), 2.0);
        assert_close(s.value(1), 6.0);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // minimize 0.12x + 0.15y s.t. 60x+60y >= 300, 12x+6y >= 36, 10x+30y >= 90
        let mut lp = LinearProgram::minimize(vec![0.12, 0.15]);
        lp.add_constraint(vec![60.0, 60.0], Relation::Ge, 300.0);
        lp.add_constraint(vec![12.0, 6.0], Relation::Ge, 36.0);
        lp.add_constraint(vec![10.0, 30.0], Relation::Ge, 90.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective(), 0.66);
        assert_close(s.value(0), 3.0);
        assert_close(s.value(1), 2.0);
    }

    #[test]
    fn equality_constraints() {
        // minimize x + y s.t. x + y = 10, x - y = 2  → x=6, y=4.
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Eq, 10.0);
        lp.add_constraint(vec![1.0, -1.0], Relation::Eq, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective(), 10.0);
        assert_close(s.value(0), 6.0);
        assert_close(s.value(1), 4.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.add_constraint(vec![1.0], Relation::Ge, 5.0);
        lp.add_constraint(vec![1.0], Relation::Le, 3.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::minimize(vec![-1.0, 0.0]);
        lp.add_constraint(vec![0.0, 1.0], Relation::Le, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x >= 0, -x <= -2  ⇔  x >= 2; minimize x → 2.
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.add_constraint(vec![-1.0], Relation::Le, -2.0);
        let s = lp.solve().unwrap();
        assert_close(s.value(0), 2.0);
    }

    #[test]
    fn upper_bounds_respected() {
        // maximize x + y with x <= 3, y <= 4.5 as explicit rows.
        let mut lp = LinearProgram::minimize(vec![-1.0, -1.0]);
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 3.0);
        lp.add_constraint(vec![0.0, 1.0], Relation::Le, 4.5);
        let s = lp.solve().unwrap();
        assert_close(s.objective(), -7.5);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate vertex: multiple constraints meet at the optimum.
        let mut lp = LinearProgram::minimize(vec![-2.0, -3.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Le, 4.0);
        lp.add_constraint(vec![1.0, 1.0], Relation::Le, 4.0);
        lp.add_constraint(vec![1.0, 2.0], Relation::Le, 6.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective(), -10.0);
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Eq, 4.0);
        lp.add_constraint(vec![2.0, 2.0], Relation::Eq, 8.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective(), 4.0);
    }

    #[test]
    fn zero_objective_returns_feasible_point() {
        let mut lp = LinearProgram::minimize(vec![0.0, 0.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Ge, 2.0);
        let s = lp.solve().unwrap();
        assert!(s.value(0) + s.value(1) >= 2.0 - 1e-7);
        assert_close(s.objective(), 0.0);
    }

    #[test]
    fn battery_dispatch_shape() {
        // A miniature of the dispatch LP the scheduler crate builds:
        // 3 hours, deficit d = [2, 0, 3], battery can discharge b_h <= soc
        // carried; minimize unmet = sum(d_h - b_h), i.e. maximize sum(b),
        // with b_h <= d_h, sum(b) <= 4 (energy), b_h <= 2.5 (power).
        let mut lp = LinearProgram::minimize(vec![-1.0, -1.0, -1.0]);
        lp.add_constraint(vec![1.0, 1.0, 1.0], Relation::Le, 4.0);
        lp.add_constraint(vec![1.0, 0.0, 0.0], Relation::Le, 2.0);
        lp.add_constraint(vec![0.0, 1.0, 0.0], Relation::Le, 0.0);
        lp.add_constraint(vec![0.0, 0.0, 1.0], Relation::Le, 2.5);
        let s = lp.solve().unwrap();
        assert_close(s.objective(), -4.0);
        assert!(s.value(1).abs() < 1e-9);
    }
}
