//! Property-based tests for the simplex solver.

use ce_lp::{LinearProgram, Relation};
use proptest::prelude::*;

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
}

/// The coefficient row of `x_i` alone, for an upper bound `x_i <= u`.
fn unit_row(n: usize, i: usize) -> Vec<f64> {
    let mut row = vec![0.0; n];
    row[i] = 1.0;
    row
}

proptest! {
    /// maximize Σ c_i x_i subject to x_i <= u_i with c, u >= 0 has the
    /// closed-form optimum Σ c_i u_i (here: minimize the negation).
    #[test]
    fn box_constrained_max_has_closed_form(
        params in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..6)
    ) {
        let n = params.len();
        let mut lp = LinearProgram::minimize(params.iter().map(|(c, _)| -c).collect());
        for (i, &(_, u)) in params.iter().enumerate() {
            lp.add_constraint(unit_row(n, i), Relation::Le, u);
        }
        let s = lp.solve().unwrap();
        let expected: f64 = params.iter().map(|(c, u)| c * u).sum();
        assert_close(-s.objective(), expected, 1e-6 * (1.0 + expected.abs()));
    }

    /// minimize Σ c_i x_i with c >= 0 and only Le constraints is 0 at x = 0.
    #[test]
    fn nonnegative_min_over_le_constraints_is_zero(
        c in prop::collection::vec(0.0f64..5.0, 1..5),
        rows in prop::collection::vec(
            (prop::collection::vec(-3.0f64..3.0, 4), 0.1f64..10.0), 0..4)
    ) {
        let n = c.len();
        let mut lp = LinearProgram::minimize(c);
        for (coeffs, rhs) in rows {
            lp.add_constraint(coeffs[..n].to_vec(), Relation::Le, rhs);
        }
        let s = lp.solve().unwrap();
        assert_close(s.objective(), 0.0, 1e-7);
        for &v in s.values() {
            assert!(v >= -1e-9);
        }
    }

    /// Whatever the solver returns satisfies every constraint it was given.
    #[test]
    fn solutions_are_feasible(
        n in 1usize..4,
        raw_rows in prop::collection::vec(
            (prop::collection::vec(0.0f64..4.0, 4), 1.0f64..20.0), 1..5),
        obj in prop::collection::vec(-3.0f64..3.0, 4)
    ) {
        // Nonnegative coefficients + positive rhs guarantees feasibility
        // (x = 0 works) and upper-bound rows keep the problem bounded.
        let mut lp = LinearProgram::minimize(obj[..n].iter().map(|c| -c).collect());
        let mut stored = Vec::new();
        for (coeffs, rhs) in &raw_rows {
            let row = coeffs[..n].to_vec();
            lp.add_constraint(row.clone(), Relation::Le, *rhs);
            stored.push((row, *rhs));
        }
        for i in 0..n {
            lp.add_constraint(unit_row(n, i), Relation::Le, 50.0);
        }
        let s = lp.solve().unwrap();
        for (row, rhs) in stored {
            let lhs: f64 = row.iter().zip(s.values()).map(|(a, x)| a * x).sum();
            assert!(lhs <= rhs + 1e-6, "constraint violated: {lhs} > {rhs}");
        }
        for &v in s.values() {
            assert!((-1e-9..=50.0 + 1e-6).contains(&v));
        }
    }

    /// Adding a constraint can never improve the objective.
    #[test]
    fn extra_constraint_never_improves_objective(
        c in prop::collection::vec(0.1f64..5.0, 2..4),
        cut in 0.5f64..5.0
    ) {
        let n = c.len();
        let mut lp = LinearProgram::minimize(c.iter().map(|c| -c).collect());
        for i in 0..n {
            lp.add_constraint(unit_row(n, i), Relation::Le, 10.0);
        }
        let base = lp.solve().unwrap().objective();
        lp.add_constraint(vec![1.0; n], Relation::Le, cut);
        let constrained = lp.solve().unwrap().objective();
        assert!(constrained >= base - 1e-6);
    }
}
