//! A dense two-phase primal simplex solver.
//!
//! Carbon Explorer's reference implementation leans on off-the-shelf LP
//! tooling for optimal-dispatch baselines; the Rust ecosystem's equivalent
//! is thin, so this crate implements a small, dependency-free solver that is
//! more than adequate for the day-scale scheduling and battery-dispatch
//! problems the framework poses (tens of variables, tens of constraints).
//!
//! The solver handles:
//!
//! - minimization objectives (maximize by negating the objective),
//! - `<=`, `>=`, and `=` constraints with arbitrary-sign right-hand sides
//!   (variables are non-negative by convention; an upper bound is a `<=`
//!   row),
//! - infeasibility and unboundedness detection,
//! - Bland's anti-cycling pivot rule.
//!
//! # Example
//!
//! ```
//! use ce_lp::{LinearProgram, Relation};
//!
//! // maximize 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18,
//! // as minimizing -3x - 5y
//! let mut lp = LinearProgram::minimize(vec![-3.0, -5.0]);
//! lp.add_constraint(vec![1.0, 0.0], Relation::Le, 4.0);
//! lp.add_constraint(vec![0.0, 2.0], Relation::Le, 12.0);
//! lp.add_constraint(vec![3.0, 2.0], Relation::Le, 18.0);
//! let solution = lp.solve().expect("bounded and feasible");
//! assert!((solution.objective() + 36.0).abs() < 1e-9);
//! assert!((solution.value(0) - 2.0).abs() < 1e-9);
//! assert!((solution.value(1) - 6.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod problem;
mod simplex;
mod solution;

pub use problem::{LinearProgram, LpError, Relation};
pub use solution::Solution;
