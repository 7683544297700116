//! Problem construction: objective and constraints.

use crate::simplex;
use crate::solution::Solution;
use std::fmt;

/// The sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `a · x <= b`
    Le,
    /// `a · x >= b`
    Ge,
    /// `a · x == b`
    Eq,
}

/// Errors produced while building or solving a linear program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LpError {
    /// A constraint's coefficient vector did not match the variable count.
    DimensionMismatch {
        /// Expected number of coefficients (the variable count).
        expected: usize,
        /// Number of coefficients supplied.
        found: usize,
    },
    /// No point satisfies all constraints.
    Infeasible,
    /// The objective can be improved without bound.
    Unbounded,
    /// The pivot-count safety limit was exceeded (numerical trouble).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "constraint has {found} coefficients, expected {expected}"
                )
            }
            Self::Infeasible => write!(f, "problem is infeasible"),
            Self::Unbounded => write!(f, "objective is unbounded"),
            Self::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// A linear program over non-negative variables.
///
/// Variables are indexed `0..n_vars` and constrained to `x_i >= 0`. See
/// the [crate docs](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    pub(crate) objective: Vec<f64>,
    pub(crate) rows: Vec<Vec<f64>>,
    pub(crate) relations: Vec<Relation>,
    pub(crate) rhs: Vec<f64>,
}

impl LinearProgram {
    /// Creates a minimization problem with the given objective coefficients
    /// (one per variable).
    pub fn minimize(objective: Vec<f64>) -> Self {
        Self {
            objective,
            rows: Vec::new(),
            relations: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn n_vars(&self) -> usize {
        self.objective.len()
    }

    /// Adds the constraint `coefficients · x  <relation>  rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coefficients.len() != self.n_vars()`; use
    /// [`LinearProgram::try_add_constraint`] for a checked version.
    pub fn add_constraint(&mut self, coefficients: Vec<f64>, relation: Relation, rhs: f64) {
        self.try_add_constraint(coefficients, relation, rhs)
            .expect("constraint dimension matches variable count");
    }

    /// Checked form of [`LinearProgram::add_constraint`].
    ///
    /// # Errors
    ///
    /// Returns [`LpError::DimensionMismatch`] if the coefficient count is
    /// wrong.
    pub fn try_add_constraint(
        &mut self,
        coefficients: Vec<f64>,
        relation: Relation,
        rhs: f64,
    ) -> Result<(), LpError> {
        if coefficients.len() != self.n_vars() {
            return Err(LpError::DimensionMismatch {
                expected: self.n_vars(),
                found: coefficients.len(),
            });
        }
        self.rows.push(coefficients);
        self.relations.push(relation);
        self.rhs.push(rhs);
        Ok(())
    }

    /// Solves the program.
    ///
    /// # Errors
    ///
    /// - [`LpError::Infeasible`] if no point satisfies the constraints,
    /// - [`LpError::Unbounded`] if the objective improves without bound,
    /// - [`LpError::IterationLimit`] on pathological numerical behaviour.
    pub fn solve(&self) -> Result<Solution, LpError> {
        simplex::solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_dimensions() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0, 1.0]);
        assert_eq!(lp.n_vars(), 3);
        lp.add_constraint(vec![1.0, 0.0, 0.0], Relation::Ge, 1.0);
        assert_eq!(lp.rows.len(), 1);
        assert!(lp.try_add_constraint(vec![1.0], Relation::Le, 1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "constraint dimension")]
    fn add_constraint_panics_on_bad_dimension() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0], Relation::Le, 1.0);
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(LpError::Infeasible.to_string(), "problem is infeasible");
        assert!(LpError::DimensionMismatch {
            expected: 2,
            found: 1
        }
        .to_string()
        .contains("expected 2"));
    }
}
