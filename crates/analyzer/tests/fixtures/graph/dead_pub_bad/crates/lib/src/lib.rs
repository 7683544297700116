pub use inner::reexported_only;

pub fn used_helper(x: f64) -> f64 {
    x + 1.0
}

pub fn forgotten_api(x: f64) -> f64 {
    x * 2.0
}

pub fn entrypoint(x: f64) -> f64 {
    used_helper(x)
}

// Called only from this file's own test module.
pub fn unit_tested_only(x: f64) -> f64 {
    x - 1.0
}

// Called only from `tests/api.rs`.
pub fn integration_tested_only(x: f64) -> f64 {
    x / 2.0
}

// Named only by its own `impl Default`.
pub struct SelfDefaulted {
    pub level: f64,
}

impl Default for SelfDefaulted {
    fn default() -> Self {
        SelfDefaulted { level: 1.0 }
    }
}

pub mod inner {
    // Named only by the `pub use` re-export above.
    pub fn reexported_only() -> u32 {
        7
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_tested_only_subtracts() {
        assert_eq!(unit_tested_only(3.0), 2.0);
    }
}
