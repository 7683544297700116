// Keeps the public surface live for dead-pub-api: examples are
// callers, tests are not.

use ce_core::Progress;

fn main() {
    let p = Progress::default();
    p.step();
}
