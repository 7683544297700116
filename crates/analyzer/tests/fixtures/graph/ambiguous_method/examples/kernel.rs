// Keeps the public surface live for dead-pub-api: examples are
// callers, tests are not.

fn main() {
    let _ = ce_hot::kernel;
    let _ = ce_hot::Costly;
}
