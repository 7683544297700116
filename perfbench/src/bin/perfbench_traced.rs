//! The traced benchmark binary: the same program with a counting global
//! allocator, for the `--trace 1` per-layer run.

#[global_allocator]
static ALLOCATOR: perfbench::trace::CountingAlloc = perfbench::trace::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}
