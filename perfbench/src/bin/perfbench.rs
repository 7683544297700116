//! The untraced benchmark binary: end-to-end metrics only.

fn main() -> std::process::ExitCode {
    perfbench::main_with(false)
}
