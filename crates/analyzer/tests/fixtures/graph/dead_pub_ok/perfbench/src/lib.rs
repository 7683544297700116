// The repository benchmark builds outside the workspace against the
// library crates, so its code is a real caller of their public API.

pub fn run() -> f64 {
    ce_lib::forgotten_api(2.0) + ce_lib::entrypoint(1.0)
}
