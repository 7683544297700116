#[test]
fn integration_tested_only_halves() {
    assert_eq!(ce_lib::integration_tested_only(4.0), 2.0);
}
