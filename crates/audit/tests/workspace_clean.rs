//! The live workspace must stay audit-clean: this is the same check the
//! blocking CI gate runs, wired into `cargo test` so a hazard (or an
//! undocumented knob) fails locally before it reaches CI.

use std::path::Path;

#[test]
fn live_workspace_is_audit_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let audit = cbs_audit::audit_workspace(&root).expect("scan workspace");
    assert!(
        audit.is_clean(),
        "cbs-audit findings:\n{}",
        cbs_audit::report::findings_text(&audit.findings)
    );
}
