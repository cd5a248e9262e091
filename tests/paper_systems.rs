//! The shared harness of the paper-figure examples builds its systems.

#[path = "../examples/paper/mod.rs"]
mod paper;

#[test]
fn al_system_builds() {
    let sys = paper::al100();
    assert_eq!(sys.structure.natoms(), 4);
    assert!(sys.hamiltonian.dim() > 0);
    assert!(sys.fermi.is_finite());
    assert!(sys.setup_seconds > 0.0);
}
