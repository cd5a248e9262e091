//! # cbs-dft
//!
//! Real-space pseudopotential Kohn-Sham substrate — the stand-in for the
//! RSPACE DFT code that produced the paper's Hamiltonians (the `atoms`
//! module states what is substituted).
//!
//! The crate provides
//!
//! * [`Element`] / [`Atom`] / [`AtomicStructure`] — atoms and unit cells,
//! * structure generators for the paper's systems (bulk Al(100), (6,6) and
//!   (8,0) carbon nanotubes, BN-doped supercells, nanotube bundles),
//! * the empirical pseudopotential (Gaussian local part + separable
//!   Kleinman-Bylander s/p projectors),
//! * [`BlockHamiltonian`] — the periodic blocks `H₀₀`, `H₀₁` written once,
//!   as one real stencil (`cbs_sparse::RealStencil`) that every solve reads
//!   in place, with their complex CSR forms built on request,
//! * conventional band structures and Fermi-level estimation
//!   ([`band_structure`], [`fermi_energy`]) used as the reference in the
//!   paper's Figure 6.

#![warn(missing_docs)]

pub mod atoms;
pub mod bands;
pub mod hamiltonian;
pub mod pseudopotential;
pub mod structures;

pub use atoms::{Atom, AtomicStructure, Element, KbChannel, PseudoParams};
pub use bands::{band_structure, fermi_energy, BandStructure};
pub use hamiltonian::{grid_for_structure, BlockHamiltonian, BlockOp, HamiltonianParams};
pub use structures::{
    bn_dope, bulk_al_100, bundle7, carbon_nanotube, crystalline_bundle, supercell_z,
    BOHR_PER_ANGSTROM,
};
