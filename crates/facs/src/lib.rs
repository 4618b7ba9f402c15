//! FACS and FACS-P: fuzzy call-admission control for wireless cellular
//! networks.
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"A Fuzzy-based Call Admission Control Scheme for Wireless Cellular
//! Networks Considering Priority of On-going Connections"* (Mino, Barolli,
//! Durresi, Xhafa, Koyama — ICDCS Workshops 2009).  It implements:
//!
//! * **FLC1** ([`Flc1`]) — user Speed (`Sp`), user Angle (`An`) and a
//!   third input are mapped to a Correction value (`Cv`): the Service
//!   request (`Sr`) through the 63-rule FRB1 (Table 1 of the paper), or
//!   the user-to-station Distance (`Di`) through a reconstructed table.
//! * **FLC2** ([`Flc2`]) — `Cv`, the Request type (`Rq`) and the Counter
//!   state (`Cs`) are mapped to a soft Accept/Reject value (`A/R`) through
//!   the 27-rule FRB2 (Table 2).
//! * **The cascade** ([`Cascade`]) — one FLC1→FLC2 admission controller
//!   with two variants, which differ only in FLC1's third input and the
//!   counter state FLC2 sees:
//!   * **FACS-P** ([`FacsPController`]) — the proposed system: `Sr`, and
//!     the priority handling for on-going connections (the
//!     Differentiated-service classifier and the RTC/NRTC counters that
//!     inflate the counter state seen by new calls so that admitted — and
//!     in particular real-time — connections keep their QoS);
//!   * **FACS** ([`FacsController`]) — the authors' previous system (the
//!     comparison point of Figs. 7 and 10): `Di`, and the physical
//!     counter state.
//!
//! Both implement [`cellsim::AdmissionController`], so they plug directly
//! into the `cellsim` discrete-event simulator and can be compared
//! against the `scc` baseline.
//!
//! # Quick start
//!
//! ```
//! use cellsim::{SimConfig, Simulator};
//! use facs::FacsPController;
//!
//! let mut controller = FacsPController::paper_default();
//! let mut sim = Simulator::new(SimConfig::paper_default());
//! let report = sim.run_batch(&mut controller, 30);
//! println!("accepted {} of {} requests", report.accepted, report.offered);
//! assert!(report.accepted > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod controller;
pub mod flc1;
pub mod flc2;
pub mod frb1;
pub mod frb2;
pub mod params;
pub mod priority;

pub use controller::{Cascade, FacsConfig, FacsController, FacsPConfig, FacsPController, Variant};
pub use flc1::Flc1;
pub use flc2::{Flc2, Flc2Lut, LUT_DECISION_BAND, LUT_LINE_POINTS};
pub use params::PaperParams;
pub use priority::{DifferentiatedService, PriorityPolicy, RequestPriority};
