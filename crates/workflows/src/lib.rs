//! # wrm-workflows — the paper's four case studies
//!
//! Executable models of the workflows evaluated in the paper (§IV),
//! each exposing:
//!
//! * a simulation spec (`wrm_sim::WorkflowSpec`) built from the artifact
//!   appendix's analytical inputs,
//! * a ready-to-run `wrm_sim::Scenario` on the right machine preset,
//! * the `wrm_core::WorkflowCharacterization` that puts it on the
//!   roofline,
//! * the workflow skeleton as a `wrm_dag::Dag`.
//!
//! | workflow | bound by | paper figures |
//! |---|---|---|
//! | [`lcls::Lcls`] | system-external bandwidth | Figs. 4–6 |
//! | [`bgw::Bgw`] | node FLOPS | Fig. 7 |
//! | [`cosmoflow::CosmoFlow`] | node HBM | Fig. 8 |
//! | [`gptune::GpTune`] | control flow | Figs. 9–10 |
//!
//! [`table1`] reproduces Table I (characterization sources) and
//! [`example::fig1_characterization`] the illustrative Fig. 1 model.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bgw;
pub mod cosmoflow;
pub mod example;
pub mod gptune;
pub mod lcls;
pub mod table1;

pub use bgw::Bgw;
pub use cosmoflow::CosmoFlow;
pub use gptune::{GpTune, Mode};
pub use lcls::{Day, Lcls};
