//! Experiment harness regenerating every measured table and figure of
//! *Independent Forward Progress of Work-groups* (ISCA 2020).
//!
//! Each `figXX`/`tableX` module produces a [`Report`] with the same rows
//! and series the paper plots; the `awg-repro` binary renders them as
//! Markdown tables and CSV files. See `EXPERIMENTS.md` at the repository
//! root for the paper-vs-measured record.
//!
//! # Example
//!
//! ```
//! use awg_harness::{table1, Scale};
//!
//! let report = table1::run(&Scale::quick());
//! assert!(report.to_markdown().contains("Compute Units"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod artifact;
pub mod bench;
pub mod chaos;
pub mod conformance;
pub mod exit;
pub mod fairness;
pub mod fig05;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig11;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod journal;
pub mod pool;
pub mod priority;
pub mod profile;
pub mod report;
pub mod run;
pub mod scale;
pub mod shrink;
pub mod supervisor;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod timeline;
pub mod tracefig;

pub use artifact::Artifact;
pub use journal::{JobStatus, Journal, JournalRecord, ResumeState};
pub use pool::{job, CampaignProfile, Job, JobOutput, Pool};
pub use report::{Cell, Report, Row};
pub use run::{
    geomean, run_experiment, run_instrumented, run_with_policy, run_with_policy_under_plan,
    ExpResult, ExperimentConfig, Instrumentation, DIGEST_WINDOW,
};
pub use scale::Scale;
pub use shrink::{shrink, still_hangs, ShrinkResult};
pub use supervisor::{job_digest, sim_job, JobCtl, JobLimits, SimJob, Supervisor};
