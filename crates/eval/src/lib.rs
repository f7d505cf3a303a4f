//! Evaluation harness for the EA-DRL reproduction.
//!
//! Implements the statistical machinery of the paper's §III:
//!
//! * [`special`] — log-gamma, regularized incomplete beta, Student-t CDF
//!   (the numerical substrate for the Bayesian tests),
//! * [`bayes`] — the **Bayesian correlated t-test** for comparing a pair
//!   of methods on a single dataset and the **Bayes sign test** for
//!   comparing a pair of methods across multiple datasets (Benavoli,
//!   Corani, Demšar & Zaffalon, JMLR 2017),
//! * [`friedman`] — the **Friedman test** with the Iman–Davenport
//!   correction and the **Nemenyi critical difference** (Demšar, JMLR
//!   2006 — reference \[43\] of the paper),
//! * [`ranks`] — per-dataset rank assignment with tie averaging and the
//!   mean ± std rank distribution reported in Table II,
//! * [`report`] — win/loss tabulation with 95 % significance counting and
//!   ASCII table rendering of the paper's tables.
#![forbid(unsafe_code)]

pub mod bayes;
pub mod friedman;
pub mod ranks;
pub mod report;
pub mod special;

pub use bayes::{bayes_sign_test, correlated_t_test, Posterior};
pub use friedman::{friedman_test, nemenyi_critical_difference, FriedmanResult};
pub use ranks::{average_ranks, rank_with_ties, RankSummary};
pub use report::{pairwise_table, render_table, PairwiseRow};
