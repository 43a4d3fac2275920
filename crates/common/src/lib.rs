//! # ats-common
//!
//! Shared substrate for the `adhoc-ts` workspace — the reproduction of
//! Korn, Jagadish & Faloutsos, *"Efficiently Supporting Ad Hoc Queries in
//! Large Datasets of Time Sequences"* (SIGMOD 1997).
//!
//! This crate contains the small, dependency-light building blocks that the
//! rest of the workspace leans on:
//!
//! - [`error`] — the workspace-wide error type [`AtsError`];
//! - [`hash`] — a seedable 64-bit mixing hash (used by the Bloom filter and
//!   the delta hash table);
//! - [`bloom`] — the Bloom filter of §4.2 / §6.2 of the paper;
//! - [`topk`] — a bounded "keep the γ largest" tracker, the priority queue
//!   of the 3-pass SVDD algorithm (Fig. 5);
//! - [`par`] — ordered fan-out of independent jobs over scoped threads,
//!   the one threading primitive every parallel pass goes through;
//! - [`stats`] — Welford online mean/variance and summary statistics used
//!   by the error metrics (RMSPE normalizes by the dataset's standard
//!   deviation, Def. 5.1);
//! - [`codec`] — little-endian byte codecs for the on-disk formats;
//! - [`testutil`] — unique, self-cleaning temp directories for tests that
//!   exercise the on-disk paths.

pub mod bloom;
pub mod codec;
pub mod error;
pub mod hash;
pub mod par;
pub mod stats;
pub mod testutil;
pub mod topk;

pub use bloom::BloomFilter;
pub use error::{AtsError, Result};
pub use stats::{OnlineStats, Summary};
pub use testutil::TestDir;
pub use topk::TopK;
