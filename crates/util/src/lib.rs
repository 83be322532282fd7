//! # lisa-util
//!
//! Small dependency-free utilities shared across the workspace. The
//! container this repo builds in has no crates.io access, so anything
//! the system needs from the usual ecosystem crates (seeded randomness,
//! hashing) lives here instead.

#![forbid(unsafe_code)]

pub mod hash;
pub mod prng;
pub mod stats;

pub use hash::{fnv1a, Fnv1a};
pub use prng::Prng;
pub use stats::{lock_counted, CacheStats, LockStats};
