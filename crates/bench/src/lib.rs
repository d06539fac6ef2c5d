//! Shared helpers for FARM benchmarks (see benches/) and the
//! integration tests.

pub mod json;
