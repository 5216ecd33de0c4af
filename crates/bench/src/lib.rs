//! Criterion benches over the simulation substrate (see benches/).
