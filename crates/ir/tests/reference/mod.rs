//! The IR text path before it wrote into one buffer and read in one pass,
//! kept as the oracle of `text_oracle.rs`; the CFG and the verifier before
//! they shared their control-flow facts, the oracle of `flow_oracle.rs`.

#![allow(dead_code)]

pub mod cfg;
pub mod dom;
pub mod print;
pub mod text;
pub mod verify;
