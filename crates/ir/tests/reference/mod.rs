//! The IR text path before it wrote into one buffer and read in one pass,
//! kept as the oracle of `text_oracle.rs`.

#![allow(dead_code)]

pub mod print;
pub mod text;
