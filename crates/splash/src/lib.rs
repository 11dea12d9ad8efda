//! # bw-splash — SPLASH-2 kernel ports for BLOCKWATCH
//!
//! SPMD ports of the seven SPLASH-2 programs the paper evaluates
//! (Table IV), written in the [`bw_ir::frontend`] mini language. The ports
//! are *structural kernels*, not line-by-line translations: BLOCKWATCH
//! observes branch conditions and outcomes per thread, so what each port
//! preserves is the original's control-flow profile — which loops have
//! shared bounds, which phases are gated on the thread ID, which decisions
//! read per-thread partition tables, and which are data-dependent — so the
//! similarity-category mix (Table V) and the fault-coverage behaviour
//! (Figures 8–9) carry over.
//!
//! | Port | Dominant categories (paper) | Structural signature |
//! |------|------------------------------|----------------------|
//! | [`ocean_contig`] | 92 % partial | partition-table bounds everywhere |
//! | [`fft`] | balanced | shared stage loops + tid-staged phases |
//! | [`fmm`] | 51 % none | data-dependent multipole acceptance |
//! | [`ocean_noncontig`] | 24 % threadID | tid-keyed boundary/exchange phases |
//! | [`radix`] | balanced | shared digit loops, tid-staged prefix |
//! | [`raytrace`] | 51 % none, deep nests | function-pointer shaders, 7-deep loops |
//! | [`water`] | 33 % shared | whole-set pair loops, cutoff tests |
//!
//! # Examples
//!
//! ```
//! use bw_splash::{Benchmark, Size};
//!
//! let bench = Benchmark::Fft;
//! let module = bench.module(Size::Test)?;
//! assert_eq!(module.name, "fft");
//! # Ok::<(), bw_ir::frontend::FrontendError>(())
//! ```

#![warn(missing_docs)]

pub mod fft;
pub mod fmm;
pub mod ocean_contig;
pub mod ocean_noncontig;
pub mod radix;
pub mod raytrace;
mod size;
pub mod water;

pub use size::{Size, MAX_THREADS};

use bw_ir::frontend::FrontendError;
use bw_ir::Module;

/// The seven benchmark programs of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// ocean, contiguous partitions.
    OceanContig,
    /// FFT.
    Fft,
    /// FMM.
    Fmm,
    /// ocean, non-contiguous partitions.
    OceanNoncontig,
    /// radix sort.
    Radix,
    /// raytrace.
    Raytrace,
    /// water-nsquared.
    WaterNsquared,
}

impl Benchmark {
    /// All seven, in the paper's Table IV order.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::OceanContig,
        Benchmark::Fft,
        Benchmark::Fmm,
        Benchmark::OceanNoncontig,
        Benchmark::Radix,
        Benchmark::Raytrace,
        Benchmark::WaterNsquared,
    ];

    /// The paper's name for the program.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::OceanContig => "continuous ocean",
            Benchmark::Fft => "FFT",
            Benchmark::Fmm => "FMM",
            Benchmark::OceanNoncontig => "noncontinuous ocean",
            Benchmark::Radix => "radix",
            Benchmark::Raytrace => "raytrace",
            Benchmark::WaterNsquared => "water-nsquared",
        }
    }

    /// Mini-language source of the port at the given size.
    pub fn source(self, size: Size) -> String {
        match self {
            Benchmark::OceanContig => ocean_contig::source(size),
            Benchmark::Fft => fft::source(size),
            Benchmark::Fmm => fmm::source(size),
            Benchmark::OceanNoncontig => ocean_noncontig::source(size),
            Benchmark::Radix => radix::source(size),
            Benchmark::Raytrace => raytrace::source(size),
            Benchmark::WaterNsquared => water::source(size),
        }
    }

    /// Compiles the port to a verified IR module.
    ///
    /// # Errors
    ///
    /// Returns the front-end error if the (generated) source fails to
    /// compile — which would be a bug in this crate.
    pub fn module(self, size: Size) -> Result<Module, FrontendError> {
        bw_ir::frontend::compile(&self.source(size))
    }
}
