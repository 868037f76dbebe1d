//! # xdrop-pipelines
//!
//! Single-node reimplementations of the two distributed pipelines
//! the paper integrates into (§2.3, §2.4, §5.3):
//!
//! * **ELBA-mini** ([`elba`]) — long-read overlap and assembly:
//!   k-mer counting, a |sequences|×|k-mers| sparse matrix `A`,
//!   overlap detection as the sparse product `A Aᵀ`, X-Drop
//!   alignment of every overlap candidate, transitive reduction of
//!   the resulting string graph, and greedy contig extraction.
//! * **PASTIS-mini** ([`pastis`]) — protein homology search:
//!   substitute k-mers (quasi-exact seeds scored with BLOSUM62, the
//!   `A S Aᵀ` of the paper), X-Drop alignment with `X = 49`, gap
//!   −2, and connected-component clustering of the similarity
//!   graph.
//!
//! Substrates built for them:
//!
//! * [`spmat`] — a CSR sparse matrix with transpose and a generic
//!   row-wise SpGEMM (the CombBLAS role).
//! * [`kmer`] — rolling packed k-mer extraction, sort-based counting
//!   with reliable-range filtering, and the inverted BLOSUM62
//!   substitute-k-mer index (one probe per sequence k-mer).
//! * [`overlap`] — overlap detection: `A Aᵀ` over the k-mer matrix,
//!   with the ≥ 2 shared seeds requirement both pipelines use.

pub mod elba;
pub mod kmer;
pub mod overlap;
pub mod pastis;
pub mod spmat;

pub use elba::{ElbaConfig, ElbaRun};
pub use overlap::OverlapConfig;
pub use pastis::{PastisConfig, PastisRun};
