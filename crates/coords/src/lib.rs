//! Network coordinates: the *vector* dimensions of a cost space.
//!
//! The paper builds its latency dimensions on decentralized network
//! coordinates: "Vector costs \[can\] be calculated in a distributed and
//! iterative nature by constantly refining the coordinates and correcting
//! for network dynamism \[17\]" — citation \[17\] is Vivaldi (Dabek et al.,
//! SIGCOMM 2004), which this crate implements.
//!
//! * [`vivaldi`] — the Vivaldi algorithm: each node keeps a coordinate and a
//!   confidence weight, and nudges its coordinate after every latency sample
//!   so that Euclidean distance approximates measured latency.
//! * [`error`] — embedding-error metrics (the paper's argument depends on
//!   the embedding error being "slight" \[16\]).

#![forbid(unsafe_code)]

pub mod error;
pub mod vivaldi;

pub use error::{relative_errors, EmbeddingErrorReport};
pub use vivaldi::{LandmarkPlacer, VivaldiConfig, VivaldiEmbedding, VivaldiNode};
