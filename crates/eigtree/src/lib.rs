//! # sg-eigtree — information-gathering trees and conversion machinery
//!
//! The data structures of the Shifting Gears paper (Bar-Noy, Dolev, Dwork
//! & Strong, Inf. & Comp. 97, 1992):
//!
//! * [`Shape`] / [`LabelTable`] / [`IgTree`] — the Information Gathering
//!   Tree *without repetitions* of §3 (Fig. 1), stored as flat per-level
//!   value vectors in a canonical order shared by every correct processor,
//!   with the order itself held once per process as a table of labels;
//! * [`RepTree`] — the three-level tree *with repetitions* of Algorithm C
//!   (§4.3), including leaf reordering;
//! * [`convert`] with [`Conversion::Resolve`] (recursive majority voting,
//!   §3) and [`Conversion::ResolvePrime`] (the `≥ t+1` unique-value rule
//!   with `⊥`, §4.2);
//! * [`discover_ig`] / [`discover_during_conversion`] — the Fault
//!   Discovery Rules of §3 and §4.2;
//! * [`FaultList`] — the lists `L_p`, backing the Fault Masking Rule;
//! * [`render_tree`] / [`tree_to_dot`] — Figure 1 reproduction (ASCII and Graphviz).
//!
//! # Examples
//!
//! Gather one round, convert, and read the preferred value:
//!
//! ```
//! use sg_eigtree::{convert, Conversion, IgTree, Res};
//! use sg_sim::{ProcessId, Value};
//!
//! let mut tree = IgTree::new(4, ProcessId(0));
//! tree.set_root(Value(1));
//! tree.append_level(|_parent, sender| {
//!     // P3 lies; P1 and P2 echo the truth.
//!     if sender == ProcessId(3) { Value(0) } else { Value(1) }
//! });
//! let converted = convert(&tree, Conversion::Resolve);
//! assert_eq!(converted.root(), Res::Val(Value(1)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod discovery;
mod fault_list;
mod render;
mod rep_tree;
mod resolve;
mod shape;
mod tree;

pub use discovery::{discover_during_conversion, discover_ig, DiscoveryReport};
pub use fault_list::FaultList;
pub use render::{render_tree, tree_to_dot};
pub use rep_tree::RepTree;
pub use resolve::{convert, convert_node, strict_majority, Conversion, Converted, Res};
pub use shape::{LabelTable, Shape};
pub use tree::IgTree;
