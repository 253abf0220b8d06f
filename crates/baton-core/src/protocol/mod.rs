//! Protocol implementations, one module per mechanism of the paper.
//!
//! Each module extends [`crate::BatonSystem`] with an `impl` block:
//!
//! * [`join`] — node join, Algorithm 1 and the routing-table construction of
//!   §III-A.
//! * [`leave`] — node departure, Algorithm 2 (FINDREPLACEMENT) and the
//!   direct leaf departure of §III-B.
//! * [`failure`] — failure detection and recovery, §III-C.
//! * [`search`] — exact-match and range queries, §IV-A/B.
//! * [`data`] — insertion and deletion, including leftmost/rightmost range
//!   expansion, §IV-C.
//! * [`restructure`] — AVL-rotation-like position shifting, §III-E.
//! * [`balance`] — load balancing by adjacent migration and leaf re-join,
//!   §IV-D.
//!
//! All modules follow the same rules: the overlay is only navigated through
//! links a node actually holds, every hop and notification is charged to the
//! operation's accounting scope, and structural changes keep the invariants
//! checked by [`crate::validate()`].

pub mod balance;
pub mod data;
pub mod failure;
pub mod join;
pub mod leave;
pub mod restructure;
pub mod search;
